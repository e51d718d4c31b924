"""Preset reproduction experiments with pinned tolerances.

Each check function returns a CheckResult; the CLI ``paper-repro`` subcommand
prints one PASS/FAIL line per check and the acceptance test suite asserts
them. Tolerances here are the suite's contract, not tunables.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import bridge, critical, tangent, trace
from .driving import Constant, FromCallable, Lind, Sqrt
from .halfplane import (evolve_boundary, evolve_interior, ratio_limsup_check,
                        swallowed_interval)
from .holder import holder_exponent_fit, holder_sup_norm

# --- pinned tolerances -------------------------------------------------------
CLOSED_FORM_RTOL = 1e-8          # solver vs sqrt(z^2+4t)
LIND_TRAJ_ATOL = 1e-6            # x(t,2) vs 4-2*sqrt(1-t) on [0, 0.999]
LIND_TAU_ATOL = 1e-3             # swallowing time vs 1
SHARP_RATIO_RTOL = 1e-4          # phi(t) vs (c+sqrt(c^2+16))/2 on [1e-6, 1]
TANGENT_EXP_RANGE = (0.32, 0.345)
TANGENT_COEF_RTOL = 0.02         # driving coefficient vs (12 pi)^(1/3)
ENDPOINT_EXP_ATOL = 1e-3         # alpha, beta exponents vs 2/3, 1/3
SINGULAR_MATCH_RTOL = 0.01       # h-+ vs alpha/beta for t <= 1e-3
TRACE_CIRCLE_ATOL = 1e-2         # | |tip - i| - 1 |
BRIDGE_RESIDUAL_ATOL = 1e-6      # tan((alpha-u)/2) - (x-lambda)/2
BRIDGE_POINTWISE_ATOL = 1e-6     # converted u vs closed form
BRIDGE_NORM_ATOL = 0.01          # ||u||_{1/2} vs 4
Y_ZERO_ATOL = 1e-10              # y1, y2 vs 2, 2*sqrt(2)
Y50_FLOOR = 3.99
THRESHOLD_RANGE = (3.9, 4.1)
THRESHOLD_STEP = 0.05

# estimator windows where the asymptotic claims are measurable
# (t**(1/3)-order corrections contaminate wider windows)
TANGENT_FIT_WINDOW = (1e-12, 1e-6)
ENDPOINT_FIT_WINDOW = (1e-10, 1e-5)
SINGULAR_MATCH_GRID = np.geomspace(1e-5, 1e-3, 9)
TRACE_GRID = np.geomspace(1e-4, 0.02, 12)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    detail: str


def _result(criterion: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(criterion=criterion, passed=bool(passed), detail=detail)


def check_closed_form_interior() -> CheckResult:
    """Criterion 1: with lambda = 0, h(z,t) = sqrt(z^2 + 4t) at random points."""
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for t_end in (0.1, 0.5, 2.0):
        for _ in range(20):
            z0 = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3.0))
            if abs(z0.real) < 0.05:
                z0 += 0.1
            w = cmath.sqrt(z0 * z0 + 4 * t_end)
            if w.imag < 0:
                w = -w
            got = evolve_interior(Constant(0.0), z0, t_end, tol=1e-12).final_value
            worst = max(worst, abs(got - w) / abs(w))
    return _result("closed-form interior solve", worst <= CLOSED_FORM_RTOL,
                   f"max rel err {worst:.2e} (tol {CLOSED_FORM_RTOL:.0e})")


def check_lind_trajectory() -> CheckResult:
    """Criterion 2: x(t,2) = 4 - 2*sqrt(1-t) under lambda = 4 - 4*sqrt(1-t)."""
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-3, 300)[1:-1], [0.999]))
    traj = evolve_boundary(Lind(4.0), 2.0, 1.0, tol=1e-10, capture=grid)
    err = float(np.max(np.abs(traj.values_at(grid) - (4.0 - 2.0 * np.sqrt(1.0 - grid)))))
    tau_ok = traj.is_swallowed and abs(traj.swallowed_at - 1.0) <= LIND_TAU_ATOL
    ok = err <= LIND_TRAJ_ATOL and tau_ok
    tau_txt = f"{traj.swallowed_at:.6f}" if traj.is_swallowed else "none"
    return _result("Lind boundary trajectory", ok,
                   f"max |x - closed form| {err:.2e}, swallowed at {tau_txt}")


def check_sharp_ratio() -> CheckResult:
    """Criterion 3: h+/sqrt(t) = (c + sqrt(c^2+16))/2 for lambda = c*sqrt(t)."""
    grid = np.geomspace(1e-6, 1.0, 25)
    worst = 0.0
    for c in (0.0, 1.0, 4.0):
        diag = ratio_limsup_check(Sqrt(c), grid, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(diag.ratio / diag.bound - 1.0))))
    return _result("sharp growth-ratio bound", worst <= SHARP_RATIO_RTOL,
                   f"max rel dev {worst:.2e} over c in {{0, 1, 4}}")


def check_tangent_exponents() -> CheckResult:
    """Criterion 4: driving exponent/coefficient and endpoint exponents."""
    lo, hi = TANGENT_FIT_WINDOW
    ts = np.concatenate(([0.0], np.geomspace(lo, hi, 60)))
    lam = tangent.TangentTerm(1.0).values(ts)
    fit = holder_exponent_fit(ts, lam, window=TANGENT_FIT_WINDOW)
    ok = (TANGENT_EXP_RANGE[0] <= fit.exponent <= TANGENT_EXP_RANGE[1]
          and abs(fit.coefficient / tangent.BETA_LEADING - 1.0) <= TANGENT_COEF_RTOL)

    elo, ehi = ENDPOINT_FIT_WINDOW
    ets = np.geomspace(elo, ehi, 60)
    params = [tangent.solve_params(t) for t in ets]
    sa = np.polyfit(np.log(ets), np.log([-p.alpha for p in params]), 1)[0]
    sb = np.polyfit(np.log(ets), np.log([p.beta for p in params]), 1)[0]
    ok = ok and abs(sa - 2.0 / 3.0) <= ENDPOINT_EXP_ATOL and abs(sb - 1.0 / 3.0) <= ENDPOINT_EXP_ATOL
    return _result(
        "tangent-slit exponents", ok,
        f"lambda fit ({fit.exponent:.4f}, {fit.coefficient:.4f}); "
        f"alpha slope {sa:.5f}, beta slope {sb:.5f}")


def check_singular_interval_match() -> CheckResult:
    """Criterion 5: h-+ under the tangent driving term reproduce alpha, beta."""
    worst = 0.0
    for iv in swallowed_interval(tangent.TangentTerm(1.0), SINGULAR_MATCH_GRID, tol=1e-11):
        p = tangent.solve_params(iv.t)
        worst = max(worst, abs(iv.lower / p.alpha - 1.0), abs(iv.upper / p.beta - 1.0))
    return _result("singular interval vs prevertices", worst <= SINGULAR_MATCH_RTOL,
                   f"max rel dev {worst:.2e} on t in [1e-5, 1e-3]")


def check_trace_circle() -> CheckResult:
    """Criterion 6: reconstructed tips lie on the circle |z - i| = 1."""
    tips = trace.extract_trace(tangent.TangentTerm(1.0), TRACE_GRID, tol=1e-8)
    worst = max(abs(abs(tip - 1j) - 1.0) for _, tip in tips)
    return _result("tangent-slit trace circle", worst <= TRACE_CIRCLE_ATOL,
                   f"max | |tip-i| - 1 | = {worst:.2e}")


def _lind_u_closed_form(t: float) -> float:
    s = math.sqrt(max(1.0 - t, 0.0))
    return 4.0 - 2.0 * s - 2.0 * math.atan(s)


def check_bridge_identity() -> CheckResult:
    """Criterion 7: conversion residual, pointwise u, and ||u||_{1/2} = 4."""
    u_exact = FromCallable(_lind_u_closed_form, domain_end=1.0)
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-3, 220)[1:-1], [0.999]))
    residual = bridge.correspondence_residual(Lind(4.0), u_exact, 2.0, 2.0, grid)

    # grid reaches t = 1 so the conversion ends at the swallowing sample, where
    # u is within ~2e-6 of its limit 4; the norm's sup pairs anchor there
    conv_grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, 400)[1:], [1.0]))
    conv = bridge.halfplane_to_disk(Lind(4.0), 2.0, conv_grid, tol=1e-10)
    pointwise = float(np.max(np.abs(
        conv.term.table_values - np.array([_lind_u_closed_form(t) for t in conv.term.times]))))

    norm = holder_sup_norm(conv.term.times, conv.term.table_values, exponent=0.5)
    ok = (residual <= BRIDGE_RESIDUAL_ATOL and pointwise <= BRIDGE_POINTWISE_ATOL
          and abs(norm - 4.0) <= BRIDGE_NORM_ATOL)
    return _result("bridge correspondence", ok,
                   f"residual {residual:.2e}, pointwise {pointwise:.2e}, ||u|| = {norm:.5f}")


def check_y_recursion() -> CheckResult:
    """Criterion 8: y_1 = 2, y_2 = 2*sqrt(2), strict increase, y_50 > 3.99."""
    ys = critical.y_sequence(50)
    ok = (abs(ys[0] - 2.0) <= Y_ZERO_ATOL
          and abs(ys[1] - 2.0 * math.sqrt(2.0)) <= Y_ZERO_ATOL
          and bool(np.all(np.diff(ys) > 0))
          and ys[-1] > Y50_FLOOR)
    return _result("g-recursion zeros", ok,
                   f"y1 err {abs(ys[0]-2):.1e}, y2 err {abs(ys[1]-2*math.sqrt(2)):.1e}, "
                   f"y50 = {ys[-1]:.5f}")


def check_threshold_experiment() -> CheckResult:
    """Criterion 9: empirical collision threshold in [3.9, 4.1], monotone verdicts."""
    cs = critical.c_grid(3.5, 4.5, THRESHOLD_STEP)
    exp = critical.collision_threshold_experiment(cs)
    thr = exp.threshold
    ok = (thr is not None and THRESHOLD_RANGE[0] <= thr <= THRESHOLD_RANGE[1]
          and exp.is_monotone)
    return _result("collision threshold", ok,
                   f"threshold {thr}, monotone {exp.is_monotone}")


SECTION_CHECKS = {
    2: (check_tangent_exponents, check_trace_circle),
    3: (check_closed_form_interior, check_sharp_ratio, check_singular_interval_match),
    4: (check_lind_trajectory, check_bridge_identity, check_y_recursion,
        check_threshold_experiment),
}


def run_section(section: int) -> list[CheckResult]:
    if section not in SECTION_CHECKS:
        raise ValueError(f"unknown section {section!r} (choose from 2, 3, 4)")
    return [check() for check in SECTION_CHECKS[section]]
