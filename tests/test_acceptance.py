"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-9 run the pinned checks from loewner.repro (the same code behind
the ``paper-repro`` CLI subcommand). Criterion 10 runs the randomized property
suites with a fixed seed, >= 100 cases each.
"""

import cmath
import math

import numpy as np
import pytest

from loewner import Constant, FromCallable, Lind, Scaled, Sqrt, repro
from loewner.disk import evolve_disk_boundary, evolve_disk_interior
from loewner.halfplane import evolve_boundary, evolve_interior

CHECKS = {
    "criterion-01-closed-form-solver": repro.check_closed_form_interior,
    "criterion-02-lind-trajectory": repro.check_lind_trajectory,
    "criterion-03-sharpness": repro.check_sharp_ratio,
    "criterion-04-tangent-exponents": repro.check_tangent_exponents,
    "criterion-05-singular-interval": repro.check_singular_interval_match,
    "criterion-06-trace-circle": repro.check_trace_circle,
    "criterion-07-bridge-identity": repro.check_bridge_identity,
    "criterion-08-critical-recursion": repro.check_y_recursion,
    "criterion-09-threshold-experiment": repro.check_threshold_experiment,
}


@pytest.mark.parametrize("name", sorted(CHECKS), ids=sorted(CHECKS))
def test_acceptance_criterion(name):
    result = CHECKS[name]()
    print(f"\n[acceptance] {name}: {'PASS' if result.passed else 'FAIL'} ({result.detail})")
    assert result.passed, f"{name}: {result.detail}"


def _random_term(rng):
    kind = rng.integers(0, 3)
    c = float(rng.uniform(0.0, 3.0))
    if kind == 0:
        return Constant(c)
    if kind == 1:
        return Sqrt(c)
    return Lind(c)


def test_criterion_10_scaling_covariance():
    rng = np.random.default_rng(101)
    for _ in range(100):
        term = _random_term(rng)
        r = float(rng.uniform(0.5, 2.0))
        z0 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        t_end = float(rng.uniform(0.05, 0.8))
        base = evolve_interior(term, z0, t_end, tol=1e-10)
        scaled = evolve_interior(Scaled(term, r), r * z0, r * r * t_end, tol=1e-10)
        assert not base.is_swallowed and not scaled.is_swallowed
        assert abs(scaled.final_value - r * base.final_value) \
            <= 1e-6 * max(1.0, abs(base.final_value))
    print("\n[acceptance] criterion-10-scaling-covariance: PASS (100 cases)")


def test_criterion_10_ordering_preservation():
    rng = np.random.default_rng(102)
    for _ in range(100):
        term = _random_term(rng)
        lam0 = term.value(0.0)
        side = 1 if rng.uniform() < 0.5 else -1
        a = lam0 + side * float(rng.uniform(0.05, 1.0))
        b = a + side * float(rng.uniform(0.05, 1.0))
        x0, y0 = (a, b) if a < b else (b, a)
        t_end = float(rng.uniform(0.05, 0.9))
        grid = np.linspace(t_end / 5, t_end, 5)
        xt = evolve_boundary(term, x0, t_end, tol=1e-10, capture=grid)
        yt = evolve_boundary(term, y0, t_end, tol=1e-10, capture=grid)
        for t in grid[grid <= min(xt.final_time, yt.final_time)]:
            assert xt.value_at(t) < yt.value_at(t)
    print("\n[acceptance] criterion-10-ordering-preservation: PASS (100 cases)")


def test_criterion_10_monotone_escape():
    rng = np.random.default_rng(103)
    for _ in range(100):
        term = _random_term(rng)
        z0 = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2.0))
        traj = evolve_interior(term, z0, float(rng.uniform(0.05, 0.8)), tol=1e-10)
        imag = traj.values.imag
        assert np.all(np.diff(imag) < 0)
        assert np.all(imag > 0)
    print("\n[acceptance] criterion-10-monotone-escape: PASS (100 cases)")


def test_criterion_10_rotation_equivariance():
    rng = np.random.default_rng(104)
    for _ in range(100):
        term = _random_term(rng)
        theta = float(rng.uniform(-math.pi, math.pi))
        rotated = FromCallable(lambda t: theta + term.value(t), term.domain_end)
        z0 = float(rng.uniform(0.05, 0.7)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        t_end = float(rng.uniform(0.05, 0.8))
        base = evolve_disk_interior(term, z0, t_end, tol=1e-10)
        rot = evolve_disk_interior(rotated, z0 * cmath.exp(1j * theta), t_end, tol=1e-10)
        if base.is_swallowed or rot.is_swallowed:
            assert base.is_swallowed and rot.is_swallowed
            assert abs(base.swallowed_at - rot.swallowed_at) < 1e-6
            continue
        assert abs(rot.final_value - base.final_value * cmath.exp(1j * theta)) < 1e-6
    print("\n[acceptance] criterion-10-rotation-equivariance: PASS (100 cases)")
