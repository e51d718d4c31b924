"""Half-plane Loewner evolution: dh/dt = 2 / (h - lambda(t)), h(z, 0) = z.

This is the map-out convention: h(., t) maps the half-plane minus a growing
hull onto the half-plane. The map-in convention (minus sign on the right-hand
side) is the same flow run backward in time and is not implemented separately.
Interior points (Im z > 0) flow until they either survive to t_end or collide
with the driving term (swallowing). Real points x != lambda(0) obey the same
ODE on the line. The two singular solutions h-(t) <= lambda(t) <= h+(t) start
at the singular point lambda(0) itself and bound the interval swallowed by
time t; for a Lip(1/2) term they behave like lambda(0) +- A*sqrt(t) near 0
and are computed by a square-root ansatz handoff into the adaptive integrator.

A term whose onset lambda(t) - lambda(0) ~ t**p has p < 1/2
(``DrivingTerm.onset_exponent``; 1/3 for the tangent circular slit) makes
the upper solution stiff at 0: there h+ - lambda ~ t**(1 - p) while lambda
moves like t**p, so the relaxation rate 2/(h+ - lambda)**2 grows like
t**(2p - 2) (0.62 t**(-4/3) for the tangent slit) and holds an explicit
stepper at its stability limit. That branch, started at t = 0, is integrated
by ``integrate.solve_singular_branch``: implicit SDIRK steps in the
self-similar variables tau = log t, Y = (h - lambda(0))/t**p, each stage a
quadratic solved in closed form. The lower solution moves away from lambda
like t**p and is not stiff, so it, every p = 1/2 term and every restart at
t_start > 0 keep the explicit path.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import integrate
from .driving import DrivingTerm
from .errors import BootstrapError, DomainError, IntegrationError, LoewnerError
from .integrate import solve_scalar
from .trajectory import Trajectory

#: handoff time t0 of the singular-solution ansatz
BOOTSTRAP_T0 = 1e-8

#: the ansatz is seeded this much earlier than t0 and integrated up to t0
_SEED_REFINEMENT = 256.0


@dataclass(frozen=True)
class SwallowedInterval:
    """The interval [h-(t), h+(t)] absorbed by the hull up to time t."""

    t: float
    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("swallowed interval needs lower <= upper")


@dataclass(frozen=True)
class RatioDiagnostic:
    """Growth ratios phi(t) = (h+(t) - lambda(0)) / sqrt(t) against the sharp bound.

    For a driving term with Lip(1/2) norm c the limsup of phi at 0+ is bounded
    by A = (c + sqrt(c**2 + 16)) / 2, with equality for lambda = c*sqrt(t).
    """

    times: np.ndarray
    ratio: np.ndarray
    bound: float

    def __post_init__(self):
        if self.bound < 2.0 - 1e-12:
            raise ValueError("ratio bound is below its minimum value 2")


def sharp_ratio_bound(c: float) -> float:
    """A = (c + sqrt(c**2 + 16)) / 2, the extremal sqrt-coefficient of h+."""
    return 0.5 * (c + math.sqrt(c * c + 16.0))


def _rhs(y, l):
    """Right-hand side of dh/dt = 2 / (h - lambda) at h = y, lambda = l."""
    return 2.0 / (y - l)


def _gap(y, l):
    """Collision gap |h - lambda|."""
    return abs(y - l)


def _evolve(term: DrivingTerm, y0, t_end: float, tol: float, capture=None,
            record: bool = True) -> Trajectory:
    """Solve from (0, y0) with swallowing detection; the samples keep y0's type."""
    if not cmath.isfinite(y0):
        raise ValueError(f"start point {y0!r} is not finite")
    term.check_covers(t_end)
    res = solve_scalar(_rhs, term.value, 0.0, y0, t_end, tol=tol, gap=_gap,
                       capture=capture, record=record, lam_values=term.values)
    return Trajectory(res.times, res.values.astype(type(y0)), res.swallowed_at)


def evolve_interior(term: DrivingTerm, z0: complex, t_end: float,
                    tol: float = 1e-10) -> Trajectory:
    """Evolve an interior point z0 (Im z0 > 0) under the half-plane equation.

    Returns an adaptively sampled trajectory; if |h - lambda| falls below
    ``integrate.COLLISION_DELTA`` the point is reported swallowed at the
    refined contact time.
    """
    z0 = complex(z0)
    if z0.imag <= 0:
        raise ValueError("interior evolution needs Im z0 > 0")
    return _evolve(term, z0, t_end, tol)


def evolve_boundary(term: DrivingTerm, x0: float, t_end: float, tol: float = 1e-10,
                    *, capture=None, record: bool = True) -> Trajectory:
    """Evolve a real point x0 != lambda(0); the sign of x - lambda is preserved
    until swallowing."""
    x0 = float(x0)
    if abs(x0 - term.value(0.0)) <= integrate.COLLISION_DELTA:
        raise ValueError(
            "x0 coincides with lambda(0) within the collision threshold; "
            "use singular_plus/singular_minus for the singular solutions")
    return _evolve(term, x0, t_end, tol, capture, record)


def _sqrt_ansatz(term: DrivingTerm, t_start: float, sign: int, dt: float) -> float:
    """Square-root ansatz value of the singular solution at t_start + dt.

    Solves the stationarity relation of the ratio ODE with the local driving
    increment d = lambda(t_start + dt) - lambda(t_start):
    h+- = lambda(t_start) + d/2 +- sqrt(d**2/4 + 4 dt). Exact for lambda(t_start + s)
    = lambda(t_start) + c*sqrt(s), asymptotically correct otherwise.
    """
    lam_s = term.value(t_start)
    d = term.value(t_start + dt) - lam_s
    return lam_s + 0.5 * d + sign * math.sqrt(0.25 * d * d + 4.0 * dt)


def _singular(term: DrivingTerm, sign: int, t_start: float, t_end: float, tol: float,
              capture=None) -> Trajectory:
    """Singular solution on the side ``sign`` started at (t_start, lambda(t_start)).

    The stiff branch (h+ from t_start = 0 of a term with onset exponent
    p < 1/2) goes to ``integrate.solve_singular_branch``, which starts from
    the square-root ansatz at ``integrate.SEED_FRACTION`` of the first
    capture time (or of t_end) and lands on the capture times. Every other
    branch is seeded by the ansatz at dt_seed / _SEED_REFINEMENT, integrated
    up to the handoff time dt_seed and then to t_end by ``solve_scalar``.
    """
    term.check_covers(t_end)
    if t_end < t_start:
        raise DomainError("t_end must be >= the start time of the singular solution")
    lam_start = term.value(t_start)
    if t_end == t_start:
        return Trajectory(np.array([t_start]), np.array([lam_start]))

    cap = np.asarray([] if capture is None else capture, dtype=float)
    if sign > 0 and t_start == 0.0 and term.onset_exponent < 0.5:
        res = integrate.solve_singular_branch(term.value, term.onset_exponent, t_end,
                                              tol=tol, capture=cap)
        return Trajectory(np.concatenate(([0.0], res.times)),
                          np.concatenate(([lam_start], res.values)))

    span = t_end - t_start
    cap_rel = cap[cap > t_start] - t_start
    dt_seed = min(BOOTSTRAP_T0, span / 4.0)
    if cap_rel.size:
        dt_seed = min(dt_seed, float(cap_rel.min()) / 4.0)
    dt_fine = dt_seed / _SEED_REFINEMENT

    # seed early and integrate up to the handoff time; when that solve fails,
    # the direct ansatz at the handoff is used
    y_fine = _sqrt_ansatz(term, t_start, sign, dt_fine)
    try:
        res0 = solve_scalar(_rhs, term.value, t_start + dt_fine, y_fine,
                            t_start + dt_seed, tol=tol, record=False)
        y_seed = res0.values[-1]
    except IntegrationError:
        y_seed = _sqrt_ansatz(term, t_start, sign, dt_seed)
    lam_seed = term.value(t_start + dt_seed)
    gap_seed = sign * (y_seed - lam_seed)
    gap_ansatz = sign * (_sqrt_ansatz(term, t_start, sign, dt_seed) - lam_seed)
    if not math.isfinite(y_seed) or gap_seed <= 0:
        raise BootstrapError(
            f"singular bootstrap left its side at t={t_start + dt_seed!r}")
    if gap_ansatz > 0 and abs(gap_seed - gap_ansatz) > 0.9 * gap_ansatz:
        raise BootstrapError(
            "square-root ansatz residual above tolerance after refinement "
            f"(relative gap mismatch {abs(gap_seed - gap_ansatz) / gap_ansatz:.2f})")

    res = solve_scalar(_rhs, term.value, t_start + dt_seed, y_seed, t_end, tol=tol,
                       capture=cap, lam_values=term.values)
    times = np.concatenate(([t_start], res.times))
    values = np.concatenate(([lam_start], res.values.astype(float)))
    return Trajectory(times, values)


def singular_plus(term: DrivingTerm, t_end: float, tol: float = 1e-10,
                  *, capture=None) -> Trajectory:
    """The upper singular solution h+ with h+(0) = lambda(0)."""
    return _singular(term, +1, 0.0, t_end, tol, capture)


def singular_minus(term: DrivingTerm, t_end: float, tol: float = 1e-10,
                   *, capture=None) -> Trajectory:
    """The lower singular solution h- with h-(0) = lambda(0)."""
    return _singular(term, -1, 0.0, t_end, tol, capture)


def swallowed_interval(term: DrivingTerm, t_grid, tol: float = 1e-10) -> list[SwallowedInterval]:
    """Intervals [h-(t), h+(t)] on a time grid, with ordering checks.

    Raises LoewnerError if the computed endpoints violate monotonicity or fail
    to straddle the driving term (they do in exact arithmetic).
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid < 0):
        raise ValueError("t_grid must be a nonempty 1-d array of times >= 0")
    sorted_grid = np.unique(grid)
    t_end = float(sorted_grid[-1])
    lows, ups = (_singular(term, sign, 0.0, t_end, tol, capture=sorted_grid)
                 .values_at(sorted_grid).astype(float) for sign in (-1, +1))
    for t, lo, hi in zip(sorted_grid, lows, ups):
        if t > 0 and not (lo < term.value(float(t)) < hi):
            raise LoewnerError(f"singular solutions fail to straddle lambda at t={t!r}")
    if np.any(np.diff(lows) >= 0) or np.any(np.diff(ups) <= 0):
        raise LoewnerError("swallowed interval endpoints are not strictly monotone")
    by_time = {float(t): SwallowedInterval(float(t), float(lo), float(hi))
               for t, lo, hi in zip(sorted_grid, lows, ups)}
    return [by_time[float(t)] for t in grid]


def ratio_limsup_check(term: DrivingTerm, t_grid, *, tol: float = 1e-10) -> RatioDiagnostic:
    """phi(t) = (h+(t) - lambda(0)) / sqrt(t) on a grid, against the sharp bound.

    The Lip(1/2) norm c of the term is its closed form
    ``term.exact_half_norm``; a term without one raises ValueError.
    """
    grid = np.sort(np.asarray(t_grid, dtype=float))
    if grid.size == 0 or np.any(grid <= 0):
        raise ValueError("t_grid must contain positive times")
    c = term.exact_half_norm
    if c is None:
        raise ValueError(f"{term!r} has no closed-form Lip(1/2) norm")
    lam0 = term.value(0.0)
    plus = singular_plus(term, float(grid[-1]), tol, capture=grid)
    phi = (plus.values_at(grid).astype(float) - lam0) / np.sqrt(grid)
    return RatioDiagnostic(times=grid, ratio=phi, bound=sharp_ratio_bound(float(c)))
