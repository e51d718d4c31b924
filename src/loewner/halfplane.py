"""Half-plane Loewner evolution: dh/dt = 2 / (h - lambda(t)), h(z, 0) = z.

This is the map-out convention: h(., t) maps the half-plane minus a growing
hull onto the half-plane. The map-in convention (minus sign on the right-hand
side) is the same flow run backward in time and is not implemented separately.
Interior points (Im z > 0) flow until they either survive to t_end or collide
with the driving term (swallowing). Real points x != lambda(0) obey the same
ODE on the line. The two singular solutions h-(t) <= lambda(t) <= h+(t) start
at the singular point lambda(0) itself and bound the interval swallowed by
time t.

Both are solved from the singular point to t_end by one
``integrate.solve_singular_branch`` call each, with no handover to the
explicit ``solve_scalar``: implicit SDIRK steps in the self-similar variables tau = log t,
Y = (h - lambda(0))/t**q, each stage a quadratic solved in closed form. A
term whose onset lambda(t) - lambda(0) ~ t**p has p <= 1/2
(``DrivingTerm.onset_exponent``; 1/3 for the tangent circular slit) has
h+ - lambda(0) ~ t**p and h- - lambda(0) ~ t**(1 - p), so q = p for h+ and
q = 1 - p for h-; for p = 1/2 both behave like +-A*sqrt(t). For p < 1/2 the
upper solution is stiff at 0: there h+ - lambda ~ t**(1 - p), so the
relaxation rate 2/(h+ - lambda)**2 grows like t**(2p - 2) (0.62 t**(-4/3)
for the tangent slit) and would hold an explicit stepper at its stability
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate
from .driving import DrivingTerm
from .errors import LoewnerError
from .integrate import solve_scalar
from .trajectory import Trajectory

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
    term.check_covers(t_end)
    return solve_scalar(_rhs, term.value, 0.0, z0, t_end, tol=tol, gap=_gap)


def evolve_boundary(term: DrivingTerm, x0: float, t_end: float, tol: float = 1e-10,
                    *, capture=None) -> Trajectory:
    """Evolve a real point x0 != lambda(0); the sign of x - lambda is preserved
    until swallowing."""
    x0 = float(x0)
    if abs(x0 - term.value(0.0)) <= integrate.COLLISION_DELTA:
        raise ValueError(
            "x0 coincides with lambda(0) within the collision threshold; "
            "use singular_plus/singular_minus for the singular solutions")
    term.check_covers(t_end)
    return solve_scalar(_rhs, term.value, 0.0, x0, t_end, tol=tol, gap=_gap, capture=capture)


def _singular(term: DrivingTerm, sign: int, t_end: float, tol: float,
              capture=None) -> Trajectory:
    """Singular solution on the side ``sign`` started at (0, lambda(0)).

    One branch solve (see the module docstring), with q from the term's onset
    exponent p, runs to t_end and takes every capture; no ``solve_scalar``
    follows it.
    """
    term.check_covers(t_end)
    if t_end == 0.0:
        return Trajectory(np.array([0.0]), np.array([term.value(0.0)]))
    p = term.onset_exponent
    return integrate.solve_singular_branch(term.value, p if sign > 0 else 1.0 - p, t_end,
                                           sign=sign, tol=tol, capture=capture)


def singular_plus(term: DrivingTerm, t_end: float, tol: float = 1e-10,
                  *, capture=None) -> Trajectory:
    """The upper singular solution h+ with h+(0) = lambda(0)."""
    return _singular(term, +1, t_end, tol, capture)


def singular_minus(term: DrivingTerm, t_end: float, tol: float = 1e-10,
                   *, capture=None) -> Trajectory:
    """The lower singular solution h- with h-(0) = lambda(0)."""
    return _singular(term, -1, t_end, tol, capture)


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
    lows, ups = (_singular(term, sign, t_end, tol, capture=sorted_grid)
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
    """phi(t) = (h+(t) - lambda(0)) / sqrt(t) on a grid, in ascending time
    order, against the sharp bound.

    The Lip(1/2) norm c of the term is its closed form
    ``term.exact_half_norm``; a term without one raises ValueError.
    """
    grid = np.sort(np.asarray(t_grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0):
        raise ValueError("t_grid must be a nonempty 1-d array of positive times")
    c = term.exact_half_norm
    if c is None:
        raise ValueError(f"{term!r} has no closed-form Lip(1/2) norm")
    lam0 = term.value(0.0)
    plus = singular_plus(term, float(grid[-1]), tol, capture=grid)
    phi = (plus.values_at(grid).astype(float) - lam0) / np.sqrt(grid)
    return RatioDiagnostic(ratio=phi, bound=sharp_ratio_bound(float(c)))
