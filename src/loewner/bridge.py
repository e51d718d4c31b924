"""Conversion between half-plane and disk driving terms.

The boundary flows x(t) (half-plane, dx/dt = 2/(x - lambda)) and alpha(t)
(disk, d(alpha)/dt = cot((alpha - u)/2)) coincide when the driving terms are
matched through

    tan((alpha - u)/2) = (x - lambda)/2,

which gives the two conversion formulas

    u(t)      = x(t, x0)      - 2*arctan((x(t, x0) - lambda(t)) / 2),
    lambda(t) = alpha(t, a0)  - 2*tan((alpha(t, a0) - u(t)) / 2),

with the normalization alpha0 = x0. Both preserve the Lip(1/2) class. The
conversions output sampled terms on the caller's grid, since the companion
trajectory is only available numerically in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disk import evolve_disk_boundary
from .driving import DrivingTerm, Sampled
from .errors import ConversionDomainError
from .halfplane import evolve_boundary
from .trajectory import Trajectory

#: margin to the tan blowup at |alpha - u| = pi
_PI_MARGIN = 1e-9


@dataclass(frozen=True)
class ConversionResult:
    """A converted driving term together with the companion trajectory.

    When the companion trajectory is swallowed inside the requested grid the
    term is partial: its samples stop at the swallowing time,
    ``trajectory.swallowed_at``.
    """

    term: Sampled
    trajectory: Trajectory

    @property
    def is_partial(self) -> bool:
        return self.trajectory.is_swallowed


def _validated_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("t_grid must be a 1-d array with >= 2 times")
    if grid[0] != 0.0 or not np.all(np.diff(grid) > 0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    return grid


def _companion_samples(evolve, term: DrivingTerm, start: float, grid: np.ndarray,
                       tol: float):
    """Solve the companion boundary flow on the grid; return the trajectory,
    the sample times (the grid, cut at the swallowing time), the flow's values
    and the term's values there."""
    traj = evolve(term, start, float(grid[-1]), tol, capture=grid)
    times = traj.times[np.isin(traj.times, grid) | (traj.times == traj.times[-1])] \
        if traj.is_swallowed else grid
    return traj, times, traj.values_at(times).astype(float), term.values(times)


def halfplane_to_disk(term: DrivingTerm, x0: float, t_grid,
                      tol: float = 1e-10) -> ConversionResult:
    """Convert a half-plane driving term to its disk companion along x(t, x0).

    Samples u(t) = x(t) - 2*arctan((x(t) - lambda(t))/2) on the grid; at t=0
    this gives u(0) = x0 - 2*arctan((x0 - lambda(0))/2) and alpha0 = x0.
    """
    grid = _validated_grid(t_grid)
    traj, times, x, lam = _companion_samples(evolve_boundary, term, x0, grid, tol)
    u = x - 2.0 * np.arctan(0.5 * (x - lam))
    return ConversionResult(term=Sampled(times, u), trajectory=traj)


def disk_to_halfplane(term: DrivingTerm, alpha0: float, t_grid,
                      tol: float = 1e-10) -> ConversionResult:
    """Convert a disk driving term to its half-plane companion along alpha(t, alpha0).

    Samples lambda(t) = alpha(t) - 2*tan((alpha(t) - u(t))/2) on the grid.
    Raises ConversionDomainError when |alpha - u| reaches pi (tan blowup),
    which is distinct from swallowing (alpha - u -> 0).
    """
    grid = _validated_grid(t_grid)
    if abs(math.remainder(alpha0 - term.value(0.0), 2.0 * math.pi)) >= math.pi - _PI_MARGIN:
        raise ConversionDomainError(
            "alpha0 - u(0) is at the tan blowup (|difference| = pi)")
    traj, times, alpha, u = _companion_samples(evolve_disk_boundary, term, alpha0, grid, tol)
    half = 0.5 * (alpha - u)
    if np.any(np.abs(np.arctan2(np.sin(half), np.cos(half))) >= 0.5 * math.pi - _PI_MARGIN):
        raise ConversionDomainError(
            "|alpha - u| reached pi along the trajectory (tan blowup)")
    lam = alpha - 2.0 * np.tan(half)
    return ConversionResult(term=Sampled(times, lam), trajectory=traj)


def correspondence_residual(term_lambda: DrivingTerm, term_u: DrivingTerm,
                            x0: float, alpha0: float, t_grid) -> float:
    """Max residual of tan((alpha - u)/2) - (x - lambda)/2 over the grid.

    Both boundary trajectories are solved on the grid at the default
    tolerance; the residual is the numerical certificate that the two flows
    are the same solution.
    """
    grid = _validated_grid(t_grid)
    x_traj = evolve_boundary(term_lambda, x0, float(grid[-1]), capture=grid)
    a_traj = evolve_disk_boundary(term_u, alpha0, float(grid[-1]), capture=grid)
    t_stop = min(x_traj.final_time, a_traj.final_time)
    times = grid[grid <= t_stop]
    x = x_traj.values_at(times).astype(float)
    alpha = a_traj.values_at(times).astype(float)
    lam = term_lambda.values(times)
    u = term_u.values(times)
    return float(np.max(np.abs(np.tan(0.5 * (alpha - u)) - 0.5 * (x - lam))))

