"""Slit-trace reconstruction by reverse-time Loewner evolution.

The tip of the slit generated by a driving term at time t is the preimage of
the driving point under the time-t map: gamma(t) = h^{-1}(lambda(t), t), the
end of the backward flow ds/du = -2 / (s - lambda(t - u)) over u in [0, t].
That flow starts on the driving point, where it is singular, so one solve per
tip runs it in the blown-up variables tau = log u, Y = (s - lambda(t)) / sqrt(u):

    dY/dtau = -2 / (Y - D) - Y / 2,   D = (lambda(t - u) - lambda(t)) / sqrt(u),

with D in the stepper's place of the driving value; the tip is
lambda(t) + sqrt(t) * Y(log t). The solve starts at u0 = t * (float epsilon)
on the upper root of the stationary profile Y^2 - D*Y + 4 = 0 (exact for
lambda = c*sqrt(t); Kager, Nienhuis & Kadanoff 2004), which attracts at rate
1 - D^2/16 per unit of tau, so a start error decays like a power of u0 / u:
moving u0 only lengthens a contracting flow, and no absolute scale enters.
Without an upper root (|D0| >= 4, Lind(c >= 4) at t = 1) there is no slit tip.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .driving import DrivingTerm
from .errors import IntegrationError, TraceError
from .integrate import solve_scalar


def extract_trace(term: DrivingTerm, t_grid, tol: float = 1e-8) -> list[tuple[float, complex]]:
    """Tips gamma(t) of the slit generated by ``term`` for each t in the grid.

    Returns a list of (t, tip) pairs. Raises TraceError when the driving point
    at some grid time is not a slit tip or the backward integration blows up.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0):
        raise ValueError("t_grid must contain positive times")
    subnormal = grid[grid < sys.float_info.min]
    if subnormal.size:  # the solve starts at t * (float epsilon), which underflows to 0
        raise ValueError(f"t={float(subnormal[0])!r} is subnormal: "
                         "no slit tip can be traced that close to 0")
    term.check_covers(float(np.max(grid)))
    return [(float(t), _tip(term, float(t), tol)) for t in grid]


def _blown_up_rhs(y, d):
    """dY/dtau = -2 / (Y - D) - Y / 2, the backward equation in blown-up variables."""
    return -2.0 / (y - d) - 0.5 * y


def _tip(term: DrivingTerm, t: float, tol: float) -> complex:
    lam = term.value
    lam_t = lam(t)

    def drive(tau):
        # clamped, as exp(log t) may pass t by an ulp; near u0 the offset t - s
        # sampled is up to an ulp of t off u, O(1) in D where lam is singular at t
        s = t - min(math.exp(tau), t)
        return (lam(s) - lam_t) / math.sqrt(t - s)

    tau0 = math.log(t * sys.float_info.epsilon)
    d0 = drive(tau0)
    if not 16.0 - d0 * d0 > 0.0:
        raise TraceError(f"no slit tip at t={t!r}: the backward profile has no upper root "
                         f"at D0={d0!r} (|D0| >= 4)")
    y0 = complex(0.5 * d0, 0.5 * math.sqrt(16.0 - d0 * d0))
    try:
        res = solve_scalar(_blown_up_rhs, drive, tau0, y0, math.log(t), tol=tol)
    except IntegrationError as exc:
        raise TraceError(f"backward integration blew up at t={t!r}") from exc
    return lam_t + math.sqrt(t) * complex(res.final_value)
