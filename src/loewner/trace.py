"""Slit-trace reconstruction by reverse-time Loewner evolution.

The tip of the slit generated by a driving term at time t is the preimage of
the driving point under the time-t map: gamma(t) = h^{-1}(lambda(t), t). It is
computed by integrating the backward equation ds/du = -2 / (s - lambda(t - u))
over u in [0, t] from the regularized start s(0) = lambda(t) + i*eps, then
extrapolating eps -> 0 over a halving sequence (Richardson with empirically
estimated order).
"""

from __future__ import annotations

import math

import numpy as np

from .driving import DrivingTerm
from .errors import IntegrationError, TraceError
from .integrate import solve_scalar

#: the halving sequence of start offsets eps extrapolated to eps -> 0
EPS_LEVELS = (1e-3, 5e-4, 2.5e-4)


def extract_trace(term: DrivingTerm, t_grid, tol: float = 1e-8) -> list[tuple[float, complex]]:
    """Tips gamma(t) of the slit generated by ``term`` for each t in the grid.

    Returns a list of (t, tip) pairs. Raises TraceError when the backward
    integration blows up at some grid time.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0):
        raise ValueError("t_grid must contain positive times")
    term.check_covers(float(np.max(grid)))
    return [(float(t), _tip(term, float(t), tol)) for t in grid]


def _tip(term: DrivingTerm, t: float, tol: float) -> complex:
    vals = []
    for eps in EPS_LEVELS:
        try:
            vals.append(_tip_once(term, t, float(eps), tol))
        except IntegrationError as exc:
            raise TraceError(f"backward integration blew up at t={t!r}, eps={eps!r}") from exc
    return _richardson(vals)


def _backward_rhs(s, l):
    """Right-hand side of the backward equation ds/du = -2 / (s - l), l = lambda(t - u)."""
    return -2.0 / (s - l)


def _tip_once(term: DrivingTerm, t: float, eps: float, tol: float) -> complex:
    lam = term.value
    res = solve_scalar(_backward_rhs, lambda u: lam(t - u), 0.0, complex(lam(t), eps), t,
                       tol=tol, record=False)
    return complex(res.values[-1])


def _richardson(vals) -> complex:
    """Extrapolate a halving-eps sequence with empirically estimated order."""
    v = list(vals)
    if len(v) < 3:
        return v[-1]
    d_prev = v[-2] - v[-3]
    d_last = v[-1] - v[-2]
    if abs(d_last) < 1e-15 or abs(d_prev) <= abs(d_last):
        return v[-1]
    order = math.log2(abs(d_prev) / abs(d_last))
    order = min(max(order, 0.5), 4.0)
    return v[-1] + d_last / (2.0 ** order - 1.0)
