"""Holder-continuity estimation: sup-quotient norms and exponent fits at t=0.

The Lip(a) sup-norm of a sampled function is max over sample pairs s < t of
|f(t)-f(s)| / (t-s)**a. The exponent of a power-law-like f near 0 is estimated
by least squares on log|f(t)-f(0)| against log t over a window.

Up to ``DENSE_PAIR_LIMIT`` samples the norm is the exact max over all pairs,
found by a certified scan in two phases:

- a lower bound: every index gap below ``_BLOCK`` and every power-of-two
  gap, plus the pairs anchored at the first and at the last sample, each
  gap one vector of exact quotients;
- certification: the samples are cut into blocks J of ``_BLOCK`` consecutive
  samples, J0 the first. Each earlier sample i bounds its pairs into J by
  max(max v_J - v_i, v_i - min v_J) / (t_J0 - t_i)**a, and only the rows i
  whose bound exceeds the running best are evaluated exactly. Pairs inside
  a block have a gap below ``_BLOCK``, so the first phase took them.

Subtraction, sqrt and division are correctly rounded, hence monotone, so a
row's bound is at least each quotient it covers as computed: the row of a
larger quotient is always evaluated, and the result is the same float as an
exact scan of every pair, at any scale. np.power (a != 1/2) is not promised
to be monotone, so rows are pruned against the best less a relative
``_BOUND_MARGIN``, far above the few ulps by which its rounding can invert
an order of quotients above the subnormal range. Pruning is strict, so a constant function (bound = best = 0)
evaluates no row. Memory stays O(n): bounds of up to n floats, and rows
evaluated n - 1 pairs at a time.

Above ``DENSE_PAIR_LIMIT`` the norm is the max over the power-of-two gaps and
the anchored pairs alone: a lower bound on the exact sup, equal to it for power-law sups
such as the bridge output's, which sit at an end sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

#: above this sample count the all-pairs scan switches to a dyadic pair subset
DENSE_PAIR_LIMIT = 5000

#: default fit window; the exponents of interest are asymptotic statements at t -> 0+
DEFAULT_FIT_WINDOW = (1e-6, 1e-3)

#: fewest samples a fit window must hold
MIN_FIT_POINTS = 10

#: samples per block of the certified scan: its bounds cost about n**2 / (2 * _BLOCK)
#: quotients and its gaps below _BLOCK about n * _BLOCK (64 timed fastest of
#: 32-128 on the dense_paths inputs)
_BLOCK = 64

#: a row is evaluated when its bound exceeds (1 - margin) * the running best
_BOUND_MARGIN = 1e-12


@dataclass(frozen=True)
class HolderFit:
    """Result of a power-law fit near t=0."""

    exponent: float
    coefficient: float
    grid: str

    def __post_init__(self):
        if not (0.0 < self.exponent <= 1.0 + 1e-3):
            raise FitError(f"fitted exponent {self.exponent!r} outside (0, 1]")
        if self.coefficient < 0:
            raise FitError("coefficient must be nonnegative")


def holder_sup_norm(times, values, exponent: float = 0.5) -> float:
    """Sup of |f(t)-f(s)| / (t-s)**exponent over sample pairs.

    Up to ``DENSE_PAIR_LIMIT`` samples every pair is taken, by the certified
    scan of the module docstring; beyond that only the power-of-two index
    gaps, plus all pairs anchored at the first and last samples (which
    capture power-law sups). Memory stays O(n) either way.

    Parameters
    ----------
    times, values : array_like
        Strictly increasing sample times and real sample values, >= 2 samples.
    exponent : float
        Holder exponent a in (0, 1].
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise ValueError("need >= 2 samples with matching times/values")
    if not np.all(np.diff(t) > 0):
        raise ValueError("times must be strictly increasing")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("times and values must be finite")
    if not (0.0 < exponent <= 1.0):
        raise ValueError("exponent must lie in (0, 1]")

    n = t.size
    gaps = {1 << k for k in range((n - 1).bit_length())}  # powers of two below n
    if n > DENSE_PAIR_LIMIT:
        return _gap_sup(t, v, exponent, gaps)
    b = min(_BLOCK, n)
    best = _gap_sup(t, v, exponent, gaps.union(range(1, b)))
    rows_per_pass = (n - 1) // b  # at most n - 1 pairs evaluated at a time
    for j0 in range(b, n, b):  # block J = samples j0 .. j0 + b - 1, rows i < j0
        vj, tj = v[j0:j0 + b], t[j0:j0 + b]
        bound = np.maximum(vj.max() - v[:j0], v[:j0] - vj.min())
        np.divide(bound, _power(tj[0] - t[:j0], exponent), out=bound)
        rows = np.flatnonzero(bound > best * (1.0 - _BOUND_MARGIN))
        for k in range(0, rows.size, rows_per_pass):
            i = rows[k:k + rows_per_pass, None]
            best = max(best, _exact_quotient_max(vj - v[i], tj - t[i], exponent))
    return best


def _gap_sup(t, v, exponent: float, gaps) -> float:
    """max of |v[i+g] - v[i]| / (t[i+g] - t[i])**exponent over the index gaps g
    and over the pairs anchored at the first and at the last sample."""
    n = t.size
    num, den = np.empty(n - 1), np.empty(n - 1)

    def sup(m, v1, v0, t1, t0):
        """max of |v1 - v0| / (t1 - t0)**exponent over m pairs."""
        np.subtract(v1, v0, out=num[:m])
        np.subtract(t1, t0, out=den[:m])
        return _exact_quotient_max(num[:m], den[:m], exponent)

    best = max(sup(n - g, v[g:], v[:-g], t[g:], t[:-g]) for g in gaps)
    return max(best, sup(n - 1, v[1:], v[0], t[1:], t[0]),
               sup(n - 1, v[-1], v[:-1], t[-1], t[:-1]))


def _power(dt, exponent: float):
    """dt**exponent in place, by the operation numpy's ** uses: np.sqrt for 1/2,
    np.power otherwise."""
    if exponent == 0.5:
        return np.sqrt(dt, out=dt)
    return np.power(dt, exponent, out=dt)


def _exact_quotient_max(num, den, exponent: float) -> float:
    """max of |num| / den**exponent, overwriting both buffers: the quotient the
    norm reports."""
    np.abs(num, out=num)
    return float(np.divide(num, _power(den, exponent), out=num).max())


def holder_exponent_fit(times, values,
                        window: tuple[float, float] = DEFAULT_FIT_WINDOW) -> HolderFit:
    """Fit |f(t) - f(0)| ~ coefficient * t**exponent on a log-log window.

    The first sample must sit at t=0 (it provides f(0)). The slope of the
    least-squares line of log|f-f(0)| against log t over ``window`` is the
    exponent, exp(intercept) the coefficient.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < MIN_FIT_POINTS + 1 or t[0] != 0.0:
        raise FitError("need a t=0 sample plus enough points covering the window")
    lo, hi = window
    if not (0.0 < lo < hi):
        raise FitError(f"invalid fit window {window!r} (need 0 < lo < hi)")
    g = np.abs(v - v[0])
    mask = (t >= lo) & (t <= hi) & (g > 0.0)
    if int(mask.sum()) < MIN_FIT_POINTS:
        raise FitError(
            f"only {int(mask.sum())} usable points in window {window!r} (need {MIN_FIT_POINTS})")
    slope, intercept = np.polyfit(np.log(t[mask]), np.log(g[mask]), 1)
    return HolderFit(
        exponent=float(slope),
        coefficient=float(np.exp(intercept)),
        grid=f"{int(mask.sum())} points in [{lo:g}, {hi:g}] of {t.size} samples",
    )

