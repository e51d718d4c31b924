"""Holder-continuity estimation: sup-quotient norms and exponent fits at t=0.

The Lip(a) sup-norm of a sampled function is max over sample pairs s < t of
|f(t)-f(s)| / (t-s)**a. The exponent of a power-law-like f near 0 is estimated
by least squares on log|f(t)-f(0)| against log t over a window.
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

    Pairs are scanned one index gap g at a time, so memory stays O(n). Up to
    ``DENSE_PAIR_LIMIT`` samples every gap 1..n-1 is taken, i.e. all O(n^2)
    pairs; beyond that only the power-of-two gaps, plus all pairs anchored at
    the first and last samples (which capture power-law sups).

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
    if n <= DENSE_PAIR_LIMIT:
        gaps = range(1, n)
    else:
        gaps = [1 << k for k in range((n - 1).bit_length())]  # powers of two below n

    # every quotient is formed in these two buffers; numpy's dt ** 0.5 is
    # np.sqrt(dt) and any other dt ** exponent is np.power(dt, exponent)
    num, den = np.empty(n - 1), np.empty(n - 1)

    def sup(m, v1, v0, t1, t0):
        """max of |v1 - v0| / (t1 - t0)**exponent over m pairs."""
        a, b = num[:m], den[:m]
        np.abs(np.subtract(v1, v0, out=a), out=a)
        np.subtract(t1, t0, out=b)
        if exponent == 0.5:
            np.sqrt(b, out=b)
        else:
            np.power(b, exponent, out=b)
        return float(np.divide(a, b, out=a).max())

    best = max(sup(n - g, v[g:], v[:-g], t[g:], t[:-g]) for g in gaps)
    if n > DENSE_PAIR_LIMIT:
        # pairs anchored at the first and at the last sample
        best = max(best, sup(n - 1, v[1:], v[0], t[1:], t[0]),
                   sup(n - 1, v[-1], v[:-1], t[-1], t[:-1]))
    return best


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

