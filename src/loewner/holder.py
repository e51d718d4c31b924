"""Holder-continuity estimation: sup-quotient norms and exponent fits at t=0.

The Lip(a) sup-norm of a sampled function is max over sample pairs s < t of
|f(t)-f(s)| / (t-s)**a. The exponent of a power-law-like f near 0 is estimated
by least squares on log|f(t)-f(0)| against log t over a window.

Up to ``DENSE_PAIR_LIMIT`` samples the norm is an exact max over all pairs,
scanned in tiles of ``_TILE_ROWS`` first indices by ``_TILE_GAPS`` index
gaps (two 128 KB buffers, so memory stays O(n)). For a = 1/2 a screen runs
first: each tile is reduced to its largest squared quotient fl(d*d)/dt, with
no abs and no sqrt, and only the tiles within ``_SCREEN_MARGIN`` of the
largest screen value are rescanned with the exact expression. Each pair's
screen value is within about 6 units in the last place of the square of its
exact quotient (two roundings on each side), so the pair of the largest
exact quotient has a screen value within about 12 ulps of the largest one,
far inside the margin: its tile is always rescanned and the result is the
same float as an exact scan of every pair. That bound needs no overflow
and no subnormal in the screen, which ``_screen_is_exact`` checks from the
value span, the smallest time step and the time span; when it fails, and
for any other exponent, every tile takes the exact scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FitError

#: above this sample count the all-pairs scan switches to a dyadic pair subset
DENSE_PAIR_LIMIT = 5000

#: default fit window; the exponents of interest are asymptotic statements at t -> 0+
DEFAULT_FIT_WINDOW = (1e-6, 1e-3)

#: fewest samples a fit window must hold
MIN_FIT_POINTS = 10

#: the dense scan's pair tile: pairs (i, i + g) for _TILE_ROWS consecutive i
#: and _TILE_GAPS consecutive g, 16K pairs in 128 KB per float buffer (few
#: enough numpy calls per pair, small enough to stay in cache)
_TILE_ROWS = 128
_TILE_GAPS = 128

#: tiles whose screen value is below (1 - margin) * the largest are skipped;
#: the margin must exceed the screen's rounding gap, about 12 ulps
_SCREEN_MARGIN = 1e-12


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

    Up to ``DENSE_PAIR_LIMIT`` samples every pair is taken, in pair tiles
    (see the module docstring); beyond that, one index gap g at a time, only
    the power-of-two gaps, plus all pairs anchored at the first and last
    samples (which capture power-law sups). Memory stays O(n) either way.

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
        return _tiled_sup(t, v, exponent)

    num, den = np.empty(n - 1), np.empty(n - 1)

    def sup(m, v1, v0, t1, t0):
        """max of |v1 - v0| / (t1 - t0)**exponent over m pairs."""
        np.subtract(v1, v0, out=num[:m])
        np.subtract(t1, t0, out=den[:m])
        return _exact_quotient_max(num[:m], den[:m], exponent)

    gaps = [1 << k for k in range((n - 1).bit_length())]  # powers of two below n
    best = max(sup(n - g, v[g:], v[:-g], t[g:], t[:-g]) for g in gaps)
    # pairs anchored at the first and at the last sample
    return max(best, sup(n - 1, v[1:], v[0], t[1:], t[0]),
               sup(n - 1, v[-1], v[:-1], t[-1], t[:-1]))


def _exact_quotient_max(num, den, exponent: float) -> float:
    """max of |num| / den**exponent, overwriting both buffers.

    This is the quotient the norm reports: numpy's dt ** 0.5 is np.sqrt(dt)
    and any other dt ** exponent is np.power(dt, exponent).
    """
    np.abs(num, out=num)
    if exponent == 0.5:
        np.sqrt(den, out=den)
    else:
        np.power(den, exponent, out=den)
    return float(np.divide(num, den, out=num).max())


def _screen_is_exact(t, v) -> bool:
    """Whether the squared-quotient screen keeps the tile of the largest quotient.

    With span = max v - min v, delta the smallest time step and T the time
    span, every screen value is at most span**2/delta and the largest is at
    least span**2/T, with a squared difference of at least span**2*delta/T;
    those bounds inside [2**-1000, 2**1000] leave no overflow and no
    subnormal where the rounding bound is needed. Python floats, so an
    overflow reads inf and fails the test without a warning.
    """
    span = float(v.max()) - float(v.min())
    delta = float(np.diff(t).min())
    sq = span * span
    return (sq / delta < 2.0 ** 1000
            and sq * min(delta, 1.0) / (float(t[-1]) - float(t[0])) > 2.0 ** -1000)


def _tiled_sup(t, v, exponent: float) -> float:
    """max of |v[j] - v[i]| / (t[j] - t[i])**exponent over all pairs i < j."""
    n = t.size
    rows, gaps = min(_TILE_ROWS, n - 1), min(_TILE_GAPS, n - 1)
    pad = rows + gaps
    # a row or gap past the last sample reads padding: t = -inf on the i side
    # and +inf on the j side, so a padded pair has dt = inf and quotient 0;
    # padding v with its last value keeps every difference within the span
    vp = np.concatenate((v, np.full(pad, v[-1])))
    vj, vi = sliding_window_view(vp, gaps), vp[:, None]
    tj = sliding_window_view(np.concatenate((t, np.full(pad, np.inf))), gaps)
    ti = np.concatenate((t, np.full(pad, -np.inf)))[:, None]
    num, den = np.empty((rows, gaps)), np.empty((rows, gaps))

    def fill(i0, j0):
        """value and time steps of pair (i0 + r, j0 + r + k) into num[r, k], den[r, k]"""
        np.subtract(vj[j0:j0 + rows], vi[i0:i0 + rows], out=num)
        np.subtract(tj[j0:j0 + rows], ti[i0:i0 + rows], out=den)

    # the tile of first row i0 and first gap g0 starts at pair (i0, i0 + g0)
    tiles = [(i0, i0 + g0) for g0 in range(1, n, gaps) for i0 in range(0, n - g0, rows)]
    if exponent == 0.5 and _screen_is_exact(t, v):
        screens = []
        for i0, j0 in tiles:
            fill(i0, j0)
            np.multiply(num, num, out=num)
            screens.append(float(np.divide(num, den, out=num).max()))
        cut = max(screens) * (1.0 - _SCREEN_MARGIN)
        tiles = [tile for tile, s in zip(tiles, screens) if s >= cut]
    best = 0.0
    for i0, j0 in tiles:
        fill(i0, j0)
        best = max(best, _exact_quotient_max(num, den, exponent))
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

