import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loewner import FitError, holder, holder_exponent_fit, holder_sup_norm
from loewner.bridge import halfplane_to_disk
from loewner.driving import Lind, Scaled
from loewner.holder import DENSE_PAIR_LIMIT

B, R = holder._TILE_GAPS, holder._TILE_ROWS


def brute_force_norm(times, values, exponent):
    """Independent oracle: plain double loop over all pairs."""
    best = 0.0
    n = len(times)
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, abs(values[j] - values[i])
                       / (times[j] - times[i]) ** exponent)
    return best


def reference_sup_norm(t, v, exponent):
    """The pair scan holder_sup_norm replaced, kept as a reference: 512-row blocks
    of all pair differences with a triangle mask up to DENSE_PAIR_LIMIT samples,
    one gather over concatenated dyadic and anchored index arrays above it."""
    n = t.size
    if n <= DENSE_PAIR_LIMIT:
        best = 0.0
        block = 512
        for i0 in range(0, n - 1, block):
            i1 = min(i0 + block, n - 1)
            dt = t[None, i0 + 1:] - t[i0:i1, None]
            dv = np.abs(v[None, i0 + 1:] - v[i0:i1, None])
            mask = dt > 0
            if np.any(mask):
                best = max(best, float(np.max(dv[mask] / dt[mask] ** exponent)))
        return best
    idx_pairs_i, idx_pairs_j = [], []
    gap = 1
    while gap < n:
        i = np.arange(0, n - gap)
        idx_pairs_i.append(i)
        idx_pairs_j.append(i + gap)
        gap *= 2
    idx_pairs_i += [np.zeros(n - 1, dtype=int), np.arange(0, n - 1)]
    idx_pairs_j += [np.arange(1, n), np.full(n - 1, n - 1)]
    ii = np.concatenate(idx_pairs_i)
    jj = np.concatenate(idx_pairs_j)
    return float(np.max(np.abs(v[jj] - v[ii]) / (t[jj] - t[ii]) ** exponent))


@settings(max_examples=100)
@given(st.integers(2, 80).flatmap(lambda n: st.tuples(
           st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
           st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))),
       st.floats(0.0, 1.0, exclude_min=True))
def test_gap_scan_equals_reference_scan(samples, exponent):
    steps, values = samples
    t, v = np.cumsum(steps), np.asarray(values)
    assert holder_sup_norm(t, v, exponent) == reference_sup_norm(t, v, exponent)


@pytest.mark.parametrize("n", [DENSE_PAIR_LIMIT, DENSE_PAIR_LIMIT + 1])
def test_gap_scan_equals_reference_scan_at_the_dense_limit(n):
    # the last all-pairs size and the first dyadic one
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(1e-4, 1e-3, n))
    v = np.cumsum(rng.normal(size=n))
    for exponent in (1.0 / 3.0, 0.5, 1.0):
        assert holder_sup_norm(t, v, exponent) == reference_sup_norm(t, v, exponent)


@pytest.mark.parametrize("n", sorted({2, B, B + 1, R, R + 1, R + B + 1, 2 * R + 1}))
def test_tiled_scan_equals_reference_scan_at_tile_edges(n):
    # sizes that end a tile's rows or gaps on the last sample, or one past it;
    # DENSE_PAIR_LIMIT itself is the test above
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(1e-4, 1e-3, n))
    v = np.cumsum(rng.normal(size=n))
    for exponent in (1.0 / 3.0, 0.5, 1.0):
        assert holder_sup_norm(t, v, exponent) == reference_sup_norm(t, v, exponent)


@pytest.mark.filterwarnings("error")
def test_screen_pads_within_the_value_span():
    # values near 2**512, whose squares overflow while their differences' do
    # not: the screen runs, and no padded pair may difference against 0. The
    # last step is the winning pair, in a tile whose gaps run past the end.
    rng = np.random.default_rng(5)
    t = np.cumsum(rng.uniform(1e-4, 1e-3, 2 * R + 1))
    v = 2.0**512 * (1.0 + np.cumsum(rng.normal(size=t.size)) * 2.0**-40)
    v[-1] = v[-2] + 2.0**482
    assert holder._screen_is_exact(t, v)
    assert holder_sup_norm(t, v, 0.5) == reference_sup_norm(t, v, 0.5)


@given(st.integers(2, 1200), st.integers(0, 2**32 - 1),
       st.integers(-600, 600), st.integers(-240, 240))
@example(1200, 1, 600, -240)
@example(1200, 2, -600, 240)
@example(1200, 3, 600, 240)
@example(1200, 4, -600, -240)
def test_norm_scales_exactly_on_both_sides_of_the_screen_guard(n, seed, kv, kt):
    # dyadic samples, so every scaled difference is exact: v * 2**kv scales the
    # Lip(1/2) norm by 2**kv and t * 4**kt by 2**-kt, bit for bit, whether the
    # squared-quotient screen runs (moderate scales) or its guard sends every
    # tile to the exact scan (squares that overflow or underflow)
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(1, 1025, n)) / 1024.0
    v = np.cumsum(rng.integers(-1024, 1025, n)) / 1024.0
    base = holder_sup_norm(t, v, 0.5)
    assert holder_sup_norm(t * 4.0**kt, v * 2.0**kv, 0.5) == base * 2.0**(kv - kt)


def test_screen_rescans_at_most_two_tiles_of_a_bridge_term(monkeypatch):
    # the converted Lind(4) term on 5000 samples: its pairs anchored at the
    # swallowing end all sit within 1e-4 of the sup, but only the winner's tile
    # (and at most one tie) is within the screen's margin
    r = 1.3
    grid = r * r * np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, DENSE_PAIR_LIMIT - 1)[1:],
                                   [1.0]))
    u = halfplane_to_disk(Scaled(Lind(4.0), r), 2.0 * r, grid).term
    assert u.times.size == DENSE_PAIR_LIMIT
    exact, calls = holder._exact_quotient_max, []

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(holder, "_exact_quotient_max", counted)
    assert holder_sup_norm(u.times, u.table_values, 0.5) == pytest.approx(4.0, abs=0.01)
    assert 1 <= len(calls) <= 2


def test_scan_memory_is_linear_in_the_sample_count():
    # one pair tile at a time: a few arrays of n floats and two tile buffers,
    # not blocks of 512 x n pairs
    n = DENSE_PAIR_LIMIT
    t = np.linspace(0.0, 1.0, n)
    v = np.sqrt(t)
    tracemalloc.start()
    try:
        holder_sup_norm(t, v, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_constant_has_zero_norm():
    t = np.linspace(0, 1, 50)
    assert holder_sup_norm(t, np.full_like(t, 5.0), 0.5) == 0.0


def test_sqrt_norm_matches_analytic_and_brute_force():
    # sup |c sqrt(t) - c sqrt(s)| / sqrt(t-s) = c, attained at s = 0
    t = np.linspace(0, 1, 400)
    v = 3.0 * np.sqrt(t)
    got = holder_sup_norm(t, v, 0.5)
    assert got == pytest.approx(3.0, abs=0.01)
    sub = slice(0, 400, 4)
    assert holder_sup_norm(t[sub], v[sub], 0.5) == pytest.approx(
        brute_force_norm(t[sub], v[sub], 0.5), abs=1e-12)


def test_dyadic_subset_agrees_for_anchored_sup():
    # above the dense limit the dyadic path still sees the (0, t) pairs
    t = np.linspace(0, 1, 6001)
    v = 3.0 * np.sqrt(t)
    assert t.size > DENSE_PAIR_LIMIT
    assert holder_sup_norm(t, v, 0.5) == pytest.approx(3.0, abs=1e-9)


def test_dyadic_subset_sees_pairs_anchored_at_the_last_sample():
    # flat up to t_m, then (1 - t)**0.75: subadditivity of x**0.75 puts the
    # unique Lip(1/2) sup (1 - t_m)**0.25 at the pair (m, last), whose index
    # gap 4000 is no power of two
    t = np.linspace(0, 1, 5001)
    m = 1000
    v = np.minimum(1.0 - t, 1.0 - t[m]) ** 0.75
    assert t.size > DENSE_PAIR_LIMIT
    assert holder_sup_norm(t, v, 0.5) == pytest.approx((1.0 - t[m]) ** 0.25, rel=1e-12)


def test_scale_covariance():
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(0, 1, 60))
    t[0] = 0.0
    v = np.cumsum(rng.normal(size=60)) * 0.1
    base = holder_sup_norm(t, v, 0.5)
    for k in (0.5, 2.0, 7.5):
        assert holder_sup_norm(t, k * v, 0.5) == pytest.approx(k * base, rel=1e-12)


def test_refinement_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = np.sort(rng.uniform(0, 1, 80))
        v = np.sin(3 * t) + rng.normal(scale=0.05, size=80)
        coarse = holder_sup_norm(t[::2], v[::2], 0.5)
        fine = holder_sup_norm(t, v, 0.5)
        assert fine >= coarse - 1e-15


def test_requires_two_samples_and_valid_exponent():
    with pytest.raises(ValueError):
        holder_sup_norm([0.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        holder_sup_norm([0.0, 1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        holder_sup_norm([0.0, 1.0], [1.0, 2.0], 1.5)
    # a non-finite sample would make the sup NaN, or 0 where NaN drops out of max()
    for times, values in (([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
                          ([-np.inf, 0.0, 1.0], [0.0, 1.0, 2.0])):
        with pytest.raises(ValueError):
            holder_sup_norm(times, values, 0.5)


def _power_law_samples(c, a, window=(1e-6, 1e-2), n=120):
    t = np.concatenate(([0.0], np.geomspace(window[0], window[1], n)))
    return t, c * t**a


def test_fit_recovers_sqrt_law():
    t, v = _power_law_samples(2.0, 0.5)
    fit = holder_exponent_fit(t, v, window=(1e-6, 1e-2))
    assert fit.exponent == pytest.approx(0.5, abs=1e-3)
    assert fit.coefficient == pytest.approx(2.0, abs=1e-2)


def test_fit_recovers_cube_root_law():
    t, v = _power_law_samples(3.3528, 1.0 / 3.0)
    fit = holder_exponent_fit(t, v, window=(1e-6, 1e-2))
    assert fit.exponent == pytest.approx(1.0 / 3.0, abs=1e-3)


@pytest.mark.parametrize("a", [1.0 / 3.0, 0.5, 2.0 / 3.0])
@pytest.mark.parametrize("c", [0.5, 1.0, 5.0])
def test_fit_recovers_power_laws(a, c):
    t, v = _power_law_samples(c, a)
    fit = holder_exponent_fit(t, v, window=(1e-6, 1e-2))
    assert fit.exponent == pytest.approx(a, abs=1e-3)
    assert fit.coefficient == pytest.approx(c, rel=1e-2)


def test_fit_errors():
    t, v = _power_law_samples(1.0, 0.5)
    with pytest.raises(FitError):
        holder_exponent_fit(t, v, window=(-1.0, 1e-2))
    with pytest.raises(FitError):
        holder_exponent_fit(t, np.zeros_like(t), window=(1e-6, 1e-2))
    with pytest.raises(FitError):
        holder_exponent_fit(t[1:], v[1:], window=(1e-6, 1e-2))  # no t=0 sample
