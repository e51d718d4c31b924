import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loewner import FitError, holder, holder_exponent_fit, holder_sup_norm
from loewner.bridge import halfplane_to_disk
from loewner.driving import Lind, Scaled
from loewner.holder import DENSE_PAIR_LIMIT

# numpy's floating-point warnings (inf - inf, 0/0, overflow) fail the test
pytestmark = pytest.mark.filterwarnings("error")

B = holder._BLOCK


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


@pytest.mark.parametrize("n", sorted({2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 4 * B + 1}))
def test_tiled_scan_equals_reference_scan_at_tile_edges(n):
    # sizes that end a block of the certified scan on the last sample, or one
    # past it, or hold a single block; DENSE_PAIR_LIMIT itself is the test above
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(1e-4, 1e-3, n))
    v = np.cumsum(rng.normal(size=n))
    for exponent in (1.0 / 3.0, 0.5, 1.0):
        assert holder_sup_norm(t, v, exponent) == reference_sup_norm(t, v, exponent)


def test_scan_equals_reference_scan_at_extreme_scales():
    # values near 2**512, whose squares overflow while their differences do
    # not, on times scaled by 4**-240, 1 and 4**240; the last step is the
    # winning pair, in the last block, which holds one sample past a block edge
    rng = np.random.default_rng(5)
    steps = rng.uniform(1e-4, 1e-3, 2 * B + 1)
    v = 2.0**512 * (1.0 + np.cumsum(rng.normal(size=steps.size)) * 2.0**-40)
    v[-1] = v[-2] + 2.0**482
    for kt in (-240, 0, 240):
        t = np.cumsum(steps) * 4.0**kt
        for exponent in (1.0 / 3.0, 0.5, 1.0):
            assert holder_sup_norm(t, v, exponent) == reference_sup_norm(t, v, exponent)


@pytest.mark.parametrize("exponent", [1.0 / 3.0, 0.5])
def test_scan_finds_a_sup_only_a_block_bound_reaches(exponent):
    # a rise and a fall like (t - t_p)**0.75, flat elsewhere: the pair spanning
    # each is its Lip(a) sup. The rise spans the power-of-two gap 128, so the
    # lower bound sees it; the fall spans 129 samples, ends on a block's first
    # sample (its row's bound equals its quotient there) and is larger by 1e-4.
    t = np.arange(12.0 * B)
    p1, q2 = 5, 10 * B
    p2 = q2 - 129
    kink1 = np.clip(t - t[p1], 0.0, 128.0) ** 0.75
    kink2 = np.clip(t - t[p2], 0.0, 129.0) ** 0.75 * (1.0 + 1e-4) * (128.0 / 129.0) ** (0.75 - exponent)
    v = kink1 - kink2
    first = (v[p1 + 128] - v[p1]) / 128.0**exponent
    got = holder_sup_norm(t, v, exponent)
    assert got == reference_sup_norm(t, v, exponent)
    assert got == pytest.approx(first * (1.0 + 1e-4), rel=1e-12)


@st.composite
def adversarial_samples(draw):
    """Sample sets whose pair quotients tie, or whose sup sits where only the
    block bounds find it: constant, linear, one spike, tied steps, or a kink
    (t - t[p])**0.75 from p to q and flat elsewhere, whose Lip(a) sup for
    a < 0.75 is the pair (p, q) alone, at any index gap. Uniform or random
    time steps, and sizes around the block edges."""
    n = draw(st.sampled_from([2, 3, B - 1, B, B + 1, 2 * B, 2 * B + 1, 3 * B - 1])
             | st.integers(2, 4 * B + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n, dtype=float) if draw(st.booleans()) else np.cumsum(rng.uniform(1e-3, 1.0, n))
    family = draw(st.sampled_from(["constant", "linear", "spike", "steps", "kink"]))
    if family == "constant":
        v = np.full(n, draw(st.floats(-10.0, 10.0)))
    elif family == "linear":
        v = draw(st.floats(-10.0, 10.0)) * t + draw(st.floats(-10.0, 10.0))
    elif family == "spike":
        v = np.zeros(n)
        v[draw(st.integers(0, n - 1))] = draw(st.floats(-10.0, 10.0))
    elif family == "steps":
        width = draw(st.integers(1, B + 1))
        v = np.repeat(rng.integers(-3, 4, n // width + 1), width)[:n].astype(float)
    else:
        p = draw(st.integers(0, n - 2))
        q = draw(st.integers(p + 1, n - 1))
        v = np.clip(t - t[p], 0.0, t[q] - t[p]) ** 0.75
    return t, v


@settings(max_examples=200)
@given(adversarial_samples(),
       st.sampled_from([1.0 / 3.0, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True))
def test_scan_equals_reference_scan_on_ties_and_block_edges(samples, exponent):
    t, v = samples
    assert holder_sup_norm(t, v, exponent) == reference_sup_norm(t, v, exponent)


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


def test_scan_evaluates_few_pairs_of_a_bridge_term(monkeypatch):
    # the converted Lind(4) term on 5000 samples: the gaps below a block and the
    # rows whose bound reaches the running best are the only pairs evaluated
    # exactly, a few percent of the n(n-1)/2
    r = 1.3
    grid = r * r * np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, DENSE_PAIR_LIMIT - 1)[1:],
                                   [1.0]))
    u = halfplane_to_disk(Scaled(Lind(4.0), r), 2.0 * r, grid).term
    n = u.times.size
    assert n == DENSE_PAIR_LIMIT
    exact, evaluated = holder._exact_quotient_max, []

    def counted(num, den, exponent):
        evaluated.append(num.size)
        return exact(num, den, exponent)

    monkeypatch.setattr(holder, "_exact_quotient_max", counted)
    assert holder_sup_norm(u.times, u.table_values, 0.5) == pytest.approx(4.0, abs=0.01)
    assert sum(evaluated) <= 0.05 * n * (n - 1) / 2


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
