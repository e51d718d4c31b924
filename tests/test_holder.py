import numpy as np
import pytest

from loewner import FitError, holder_exponent_fit, holder_sup_norm
from loewner.holder import DENSE_PAIR_LIMIT


def brute_force_norm(times, values, exponent):
    """Independent oracle: plain double loop over all pairs."""
    best = 0.0
    n = len(times)
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, abs(values[j] - values[i])
                       / (times[j] - times[i]) ** exponent)
    return best


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
