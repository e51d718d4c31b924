import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner import DomainError, PoleError
from loewner.halfplane import evolve_interior
from loewner.tangent import BETA_LEADING, T_MAX_DEFAULT, TangentTerm, solve_params

#: alpha(t) = ALPHA_LEADING * t**(2/3) + A2 * t + ... as t -> 0
ALPHA_LEADING = -((9.0 / (4.0 * math.pi)) ** (1.0 / 3.0))
A2 = -3.0 / (4.0 * math.pi)

#: |h(z, t) - z - 2t/z| ~ H_T43_COEFF * t**(4/3) / |z|**2 as t -> 0
H_T43_COEFF = 1.5 * BETA_LEADING


def _log1p_complex(z):
    """log(1 + z) for complex z without cancellation (Kahan's trick)."""
    z = np.asarray(z, dtype=complex)
    u = 1.0 + z
    correction = np.where(u == 1.0, 1.0, np.log(np.where(u == 1.0, 2.0, u)) / np.where(u == 1.0, 1.0, u - 1.0))
    return z * correction


def evaluate_map(params, w):
    """The slit map f(w, t) for w in the closed half-plane, w not a prevertex.

    Vectorized over complex arrays. The principal logarithm is the correct
    branch: on the closed upper half-plane the ratio (w - alpha)/(w - beta)
    never crosses the negative real axis, and log -> 0 at infinity. The log is
    evaluated as log1p((beta - alpha)/(w - beta)) to avoid cancellation at
    large |w| (needed for capacity extraction).
    """
    if params.alpha == params.beta:  # t = 0: no slit yet, f is the identity
        return w
    a, b = params.alpha, params.beta
    warr = np.asarray(w, dtype=complex)
    scale = max(abs(a), abs(b))
    if np.any(np.abs(warr - a) < 1e-14 * scale) or np.any(np.abs(warr - b) < 1e-14 * scale):
        raise PoleError("w coincides with a prevertex of the slit map")
    inv = _log1p_complex((b - a) / (warr - b)) / (2.0 * math.pi) \
        + ((a + b) / (b - a)) / (warr - a)
    out = 1.0 / inv
    return complex(out) if np.isscalar(w) or np.asarray(w).ndim == 0 else out


def test_series_coefficients_arithmetic():
    assert ALPHA_LEADING == pytest.approx(-((9 / (4 * math.pi)) ** (1 / 3)), rel=1e-14)
    assert BETA_LEADING == pytest.approx((12 * math.pi) ** (1 / 3), rel=1e-14)
    assert ALPHA_LEADING == pytest.approx(-0.89468, abs=1e-4)
    assert BETA_LEADING == pytest.approx(3.3531, abs=1e-4)
    assert A2 == pytest.approx(-3 / (4 * math.pi), rel=1e-14)
    assert A2 == pytest.approx(-0.23873, abs=1e-4)
    assert H_T43_COEFF == pytest.approx(1.5 * BETA_LEADING)


def test_degenerate_slit_at_t0():
    p = solve_params(0.0)
    assert p.alpha == p.beta == p.gamma_prevertex == 0.0
    assert evaluate_map(p, 1 + 2j) == 1 + 2j


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_params(-1e-3)
    with pytest.raises(DomainError):
        solve_params(T_MAX_DEFAULT * 1.01)


def test_param_invariants_on_log_grid():
    for t in np.geomspace(1e-10, T_MAX_DEFAULT, 25):
        p = solve_params(float(t))
        assert p.alpha < 0 < p.beta
        assert p.beta - (p.alpha + 2 * math.sqrt(-p.alpha * math.pi)) == pytest.approx(0, abs=1e-10)
        assert p.alpha * (3 * p.alpha + 4 * math.sqrt(-p.alpha * math.pi)) + 6 * t \
            == pytest.approx(0, abs=1e-10)
        assert (p.alpha - p.beta) ** 2 + 4 * math.pi * p.alpha == pytest.approx(0, abs=1e-10)
        assert p.gamma_prevertex == pytest.approx(2 * p.alpha + p.beta)


def test_alpha_near_leading_term_at_small_t():
    lead = ALPHA_LEADING * (1e-3) ** (2.0 / 3.0)
    assert solve_params(1e-3).alpha == pytest.approx(lead, rel=0.05)


def test_small_t_exponents_and_coefficients():
    # fit window chosen where the t**(1/3)-order corrections are negligible;
    # wider windows (e.g. 1e-8..1e-4) bias the alpha slope past 1e-3
    ts = np.geomspace(1e-10, 1e-5, 50)
    params = [solve_params(float(t)) for t in ts]
    sa, ia = np.polyfit(np.log(ts), np.log([-p.alpha for p in params]), 1)
    sb, ib = np.polyfit(np.log(ts), np.log([p.beta for p in params]), 1)
    assert sa == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert sb == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert math.exp(ia) == pytest.approx(-ALPHA_LEADING, rel=0.01)
    assert math.exp(ib) == pytest.approx(BETA_LEADING, rel=0.01)


def test_driving_term_zero_at_zero():
    assert solve_params(0.0).gamma_prevertex == 0.0


def test_driving_exponent_bracket_at_wide_window():
    # on the wide window the estimate drifts low with the t**(1/3) correction
    # but stays inside the stated bracket; the coefficient there is biased by
    # ~10% and is only meaningful on asymptotic windows
    from loewner.holder import holder_exponent_fit

    ts = np.concatenate(([0.0], np.geomspace(1e-6, 1e-3, 60)))
    lams = np.array([solve_params(float(t)).gamma_prevertex for t in ts])
    fit = holder_exponent_fit(ts, lams, window=(1e-6, 1e-3))
    assert 0.32 <= fit.exponent <= 0.345


def test_driving_term_exponent_and_coefficient():
    ts = np.geomspace(1e-12, 1e-6, 50)
    lams = np.array([solve_params(float(t)).gamma_prevertex for t in ts])
    slope, intercept = np.polyfit(np.log(ts), np.log(lams), 1)
    assert slope == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert math.exp(intercept) == pytest.approx(BETA_LEADING, rel=0.01)


def test_map_hydrodynamic_normalization():
    p = solve_params(0.01)
    for w in (1e4 + 0j, 1e4j, 7e3 + 7e3j):
        f = evaluate_map(p, w)
        assert abs(f - w + 2 * 0.01 / w) < 1e-6


def test_capacity_coefficient_is_2t():
    # Richardson extrapolation over two radii of the conjugate-symmetric
    # circle average of w*(w - f(w)), which isolates the 1/w coefficient
    t = 0.01
    p = solve_params(t)

    def circle_average(R, m=16):
        total = 0.0
        for k in range(m):
            w = R * cmath.exp(2j * math.pi * (k + 0.5) / m)
            if w.imag < 0:
                val = (w.conjugate() * (w.conjugate() - evaluate_map(p, w.conjugate())))
                total += val.conjugate().real
            else:
                total += (w * (w - evaluate_map(p, w))).real
        return total / m

    e1, e2 = circle_average(200.0), circle_average(400.0)
    extrap = 2 * e2 - e1
    assert abs(extrap - 2 * t) < 1e-8


def test_expansion_series_groupings_agree():
    # the closed form equals the double series (log expansion plus geometric
    # pole expansion) at large |w|
    p = solve_params(0.01)
    a, b = p.alpha, p.beta

    def inv_series(w, K=60):
        log_part = sum((b ** k - a ** k) / (k * w ** k) for k in range(1, K)) / (2 * math.pi)
        geo = sum((a / b) ** k for k in range(1, K))
        pole_part = (1 + 2 * geo) * sum(a ** (k - 1) / w ** k for k in range(1, K))
        return log_part + pole_part

    for w in (50 + 50j, 200 + 120j):
        assert abs(1.0 / evaluate_map(p, w) - inv_series(w)) < 1e-8


def test_map_is_real_beyond_prevertices():
    p = solve_params(0.01)
    for w in (p.beta * 1.5, p.beta + 10.0, p.alpha * 2.5, p.alpha - 5.0):
        f = evaluate_map(p, complex(w))
        assert abs(f.imag) < 1e-12 * max(1.0, abs(f))


def test_slit_side_maps_to_unit_circle_about_i():
    p = solve_params(0.01)
    for s in (0.15, 0.4, 0.6, 0.85):
        w = complex(p.alpha + s * (p.beta - p.alpha), 1e-8)
        z = evaluate_map(p, w)
        assert abs(abs(z - 1j) - 1.0) < 1e-3


def test_map_pole_error_at_prevertices():
    p = solve_params(0.01)
    with pytest.raises(PoleError):
        evaluate_map(p, complex(p.alpha))


def test_ode_cross_check_against_map():
    # z* = f(w*, t) must flow back to w* under the sampled driving term
    term = TangentTerm(1.0)
    for t_end in (1e-4, 0.01, T_MAX_DEFAULT / 2):
        p = solve_params(t_end)
        w_star = 1.0 + 1.0j
        z_star = evaluate_map(p, w_star)
        traj = evolve_interior(term, z_star, t_end, tol=1e-12)
        assert abs(traj.final_value - w_star) < 1e-4


def test_scaled_term_identities():
    assert TangentTerm(1.0).value(0.01) == solve_params(0.01).gamma_prevertex
    t_prime = 0.003
    assert TangentTerm(2.0).value(4.0 * t_prime) == pytest.approx(
        2.0 * solve_params(t_prime).gamma_prevertex, rel=1e-14)


def test_params_match_mpmath_down_to_tiny_t():
    # an absolute residual test is looser than P's own scale 6t for t below
    # about 1e-12 and loses alpha's relative accuracy there
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        sqrt_pi = mpmath.sqrt(mpmath.pi)
        for t in np.geomspace(1e-16, T_MAX_DEFAULT, 400):
            p = solve_params(float(t))
            tm = mpmath.mpf(float(t))
            s = mpmath.findroot(lambda x: 3 * x ** 4 - 4 * sqrt_pi * x ** 3 + 6 * tm,
                                mpmath.mpf(math.sqrt(-p.alpha)))
            alpha = -s * s
            beta = alpha + 2 * s * sqrt_pi
            worst = max(worst, float(abs(p.alpha / alpha - 1)), float(abs(p.beta / beta - 1)))
    assert worst <= 1e-13


def test_value_at_domain_end_for_any_radius():
    # domain_end / r**2 can round one ulp above t_max; the term must still
    # evaluate at its own domain end
    assert TangentTerm(0.31375).domain_end / 0.31375 ** 2 > T_MAX_DEFAULT
    for r in (0.31375, 0.7, 1.0, 3.3):
        term = TangentTerm(r)
        assert term.value(term.domain_end) == pytest.approx(
            r * solve_params(T_MAX_DEFAULT).gamma_prevertex, rel=1e-15)


@given(r=st.floats(0.25, 4.0), u=st.floats(0.0, 1.0))
def test_hot_path_matches_public_solve(r, u):
    term = TangentTerm(r)
    t = u * term.domain_end
    # t / r**2 may overshoot t_max by an ulp at the domain end
    tau = min(t / r ** 2, T_MAX_DEFAULT)
    p = solve_params(tau)
    expected = r * p.gamma_prevertex
    assert abs(term.value(t) - expected) <= 1e-15 * abs(expected)
    s = math.sqrt(-p.alpha)
    residual = 3 * s ** 4 - 4 * math.sqrt(math.pi) * s ** 3 + 6 * tau
    floor = sys.float_info.min  # subnormal t carries fewer than 53 bits
    assert abs(residual) <= max(1e-14 * min(1.0, 6 * tau), floor)


def test_scaled_term_exponent_invariance():
    # exponent stays 1/3; coefficient scales as r**(1/3) * (12 pi)**(1/3); the
    # fit window scales with r**2 so the estimator bias is the same for all r
    for r in (0.5, 2.0):
        term = TangentTerm(r)
        ts = r * r * np.geomspace(1e-12, 1e-6, 40)
        vals = term.values(ts)
        slope, intercept = np.polyfit(np.log(ts), np.log(vals), 1)
        assert slope == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert math.exp(intercept) == pytest.approx(r ** (1.0 / 3.0) * BETA_LEADING, rel=0.01)


def test_h_expansion_t43_term():
    # h(1/zeta, t) - 1/zeta - 2 zeta t grows like t**(4/3); the measured
    # coefficient follows (3/2) (12 pi)^(1/3) |zeta|^2 (checked at two z)
    term = TangentTerm(1.0)
    for z0 in (2j, 1 + 1j):
        ts = np.geomspace(1e-6, 1e-4, 10)
        resid = []
        for t_end in ts:
            traj = evolve_interior(term, z0, float(t_end), tol=1e-12)
            resid.append(abs(traj.final_value - z0 - 2 * t_end / z0))
        slope, intercept = np.polyfit(np.log(ts), np.log(resid), 1)
        assert slope == pytest.approx(4.0 / 3.0, abs=0.02)
        assert math.exp(intercept) == pytest.approx(H_T43_COEFF / abs(z0) ** 2, rel=0.1)
