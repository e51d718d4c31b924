import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loewner import (Constant, DomainError, FromCallable, IntegrationError, Lind,
                     Scaled, Sqrt)
from loewner import halfplane, integrate
from loewner.halfplane import (RatioDiagnostic, evolve_boundary, evolve_interior,
                               ratio_limsup_check, sharp_ratio_bound, singular_minus,
                               singular_plus, swallowed_interval)
from loewner.repro import SINGULAR_MATCH_RTOL
from loewner.tangent import T_MAX_DEFAULT, TangentTerm, solve_params


def closed_form_h(z, t):
    """h(z, t) = sqrt(z^2 + 4t), branch with Im >= 0, solves the flow at lambda = 0."""
    w = cmath.sqrt(z * z + 4.0 * t)
    return -w if w.imag < 0 else w


def test_closed_form_satisfies_ode():
    # independent oracle check: dh/dt = 2/h by centered differences
    z, t, dt = 1.2 + 0.7j, 0.3, 1e-6
    lhs = (closed_form_h(z, t + dt) - closed_form_h(z, t - dt)) / (2 * dt)
    rhs = 2.0 / closed_form_h(z, t)
    assert abs(lhs - rhs) < 1e-8


def test_interior_matches_closed_form():
    traj = evolve_interior(Constant(0.0), 1 + 1j, 0.5, tol=1e-12)
    assert traj.final_value == pytest.approx(closed_form_h(1 + 1j, 0.5), abs=1e-8)
    assert not traj.is_swallowed


def test_interior_identity_at_t0():
    traj = evolve_interior(Sqrt(2.0), 0.3 + 0.9j, 0.0)
    assert traj.final_time == 0.0
    assert traj.final_value == 0.3 + 0.9j


def test_interior_swallowing_on_slit_tip():
    # z0 = i sits on the vertical slit 2i*sqrt(t) exactly at t = 1/4
    traj = evolve_interior(Constant(0.0), 1j, 1.0)
    assert traj.is_swallowed
    assert traj.swallowed_at == pytest.approx(0.25, abs=1e-6)
    assert traj.times[-1] == traj.swallowed_at


def test_interior_requires_upper_half_plane():
    with pytest.raises(ValueError):
        evolve_interior(Constant(0.0), 1.0 - 0.5j, 1.0)


def test_boundary_closed_form():
    traj = evolve_boundary(Constant(0.0), 1.0, 2.0, tol=1e-12)
    assert traj.final_value == pytest.approx(3.0, abs=1e-8)


def test_boundary_identity_at_t0():
    traj = evolve_boundary(Lind(4.0), 2.0, 0.0)
    assert traj.final_value == 2.0


def test_boundary_lind_trajectory_and_swallowing():
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-4, 120)[1:]))
    traj = evolve_boundary(Lind(4.0), 2.0, 1.0, tol=1e-10, capture=grid)
    for t in grid:
        assert traj.value_at(t) == pytest.approx(4 - 2 * math.sqrt(1 - t), abs=1e-6)
    assert traj.is_swallowed
    assert traj.swallowed_at == pytest.approx(1.0, abs=1e-3)


def test_boundary_rejects_singular_start():
    with pytest.raises(ValueError):
        evolve_boundary(Constant(0.0), 0.0, 1.0)


def test_domain_error_beyond_term_domain():
    with pytest.raises(DomainError):
        evolve_boundary(Lind(4.0), 2.0, 1.5)


def test_step_underflow_carries_last_state(monkeypatch):
    # with no contact before the gap closes, the steps into the square-root
    # contact at t = 1 shrink to the floor of 4 ulps of t a few ulps short of it
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 1e-30)
    with pytest.raises(IntegrationError) as err:
        evolve_boundary(Lind(4.0), 2.0, 1.0)
    assert err.value.t > 0.999
    assert err.value.y == pytest.approx(4.0, abs=1e-3)


@pytest.mark.parametrize("r", [1e2, 1e3, 1e8])
def test_scaled_lind_meets_the_step_floor_at_its_swallowing_time(r):
    # Loewner scaling moves the contact of Lind(4) from 2 to t = r**2, with
    # the gap of size r * sqrt(1 - t / r**2). A floor of 4 ulps of t scales
    # with it and is met within a few ulps of r**2; an absolute floor of
    # 1e-14 lies below half an ulp of t there, so its steps left t in place
    # and the solve ran past the contact or through its step budget
    with pytest.raises(IntegrationError, match="step size underflow") as err:
        evolve_boundary(Scaled(Lind(4.0), r), 2.0 * r, r * r, 1e-10)
    assert 1.0 - err.value.t / r**2 < 1e-14


@pytest.mark.parametrize("c", [4.5, 5.0, 6.0])
def test_mid_domain_collisions_are_caught(c):
    # lambda(t) = c sqrt(s) - c sqrt(|t - s|) approaches its peak at t = s as
    # Lind(c) does at t = 1; for c > 4 it swallows a point just right of
    # lambda(0) at t = s, and every contact rule must report that
    missed = []
    for s in np.linspace(0.05, 0.95, 19):
        s = float(s)
        term = FromCallable(lambda t, s=s: c * math.sqrt(s) - c * math.sqrt(abs(t - s)), 1.0)
        traj = evolve_boundary(term, term.value(0.0) + 1e-3, 1.0, tol=1e-9)
        if not (traj.is_swallowed and abs(traj.swallowed_at - s) < 1e-9):
            missed.append((s, traj.swallowed_at))
    assert missed == []


def test_singular_constant_pm_two_sqrt_t():
    # oracle: h(t) = 2 sqrt(t) solves h' = 2/h with h(0) = 0
    for t in (1e-4, 0.3):
        h = 2 * math.sqrt(t)
        assert 2.0 / h == pytest.approx(1.0 / math.sqrt(t))
    grid = np.geomspace(1e-4, 1.0, 9)
    plus = singular_plus(Constant(0.0), 1.0, tol=1e-11, capture=grid)
    minus = singular_minus(Constant(0.0), 1.0, tol=1e-11, capture=grid)
    for t in grid:
        assert plus.value_at(t) == pytest.approx(2 * math.sqrt(t), abs=1e-6)
        assert minus.value_at(t) == pytest.approx(-2 * math.sqrt(t), abs=1e-6)


@settings(max_examples=30)
@given(c=st.floats(-3.9, 3.9))
def test_singular_sqrt_family_is_exact_ray(c):
    # for lambda = c sqrt(t) the singular solutions are A+- sqrt(t) with
    # A+- = (c +- sqrt(c^2 + 16))/2; substitution: (A sqrt(t))' = A/(2 sqrt t)
    # equals 2/((A - c) sqrt t) iff A^2 - cA - 4 = 0. The branch starts on
    # that ray, a fixed point of Y = (h - lambda(0))/sqrt(t) where dY/dtau
    # is 0, so its steps and the Hermite fill of the captures between them
    # keep Y on it up to rounding
    grid = np.geomspace(1e-6, 1.0, 3000)
    for solve, sign in ((singular_plus, 1.0), (singular_minus, -1.0)):
        A = 0.5 * (c + sign * math.sqrt(c * c + 16.0))
        assert A * A - c * A - 4.0 == pytest.approx(0.0, abs=1e-12)
        h = solve(Sqrt(c), 1.0, capture=grid).values_at(grid)
        assert np.max(np.abs(h / (A * np.sqrt(grid)) - 1.0)) <= 1e-12
    assert sharp_ratio_bound(1.0) == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-14)


def test_singular_initial_value_is_lambda0():
    base = Sqrt(2.0)
    plus = singular_plus(FromCallable(lambda t: 1.0 + base.value(t)), 0.0)
    assert plus.final_time == 0.0
    assert plus.final_value == 1.0


def test_swallowed_interval_constant():
    ivs = swallowed_interval(Constant(0.0), [0.25, 1.0])
    assert ivs[1].lower == pytest.approx(-2.0, abs=1e-6)
    assert ivs[1].upper == pytest.approx(2.0, abs=1e-6)
    assert ivs[0].upper == pytest.approx(1.0, abs=1e-6)


def test_swallowed_interval_degenerate_at_zero():
    base = Sqrt(3.0)
    ivs = swallowed_interval(FromCallable(lambda t: 0.7 + base.value(t)), [0.0, 0.5])
    assert ivs[0].lower == ivs[0].upper == pytest.approx(0.7)


def test_swallowed_interval_invariants_across_term_family():
    # the function itself asserts straddling and strict monotonicity; run it
    # over the built-in family of terms
    from loewner.tangent import TangentTerm

    for term, t_hi in ((Constant(1.0), 1.0), (Sqrt(2.0), 1.0),
                       (Lind(2.0), 0.9), (TangentTerm(1.0), 0.04)):
        grid = np.geomspace(t_hi * 1e-3, t_hi, 7)
        ivs = swallowed_interval(term, grid, tol=1e-10)
        assert len(ivs) == 7


def test_ratio_check_constant_attains_two():
    diag = ratio_limsup_check(Constant(0.0), np.geomspace(1e-6, 1.0, 12))
    assert diag.bound == 2.0
    assert np.allclose(diag.ratio, 2.0, rtol=1e-6)


def test_ratio_check_sqrt_attains_bound():
    diag = ratio_limsup_check(Sqrt(4.0), np.geomspace(1e-6, 1.0, 12))
    assert diag.bound == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-12)
    assert np.max(np.abs(diag.ratio / diag.bound - 1)) < 1e-6


def test_ratio_check_lind_stays_below_bound():
    diag = ratio_limsup_check(Lind(4.0), np.geomspace(1e-6, 0.9, 30))
    assert diag.bound == sharp_ratio_bound(4.0)
    assert diag.ratio.max() <= diag.bound + 1e-3


def test_ratio_check_needs_a_closed_form_norm():
    with pytest.raises(ValueError, match="no closed-form Lip"):
        ratio_limsup_check(FromCallable(Sqrt(1.0).value), np.geomspace(1e-6, 1.0, 5))


def test_grid_checks_reject_a_two_dimensional_grid():
    grid = np.geomspace(1e-6, 1.0, 6).reshape(2, 3)
    for check in (swallowed_interval, ratio_limsup_check):
        with pytest.raises(ValueError, match="1-d"):
            check(Sqrt(1.0), grid)


@settings(max_examples=40)
@given(r=st.floats(0.3, 3.0), e=st.floats(-12.0, 0.0))
@example(r=1.0, e=-12.0)
def test_tangent_singular_pair_is_covariant_under_loewner_scaling(r, e):
    # TangentTerm(r) is the r-scaled tangent slit, so its singular pair is
    # r * (alpha, beta)(t / r**2) at t = 10**e of the domain end; h+ runs
    # through the stiff layer, h- through the same blown-up variables
    term = TangentTerm(r)
    t = min(term.domain_end * 10.0 ** e, term.domain_end)
    p = solve_params(min(t / r**2, T_MAX_DEFAULT))  # may overshoot by an ulp
    plus = float(singular_plus(term, t, capture=[t]).final_value)
    minus = float(singular_minus(term, t, capture=[t]).final_value)
    assert abs(plus / (r * p.beta) - 1.0) <= SINGULAR_MATCH_RTOL
    assert abs(minus / (r * p.alpha) - 1.0) <= SINGULAR_MATCH_RTOL


def test_only_the_upper_singular_solution_of_a_steep_term_is_stiff(monkeypatch):
    # every singular solve is one branch call with q = p for h+ and 1 - p for
    # h-, so only h+ of a p < 1/2 term gets the stiff q < 1/2; each call runs
    # to t_end, receives the captures and is followed by no solve_scalar
    branch, scalar = [], []
    implicit, explicit = integrate.solve_singular_branch, halfplane.solve_scalar

    def spy_branch(lam, q, t_end, *, capture, **kwargs):
        branch.append((q, t_end, capture))
        return implicit(lam, q, t_end, capture=capture, **kwargs)

    monkeypatch.setattr(integrate, "solve_singular_branch", spy_branch)
    monkeypatch.setattr(halfplane, "solve_scalar",
                        lambda *args, **kwargs: scalar.append(1) or explicit(*args, **kwargs))

    def calls(solve, term, t_end):
        branch.clear()
        scalar.clear()
        grid = np.linspace(0.0, t_end, 5)[1:]
        traj = solve(term, t_end, capture=grid)
        assert traj.values_at(grid).size == 4
        assert [(t, capture is grid) for _, t, capture in branch] == [(t_end, True)]
        return pytest.approx(branch[0][0]), len(scalar)

    for term in (TangentTerm(1.0), Scaled(TangentTerm(1.0), 2.0)):
        assert calls(singular_plus, term, 0.01) == (1.0 / 3.0, 0)
        assert calls(singular_minus, term, 0.01) == (2.0 / 3.0, 0)
    for term in (Sqrt(1.0), Lind(4.0), Constant(0.0)):
        for solve in (singular_plus, singular_minus):
            assert calls(solve, term, 0.5) == (0.5, 0)


# --- flow properties ---------------------------------------------------------

def test_monotone_escape_imaginary_part_decreases():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z0 = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        traj = evolve_interior(Sqrt(rng.uniform(0, 3)), z0, 0.5, tol=1e-10)
        assert np.all(np.diff(traj.values.imag) < 0)


def test_boundary_ordering_preserved():
    term = Lind(3.0)
    grid = np.linspace(0.05, 0.9, 10)
    x = evolve_boundary(term, 0.5, 0.9, capture=grid)
    y = evolve_boundary(term, 0.8, 0.9, capture=grid)
    t_common = grid[grid <= min(x.final_time, y.final_time)]
    for t in t_common:
        assert x.value_at(t) < y.value_at(t)


def test_scaling_covariance():
    # evolving r*z0 under r*lambda(t/r^2) to r^2 t equals r*h(z0, t)
    term = Sqrt(1.5)
    r = 2.0
    z0 = 0.4 + 1.1j
    t_end = 0.35
    base = evolve_interior(term, z0, t_end, tol=1e-11)
    scaled = evolve_interior(Scaled(term, r), r * z0, r * r * t_end, tol=1e-11)
    assert scaled.final_value == pytest.approx(r * base.final_value, rel=1e-8)


def test_hydrodynamic_expansion_decay():
    # h(z,t) - z - 2t/z = O(|z|^-2): doubling |z| divides the residual by ~4
    term = Sqrt(1.0)
    t_end = 0.5

    def residual(R):
        z0 = complex(0.3, R)
        traj = evolve_interior(term, z0, t_end, tol=1e-12)
        return abs(traj.final_value - z0 - 2 * t_end / z0)

    r100, r200 = residual(100.0), residual(200.0)
    assert r100 < 1e-3
    assert 3.0 < r100 / r200 < 5.0
