import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loewner import Constant, FromCallable, Lind, Sqrt, TraceError
from loewner.halfplane import evolve_interior
from loewner.tangent import TangentTerm
from loewner.trace import extract_trace


def test_vertical_slit_tips():
    # at t = 2.7e6, exp(log t) exceeds t by an ulp, past the term's time slack
    # unless the backward offset is clamped to t
    tips = extract_trace(Constant(0.0), [0.25, 1.0, 2.7e6], tol=1e-8)
    for t, tip in tips:
        assert abs(tip - 2j * math.sqrt(t)) <= 1e-12 * math.sqrt(t)


def _tilted_slit_tip(c: float, t: float) -> complex:
    """Closed-form tip of the straight slit driven by c*sqrt(t), at angle pi*a."""
    a = 0.5 - c / (2.0 * math.sqrt(16.0 + c * c))
    size = 2.0 * math.sqrt(t) * ((1.0 - a) / a) ** ((1.0 - 2.0 * a) / 2.0)
    return size * cmath.exp(1j * math.pi * a)


@settings(max_examples=60)
@given(c=st.floats(-3.9, 3.9), e=st.floats(-6.0, 1.0))
@example(c=1.0, e=-300.0)
def test_self_similar_driving_gives_straight_ray(c, e):
    # lambda = c*sqrt(t) draws a straight slit; t = 10**e, log-uniform, and
    # t = 1e-300, whose solve starts on a subnormal time t * (float epsilon)
    t = 10.0 ** e
    ((_, tip),) = extract_trace(Sqrt(c), [t], tol=1e-8)
    exact = _tilted_slit_tip(c, t)
    assert abs(tip - exact) <= 1e-6 * abs(exact)


@pytest.mark.parametrize("c", [0.0, 1.0, -2.0, 3.0, 3.9, -3.9])
def test_lind_end_tip(c):
    # lambda(1 - u) - lambda(1) = -c*sqrt(u): D = -c is constant, the start
    # profile is exact, and gamma(1) = c/2 + i*sqrt(4 - c**2/4)
    ((_, tip),) = extract_trace(Lind(c), [1.0], tol=1e-8)
    assert abs(tip - complex(c / 2.0, math.sqrt(4.0 - c * c / 4.0))) <= 1e-6


def test_lind_end_without_a_slit_tip_raises():
    # for |c| > 4 the backward profile has no root in the upper half-plane
    with pytest.raises(TraceError, match="D0="):
        extract_trace(Lind(4.5), [1.0])


@settings(max_examples=40)
@given(r=st.floats(0.3, 3.0), e=st.floats(-7.0, math.log10(0.05)))
def test_tangent_tips_are_covariant_under_loewner_scaling(r, e):
    # TangentTerm(r) is the r-scaled tangent slit: its tip at r**2 * t is r
    # times the unit slit's tip at t, for t = 10**e
    t = 10.0 ** e
    ((_, scaled),) = extract_trace(TangentTerm(r), [r * r * t])
    ((_, unit),) = extract_trace(TangentTerm(1.0), [t])
    assert abs(scaled - r * unit) <= 1e-7


def test_tangent_tips_on_unit_circle_about_i():
    grid = np.geomspace(1e-4, 0.02, 8)
    tips = extract_trace(TangentTerm(1.0), grid, tol=1e-8)
    for _, tip in tips:
        assert abs(abs(tip - 1j) - 1.0) <= 1e-7


def test_tips_obey_the_semigroup_identity():
    # g_t = g'_(t-s) o g_s, where g' is driven by lambda(s + .): the forward
    # flow to time s carries the tip at t onto the tip at t - s of the
    # shifted term, away from the driving point, where the flow is regular
    for term, t in ((Sqrt(1.0), 1.0), (Sqrt(-2.5), 1.0), (Lind(3.0), 1.0),
                    (TangentTerm(1.0), 0.05)):
        ((_, tip),) = extract_trace(term, [t])
        for s in (t / 4, t / 2, 0.9 * t):
            end = term.domain_end
            shifted = FromCallable(lambda u, s=s, term=term: term.value(s + u),
                                   None if end is None else end - s)
            ((_, later),) = extract_trace(shifted, [t - s])
            moved = complex(evolve_interior(term, tip, s).final_value)
            assert abs(moved - later) <= 1e-6 * abs(later)


def test_tolerance_refinement_is_cauchy():
    coarse = extract_trace(Sqrt(1.0), [0.5], tol=1e-6)[0][1]
    fine = extract_trace(Sqrt(1.0), [0.5], tol=1e-10)[0][1]
    finer = extract_trace(Sqrt(1.0), [0.5], tol=1e-12)[0][1]
    assert abs(fine - finer) <= abs(coarse - finer) + 1e-12


def test_consecutive_tips_converge_under_grid_refinement():
    # the trace is a continuous curve: consecutive-tip gaps shrink roughly in
    # half when the time grid is refined twofold
    def max_gap(n):
        tips = extract_trace(Sqrt(1.0), np.linspace(0.2, 1.0, n), tol=1e-8)
        return max(abs(b - a) for (_, a), (_, b) in zip(tips, tips[1:]))

    g5, g9 = max_gap(5), max_gap(9)
    assert g9 < 0.7 * g5


def test_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        extract_trace(Constant(0.0), [0.0, 0.5])


def test_rejects_subnormal_times():
    # below the smallest normal float t * (float epsilon) underflows to 0
    with pytest.raises(ValueError, match=r"t=1e-310 is subnormal"):
        extract_trace(Sqrt(1.0), [0.5, 1e-310])
