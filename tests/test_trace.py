import cmath
import math

import numpy as np
import pytest

from loewner import Constant, Sqrt
from loewner.halfplane import evolve_interior
from loewner.tangent import TangentTerm
from loewner.trace import extract_trace


def forward_consistency(term, t: float, tip: complex, tol: float = 1e-10) -> float:
    """Distance |h(tip, t) - lambda(t)| after evolving a computed tip forward.

    The exact tip maps to the driving point; the square-root behavior of the
    map near the slit amplifies a tip error e to a gap of order sqrt(t * e).
    """
    traj = evolve_interior(term, tip, t, tol)
    return abs(complex(traj.final_value) - term.value(traj.final_time))


def test_vertical_slit_tips():
    tips = extract_trace(Constant(0.0), [0.25, 1.0], tol=1e-8)
    for t, tip in tips:
        assert abs(tip - 2j * math.sqrt(t)) < 1e-4
    assert tips[1][1] == pytest.approx(2j, abs=1e-4)


def test_self_similar_driving_gives_straight_ray():
    tips = extract_trace(Sqrt(2.0), np.geomspace(0.05, 1.0, 6), tol=1e-8)
    phases = [cmath.phase(tip) for _, tip in tips]
    assert max(phases) - min(phases) < 1e-3


def test_tangent_tips_on_unit_circle_about_i():
    grid = np.geomspace(1e-4, 0.02, 8)
    tips = extract_trace(TangentTerm(1.0), grid, tol=1e-8)
    for _, tip in tips:
        assert abs(abs(tip - 1j) - 1.0) <= 1e-2


def test_forward_consistency_of_tips():
    # an exact tip flows onto the driving point; the sqrt behavior of the map
    # near the slit amplifies the ~1e-7 tip error to ~1e-3, well under 1e-2
    tips = extract_trace(Constant(0.0), [0.25, 1.0], tol=1e-8)
    for t, tip in tips:
        assert forward_consistency(Constant(0.0), t, tip) < 1e-2


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
