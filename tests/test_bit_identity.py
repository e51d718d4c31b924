"""Bit-level regression pins: results of the four solve paths, as float.hex.

A speed change to the stepper, the flows or the driving terms must keep every
real-number operation the same IEEE operation on the same operands; these pins
fail on any drift in the last bit. The values were recorded before the
stepper took its right-hand side as a function of (y, lambda), except two:
the threshold experiment's handoff state y(t_h), recorded when its solve first
stopped at the terminal layer (a plain solve to t_h with the earlier stepper
gives the same bits), and the tangent slit's h+(0.01), re-recorded when that
stiff branch moved from the explicit seed-and-solve path to the implicit
SDIRK steps of ``integrate.solve_singular_branch``. That value is also held
to beta(0.01) within 1e-9; the old path's value was 9.3e-11 off, the new one
is 4.2e-11 off.
"""

from loewner.critical import collision_threshold_experiment
from loewner.disk import evolve_disk_boundary
from loewner.driving import Lind, Sampled
from loewner.halfplane import evolve_boundary, singular_plus
from loewner.tangent import TangentTerm, solve_params
from loewner.trace import extract_trace


def test_lind_swallowing_time_is_pinned():
    assert evolve_boundary(Lind(4.0), 2.0, 1.0).swallowed_at.hex() == "0x1.ffffffffff802p-1"


def test_threshold_handoff_state_is_pinned():
    (verdict,) = collision_threshold_experiment([4.0]).verdicts
    assert verdict.y_handoff.hex() == "0x1.bcf8483f9ab50p+0"


def test_tangent_singular_endpoint_is_pinned():
    value = float(singular_plus(TangentTerm(1.0), 0.01).final_value)
    assert value.hex() == "0x1.66e8a8096f6a8p-1"
    assert abs(value / solve_params(0.01).beta - 1.0) <= 1e-9


def test_disk_boundary_sample_on_sampled_term_is_pinned():
    term = Sampled([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 0.25, 1.0, 0.75])
    traj = evolve_disk_boundary(term, 2.0, 1.0, capture=[0.6])
    assert float(traj.value_at(0.6)).hex() == "0x1.3769557118149p+1"
    assert float(traj.final_value).hex() == "0x1.61b33bf5fc3a0p+1"


def test_trace_tip_is_pinned():
    tip = extract_trace(TangentTerm(1.0), [0.01])[0][1]
    assert (tip.real.hex(), tip.imag.hex()) == ("0x1.1a9c8ddb927c1p-1", "0x1.544107afd3c0ep-3")
