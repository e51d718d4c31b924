"""Bit-level regression pins: results of the solve paths, as float.hex or as
the sha256 of whole capture-bound trajectories.

A speed change to the stepper, the flows or the driving terms must keep every
real-number operation the same IEEE operation on the same operands; these pins
fail on any drift in the last bit. The three trajectory digests (the Lind(4)
bridge's half-plane and disk flows and the Sqrt(2) singular pair, each
sampled at 3000 capture times) were first recorded before capped steps took
their driving values from a block table (since deleted), and the Holder
norms of the bridge's disk term before the pair scan moved into reused
buffers. The other
values were recorded before the stepper took its right-hand side as a
function of (y, lambda), except two: the threshold experiment's handoff state
y(t_h), recorded when its solve first stopped at the terminal layer (a plain
solve to t_h with the earlier stepper gives the same bits), and the tangent
slit's h+(0.01), re-recorded when that stiff branch moved from the explicit
seed-and-solve path to the implicit SDIRK steps of
``integrate.solve_singular_branch``. That value is also held to beta(0.01)
within 1e-9; the old path's value was 9.3e-11 off, the new one is 4.2e-11 off.
The Sqrt(2) singular pair was re-recorded when every singular solution
started leaving the driving point through that stepper, in place of a
square-root seed integrated by the explicit stepper from 1e-8/256 to 1e-8;
the new start is the exact ray, so both branches are also held to
A+- sqrt(t), A+- = 1 +- sqrt(5), within 1e-12 relative on all 3000 captures
(about 1e-15 now; the old pins were up to 5.8e-8 off).
The two CLI file digests pin what ``singular`` and ``convert`` write after
looking their samples up with ``Trajectory.values_at`` and their driving
values up with ``DrivingTerm.values``; they were recorded before the sample
lookup became an exact match and the domain end slack became relative.
Four pins were re-recorded when the explicit stepper's absolute step floor of
1e-14 gave way to a floor of 4 ulps of t: the threshold handoff state, both
Sqrt(2) singular-pair digests and the ``singular`` file digest. Each of these
solves opens with a step proposal below 1e-14 (5.0e-15 in the c = 4 threshold
solve, 6.2e-16 and 1.6e-15 where the Sqrt(2) pair hands over to the explicit
stepper at t = 1e-6), which the old floor raised to 1e-14 and the new one
leaves as it is. The handoff state moved by 2.5e-9, and the pair stays within
1.4e-15 of its rays.
Nine pins were re-recorded when capture times stopped cutting steps: the
explicit stepper now steps by accuracy alone and fills each capture from the
Dormand-Prince continuous extension, and a singular branch stays in the
implicit stepper up to t_end, landing on its first capture and on t_end and
filling the other captures from a cubic Hermite in (log t, Y). These are the
Sampled-term disk sample (both values; 4.1e-11 and 2.7e-8 moved), the
half-plane and disk flow digests, both Holder norms of the bridge term
(7.1e-8 and 6.7e-10 moved), both Sqrt(2) singular-pair digests (now within
2.5e-15 of their rays) and both CLI file digests. The solves without
interior captures (the Lind swallowing time, the threshold handoff state,
the tangent endpoint and the trace tip) keep their bits.
"""

import hashlib

import numpy as np
import pytest

from loewner.bridge import halfplane_to_disk
from loewner.cli import main
from loewner.critical import collision_threshold_experiment
from loewner.disk import evolve_disk_boundary
from loewner.holder import holder_sup_norm
from loewner.driving import Lind, Sampled, Scaled, Sqrt
from loewner.halfplane import evolve_boundary, singular_minus, singular_plus
from loewner.tangent import TangentTerm, solve_params
from loewner.trace import extract_trace


def test_lind_swallowing_time_is_pinned():
    assert evolve_boundary(Lind(4.0), 2.0, 1.0).swallowed_at.hex() == "0x1.ffffffffff802p-1"


def test_threshold_handoff_state_is_pinned():
    (verdict,) = collision_threshold_experiment([4.0]).verdicts
    assert verdict.y_handoff.hex() == "0x1.bcf8484a4e1c8p+0"


def test_tangent_singular_endpoint_is_pinned():
    value = float(singular_plus(TangentTerm(1.0), 0.01).final_value)
    assert value.hex() == "0x1.66e8a8096f6a8p-1"
    assert abs(value / solve_params(0.01).beta - 1.0) <= 1e-9


def test_disk_boundary_sample_on_sampled_term_is_pinned():
    term = Sampled([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 0.25, 1.0, 0.75])
    traj = evolve_disk_boundary(term, 2.0, 1.0, capture=[0.6])
    assert float(traj.value_at(0.6)).hex() == "0x1.3769557101931p+1"
    assert float(traj.final_value).hex() == "0x1.61b33c30c122bp+1"


def test_trace_tip_is_pinned():
    tip = extract_trace(TangentTerm(1.0), [0.01])[0][1]
    assert (tip.real.hex(), tip.imag.hex()) == ("0x1.1a9c8b1d91195p-1", "0x1.54410f0f91facp-3")
    # the tangent slit is the circle |z - i| = 1
    assert abs(abs(tip - 1j) - 1.0) <= 2e-8


def _digest(traj) -> str:
    h = hashlib.sha256(np.ascontiguousarray(traj.times, dtype=float).tobytes())
    h.update(np.ascontiguousarray(traj.values, dtype=float).tobytes())
    return h.hexdigest()


def _bridge_case():
    # the bridge round trip's grid at r = 1.3: 3000 nodes on [0, r**2],
    # geometrically dense towards the swallowing time r**2
    r = 1.3
    grid = r * r * np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, 2999)[1:], [1.0]))
    return Scaled(Lind(4.0), r), 2.0 * r, grid


def test_capture_bound_halfplane_flow_is_pinned():
    term, x0, grid = _bridge_case()
    traj = evolve_boundary(term, x0, float(grid[-1]), capture=grid)
    assert _digest(traj) == "7b1489e9f639373766a74ce62efd09d3ec0106dd514b02cad1649081ceeb870e"


def test_capture_bound_disk_flow_is_pinned():
    term, x0, grid = _bridge_case()
    u = halfplane_to_disk(term, x0, grid).term
    traj = evolve_disk_boundary(u, x0, u.domain_end, capture=u.times)
    assert _digest(traj) == "6fb82e2edb2123880908c66a67c66feeead6ac21bd1f35f0dfada550f3b7a41c"


@pytest.mark.parametrize("exponent, pinned", [
    pytest.param(0.5, "0x1.fff7bc218ff2fp+1", id="half"),
    pytest.param(1.0 / 3.0, "0x1.dc11fa3d4ba06p+1", id="third"),
])
def test_holder_norm_of_bridge_term_is_pinned(exponent, pinned):
    # all 3000 samples of the bridge's disk term, so every index gap is scanned
    term, x0, grid = _bridge_case()
    u = halfplane_to_disk(term, x0, grid).term
    assert holder_sup_norm(u.times, u.table_values, exponent).hex() == pinned


@pytest.mark.parametrize("solve, sign, digest", [
    pytest.param(singular_plus, 1.0,
                 "32103f3932e2bbb10345c3950f48a3c9a3865472811652332436fef11f2e9b34",
                 id="singular_plus"),
    pytest.param(singular_minus, -1.0,
                 "8dd453cb5db6afbeaf710c0034d98e0816ef0308c2525e1d74d323a35f894cfd",
                 id="singular_minus"),
])
def test_capture_bound_singular_pair_is_pinned(solve, sign, digest):
    grid = np.geomspace(1e-6, 1.0, 3000)
    traj = solve(Sqrt(2.0), 1.0, capture=grid)
    assert _digest(traj) == digest
    ray = (1.0 + sign * np.sqrt(5.0)) * np.sqrt(grid)
    assert np.max(np.abs(traj.values_at(grid) / ray - 1.0)) <= 1e-12


@pytest.mark.parametrize("argv, digest", [
    pytest.param(["singular", "--term", "sqrt:2", "--t-end", "1", "--n", "3000"],
                 "cec7edfc4c66c5641aca1ee413d39557875e680e2cbfd73ac17ed002fa62d584",
                 id="singular"),
    pytest.param(["convert", "--direction", "h2d", "--term", "lind:4", "--start", "2",
                  "--t-grid", "lin:0:0.999:800"],
                 "2597cfe37059f84a7885cd16914c2c9b56241cc838eb521dcaf467d85c83981b",
                 id="convert"),
])
def test_cli_output_file_is_pinned(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
