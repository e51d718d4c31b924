import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from loewner import Lind, PoleError, Scaled, critical, integrate
from loewner.critical import (MAX_GRID_NODES, MAX_Y_ZEROS, SCAN_TOL, X0_OFFSET, c_grid,
                              c_iteration, collision_threshold_experiment, g_eval,
                              y_sequence)
from loewner.halfplane import evolve_boundary
from loewner.integrate import solve_scalar


def test_g_values_by_substitution():
    assert g_eval(1, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert g_eval(1, 4.0) == pytest.approx(3.0)
    assert g_eval(2, 4.0) == pytest.approx(8.0 / 3.0)
    # y - 4/(y - 4/y) = 0 at y^2 = 8
    assert g_eval(2, 2 * math.sqrt(2)) == pytest.approx(0.0, abs=1e-12)


def test_g_pole_error():
    with pytest.raises(PoleError):
        g_eval(2, 2.0)  # g_1(2) = 0 is a pole of g_2


def test_y_zeros():
    assert y_sequence(1)[-1] == pytest.approx(2.0, abs=1e-10)
    assert y_sequence(2)[-1] == pytest.approx(2 * math.sqrt(2), abs=1e-10)


def test_y_sequence_monotone_and_approaches_four():
    ys = y_sequence(50)
    assert np.all(np.diff(ys) > 0)
    assert np.all(ys < 4.0)
    assert ys[-1] > 3.99


def test_y_sequence_matches_cosine_closed_form():
    # derived conjecture validated against the bisection oracle, 1e-9 agreement
    ys = y_sequence(50)
    closed = 4.0 * np.cos(np.pi / (np.arange(1, 51) + 2))
    assert np.max(np.abs(ys - closed)) < 1e-9


def test_c_iteration_at_four_follows_closed_form():
    # with eps = 0 the iterates from c = 4 are exactly 2(n+2)/(n+1) -> 2
    res = c_iteration(4.0, eps=0.0, n_max=60)
    n = np.arange(res.values.size)
    assert np.allclose(res.values, 2.0 * (n + 2) / (n + 1), rtol=1e-12)
    assert res.verdict == "stays_positive"
    assert np.all(np.diff(res.values) < 0)


def test_c_iteration_below_threshold_crosses_zero():
    res = c_iteration(3.9, eps=1e-6)
    assert res.verdict == "crosses_zero"
    assert res.crossed_at is not None and res.crossed_at < 100


def test_c_iteration_above_threshold_converges_to_larger_root():
    eps = 1e-6
    res = c_iteration(4.2, eps=eps, n_max=500)
    assert res.verdict == "stays_positive"
    root = (4.2 + math.sqrt(4.2 ** 2 - 16.0 / (1 + eps))) / 2.0
    assert res.values[-1] == pytest.approx(root, rel=1e-10)


def test_iterates_stay_below_g_recursion():
    # c_n < g_n((1+eps) c) holds on every sample; positivity of all c_n then
    # forces (1+eps) c above every zero y_n. (The companion upper bound
    # g_n < (1+eps) c_n is false as stated: already at n = 1 the difference is
    # exactly 4 eps / ((1+eps) c) > 0, so only the lower half is asserted.)
    for c, eps in ((4.5, 0.01), (4.2, 1e-3), (5.0, 1e-6)):
        res = c_iteration(c, eps=eps, n_max=30)
        for n in range(1, res.values.size):
            if res.values[n] <= 0:
                break
            assert res.values[n] < g_eval(n, (1 + eps) * c)


def test_c_grid_hits_the_decimal_nodes():
    cs = c_grid(3.5, 4.5, 0.05)
    assert cs.size == 21
    assert 3.95 in cs.tolist() and 4.0 in cs.tolist()
    assert cs[0] == 3.5 and cs[-1] == 4.5


def test_c_grid_node_count_matches_arange():
    # steps that do not divide the range give as many nodes as
    # np.arange(c_min, c_max + 1e-9, c_step)
    for lo, hi, step in ((3.9, 4.1, 0.03), (3.5, 4.5, 0.3), (0.0, 1.0, 0.07), (3.9, 4.1, 0.2)):
        assert c_grid(lo, hi, step).size == np.arange(lo, hi + 1e-9, step).size
    with pytest.raises(ValueError):
        c_grid(3.5, 4.5, 0.0)


def test_c_grid_node_count_is_bounded():
    # a step giving twice the limit is refused before the grid is built
    # (16 MB of nodes, and one boundary solve each, if it were)
    with pytest.raises(ValueError, match="exceeds the limit"):
        c_grid(3.5, 4.5, 1.0 / (2 * MAX_GRID_NODES))
    step = 1.0 / MAX_GRID_NODES
    assert c_grid(0.0, 1.0 - step, step).size == MAX_GRID_NODES


def test_empty_or_unbounded_inputs_are_rejected():
    for bounds in ((3.5, math.inf, 0.05), (-math.inf, 4.5, 0.05), (3.5, 4.5, math.nan),
                   (3.5, 4.5, math.inf), (4.0, 3.0, 0.05), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError):
            c_grid(*bounds)
    assert c_grid(4.0, 4.0, 0.05).tolist() == [4.0]
    # the count's slack is relative to the step: one node, not 1001 up to 4 + 1e-9
    assert c_grid(4.0, 4.0, 1e-12).tolist() == [4.0]
    with pytest.raises(ValueError):
        c_iteration(4.0, n_max=0)
    with pytest.raises(ValueError):
        y_sequence(0)


def test_y_sequence_length_is_bounded(monkeypatch):
    # refused before any bisection (each zero costs O(n) recursion steps):
    # a g_eval that fails when called shows that none runs
    def no_evaluation(n, y):
        raise AssertionError("g_eval ran")

    monkeypatch.setattr(critical, "g_eval", no_evaluation)
    for n_max in (MAX_Y_ZEROS + 1, 10**9):
        with pytest.raises(ValueError, match="n_max must lie in"):
            y_sequence(n_max)


def test_threshold_experiment_small_grid():
    exp = collision_threshold_experiment([3.5, 4.0, 4.4])
    by_c = {v.c: v for v in exp.verdicts}
    assert not by_c[3.5].collides
    assert by_c[4.0].collides
    assert by_c[4.0].first_collision_t == pytest.approx(1.0, abs=1e-3)
    assert by_c[4.4].collides
    assert exp.is_monotone
    assert exp.threshold == 4.0


def test_lind_collision_from_x0_two():
    traj = evolve_boundary(Lind(4.0), 2.0, 1.0)
    assert traj.is_swallowed
    assert traj.swallowed_at == pytest.approx(1.0, abs=1e-3)


def _serial_scan_collides(c: float) -> bool:
    """Reference: whether any of 200 start points right of lambda(0) is
    swallowed by a solve to t = 1, gap-checked against COLLISION_DELTA."""
    term = Lind(c)
    return any(evolve_boundary(term, float(x0), 1.0, SCAN_TOL).is_swallowed
               for x0 in term.value(0.0) + np.geomspace(1e-3, 20.0, 200))


def test_one_solve_verdict_matches_the_serial_scan():
    agree = (3.6, 3.9, 3.92, 4.0, 4.3)
    exp = collision_threshold_experiment(agree)
    assert [v.collides for v in exp.verdicts] == [_serial_scan_collides(c) for c in agree]


def test_terminal_verdict_mends_the_serial_scans_false_collisions():
    # a solve to t = 1 is "swallowed" within ~1e-13 of t = 1 for c in about
    # (3.92, 4): the gap y*sqrt(1 - t) falls under COLLISION_DELTA while y is
    # still crossing the bottleneck of dy/dtau = (y**2 - c*y + 4)/(2y), which
    # it leaves for y -> infinity when c < 4
    cs = (3.925, 3.95, 3.99)
    exp = collision_threshold_experiment(cs)
    assert not any(v.collides for v in exp.verdicts)
    assert all(_serial_scan_collides(c) for c in cs)


#: c_grid(3.5, 4.5, 0.01) and the values nearest the threshold and inside the
#: band where a solve to t = 1 collides falsely
ORACLE_CS = tuple(c_grid(3.5, 4.5, 0.01).tolist()) + (3.92, 3.95, 3.999, 3.9999, 4.0001)


def _oracle_collides(c: float) -> bool:
    """Collision by t = 1 from the self-similar flow, without its roots.

    u = log y with y = (x - lambda)/sqrt(1 - t) obeys
    du/dtau = (1 - c*exp(-u) + 4*exp(-2u))/2 in tau = -log(1 - t), from
    u = log(X0_OFFSET) at tau = 0. An escape (u past 50) before tau = 3000 is
    no collision; a bounded u keeps the gap y*sqrt(1 - t) shrinking to 0.
    """
    res = solve_scalar(lambda u, _: 0.5 * (1.0 - c * math.exp(-u) + 4.0 * math.exp(-2.0 * u)),
                       lambda _: 0.0, 0.0, math.log(X0_OFFSET), 3000.0, tol=1e-10,
                       gap=lambda u, _: max(50.0 - u, 0.0))
    return res.swallowed_at is None


def test_oracle_reads_the_paper_threshold():
    assert [_oracle_collides(c) for c in ORACLE_CS] == [c >= 4.0 for c in ORACLE_CS]


def test_terminal_verdict_matches_the_oracle():
    exp = collision_threshold_experiment(ORACLE_CS)
    assert [v.collides for v in exp.verdicts] == [_oracle_collides(c) for c in ORACLE_CS]
    assert exp.threshold == 4.0 and exp.is_monotone


def test_terminal_verdict_does_not_depend_on_the_resolution_knobs(monkeypatch):
    reference = [v.collides for v in collision_threshold_experiment(ORACLE_CS).verdicts]
    for owner, name, value in ((integrate, "COLLISION_DELTA", 1e-8),
                               (integrate, "COLLISION_DELTA", 1e-4),
                               (critical, "TERMINAL_EPS", 1e-2),
                               (critical, "TERMINAL_EPS", 1e-6)):
        with monkeypatch.context() as patched:
            patched.setattr(owner, name, value)
            exp = collision_threshold_experiment(ORACLE_CS)
        assert [v.collides for v in exp.verdicts] == reference, (name, value)


@settings(max_examples=60)
@given(c=st.one_of(st.floats(-12.0, 12.0), st.sampled_from((4.0, 3.9999, 4.0001, 0.0))))
def test_collision_exactly_from_norm_four(c):
    # the signed parameter decides: lambda_c moves away from x0 when c <= 0
    (v,) = collision_threshold_experiment([c]).verdicts
    assert v.collides is (c >= 4.0)
    assert (v.first_collision_t is not None) is v.collides
    assert (v.x0 is not None) is v.collides


@settings(max_examples=30)
@given(cs=st.lists(st.floats(3.0, 5.0), min_size=2, max_size=6))
def test_verdicts_are_monotone_in_c(cs):
    exp = collision_threshold_experiment(cs)
    assert exp.is_monotone
    by_c = sorted(exp.verdicts, key=lambda v: v.c)
    assert [v.collides for v in by_c] == sorted(v.collides for v in by_c)


def test_verdict_fields_are_python_scalars():
    # a grid of np.float64 must not leak np.bool_ or numpy floats into verdicts
    for v in collision_threshold_experiment(np.array([3.5, 4.0, 4.5])).verdicts:
        assert type(v.collides) is bool and type(v.c) is float
        assert type(v.y_handoff) is float


def test_handoff_state_explains_the_verdict():
    (below, at, above) = collision_threshold_experiment([3.95, 4.0, 4.5]).verdicts
    # y(t_h) sits under y+ = 2 at c = 4 and under (4.5 + sqrt(4.25))/2 at 4.5;
    # at 3.95 it has no root to approach
    assert at.collides and at.first_collision_t == 1.0 and 0.0 < at.y_handoff < 2.0
    assert above.collides and above.y_handoff < 0.5 * (4.5 + math.sqrt(4.25))
    assert not below.collides and below.first_collision_t is None
    assert below.y_handoff is not None


@settings(max_examples=25)
@given(c=st.one_of(st.floats(3.5, 4.5), st.sampled_from((3.95, 3.999, 4.0, 4.0001))),
       r=st.floats(0.3, 3.0))
def test_scaled_lind_verdict_matches_the_oracle(c, r):
    # Loewner scaling maps the point x0 of Lind(c) to r*x0 of Scaled(Lind(c), r)
    # and leaves y = (x - lambda)/sqrt(T - t) unchanged
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(critical, "Lind", lambda c: Scaled(Lind(c), r))
        patched.setattr(critical, "X0_OFFSET", r * X0_OFFSET)
        (v,) = collision_threshold_experiment([c]).verdicts
    assert v.collides is _oracle_collides(c)
    if v.collides:
        assert v.first_collision_t == pytest.approx(r * r, rel=1e-12)


@settings(max_examples=40)
@given(c=st.floats(3.5, 4.5), a=st.floats(1e-5, 20.0), b=st.floats(1e-5, 20.0))
def test_nearer_point_is_swallowed_no_later(c, a, b):
    # real solutions never cross, so the point nearer lambda(0) = 0 goes first;
    # start points within integrate.COLLISION_DELTA (1e-6) of lambda(0) are rejected
    assume(a != b)
    x0, x1 = min(a, b), max(a, b)
    term = Lind(c)
    near = evolve_boundary(term, x0, 1.0, SCAN_TOL)
    far = evolve_boundary(term, x1, 1.0, SCAN_TOL)
    if far.is_swallowed:
        assert near.is_swallowed
        assert near.swallowed_at <= far.swallowed_at + 1e-9


def test_disk_side_verdicts_match(monkeypatch):
    # converting lambda_c with a colliding/representative x0 and re-running
    # collision detection in the disk gives the same verdict per c
    from loewner.bridge import halfplane_to_disk
    from loewner.disk import evolve_disk_boundary

    # x0 = 1.9 sits strictly inside the colliding basin for c >= 4 (x0 = 2 is
    # the marginal separatrix, where interpolation noise flips the verdict);
    # the angle solution rides the interpolated chord at a gap of about
    # 2/(chord slope), so the disk threshold must sit above that surf gap
    # (~5e-6 with the 1e-10 tail) and below the subcritical minimum gap (~4e-2)
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-10, 700)[1:], [1.0]))
    for c, hp_collides in ((3.6, False), (4.0, True), (4.3, True)):
        x0 = 1.9
        conv = halfplane_to_disk(Lind(c), x0, grid, tol=1e-10)
        with monkeypatch.context() as patched:
            patched.setattr(integrate, "COLLISION_DELTA", 1e-4)
            traj = evolve_disk_boundary(conv.term, x0, conv.term.domain_end, tol=1e-9)
        disk_collides = traj.is_swallowed and traj.swallowed_at <= 1.0 + 1e-3
        assert disk_collides == hp_collides
