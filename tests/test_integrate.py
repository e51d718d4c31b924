import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loewner import halfplane, integrate
from loewner.driving import DrivingTerm, Lind, Scaled, Sqrt
from loewner.errors import IntegrationError
from loewner.halfplane import evolve_boundary, singular_minus, singular_plus
from loewner.integrate import solve_scalar, solve_singular_branch
from loewner.tangent import TangentTerm, solve_params

#: steps (accepted and rejected) the stiff branch of TangentTerm(1) took to
#: the end of its domain, t = 0.05, when the SDIRK stepper was introduced;
#: the explicit seed-and-solve path it replaced took about 3900
SINGULAR_BRANCH_STEPS = 430


def no_lam(t):
    """Driving value of an ODE whose right-hand side ignores it."""
    return 0.0


def test_exponential_decay():
    res = solve_scalar(lambda y, l: -y, no_lam, 0.0, 1.0, 3.0, tol=1e-13)
    assert res.swallowed_at is None
    assert res.values[-1] == pytest.approx(math.exp(-3.0), rel=1e-9)


def test_complex_rotation():
    res = solve_scalar(lambda y, l: 1j * y, no_lam, 0.0, 1.0 + 0j, math.pi, tol=1e-13)
    assert res.values[-1] == pytest.approx(-1.0 + 0j, abs=1e-8)


def test_capture_times_are_samples():
    cap = np.array([0.1, 0.25, 0.5, 0.77])
    res = solve_scalar(lambda y, l: y, no_lam, 0.0, 1.0, 1.0, capture=cap)
    for t in cap:
        i = np.searchsorted(res.times, t)
        assert res.times[i] == t
        assert res.values[i] == pytest.approx(math.exp(t), rel=1e-8)


def test_time_dependence_enters_through_lam():
    # y' = l with l = lam(t) = t, so y(t) = t**2 / 2
    res = solve_scalar(lambda y, l: l, lambda t: t, 0.0, 0.0, 2.0, tol=1e-12)
    assert res.values[-1] == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("y0", [np.float64(1.0), 1.0 + 0.5j])
def test_stepper_passes_python_scalars_to_f_and_gap(y0, monkeypatch):
    # capture times come as an ndarray and y0 may be a numpy scalar; the
    # driving value, the right-hand side and the gap still see Python floats
    # (complex y for a complex y0), never numpy scalars
    y_type = complex if isinstance(y0, complex) else float
    seen = {"lam": set(), "rhs": set(), "gap": set()}

    def lam(t):
        seen["lam"].add(type(t))
        return 0.5 * t

    def rhs(y, l):
        seen["rhs"].add((type(y), type(l)))
        return -y

    def gap(y, l):
        seen["gap"].add((type(y), type(l)))
        return abs(y)

    monkeypatch.setattr(integrate, "COLLISION_DELTA", 1e-3)
    res = solve_scalar(rhs, lam, 0.0, y0, 1.0, gap=gap, capture=np.linspace(0.0, 1.0, 11))
    assert res.swallowed_at is None and res.times.size > 11
    assert seen == {"lam": {float}, "rhs": {(y_type, float)}, "gap": {(y_type, float)}}


class CountingLind(Lind):
    """Lind term that counts its evaluations."""

    def __init__(self, c):
        super().__init__(c)
        self.calls = 0

    def _raw(self, t):
        self.calls += 1
        return super()._raw(t)


@pytest.mark.parametrize("with_gap", [False, True])
def test_one_driving_evaluation_per_stage_time(with_gap):
    # stages 2-6 take one lambda each; stage 7 shares stage 6's time on every
    # uncapped step, and the collision check reuses stage 7's value. The one
    # extra allowed is the final capped step landing on t_end off t + h
    term = CountingLind(3.0)
    gap = (lambda y, l: abs(y - l)) if with_gap else None
    res = solve_scalar(lambda y, l: 2.0 / (y - l), term.value, 0.0, 0.5, 1.0,
                       tol=1e-9, gap=gap)
    assert res.swallowed_at is None and res.n_steps > 20
    assert term.calls <= 5 * res.n_steps + 2


def _hp_gap(y, l):
    return abs(y - l)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_dense_captures_are_within_tol(tol):
    # y' = -l*y with l = 1: every capture is filled from the step's order-4
    # continuous extension, with an error below tol
    cap = np.linspace(0.01, 5.0, 500)
    res = solve_scalar(lambda y, l: -l * y, lambda t: 1.0, 0.0, 1.0, 5.0, tol=tol, capture=cap)
    i = np.searchsorted(res.times, cap)
    assert np.array_equal(res.times[i], cap)
    assert res.n_steps < 200
    assert np.max(np.abs(res.values[i] - np.exp(-cap))) <= tol


def test_captures_leave_the_steps_as_they_are():
    # captures do not cut steps: the step ends of a solve without captures
    # are samples of the same solve with them, bit for bit, and a capture on
    # a step end is one sample, so the times stay strictly increasing
    term = Lind(3.0)

    def solve(capture):
        return solve_scalar(lambda y, l: 2.0 / (y - l), term.value, 0.0, 2.0, 1.0, tol=1e-10,
                            gap=_hp_gap, capture=capture)

    ref = solve(None)
    ends = ref.times[1:-1:3]
    cap = np.sort(np.concatenate((ends, np.linspace(0.001, 0.999, 101))))
    res = solve(cap)
    assert np.all(np.diff(res.times) > 0)
    assert res.n_steps == ref.n_steps
    assert set(ref.times.tolist()) | set(cap.tolist()) == set(res.times.tolist())
    assert res.values[np.isin(res.times, ref.times)].tobytes() == ref.values.tobytes()


CAPTURE_CASES = {  # term, t0, y0, t_end, capture, tol
    # captures accumulating at the swallowing time near t = 1
    "capture-bound": (Lind(4.0), 0.0, 2.0, 1.0, 1.0 - np.geomspace(1.0, 1e-8, 400)[1:], 1e-10),
    # sparse captures: steps without any in between, and a tail after the last one
    "sparse": (Scaled(Lind(3.0), 1.3), 0.0, 2.0, 1.69, [0.01, 0.3, 0.31, 1.0], 1e-10),
    # a start off 0, captures before it, a repeated one and one at t_end
    "offset": (Sqrt(2.0), 0.05, 0.5, 1.0,
               [0.0, 0.1, 0.1 + 1e-9, 0.2, 0.75, 0.9, 1.0, 0.95, 0.95], 1e-10),
    # two-digit captures, some of which fall on no grid the steps make
    "decimal": (Sqrt(1.0), 0.0, 3.0, 1.0, np.round(np.linspace(0.01, 1.0, 100), 2), 1e-10),
    # a loose tolerance: steps far longer than the gaps between the captures
    "wide": (Sqrt(1.0), 0.0, 1e3, 1.0, [0.001, 0.009, 0.028], 1e-6),
    # a dense cluster of captures through the steps that fail the error test
    # from t = 0.996 on, and captures after them
    "rejected-in-run": (Lind(4.0), 0.0, 2.0, 0.999,
                        np.concatenate((np.linspace(0.05, 0.99, 18),
                                        np.linspace(0.99, 0.999, 41)[1:])),
                        1e-10),
    # 50 captures whose last one is t_end
    "ends-on-capture": (Scaled(Lind(4.0), 1.3), 0.0, 2.6, 1.0, np.linspace(0.02, 1.0, 50), 1e-10),
}


def _assert_captures_change_no_bit(term, t0, y0, t_end, capture, tol, stride):
    """Solve without captures, with ``capture`` and with every ``stride``-th
    capture: the three take the same steps, every sample at a step end or at
    a capture of the thinned solve is the same float in the full one, the
    captures before a contact are all samples, and the right-hand side sees
    Python floats only."""
    kinds = set()

    def solve(cap):
        def rhs(y, l):
            kinds.add(type(l))
            return 2.0 / (y - l)

        return solve_scalar(rhs, term.value, t0, y0, t_end, tol=tol, gap=_hp_gap, capture=cap)

    capture = np.asarray(capture, dtype=float)
    ref, res, thin = solve(None), solve(capture), solve(capture[::stride])
    assert kinds == {float}
    assert (res.swallowed_at, res.n_steps) == (ref.swallowed_at, ref.n_steps)
    assert (thin.swallowed_at, thin.n_steps) == (ref.swallowed_at, ref.n_steps)
    assert np.all(np.diff(res.times) > 0)
    t_stop = t_end if ref.swallowed_at is None else ref.swallowed_at
    inside = capture[(capture > t0) & (capture < t_stop)]
    assert set(res.times.tolist()) == set(ref.times.tolist()) | set(inside.tolist())
    for part in (ref, thin):
        assert res.values[np.isin(res.times, part.times)].tobytes() == part.values.tobytes()


@pytest.mark.parametrize("case", sorted(CAPTURE_CASES))
@pytest.mark.parametrize("stride", [1, 3, 256])
def test_block_table_changes_no_bit(case, stride):
    # named for the block of stage values capture steps were once read from;
    # captures now cut no step, so the bits to keep are those of the solve
    # without captures, and a capture's sample must not depend on which
    # other captures are asked for
    _assert_captures_change_no_bit(*CAPTURE_CASES[case], stride)


@st.composite
def _capture_layouts(draw):
    """(t0, capture) for a Lind(4) solve from 2 to t_end = 1, where it is
    swallowed: sorted random captures, some repeated, some before t0 and
    maybe one at t_end, and a cluster accumulating at the collision, where
    steps fail the error test and the contact cuts the last one."""
    t0 = draw(st.floats(0.0, 0.5))
    times = st.floats(-0.1, 1.0)
    spread = draw(st.lists(times, max_size=30))
    repeats = draw(st.lists(st.sampled_from(spread), max_size=3)) if spread else []
    at_end = [1.0] if draw(st.booleans()) else []
    far, near = draw(st.floats(1e-3, 0.3)), draw(st.floats(1e-9, 1e-4))
    cluster = 1.0 - np.geomspace(far, near, draw(st.integers(40, 200)))
    return t0, np.sort(np.concatenate((spread, repeats, at_end, cluster)))


@settings(max_examples=40, deadline=None)
@given(layout=_capture_layouts(), stride=st.sampled_from([1, 3, 256]))
def test_captures_change_no_bit_for_random_layouts(layout, stride):
    t0, capture = layout
    _assert_captures_change_no_bit(Lind(4.0), t0, 2.0, 1.0, capture, 1e-10, stride)


def _step_kinds(term, t0, y0, t_end, capture, tol):
    """Solve on ``capture`` and tell the steps apart by the calls they make:
    a step calls ``lam`` at t + h/5 and t + 3h/10 first, which give its start
    t, then rhs six times (k2 to k7), and only an accepted step is followed
    by a gap check. Returns the result and one (t, accepted) pair per step."""
    calls = []

    def rhs(y, l):
        calls.append("rhs")
        return 2.0 / (y - l)

    def lam(t):
        calls.append(t)
        return term.value(t)

    def gap(y, l):
        calls.append("gap")
        return _hp_gap(y, l)

    res = solve_scalar(rhs, lam, t0, y0, t_end, tol=tol, gap=gap, capture=capture)
    kinds = []
    i = calls.index("rhs") + 1  # past k1
    while calls[i:].count("rhs") >= 6:
        start = 3.0 * calls[i] - 2.0 * calls[i + 1]
        n_rhs = 0
        while n_rhs < 6:
            n_rhs += calls[i] == "rhs"
            i += 1
        accepted = i < len(calls) and calls[i] == "gap"
        kinds.append((start, accepted))
        i += accepted
    return res, kinds


def test_rejected_step_fills_no_capture_and_its_retry_does():
    # steps fail the error test inside the capture cluster: a rejected step
    # fills no capture, the accepted step that retries its span fills them,
    # and the steps after it fill the rest, each capture once and accurate
    term, t0, y0, t_end, capture, tol = CAPTURE_CASES["rejected-in-run"]
    res, kinds = _step_kinds(term, t0, y0, t_end, capture, tol)
    assert res.swallowed_at is None and len(kinds) == res.n_steps
    rejected = [t for t, accepted in kinds if not accepted]
    assert any(0.99 < t < 0.998 for t in rejected)
    i = np.searchsorted(res.times, capture)
    assert np.array_equal(res.times[i], capture) and np.all(np.diff(res.times) > 0)
    tight = solve_scalar(lambda y, l: 2.0 / (y - l), term.value, t0, y0, t_end, tol=1e-13,
                         capture=capture)
    assert np.max(np.abs(res.values[i] - tight.values[np.searchsorted(tight.times, capture)])) \
        <= 100 * tol


def test_last_step_takes_the_capture_at_t_end_as_its_value():
    term, t0, y0, t_end, capture, tol = CAPTURE_CASES["ends-on-capture"]
    assert capture[-1] == t_end
    res, kinds = _step_kinds(term, t0, y0, t_end, capture, tol)
    ref = solve_scalar(lambda y, l: 2.0 / (y - l), term.value, t0, y0, t_end, tol=tol,
                       gap=_hp_gap)
    # the last step lands on t_end and takes the capture there as its own
    # value: no step after it, no zero-length one and no second sample
    assert res.times[-1] == t_end and np.all(np.diff(res.times) > 0)
    assert res.values[-1].hex() == ref.values[-1].hex()
    assert len(kinds) == res.n_steps == ref.n_steps and kinds[-1][1]
    assert set(capture.tolist()) <= set(res.times.tolist())


@pytest.mark.parametrize("stride", [1, 3, 256])
def test_step_budget_running_out_in_a_run_matches_the_scalar_path(stride, monkeypatch):
    # the budget runs out inside the capture cluster, after steps have failed
    # the error test; with every capture or every stride-th one the solve
    # fails where the solve without captures does, with the same state
    term, t0, y0, t_end, capture, tol = CAPTURE_CASES["rejected-in-run"]
    _, kinds = _step_kinds(term, t0, y0, t_end, capture, tol)
    budget = 95
    assert 0.99 < kinds[budget - 1][0] and len(kinds) > budget
    assert not all(accepted for _, accepted in kinds[:budget])
    monkeypatch.setattr(integrate, "MAX_STEPS", budget)
    errors = []
    for cap in (None, capture, capture[::stride]):
        with pytest.raises(IntegrationError, match="step budget exhausted") as err:
            solve_scalar(lambda y, l: 2.0 / (y - l), term.value, t0, y0, t_end, tol=tol,
                         gap=_hp_gap, capture=cap)
        errors.append((str(err.value), err.value.t.hex(), err.value.y.hex()))
    assert errors[0] == errors[1] == errors[2]


def test_only_captures_before_the_contact_become_samples(monkeypatch):
    # y' = -1 from 1 with gap y meets the threshold 0.5 at t = 0.5 inside one
    # long step: the captures of that step before the contact are samples
    # (contd5 is exact on a line), and none after it is
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 0.5)

    def solve(capture):
        return solve_scalar(lambda y, l: -1.0, no_lam, 0.0, 1.0, 2.0, gap=lambda y, l: y,
                            capture=capture)

    ref = solve(None)
    t_start, tau = ref.times[-2], ref.swallowed_at
    assert t_start < 0.4 and tau == pytest.approx(0.5, abs=1e-9)
    before = np.linspace(t_start, tau, 6)[1:-1]
    res = solve(np.concatenate((before, [0.51, 0.6, 1.5])))
    assert res.swallowed_at == tau and res.times[-1] == tau
    assert res.times[-6:-1].tolist() == [t_start] + before.tolist()
    assert res.values[-5:-1] == pytest.approx(1.0 - before, abs=1e-15)


def test_capture_bound_solve_takes_the_steps_of_a_free_solve(monkeypatch):
    # the Lind(4) bridge solve on a 5000-node grid dense towards its
    # swallowing time: captures are filled, not landed on, so the steps stay
    # those of the solve without captures
    steps = []
    solve = halfplane.solve_scalar

    def spy(*args, **kwargs):
        res = solve(*args, **kwargs)
        steps.append(res.n_steps)
        return res

    monkeypatch.setattr(halfplane, "solve_scalar", spy)
    n = 5000
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, n - 1)[1:], [1.0]))
    for capture in (None, grid):
        evolve_boundary(Scaled(Lind(4.0), 1.0), 2.0, 1.0, 1e-10, capture=capture)
    free, captured = steps
    assert captured <= 2 * free


def test_singular_branch_fills_captures_without_evaluating_the_term(monkeypatch):
    # the branch fills its 3000 captures from its own steps instead of
    # landing on each: lam(0), the seed time and five stages per step, 32
    # scalar calls in all
    calls = []
    value = DrivingTerm.value

    def counted(self, t):
        calls.append(t)
        return value(self, t)

    monkeypatch.setattr(DrivingTerm, "value", counted)
    singular_plus(Sqrt(2.0), 1.0, capture=np.geomspace(1e-6, 1.0, 3000))
    assert len(calls) <= 100


def test_collision_refinement(monkeypatch):
    # y' = -1 from 1; gap = y crosses threshold 0.5 at t = 0.5 exactly
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 0.5)
    res = solve_scalar(lambda y, l: -1.0, no_lam, 0.0, 1.0, 2.0, gap=lambda y, l: y)
    assert res.swallowed_at == pytest.approx(0.5, abs=1e-9)
    assert res.times[-1] == pytest.approx(res.swallowed_at)


def test_collision_refinement_evaluates_lam_at_bisection_times(monkeypatch):
    # y' = 0 from 1 with l = lam(t) = t: the gap |y - l| = 1 - t crosses 0.5 at t = 0.5
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 0.5)
    res = solve_scalar(lambda y, l: 0.0, lambda t: t, 0.0, 1.0, 2.0,
                       gap=lambda y, l: abs(y - l))
    assert res.swallowed_at == pytest.approx(0.5, abs=1e-9)


def test_immediate_collision_at_start(monkeypatch):
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 0.5)
    res = solve_scalar(lambda y, l: 1.0, no_lam, 0.0, 1.0, 1.0, gap=lambda y, l: 0.0)
    assert res.swallowed_at == 0.0


def test_t_end_equals_t0():
    res = solve_scalar(lambda y, l: y, no_lam, 2.0, 5.0, 2.0)
    assert res.times.tolist() == [2.0]
    assert res.values.tolist() == [5.0]


def test_t_end_before_t0_or_nan_is_rejected():
    for t_end in (-0.5, math.nan):
        with pytest.raises(ValueError):
            solve_scalar(lambda y, l: -y, no_lam, 0.0, 1.0, t_end)


def test_step_floor_failure_carries_state():
    # integrable singularity y' = 1/(2 sqrt(1-t)) with a tolerance that steps
    # of 4 ulps of t cannot satisfy near the endpoint; the time dependence is
    # the driving value
    def rhs(y, l):
        return 0.5 / math.sqrt(max(l, 1e-300))

    with pytest.raises(IntegrationError) as err:
        solve_scalar(rhs, lambda t: 1.0 - t, 0.0, 0.0, 1.0, tol=1e-16)
    assert err.value.t > 0.9


def test_a_span_of_two_ulps_takes_one_step():
    # at t = 1e6 a step below half an ulp of t does not move t; the floor of
    # 4 ulps of t reaches t_end, and the one capped step lands on it
    t0 = 1e6
    t_end = t0 + 2 * math.ulp(t0)
    res = solve_scalar(lambda y, l: 1.0, no_lam, t0, 0.0, t_end)
    assert res.n_steps == 1
    assert abs(res.values[-1] - (t_end - t0)) <= math.ulp(t_end - t0)


def test_contact_near_zero_is_refined_relative_to_its_time():
    # y' = -1 meets the collision threshold at t = 1e-10: the bisection width
    # is relative to the step's end, with no absolute floor
    y0 = integrate.COLLISION_DELTA + 1e-10
    res = solve_scalar(lambda y, l: -1.0, no_lam, 0.0, y0, 2e-10, gap=lambda y, l: abs(y))
    assert abs(res.swallowed_at / 1e-10 - 1.0) < 1e-11


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_bad_tolerance_is_rejected_before_the_first_step(tol):
    calls = []

    def lam(t):
        calls.append(t)
        return 0.0

    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_scalar(lambda y, l: -y, lam, 0.0, 1.0, 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_singular_branch(lam, 1.0 / 3.0, 1.0, sign=1, tol=tol, capture=None)
    assert calls == []


def test_singular_branch_matches_the_tangent_prevertex():
    # h+ = beta(t) for the tangent slit, from the seed at 1e-12 * 1e-9 up
    term = TangentTerm(1.0)
    cap = [1e-9, 1e-6, 1e-3, 0.01, 0.05]
    res = solve_singular_branch(term.value, term.onset_exponent, 0.05, sign=1, tol=1e-10,
                                capture=np.array(cap))
    assert res.times[0] == 0.0 and res.values[0] == term.value(0.0)
    assert res.times[1] == integrate.SEED_FRACTION * cap[0]
    for t in cap:
        i = np.searchsorted(res.times, t)
        assert res.times[i] == t
        assert res.values[i] / solve_params(t).beta == pytest.approx(1.0, rel=1e-6)
    assert res.values[-1] / solve_params(0.05).beta == pytest.approx(1.0, rel=1e-9)


def test_singular_branch_lands_on_its_first_capture_and_on_t_end():
    # every step's last stage sits on its end: the branch evaluates lam at
    # its first capture and at t_end, and fills the later captures from its
    # steps without evaluating lam there
    term = TangentTerm(1.0)
    seen = set()

    def lam(t):
        seen.add(t)
        return term.value(t)

    cap = np.geomspace(1e-9, 0.04, 40)
    res = solve_singular_branch(lam, term.onset_exponent, 0.05, sign=1, tol=1e-10,
                                capture=cap)
    assert cap[0] in seen and 0.05 in seen
    assert not seen & set(cap[1:].tolist())
    assert set(cap.tolist()) <= set(res.times.tolist()) and res.times[-1] == 0.05
    assert np.all(np.diff(res.times) > 0)


def test_singular_branch_calls_lam_once_per_stage_time():
    # lam(0), the seed time, then one value for each of the five stages
    term = TangentTerm(1.0)
    seen = []

    def lam(t):
        seen.append(t)
        return term.value(t)

    res = solve_singular_branch(lam, term.onset_exponent, 0.01, sign=1, tol=1e-10,
                                capture=None)
    assert len(seen) == 5 * res.n_steps + 2
    assert {type(t) for t in seen} == {float}


def test_singular_branch_step_count_is_guarded():
    term = TangentTerm(1.0)
    res = solve_singular_branch(term.value, term.onset_exponent, 0.05, sign=1, tol=1e-10,
                                capture=None)
    assert res.n_steps <= 2 * SINGULAR_BRANCH_STEPS


def test_singular_branch_rejects_what_it_cannot_solve():
    lam = TangentTerm(1.0).value
    for q in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="exponent"):
            solve_singular_branch(lam, q, 0.01, sign=1, tol=1e-10, capture=None)
    for sign in (0, 2, -2, math.nan):
        with pytest.raises(ValueError, match="sign"):
            solve_singular_branch(lam, 1.0 / 3.0, 0.01, sign=sign, tol=1e-10, capture=None)
    for t_end in (0.0, math.nan):
        with pytest.raises(ValueError, match="t_end"):
            solve_singular_branch(lam, 1.0 / 3.0, t_end, sign=1, tol=1e-10, capture=None)
    # a seed time of 1e-12 * 5e-324 is 0, where Y = (h - lam(0)) / t**q is undefined
    with pytest.raises(IntegrationError, match="seed time underflows"):
        solve_singular_branch(lam, 1.0 / 3.0, 5e-324, sign=1, tol=1e-10, capture=None)
    # seed times in the term's domain whose t**(2q) underflows to 0 (q = 2/3)
    for term, t_end in ((TangentTerm(1e-150), 5e-302), (TangentTerm(1.0), 1e-300)):
        with pytest.raises(IntegrationError, match="seed time underflows"):
            singular_minus(term, t_end)
