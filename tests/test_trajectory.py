import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner import Trajectory, write_trajectory_csv


def test_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([1.0, float("inf")]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5]), np.array([1.0, 2.0]), swallowed_at=0.9)


def test_value_lookup():
    traj = Trajectory(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]))
    assert traj.value_at(0.5) == 2.0
    with pytest.raises(KeyError):
        traj.value_at(0.25)


@st.composite
def trajectory_and_queries(draw):
    """A real or complex trajectory and query times: samples, points within
    2e-12 relative of a sample, arbitrary times, and an occasional NaN or
    infinity. Some samples lie closer together than 1e-12 relative, so a near
    point can land on a neighbouring sample, and some lie near t = 0."""
    t0 = draw(st.floats(-10.0, 10.0))
    steps = draw(st.lists(st.one_of(st.floats(1e-13, 3e-12), st.floats(1e-3, 1.0)),
                          max_size=30))
    times = t0 + np.cumsum([0.0] + steps)  # steps exceed the ulp of |t| <= 41
    finite = dict(allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        values = [draw(st.complex_numbers(max_magnitude=1e6, **finite)) for _ in times]
    else:
        values = [draw(st.floats(-1e6, 1e6, **finite)) for _ in times]
    near = st.tuples(st.integers(0, times.size - 1), st.floats(-2e-12, 2e-12)).map(
        lambda kd: times[kd[0]] + kd[1] * abs(times[kd[0]]))
    query = st.one_of(near, st.sampled_from(times.tolist()), st.floats(-20.0, 20.0),
                      st.sampled_from([math.nan, math.inf, -math.inf]))
    return Trajectory(times, np.asarray(values)), draw(st.lists(query, max_size=20))


def reference_value_at(traj, t):
    """Per-time sample lookup by linear scan, the reference for values_at: the
    sample equal to t; every other time, NaN included, is a miss."""
    t = float(t)
    for s, v in zip(traj.times.tolist(), traj.values):
        if s == t:
            return v
    raise KeyError(f"time {t!r} is not a sample of this trajectory")


@given(trajectory_and_queries())
def test_values_at_equals_value_at_per_time(case):
    traj, ts = case
    try:
        ref = np.array([reference_value_at(traj, t) for t in ts])
    except KeyError as exc:
        for lookup in (traj.values_at, lambda ts: [traj.value_at(t) for t in ts]):
            with pytest.raises(KeyError) as got:
                lookup(ts)
            assert got.value.args == exc.args
        return
    got = traj.values_at(ts)
    # the loop gives float64 on an empty ts; values_at keeps the values' dtype
    assert got.dtype == traj.values.dtype
    assert got.shape == ref.shape and np.array_equal(got, ref)
    assert np.array_equal([traj.value_at(t) for t in ts], ref)
    if ts:
        assert ref.dtype == got.dtype


def test_complex_csv_with_terminal_comment(tmp_path):
    traj = Trajectory(np.array([0.0, 0.25]), np.array([1j, 0.5j]), swallowed_at=0.25)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert lines[-1] == "# terminal=swallowed t=0.25"
    assert len(lines) == 4


def test_real_csv_schema(tmp_path):
    traj = Trajectory(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, traj)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,value"
    assert len(lines) == 3


def test_swallowed_trajectory_ends_exactly_at_the_swallowing_time():
    # the solvers land on tau exactly; a last sample one ulp off is not tau
    Trajectory(np.array([0.0, 0.5]), np.array([1.0, 2.0]), swallowed_at=0.5)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5]), np.array([1.0, 2.0]),
                   swallowed_at=math.nextafter(0.5, 1.0))
