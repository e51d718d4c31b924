import math

import numpy as np
import pytest

from loewner import integrate
from loewner.errors import IntegrationError
from loewner.integrate import solve_scalar


def test_exponential_decay():
    res = solve_scalar(lambda t, y: -y, 0.0, 1.0, 3.0, tol=1e-13)
    assert res.swallowed_at is None
    assert res.values[-1] == pytest.approx(math.exp(-3.0), rel=1e-9)


def test_complex_rotation():
    res = solve_scalar(lambda t, y: 1j * y, 0.0, 1.0 + 0j, math.pi, tol=1e-13)
    assert res.values[-1] == pytest.approx(-1.0 + 0j, abs=1e-8)


def test_capture_times_are_samples():
    cap = np.array([0.1, 0.25, 0.5, 0.77])
    res = solve_scalar(lambda t, y: y, 0.0, 1.0, 1.0, capture=cap)
    for t in cap:
        i = np.searchsorted(res.times, t)
        assert res.times[i] == t
        assert res.values[i] == pytest.approx(math.exp(t), rel=1e-8)


@pytest.mark.parametrize("y0", [np.float64(1.0), 1.0 + 0.5j])
def test_stepper_passes_python_scalars_to_f_and_gap(y0, monkeypatch):
    # capture times come as an ndarray and y0 may be a numpy scalar; the
    # right-hand side and the gap still see Python floats (complex y for a
    # complex y0), never numpy scalars
    y_type = complex if isinstance(y0, complex) else float
    seen = set()

    def f(t, y):
        seen.add((type(t), type(y)))
        return -y

    def gap(t, y):
        seen.add((type(t), type(y)))
        return abs(y)

    monkeypatch.setattr(integrate, "COLLISION_DELTA", 1e-3)
    res = solve_scalar(f, 0.0, y0, 1.0, gap=gap, capture=np.linspace(0.0, 1.0, 11))
    assert res.swallowed_at is None and res.times.size > 11
    assert seen == {(float, y_type)}


def test_collision_refinement(monkeypatch):
    # y' = -1 from 1; gap = y crosses threshold 0.5 at t = 0.5 exactly
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 0.5)
    res = solve_scalar(lambda t, y: -1.0, 0.0, 1.0, 2.0, gap=lambda t, y: y)
    assert res.swallowed_at == pytest.approx(0.5, abs=1e-9)
    assert res.times[-1] == pytest.approx(res.swallowed_at)


def test_immediate_collision_at_start(monkeypatch):
    monkeypatch.setattr(integrate, "COLLISION_DELTA", 0.5)
    res = solve_scalar(lambda t, y: 1.0, 0.0, 1.0, 1.0, gap=lambda t, y: 0.0)
    assert res.swallowed_at == 0.0


def test_t_end_equals_t0():
    res = solve_scalar(lambda t, y: y, 2.0, 5.0, 2.0)
    assert res.times.tolist() == [2.0]
    assert res.values.tolist() == [5.0]


def test_t_end_before_t0_or_nan_is_rejected():
    for t_end in (-0.5, math.nan):
        with pytest.raises(ValueError):
            solve_scalar(lambda t, y: -y, 0.0, 1.0, t_end)


def test_step_floor_failure_carries_state():
    # integrable singularity y' = 1/(2 sqrt(1-t)) with a tolerance the floor
    # cannot satisfy across the endpoint
    def f(t, y):
        return 0.5 / math.sqrt(max(1.0 - t, 1e-300))

    with pytest.raises(IntegrationError) as err:
        solve_scalar(f, 0.0, 0.0, 1.0, tol=1e-16)
    assert err.value.t > 0.9


def test_record_false_keeps_endpoints_only():
    res = solve_scalar(lambda t, y: -y, 0.0, 1.0, 2.0, record=False)
    assert len(res.times) == 2
    assert res.values[-1] == pytest.approx(math.exp(-2.0), rel=1e-8)
