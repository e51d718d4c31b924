import cmath
import math

import numpy as np
import pytest

from loewner import Constant, FromCallable, Sqrt
from loewner.disk import angle_gap, evolve_disk_boundary, evolve_disk_interior


def koebe_flow_value(z0, t):
    """Oracle for u = 0: the quantity w/(1+w)^2 grows by e^t along the flow."""
    K = math.exp(t) * z0 / (1 + z0) ** 2
    disc = math.sqrt((1 - 2 * K) ** 2 - 4 * K * K)
    return ((1 - 2 * K) - disc) / (2 * K)


def test_koebe_relation_is_conserved_up_to_exp_t():
    # independent oracle check by finite differences on the exact relation
    z0, t, dt = 0.1, 0.4, 1e-6
    w1, w2 = koebe_flow_value(z0, t - dt), koebe_flow_value(z0, t + dt)
    w = koebe_flow_value(z0, t)
    lhs = (w2 - w1) / (2 * dt)
    rhs = w * (1 + w) / (1 - w)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_origin_is_fixed_point():
    traj = evolve_disk_interior(Constant(0.7), 0j, 3.0)
    assert traj.final_value == 0j


def test_interior_identity_at_t0():
    traj = evolve_disk_interior(Sqrt(1.0), 0.2 + 0.1j, 0.0)
    assert traj.final_value == 0.2 + 0.1j


def test_interior_matches_koebe_oracle():
    t_end = math.log(2.0)
    traj = evolve_disk_interior(Constant(0.0), 0.1 + 0j, t_end, tol=1e-12)
    assert traj.final_value.real == pytest.approx(koebe_flow_value(0.1, t_end), abs=1e-9)
    assert abs(traj.final_value.imag) < 1e-12


def test_interior_requires_open_disk():
    with pytest.raises(ValueError):
        evolve_disk_interior(Constant(0.0), 1.0 + 0j, 1.0)


def test_boundary_antipodal_fixed_point():
    traj = evolve_disk_boundary(Constant(0.0), math.pi, 5.0)
    assert traj.final_value == pytest.approx(math.pi, abs=1e-12)


def test_boundary_closed_form():
    # u = 0 separates: cos(alpha/2) = cos(alpha0/2) exp(-t/2)
    alpha0, t_end = math.pi / 2, 2.0
    expected = 2 * math.acos(math.cos(alpha0 / 2) * math.exp(-t_end / 2))
    traj = evolve_disk_boundary(Constant(0.0), alpha0, t_end, tol=1e-12)
    assert traj.final_value == pytest.approx(expected, abs=1e-6)


def test_boundary_rejects_start_on_driving_angle():
    with pytest.raises(ValueError):
        evolve_disk_boundary(Constant(0.0), 2 * math.pi, 1.0)


def test_converted_lind_swallows_at_one():
    u = FromCallable(lambda t: 4 - 2 * math.sqrt(1 - t) - 2 * math.atan(math.sqrt(1 - t)),
                     domain_end=1.0)
    traj = evolve_disk_boundary(u, 2.0, 1.0, tol=1e-10)
    assert traj.is_swallowed
    assert traj.swallowed_at == pytest.approx(1.0, abs=1e-3)


def test_modulus_monotone_for_map_out_flow():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z0 = rng.uniform(0.05, 0.8) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        traj = evolve_disk_interior(Sqrt(rng.uniform(0, 2)), z0, 1.0, tol=1e-10)
        mods = np.abs(traj.values)
        assert np.all(np.diff(mods) > -1e-12)
        assert np.all(mods <= 1.0 + 1e-9)


def test_rotation_equivariance():
    theta = 0.8
    z0 = 0.3 + 0.2j
    u = Sqrt(1.2)
    u_rot = FromCallable(lambda t: theta + u.value(t))
    base = evolve_disk_interior(u, z0, 0.7, tol=1e-11)
    rot = evolve_disk_interior(u_rot, z0 * cmath.exp(1j * theta), 0.7, tol=1e-11)
    assert rot.final_value == pytest.approx(base.final_value * cmath.exp(1j * theta), rel=1e-8)


def test_angle_ordering_preserved():
    term = Constant(0.0)
    grid = np.linspace(0.1, 2.0, 8)
    a = evolve_disk_boundary(term, 0.5, 2.0, capture=grid)
    b = evolve_disk_boundary(term, 0.9, 2.0, capture=grid)
    for t in grid:
        assert a.value_at(t) < b.value_at(t)


def test_angle_gap_wraps():
    assert angle_gap(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert angle_gap(math.pi, 0.0) == pytest.approx(math.pi)
