import math

import numpy as np
import pytest

from loewner import Constant, ConversionDomainError, FromCallable, Lind, integrate
from loewner.bridge import correspondence_residual, disk_to_halfplane, halfplane_to_disk
from loewner.holder import holder_sup_norm


def lind_u(t):
    s = math.sqrt(max(1.0 - t, 0.0))
    return 4.0 - 2.0 * s - 2.0 * math.atan(s)


def test_lind_conversion_matches_closed_form():
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-3, 300)[1:]))
    res = halfplane_to_disk(Lind(4.0), 2.0, grid, tol=1e-10)
    expected = np.array([lind_u(t) for t in res.term.times])
    assert np.max(np.abs(res.term.table_values - expected)) < 1e-6
    assert not res.is_partial


def test_u_at_zero_from_constant_term():
    res = halfplane_to_disk(Constant(0.0), 2.0, np.linspace(0, 1, 21))
    assert res.term.value(0.0) == pytest.approx(2.0 - math.pi / 2, abs=1e-12)


def test_round_trip_recovers_lambda():
    grid = np.linspace(0.0, 0.8, 801)
    for lam, x0 in ((Constant(0.0), 2.0), (Lind(4.0), 2.0)):
        mid = halfplane_to_disk(lam, x0, grid, tol=1e-11)
        back = disk_to_halfplane(mid.term, x0, grid, tol=1e-11)
        target = lam.values(grid)
        assert np.max(np.abs(back.term.table_values - target)) < 1e-6


def test_disk_to_halfplane_closed_form_start():
    # alpha0 = pi/2 under u = 0: lambda(0) = pi/2 - 2 tan(pi/4) = pi/2 - 2
    grid = np.linspace(0.0, 1.0, 101)
    res = disk_to_halfplane(Constant(0.0), math.pi / 2, grid, tol=1e-11)
    assert res.term.value(0.0) == pytest.approx(math.pi / 2 - 2.0, abs=1e-12)
    # pointwise: lambda(t) = alpha(t) - 2 tan(alpha(t)/2), alpha from the
    # separated closed form
    for t in (0.25, 0.5, 1.0):
        alpha = 2 * math.acos(math.cos(math.pi / 4) * math.exp(-t / 2))
        assert res.term.value(t) == pytest.approx(alpha - 2 * math.tan(alpha / 2), abs=1e-8)


def test_disk_to_halfplane_rejects_antipodal_start():
    with pytest.raises(ConversionDomainError):
        disk_to_halfplane(Constant(0.0), math.pi, np.linspace(0, 1, 11))


def test_residual_lind_pair():
    u = FromCallable(lind_u, domain_end=1.0)
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-3, 200)[1:-1], [0.999]))
    assert correspondence_residual(Lind(4.0), u, 2.0, 2.0, grid) < 1e-6


def test_residual_constant_pair():
    grid = np.linspace(0.0, 1.0, 801)
    mid = halfplane_to_disk(Constant(0.0), 2.0, grid, tol=1e-11)
    assert correspondence_residual(Constant(0.0), mid.term, 2.0, 2.0, grid) < 1e-8


def test_residual_vanishes_at_t0():
    # the normalization makes alpha0 = x0, so the residual at t = 0 is
    # tan((x0 - u(0))/2) - (x0 - lambda(0))/2 = 0 by construction
    x0, lam0 = 2.0, 0.0
    u0 = x0 - 2 * math.atan((x0 - lam0) / 2)
    assert math.tan((x0 - u0) / 2) - (x0 - lam0) / 2 == pytest.approx(0.0, abs=1e-15)


def test_conversion_preserves_lip_half_under_refinement():
    # the sampled output's estimated norm is finite and stable when the grid
    # is refined
    norms = []
    for n in (201, 401, 801):
        grid = np.linspace(0.0, 0.9, n)
        res = halfplane_to_disk(Lind(4.0), 2.0, grid, tol=1e-10)
        norms.append(holder_sup_norm(res.term.times, res.term.table_values, 0.5))
    assert norms[-1] < 5.0
    assert abs(norms[-1] - norms[-2]) < 0.05 * norms[-1]


def test_partial_conversion_marks_swallowing(monkeypatch):
    grid = np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, 200)[1:], [1.0]))
    res = halfplane_to_disk(Lind(4.0), 2.0, grid, tol=1e-10)
    assert res.is_partial
    assert res.trajectory.swallowed_at == pytest.approx(1.0, abs=1e-3)
    assert res.term.domain_end == pytest.approx(res.trajectory.swallowed_at)
    # swallowing times correspond: the disk flow under the converted term
    # collides at the same time
    from loewner.disk import evolve_disk_boundary

    monkeypatch.setattr(integrate, "COLLISION_DELTA", 1e-4)
    disk_traj = evolve_disk_boundary(res.term, 2.0, res.term.domain_end, tol=1e-10)
    assert disk_traj.is_swallowed
    assert disk_traj.swallowed_at == pytest.approx(1.0, abs=1e-3)
