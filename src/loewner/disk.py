"""Disk Loewner evolution in the map-out convention.

Interior flow: dw/dt = w * (e^{iu} + w) / (e^{iu} - w), w(z, 0) = z, |z| < 1.
The modulus |w| is nondecreasing; a point is swallowed when w reaches the
driving point e^{iu(t)} on the circle. Boundary points are tracked by their
angle, which obeys d(alpha)/dt = cot((alpha - u) / 2); angles are kept as
unwrapped reals, and collision means alpha = u modulo 2*pi.
"""

from __future__ import annotations

import cmath
import math

from . import integrate
from .driving import DrivingTerm
from .integrate import solve_scalar
from .trajectory import Trajectory

_TWO_PI = 2.0 * math.pi


def angle_gap(alpha: float, u: float) -> float:
    """Circular distance between the angle alpha and the driving angle u, in [0, pi]."""
    m = (alpha - u) % _TWO_PI
    return min(m, _TWO_PI - m)


def _interior_rhs(w, u):
    """Right-hand side of dw/dt = w (e^{iu} + w) / (e^{iu} - w)."""
    e = cmath.exp(1j * u)
    return w * (e + w) / (e - w)


def _interior_gap(w, u):
    """Collision gap |w - e^{iu}|."""
    return abs(w - cmath.exp(1j * u))


def _boundary_rhs(a, u):
    """Right-hand side of d(alpha)/dt = cot((alpha - u) / 2); its gap is ``angle_gap``."""
    return 1.0 / math.tan(0.5 * (a - u))


def evolve_disk_interior(term: DrivingTerm, z0: complex, t_end: float,
                         tol: float = 1e-10) -> Trajectory:
    """Evolve an interior point z0 (|z0| < 1) of the disk.

    Swallowing is declared when |w - e^{iu(t)}| drops below
    ``integrate.COLLISION_DELTA``. The origin is a fixed point of the flow.
    """
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise ValueError("disk interior evolution needs |z0| < 1")
    term.check_covers(t_end)
    return solve_scalar(_interior_rhs, term.value, 0.0, z0, t_end, tol=tol, gap=_interior_gap)


def evolve_disk_boundary(term: DrivingTerm, alpha0: float, t_end: float,
                         tol: float = 1e-10, *, capture=None) -> Trajectory:
    """Evolve a boundary angle alpha0 != u(0) (mod 2*pi).

    The angle is unwrapped (no mod-2*pi reduction mid-trajectory); swallowing
    is declared when the circular distance to u(t) drops below
    ``integrate.COLLISION_DELTA``.
    """
    alpha0 = float(alpha0)
    if angle_gap(alpha0, term.value(0.0)) <= integrate.COLLISION_DELTA:
        raise ValueError("alpha0 coincides with u(0) modulo 2*pi within the "
                         "collision threshold")
    term.check_covers(t_end)
    return solve_scalar(_boundary_rhs, term.value, 0.0, alpha0, t_end, tol=tol, gap=angle_gap,
                        capture=capture)
