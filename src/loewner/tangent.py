"""Prevertices and driving term of the half-plane slit along a tangent circular arc.

The slit grows along the circle of radius 1 centered at i, tangent to the real
axis at the origin. The inverse map f(., t): H -> H minus the arc has a closed
Christoffel-Schwarz form with two finite prevertices alpha(t) < 0 < beta(t):

    1/f(w, t) = log((w - alpha)/(w - beta)) / (2*pi)
                + ((alpha + beta)/(beta - alpha)) / (w - alpha),

with the logarithm branch vanishing at infinity. The tip prevertex (the zero
of the integrand's numerator, where f' vanishes) is gamma = 2*alpha + beta,
and gamma(t) is exactly the driving term lambda(t) of the corresponding
half-plane Loewner flow. Hydrodynamic normalization f = w - 2t/w + O(w^-2)
together with the tangency condition pin the prevertices through

    beta = alpha + 2*sqrt(-pi*alpha),      alpha*(3*alpha + 4*sqrt(-pi*alpha)) = -6t,

so with alpha = -s**2 the parameter solve is the scalar root of
P(s) = 3*s**4 - 4*sqrt(pi)*s**3 + 6*t on the branch s -> 0 as t -> 0. Small-t
expansions: alpha = -(9/(4*pi))**(1/3) * t**(2/3) + ..., beta =
(12*pi)**(1/3) * t**(1/3) + ..., hence lambda is Lip(1/3) at 0, never Lip(1/2).

The root is found by Newton's method started from the Lagrange-inversion
series of s. P = 0 reads s * (1 - a*s)**(1/3) = v with a = 3/(4*sqrt(pi)) and
v = (3*t/(2*sqrt(pi)))**(1/3), so s = sum_n c_n v**n with

    c_n = a**(n-1)/n * Gamma(4n/3 - 1) / (Gamma(n/3) * (n-1)!),

c_1 = 1, c_2 = 1/(4*sqrt(pi)), convergent up to the branch end t = pi**2/6.
The degree-4 partial sum is exact to rounding for t below about 1e-10 and
leaves a relative error of 4e-4 at t = 0.05. Newton stops on the
relative residual |P| <= 1e-14 * min(1, 6t), since P is of size 6t (an absolute
test would accept s = 0 once 6t <= 1e-14), and returns the iterate one step
past the accepted one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .driving import DrivingTerm
from .errors import DomainError, RootFindingError

#: end of the unit-radius domain; the construction is local near t = 0 and the
#: scalar equation has the small-root branch only while P has two positive
#: roots (t < pi**2/6); 0.05 keeps the arc a proper slit with ample margin
T_MAX_DEFAULT = 0.05

#: beta(t) ~ BETA_LEADING * t**(1/3) as t -> 0, and so does lambda(t)
BETA_LEADING = (12.0 * math.pi) ** (1.0 / 3.0)

_SQRT_PI = math.sqrt(math.pi)
_FOUR_SQRT_PI = 4.0 * _SQRT_PI
_NEWTON_RESIDUAL_TOL = 1e-14
_NEWTON_MAX_ITER = 60
_TOL_FLOOR = sys.float_info.min

# v**3 = _V3_PER_T * t, and c_2..c_4 of the inversion series s = v + c_2 v**2 + ...
_V3_PER_T = 3.0 / (2.0 * _SQRT_PI)
_C2, _C3, _C4 = (
    (3.0 / _FOUR_SQRT_PI) ** (n - 1) / n
    * math.gamma(4.0 * n / 3.0 - 1.0) / (math.gamma(n / 3.0) * math.factorial(n - 1))
    for n in (2, 3, 4)
)


@dataclass(frozen=True)
class SlitParams:
    """Christoffel-Schwarz parameters of the tangent circular slit at time t."""

    alpha: float
    beta: float
    gamma_prevertex: float


def _root_s(t: float) -> float:
    """s = sqrt(-alpha(t)), the root of P(s) = 3 s^4 - 4 sqrt(pi) s^3 + 6 t in [0, sqrt(pi)).

    Valid for 0 <= t < pi**2/6; callers check the domain.
    """
    if t == 0.0:
        return 0.0
    v = (_V3_PER_T * t) ** (1.0 / 3.0)
    # every c_n is positive, so the partial sum lies in (0, s] inside the bracket
    s = v * (1.0 + v * (_C2 + v * (_C3 + v * _C4)))
    six_t = 6.0 * t
    tol = _NEWTON_RESIDUAL_TOL * six_t if six_t < 1.0 else _NEWTON_RESIDUAL_TOL
    if tol < _TOL_FLOOR:
        # subnormal P carries fewer than 53 bits; the series start is exact to
        # double precision long before t gets this small
        tol = _TOL_FLOOR
    lo, hi = 0.0, _SQRT_PI  # P(lo) = 6t > 0, P(hi) = 6t - pi**2 < 0
    for _ in range(_NEWTON_MAX_ITER):
        s2 = s * s
        residual = (3.0 * s - _FOUR_SQRT_PI) * s2 * s + six_t
        if residual > 0.0:
            lo = s
        else:
            hi = s
        # P' = 12 s^2 (s - sqrt(pi)) is negative inside the bracket
        s_next = s - residual / (12.0 * s2 * (s - _SQRT_PI))
        if abs(residual) <= tol:
            # return the sharpened iterate: one more Newton step from an accepted
            # s takes |P| down to rounding level, well inside the tolerance
            return s_next
        if not (lo < s_next < hi):
            s_next = 0.5 * (lo + hi)
        if s_next == s:
            if abs(residual) <= 10.0 * tol:
                return s
            break
        s = s_next
    raise RootFindingError(f"prevertex solve did not converge at t={t!r}")


def solve_params(t: float) -> SlitParams:
    """Prevertices (alpha, beta, gamma) of the tangent slit at time t.

    Safeguarded Newton on P(s) = 3 s^4 - 4 sqrt(pi) s^3 + 6 t for s = sqrt(-alpha),
    tracking the small root (bracketed in (0, sqrt(pi)), where P changes sign),
    from the degree-4 Lagrange-inversion series of s in v = (3 t / (2 sqrt(pi)))**(1/3).
    It takes at least one Newton step and stops at |P| <= 1e-14 * min(1, 6t),
    so alpha and beta keep full relative accuracy down to the smallest t.
    """
    t = float(t)
    if not 0.0 <= t <= T_MAX_DEFAULT:
        raise DomainError(f"t={t!r} outside the tangent-slit domain [0, {T_MAX_DEFAULT!r}]")
    s = _root_s(t)
    alpha = -s * s
    beta = alpha + 2.0 * s * _SQRT_PI
    return SlitParams(alpha, beta, 2.0 * alpha + beta)


class TangentTerm(DrivingTerm):
    """Driving term of the circular slit of radius r tangent to the real axis at 0.

    lambda_r(t) = r * gamma(t / r**2) with gamma = 2*alpha + beta, so
    lambda(0) = 0 and lambda is Lip(1/3) at 0; defined on [0, T_MAX_DEFAULT * r**2].
    """

    onset_exponent = 1.0 / 3.0

    def __init__(self, radius: float = 1.0):
        self.radius = float(radius)
        # r * r is inf or 0 where it overflows or underflows; NaN fails too
        self._r2 = self.radius * self.radius
        if not (0 < self.radius and 0 < self._r2 < math.inf):
            raise ValueError("radius must be positive, with a finite nonzero square")
        self.domain_end = T_MAX_DEFAULT * self._r2

    def _raw(self, t: float) -> float:
        # lambda_r(t) = r * gamma(t / r**2), straight from s: this runs once per
        # ODE stage, and value has already checked t against domain_end
        s = _root_s(t / self._r2)
        alpha = -s * s
        return self.radius * (2.0 * alpha + (alpha + 2.0 * s * _SQRT_PI))

    def spec_string(self) -> str:
        return f"tangent:{self.radius!r}"
