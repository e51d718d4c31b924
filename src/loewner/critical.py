"""Critical-norm machinery: the g_n recursion, its zeros y_n -> 4, the c_n
iteration, and the collision-threshold experiment locating the value 4.

g_1(y) = y - 4/y and g_n(y) = y - 4/g_{n-1}(y) have zeros y_n forming a
strictly increasing sequence with limit 4 (numerically y_n matches
4*cos(pi/(n+2)); that closed form is validated against bisection in the tests,
never used as ground truth). The iteration c_0 = c, c_{n+1} = c - 4/((1+eps)*c_n)
must stay positive for a boundary collision at t = 1 to be possible, which
forces c >= 4/(1+eps).

The experiment drives the family lambda_c(t) = c - c*sqrt(1-t) (norm |c|)
from one starting point per c and decides whether it collides by t = 1. The
last stretch before t = 1 is not integrated: in the self-similar variables
tau = -log(1-t) and y = (x - lambda)/sqrt(1-t) the family obeys the
autonomous equation dy/dtau = (y**2 - c*y + 4)/(2*y), whose roots
y+- = (c +- sqrt(c**2 - 16))/2 are real only for c >= 4. A point collides at
t = 1 when y tends to y-, which it does from any y < y+ when c >= 4; otherwise
y grows like exp(tau/2) and the gap x - lambda = y*sqrt(1-t) stays open. So
each solve stops at the terminal layer t = 1 - ``TERMINAL_EPS`` and reads y
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driving import Lind
from .errors import PoleError, RootFindingError
from .halfplane import evolve_boundary

#: pole guard for the recursion denominators
POLE_TOL = 1e-12

#: bisection width of each zero y_n
Y_TOL = 1e-12

#: threshold experiment: solver tolerance, and the start point's offset to
#: the right of lambda(0)
SCAN_TOL = 1e-9
X0_OFFSET = 1e-3

#: the threshold solve stops at t_h = T*(1 - TERMINAL_EPS), T the term's
#: domain end, and the verdict is read from y(t_h). The gap there,
#: y*sqrt(TERMINAL_EPS*T), must stay far above integrate.COLLISION_DELTA, or
#: that absolute knob decides the verdict again: 1e-2, 1e-4 and 1e-6 give the
#: same verdicts for deltas of 1e-8 to 1e-4 and scales r in [0.3, 3], 1e-8
#: does not
TERMINAL_EPS = 1e-4

#: most nodes a c grid may have; each node costs one boundary solve
MAX_GRID_NODES = 10**6

#: largest n_max of c_iteration, which keeps every iterate; 10**6 of them
#: take tens of MB
MAX_ITERATES = 10**6

#: largest n_max of y_sequence; the cost grows like n_max**2 (each of about
#: 40 bisection steps per zero runs the O(n) recursion), and 1000 zeros take
#: about 1.1 s on a 2-vCPU Xeon VM with Python 3.11
MAX_Y_ZEROS = 1000


def g_eval(n: int, y: float) -> float:
    """Evaluate g_n(y); raises PoleError when a denominator vanishes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = float(y)
    for _ in range(1, n + 1):
        # v holds g_{k-1}; g_0 interpreted as y itself makes g_1 = y - 4/y
        if abs(v) < POLE_TOL:
            raise PoleError(f"g recursion hit a pole at y={y!r}")
        v = y - 4.0 / v
    return v


def y_sequence(n_max: int) -> np.ndarray:
    """Zeros y_1..y_{n_max}, each bisected on a bracket ending at 4 to width ``Y_TOL``.

    g_n rises from -inf just right of y_{n-1} (where g_{n-1} vanishes) to a
    positive value at 4. The bracket of y_n starts at the upper end of the
    bracket of y_{n-1}, where g_{n-1} >= 0 is tiny, so g_n is large and
    negative there. (A fixed offset from y_{n-1} would pass y_n once
    y_n - y_{n-1} ~ 4*pi**2/n**3 falls below it.)
    """
    if not 1 <= n_max <= MAX_Y_ZEROS:
        raise ValueError(f"n_max must lie in [1, {MAX_Y_ZEROS}]")
    ys = []
    lo = POLE_TOL + 1e-9  # g_1 has a pole at 0; y_1 lies in (0, 4)
    for n in range(1, n_max + 1):
        hi = 4.0
        if not (_g_safe(n, lo) < 0.0 < _g_safe(n, hi)):
            raise RootFindingError(f"bracketing failed for y_{n}")
        while hi - lo > Y_TOL:
            mid = 0.5 * (lo + hi)
            if _g_safe(n, mid) < 0.0:
                lo = mid
            else:
                hi = mid
        ys.append(0.5 * (lo + hi))
        lo = hi
    return np.asarray(ys)


def _g_safe(n: int, y: float) -> float:
    try:
        return g_eval(n, y)
    except PoleError:
        # nudge off the pole; measure-zero event inside the bracket
        return g_eval(n, y + 1e-11)


@dataclass(frozen=True)
class CIterationResult:
    """The c_n sequence and whether it stayed positive through n_max."""

    c: float
    eps: float
    values: np.ndarray
    crossed_at: int | None

    @property
    def verdict(self) -> str:
        return "stays_positive" if self.crossed_at is None else "crosses_zero"

    @property
    def norm_floor(self) -> float:
        """4/(1+eps): a collision at t=1 needs every iterate positive, which
        forces the driving norm to or above this value; the eps -> 0 limit is 4."""
        return 4.0 / (1.0 + self.eps)


def c_iteration(c: float, eps: float = 1e-6, n_max: int = 10000) -> CIterationResult:
    """Iterate c_0 = c, c_{n+1} = c - 4/((1+eps) c_n) until sign loss or n_max.

    Positivity of every c_n is the necessary condition for a collision at
    t = 1 under a driving term of norm c; it fails for c below ~4/(1+eps).
    """
    if not 0 < c < math.inf:  # NaN fails too
        raise ValueError("c must be positive and finite")
    if not 0 <= eps < math.inf:
        raise ValueError("eps must be finite and >= 0")
    if not 1 <= n_max <= MAX_ITERATES:
        raise ValueError(f"n_max must lie in [1, {MAX_ITERATES}]")
    vals = [float(c)]
    crossed = None
    for n in range(1, n_max + 1):
        prev = vals[-1]
        if prev <= 0:
            break
        nxt = c - 4.0 / ((1.0 + eps) * prev)
        vals.append(nxt)
        if nxt <= 0:
            crossed = n
            break
    return CIterationResult(c=float(c), eps=float(eps), values=np.asarray(vals),
                            crossed_at=crossed)


@dataclass(frozen=True)
class ThresholdVerdict:
    """Whether the point x0 = lambda(0) + ``X0_OFFSET`` collides by t = 1.

    ``y_handoff`` is y = (x - lambda)/sqrt(T - t) at the terminal handoff
    t = T*(1 - ``TERMINAL_EPS``), or None when the point was swallowed before
    it; a collision decided there has ``first_collision_t`` = T.
    """

    c: float
    collides: bool
    first_collision_t: float | None
    x0: float | None
    y_handoff: float | None


@dataclass(frozen=True)
class ThresholdExperiment:
    verdicts: tuple[ThresholdVerdict, ...]

    @property
    def threshold(self) -> float | None:
        """Infimum of colliding c on the grid, or None when nothing collides."""
        colliding = [v.c for v in self.verdicts if v.collides]
        return min(colliding) if colliding else None

    @property
    def is_monotone(self) -> bool:
        """Once colliding, every larger c on the grid collides too."""
        seen = False
        for v in sorted(self.verdicts, key=lambda v: v.c):
            if seen and not v.collides:
                return False
            seen = seen or v.collides
        return True


def c_grid(c_min: float, c_max: float, c_step: float) -> np.ndarray:
    """Nodes c_min + k*c_step for k = 0, 1, ... up to c_max, with a slack of
    1e-9 steps for the rounding of (c_max - c_min) / c_step.

    np.arange would step by (c_min + c_step) - c_min, whose rounding error
    grows with k: it puts 3.9999999999999982 where 4 should be on the default
    grid. Above ``MAX_GRID_NODES`` nodes the grid is an error, raised before
    any allocation.
    """
    if not all(map(math.isfinite, (c_min, c_max, c_step))):
        raise ValueError("c_min, c_max and c_step must be finite")
    if not c_step > 0:
        raise ValueError("c_step must be positive")
    if c_max < c_min:
        raise ValueError("c_max must be >= c_min")
    steps = (c_max - c_min) / c_step + 1e-9  # inf where the quotient overflows
    if not steps < MAX_GRID_NODES:
        raise ValueError(f"c grid exceeds the limit of {MAX_GRID_NODES} nodes")
    return c_min + c_step * np.arange(math.floor(steps) + 1)


def collision_threshold_experiment(c_grid) -> ThresholdExperiment:
    """For each c, does a point x0 > lambda(0) collide with
    lambda_c(t) = c - c*sqrt(1-t) by t = 1?

    One solve per c, from x0 = lambda(0) + ``X0_OFFSET`` to the handoff
    t_h = T*(1 - ``TERMINAL_EPS``), decides it. Real solutions of
    dx/dt = 2/(x - lambda(t)) never cross, so a point nearer lambda(0) stays
    nearer lambda(t) and is swallowed no later than any point farther out: if
    this one is not swallowed by t = 1, none to its right is. The point
    collides when it is swallowed before t_h, or when c >= 4 and
    y(t_h) = (x - lambda)/sqrt(T - t_h) lies below the larger root y+ of
    y**2 - c*y + 4 (see the module docstring); the rule uses the signed c, and
    y is scale-free, so it holds for Loewner-scaled terms of the family too.
    """
    verdicts = []
    for c in np.asarray(c_grid, dtype=float).tolist():
        term = Lind(c)
        x0 = term.value(0.0) + X0_OFFSET
        end = term.domain_end
        t_h = end * (1.0 - TERMINAL_EPS)
        traj = evolve_boundary(term, x0, t_h, SCAN_TOL)
        if traj.is_swallowed:
            hit, t_hit, y = True, traj.swallowed_at, None
        else:
            y = (float(traj.final_value) - term.value(t_h)) / math.sqrt(end - t_h)
            hit = c >= 4.0 and y < 0.5 * (c + math.sqrt(c * c - 16.0))
            t_hit = end if hit else None
        verdicts.append(ThresholdVerdict(c=c, collides=hit, first_collision_t=t_hit,
                                         x0=x0 if hit else None, y_handoff=y))
    return ThresholdExperiment(verdicts=tuple(verdicts))
