"""Adaptive embedded Runge-Kutta integration for scalar Loewner ODEs.

Dormand-Prince 5(4) pair with standard step control, for scalar real or
complex equations dy/dt = rhs(y, lam(t)). In a Loewner flow time enters only
through the driving value (dh/dt = 2 / (h - lambda(t)) and its disk
companions), so the stepper takes the right-hand side rhs(y, l) and the
driving term lam(t) apart and calls ``lam`` once per stage time:

* stages 2-5 take one value each;
* stage 6 and stage 7, the FSAL stage ("first same as last", reused as the
  next step's first stage), both sit at t + h and share one value whenever
  the step's end ``t_new`` equals t + h as a float, which holds on every step
  but the last one, capped to land on t_end;
* the collision check after an accepted step reads gap(y_new, l7) with the
  stage-7 value and evaluates no new one.

Each real-number operation is the same IEEE operation on the same operands as
in an f(t, y) stepper whose f evaluates lambda itself, so results are
bit-identical; only the repeated evaluations are gone.

Steps are chosen by accuracy alone and capped only at t_end; the proposal
grows after every step but that last one. Capture times do not cut steps:
each capture inside an accepted step becomes a sample whose value comes from
the pair's continuous extension of order 4 (``contd5``; Dormand & Prince
1986, Hairer, Norsett & Wanner, Solving ODEs I, II.6), built from the seven
stages the step already has. A capture equal to the step's end takes the
step's own value. A solve without captures takes exactly the steps it would
take with them.

Two further features are tailored to Loewner dynamics:

* collision detection: after each accepted step an optional gap function is
  checked against ``COLLISION_DELTA``; on crossing, the contact time is
  refined by bisection on the step's cubic Hermite interpolant to a width of
  1e-13 times the step's end (``lam`` is evaluated at each bisection time),
  the captures before it become samples, and the solve terminates with
  ``swallowed_at`` set;
* capture times: trajectories contain them as samples, so a lookup at a
  capture time is an exact match.

Steps never shrink below 4 ulps of t, so every step moves t; if the error
control demands less, integration fails loudly with the last valid state.

Every scalar on the per-step path is a Python ``float`` or ``complex``: the
start point is converted once, the capture times are held as a list and the
tableau is unpacked into local floats once per solve. A numpy scalar taken
from an array (say ``cap[i]``) would spread through ``h``, ``t``, ``y`` and
every stage time into ``lam`` and ``rhs``, and numpy scalar arithmetic costs
about twice as much per operation. Real results are the same IEEE operations
either way.

``solve_singular_branch`` is a second, implicit stepper for one equation: a
singular solution of the half-plane flow, which starts on the driving point
at t = 0, where the flow is singular. It runs in variables blown up at that
point and is stiff there for the upper solution under a driving term whose
onset exponent is below 1/2 (see its docstring).
Both steppers reject a tolerance that is not finite and positive before the
first step. Each returns its solution as a ``Trajectory`` with the number of
steps it took (accepted and rejected) in ``n_steps``; a singular branch
starts with the sample (0, lam(0)).
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left

import numpy as np

from .errors import IntegrationError
from .trajectory import Trajectory

#: step budget of one solve
MAX_STEPS = 500_000

#: collision threshold on the gap: a solution closer than this to the driving
#: term is swallowed. Square-root contact cannot be resolved much below
#: sqrt(eps) in the time variable, so this sits well above
COLLISION_DELTA = 1e-6

# Dormand-Prince 5(4) tableau
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# difference between 5th order and embedded 4th order weights
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

# weights of the continuous extension (contd5) at stages 1, 3, 4, 5, 6 and 7
_D = (-12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
      -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
      -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)

# Hairer-Wanner SDIRK4 (Solving ODEs II, (IV.6.16)): diagonal gamma = 1/4,
# stiffly accurate (the last stage is the step's result), L-stable, with an
# embedded order-3 solution; _SD_E is the difference of the two weight rows.
# The fifth stage sits at the step's end (c5 = 1) and its row is the weights
_SD_GAMMA = 0.25
_SD_C = (0.25, 0.75, 11.0 / 20.0, 0.5)
_SD_A = (
    (0.5,),
    (17.0 / 50.0, -1.0 / 25.0),
    (371.0 / 1360.0, -137.0 / 2720.0, 15.0 / 544.0),
    (25.0 / 24.0, -49.0 / 48.0, 125.0 / 16.0, -85.0 / 12.0),
)
_SD_E = (-3.0 / 16.0, -27.0 / 32.0, 25.0 / 32.0, 0.0, 0.25)

#: every singular branch starts from the square-root ansatz at this
#: fraction of its first capture time (or of t_end)
SEED_FRACTION = 1e-12


def solve_scalar(rhs, lam, t0: float, y0, t_end: float, *, tol: float = 1e-10,
                 gap=None, capture=None) -> Trajectory:
    """Integrate dy/dt = rhs(y, lam(t)) from (t0, y0) to t_end.

    Returns the trajectory, float64 for a real start and complex128 for a
    complex one.

    Parameters
    ----------
    rhs : callable
        Right-hand side rhs(y, l) -> scalar (real or complex), given the state
        and the driving value l = lam(t).
    lam : callable
        Driving value lam(t) -> float; called once per stage time.
    tol : float
        Relative and absolute local error tolerance per step; no step is
        shorter than 4 ulps of its t (see the module docstring).
    gap : callable or None
        Distance function gap(y, l) >= 0; when it drops below
        ``COLLISION_DELTA`` after an accepted step, the crossing time is
        refined on the step and the solve stops (swallowing).
    capture : array_like or None
        Times in (t0, t_end] that become samples, filled from the step's
        continuous extension (see the module docstring).
    """
    _check_tol(tol)
    max_steps = MAX_STEPS
    delta = COLLISION_DELTA
    c2, c3, c4, c5 = _C[:4]
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _A
    e1, _, e3, e4, e5, e6, e7 = _E
    d1, d3, d4, d5, d6, d7 = _D
    t = float(t0)
    t_end = float(t_end)
    y = complex(y0) if np.iscomplexobj(y0) else float(y0)
    if not cmath.isfinite(y):
        raise ValueError(f"start point {y!r} is not finite")
    if not t_end >= t:  # NaN fails too
        raise ValueError("t_end must be >= t0")

    cap = _capture_times(capture, t, t_end)
    n_cap = len(cap)
    icap = 0

    times = [t]
    values = [y]

    l1 = lam(t)
    if gap is not None and gap(y, l1) < delta:
        return _result(times, values, swallowed_at=t, n_steps=0)
    if t_end == t:
        return _result(times, values, swallowed_at=None, n_steps=0)

    k1 = rhs(y, l1)
    ay = abs(y)
    scale0 = tol + tol * ay
    d0 = abs(k1)
    h_prop = min((t_end - t) / 10.0, 0.01 * scale0 / d0 if d0 > 0 else (t_end - t) / 10.0)

    n_steps = 0
    while t < t_end:
        if n_steps >= max_steps:
            raise IntegrationError("step budget exhausted", t, y)
        # max(h_prop, h_floor) without the call to max (see err_norm below)
        h_floor = 4.0 * math.ulp(t)
        hp = h_floor if h_floor > h_prop else h_prop
        capped = t + hp >= t_end
        h = t_end - t if capped else hp
        # c6 = c7 = 1: stage 6 sits at t + h, and so does stage 7 unless the
        # capped step's t_end differs from t + h by rounding
        l2, l3, l4, l5 = lam(t + c2 * h), lam(t + c3 * h), lam(t + c4 * h), lam(t + c5 * h)
        t_h = t + h
        l6 = lam(t_h)
        t_new = t_end if capped else t_h
        l7 = l6 if t_new == t_h else lam(t_new)
        k2 = rhs(y + h * (a21 * k1), l2)
        k3 = rhs(y + h * (a31 * k1 + a32 * k2), l3)
        k4 = rhs(y + h * (a41 * k1 + a42 * k2 + a43 * k3), l4)
        k5 = rhs(y + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4), l5)
        k6 = rhs(y + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5), l6)
        y_new = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = rhs(y_new, l7)
        err = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        ay_new = abs(y_new)
        # max(|y|, |y_new|) without the call to max, a function call per step
        err_norm = abs(err) / (tol + tol * (ay_new if ay_new > ay else ay))
        n_steps += 1
        if not err_norm <= 1.0:  # NaN fails too
            if h <= h_floor:
                raise IntegrationError("step size underflow (floor hit before tolerance)",
                                       t, y)
            h_prop = (h * max(0.1, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm)
                      else h * 0.1)
            continue
        t_cut, y_cut = t_new, None
        if gap is not None:
            g_new = gap(y_new, l7)
            if not delta <= g_new < math.inf:  # below delta, inf or NaN
                t_cut, y_cut = _refine_crossing(gap, lam, delta, t, y, k1, t_new, y_new, k7)
        if icap < n_cap and cap[icap] < t_cut:
            # the captures inside the step (before a contact), from contd5:
            # y + th*(dy + (1 - th)*(b + th*(c + (1 - th)*d))), th = (tc - t)/h
            dy = y_new - y
            b = h * k1 - dy
            c = dy - h * k7 - b
            d = h * (d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6 + d7 * k7)
            i_end = bisect_left(cap, t_cut, icap)
            for tc in cap[icap:i_end]:
                th = (tc - t) / h
                th1 = 1.0 - th
                times.append(tc)
                values.append(y + th * (dy + th1 * (b + th * (c + th1 * d))))
            icap = i_end
        if y_cut is not None:
            times.append(t_cut)
            values.append(y_cut)
            return _result(times, values, swallowed_at=t_cut, n_steps=n_steps)
        if icap < n_cap and cap[icap] == t_new:  # a capture on the step's end
            icap += 1
        t, y, k1, ay = t_new, y_new, k7, ay_new
        if not capped:
            h_prop = h * (5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2))
        times.append(t)
        values.append(y)

    return _result(times, values, swallowed_at=None, n_steps=n_steps)


def solve_singular_branch(lam, q: float, t_end: float, *, sign: int, tol: float,
                          capture) -> Trajectory:
    """Singular solution of dh/dt = 2 / (h - lam(t)) with h(0) = lam(0), on
    the side ``sign`` of the driving term (+1 above, -1 below), for a branch
    that leaves lam(0) like t**q, 0 < q < 1. The trajectory starts with the
    sample (0, lam(0)), followed by the seed below.

    It is integrated in the self-similar variables tau = log t and
    Y = (h - lam(0)) / t**q, where

        dY/dtau = 2 t**(1 - 2q) / (Y - L) - q*Y,   L = (lam(t) - lam(0)) / t**q,

    by the L-stable SDIRK4 above. For a term with onset exponent p
    (lam(t) - lam(0) ~ t**p, p <= 1/2) the caller takes q = p for the upper
    branch and q = 1 - p for the lower one. Y then tends to a fixed point of
    the profile, and its Jacobian J = df/dY = -2 t**(1 - 2q)/(Y - L)**2 - q
    stays below -q. For p < 1/2 the upper branch is stiff: its gap shrinks
    like t**(1 - p), and -J grows like t**(2p - 1), beyond every explicit
    step as t -> 0. Each stage Y_i = B_i + gamma*dtau*f(Y_i) is a quadratic
    in the stage gap g = Y_i - L_i,

        m g**2 + (m L_i - B_i) g - 2 gamma dtau t_i**(1 - 2q) = 0,
        m = 1 + gamma dtau q,

    whose root on the side ``sign`` is taken in closed form: no Newton
    iteration and no Jacobian. The error estimate is filtered by
    1/(1 - gamma dtau J) and measured in h against tol*(1 + |h|) as in
    solve_scalar. The solve starts from the square-root ansatz
    h = lam(0) + d/2 + sign*sqrt(d**2/4 + 4 t), d = lam(t) - lam(0), at
    t_s = SEED_FRACTION times the first capture time (or t_end). Since J < -q,
    the start error decays at least like (t_s/t)**q, and like
    exp(-C t_s**(2p - 1)) on the stiff branch. ``lam`` is called once per
    stage time. The stepper lands exactly on the first capture time and on
    t_end; every later capture in (0, t_end] is filled from the accepted
    step's cubic Hermite interpolant in (tau, Y), whose end slopes are f(Y)
    at the step's start and k5 at its end (the method is stiffly accurate).
    """
    _check_tol(tol)
    q = float(q)
    t_end = float(t_end)
    if not 0.0 < q < 1.0:
        raise ValueError(f"exponent q={q!r} is not in (0, 1)")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")
    if not 0.0 < t_end < math.inf:  # NaN fails too
        raise ValueError("t_end must be finite and > 0")
    s = float(sign)
    cap = _capture_times(capture, 0.0, t_end)
    n_cap = len(cap)
    icap = 0
    target = cap[0] if n_cap else t_end
    max_steps = MAX_STEPS
    gamma = _SD_GAMMA
    c1, c2, c3, c4 = _SD_C
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54)) = _SD_A
    e1, e2, e3, _, e5 = _SD_E
    lam0 = lam(0.0)

    def stage(t_i, b_i, gdt, m):
        """Stage value Y_i, slope k_i, gap g_i and t_i**q of one implicit stage."""
        tp_i = t_i ** q
        big_l = (lam(t_i) - lam0) / tp_i
        c = 2.0 * gdt * t_i / (tp_i * tp_i)
        lin = m * big_l - b_i
        # the root on the side s, each form free of cancellation where it is used
        root = s * math.sqrt(lin * lin + 4.0 * m * c)
        g_i = 2.0 * c / (lin + root) if s * lin >= 0.0 else (root - lin) / (2.0 * m)
        y_i = big_l + g_i
        return y_i, (y_i - b_i) / gdt, g_i, tp_i

    t = SEED_FRACTION * target
    tp = t ** q
    if tp * tp == 0.0:  # stages divide by t_i**(2q) >= tp * tp (t_i >= the seed)
        raise IntegrationError("seed time underflows: t**(2q) is 0", t, lam0)
    d = lam(t) - lam0
    root = s * math.sqrt(0.25 * d * d + 4.0 * t)
    gap = 4.0 * t / (0.5 * d + root) if s * d >= 0.0 else root - 0.5 * d
    g = gap / tp
    y = d / tp + g
    k = 2.0 * (t / (tp * tp)) / g - q * y  # dY/dtau at the seed
    h = lam0 + d + gap
    ah = abs(h)
    times = [0.0, t]
    values = [lam0, h]

    dtau_prop = 0.1
    n_steps = 0
    while t < t_end:
        if n_steps >= max_steps:
            raise IntegrationError("step budget exhausted", t, h)
        dtau = dtau_prop
        t_new = t * math.exp(dtau)
        capped = t_new >= target
        if capped:
            t_new = target
            dtau = math.log(target / t)
        if not t_new > t:
            raise IntegrationError("step size underflow", t, h)
        gdt = gamma * dtau
        m = 1.0 + gdt * q

        _, k1, _, _ = stage(t * math.exp(c1 * dtau), y, gdt, m)
        _, k2, _, _ = stage(t * math.exp(c2 * dtau), y + dtau * (a21 * k1), gdt, m)
        _, k3, _, _ = stage(t * math.exp(c3 * dtau), y + dtau * (a31 * k1 + a32 * k2),
                            gdt, m)
        _, k4, _, _ = stage(t * math.exp(c4 * dtau),
                            y + dtau * (a41 * k1 + a42 * k2 + a43 * k3), gdt, m)
        y_new, k5, g_new, tp_new = stage(
            t_new, y + dtau * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4), gdt, m)
        h_new = lam0 + tp_new * y_new
        # 1 - gamma dtau J at the step's start, J = -2 t**(1 - 2q)/g**2 - q
        filt = 1.0 + gdt * (2.0 * (t / (tp * tp)) / (g * g) + q)
        err = tp_new * dtau * (e1 * k1 + e2 * k2 + e3 * k3 + e5 * k5) / filt
        ah_new = abs(h_new)
        # max(|h|, |h_new|) without the call to max, as in solve_scalar
        err_norm = abs(err) / (tol + tol * (ah_new if ah_new > ah else ah))
        n_steps += 1

        if err_norm > 1.0 or not math.isfinite(err_norm):
            dtau_prop = (dtau * max(0.1, 0.9 * err_norm ** -0.25)
                         if math.isfinite(err_norm) else dtau * 0.1)
            continue

        if icap < n_cap and cap[icap] < t_new:
            # the captures inside the step, from the cubic Hermite in (tau, Y):
            # Y = y + th*(f0 + th*(f2 + th*f3)), th = log(t_c/t)/dtau
            f0 = dtau * k
            f1 = dtau * k5
            dy = y_new - y
            f2 = 3.0 * dy - 2.0 * f0 - f1
            f3 = f0 + f1 - 2.0 * dy
            i_end = bisect_left(cap, t_new, icap)
            for t_c in cap[icap:i_end]:
                th = math.log(t_c / t) / dtau
                times.append(t_c)
                values.append(lam0 + t_c ** q * (y + th * (f0 + th * (f2 + th * f3))))
            icap = i_end
        if icap < n_cap and cap[icap] == t_new:  # a capture on the step's end
            icap += 1
        t, tp, y, g, h, ah, k = t_new, tp_new, y_new, g_new, h_new, ah_new, k5
        times.append(t)
        values.append(h)
        if capped:
            target = t_end
        else:
            dtau_prop = dtau * (5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.25))

    return _result(times, values, swallowed_at=None, n_steps=n_steps)


def _capture_times(capture, t0: float, t_end: float) -> list[float]:
    """The distinct capture times in (t0, t_end], sorted, as Python floats."""
    cap = np.unique(np.asarray([] if capture is None else capture, dtype=float))
    return cap[(cap > t0) & (cap <= t_end)].tolist()


def _check_tol(tol) -> None:
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _result(times, values, swallowed_at, n_steps) -> Trajectory:
    ts = np.asarray(times, dtype=float)
    keep = np.concatenate(([True], np.diff(ts) > 0))
    return Trajectory(ts[keep], np.asarray(values)[keep], swallowed_at=swallowed_at,
                      n_steps=n_steps)


def _hermite(theta, y0, hf0, y1, hf1):
    t2 = theta * theta
    t3 = t2 * theta
    return ((2 * t3 - 3 * t2 + 1) * y0 + (t3 - 2 * t2 + theta) * hf0
            + (-2 * t3 + 3 * t2) * y1 + (t3 - t2) * hf1)


def _refine_crossing(gap, lam, threshold, t0, y0, f0, t1, y1, f1):
    """Bisect on the step's Hermite interpolant for gap(y(t), lam(t)) = threshold."""
    h = t1 - t0
    hf0, hf1 = h * f0, h * f1

    def g(theta):
        val = gap(_hermite(theta, y0, hf0, y1, hf1), lam(t0 + theta * h))
        return (val - threshold) if math.isfinite(val) else -1.0

    lo, hi = 0.0, 1.0
    if g(lo) <= 0.0:
        return t0, y0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) * abs(h) <= 1e-13 * abs(t1):
            break
    theta = hi
    return t0 + theta * h, _hermite(theta, y0, hf0, y1, hf1)
