"""The three benchmark workloads: seeded job generators, the program calls of
one job, and the oracle each job's output is checked against.

Every job is built from ``np.random.default_rng(seed)`` before timing starts.
The inputs of job k are the k-th point of a low-discrepancy (R_d, Kronecker)
sequence on the unit cube, shifted by a uniform random vector drawn from the
seed. Each input is thus uniform on its range, the seed changes every input,
and any run of consecutive jobs covers the ranges evenly, so the mix of cheap
and expensive jobs, and with it ``jobs_per_s``, does not swing with the luck
of the draw or with where a timed run stops.

Oracles take their tolerances from the pinned constants of ``loewner.repro``
and compute references in closed form; they never call the functions the
tracer wraps, so checking a job adds nothing to its per-layer numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from loewner import bridge, critical, halfplane, holder, trace
from loewner.driving import Lind, Scaled, Sqrt
from loewner.repro import (BRIDGE_NORM_ATOL, LIND_TAU_ATOL, LIND_TRAJ_ATOL,
                           SHARP_RATIO_RTOL, SINGULAR_MATCH_RTOL, THRESHOLD_RANGE,
                           TRACE_CIRCLE_ATOL)
from loewner.tangent import TangentTerm, solve_params

#: max |lambda_back - lambda| / r after the half-plane -> disk -> half-plane
#: round trip on dense_paths. Not a pinned tolerance of the package: the
#: worst case seen over 16 seeds (about 1000 jobs, n in [2500, 7500], r in
#: [0.5, 2]) is 4.8e-6, so this gate leaves a factor of 20 of headroom.
ROUNDTRIP_RTOL = 1e-4

#: jobs generated per seed; a 30 s run at 133 jobs/s uses them all (this
#: commit's fastest workload does about 10 jobs/s). A run that exhausts them
#: ends early; its rates and percentiles stay valid.
MAX_JOBS = 4000


@dataclass(frozen=True)
class Verdict:
    """Outcome of one job's oracle.

    ``wrong``: the output contradicts the oracle. ``pinned_ok``: the output is
    within the package's pinned contract (for threshold_scan the pinned
    threshold range is wider than the paper's exact statement, so a job can be
    wrong yet inside the pinned contract; for the other workloads the oracle
    *is* the pinned contract).
    """

    wrong: bool
    pinned_ok: bool
    roundtrip: float = 0.0


def _inputs(rng, dims: int) -> np.ndarray:
    """MAX_JOBS points of the randomly shifted R_d sequence in [0, 1)^dims."""
    phi = 2.0
    for _ in range(64):  # phi solves x**(dims + 1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = phi ** -np.arange(1.0, dims + 1)
    k = np.arange(1, MAX_JOBS + 1)[:, None]
    return (rng.random(dims) + k * alpha) % 1.0


class ThresholdScan:
    name = "threshold_scan"
    warmup = (4.25,)

    def jobs(self, rng) -> list[tuple]:
        return [(3.5 + float(u),) for (u,) in _inputs(rng, 1)]

    def run(self, job):
        (c,) = job
        return critical.collision_threshold_experiment([c]).verdicts[0]

    def check(self, job, verdict) -> Verdict:
        (c,) = job
        lo, hi = THRESHOLD_RANGE
        # the paper: collision by t = 1 happens exactly when c >= 4
        wrong = verdict.collides != (c >= 4.0)
        pinned_ok = not ((c < lo and verdict.collides) or (c >= hi and not verdict.collides))
        return Verdict(wrong=wrong, pinned_ok=pinned_ok)


class TangentTrace:
    name = "tangent_trace"
    warmup = (1.0, 0.025)

    def jobs(self, rng) -> list[tuple]:
        jobs = []
        for u, v in _inputs(rng, 2):
            r = 0.5 + 1.5 * float(u)
            # 1 - v lies in (0, 1], so tips fall in (0, domain_end]
            jobs.append((r, (1.0 - float(v)) * TangentTerm(r).domain_end))
        return jobs

    def run(self, job):
        r, t = job
        term = TangentTerm(r)
        tip = trace.extract_trace(term, [t])[0][1]
        minus = halfplane.singular_minus(term, t, capture=[t])
        plus = halfplane.singular_plus(term, t, capture=[t])
        return tip, float(minus.final_value), float(plus.final_value)

    def check(self, job, out) -> Verdict:
        r, t = job
        tip, h_minus, h_plus = out
        p = solve_params(t / (r * r))
        ok = (abs(abs(tip - 1j * r) - r) <= TRACE_CIRCLE_ATOL * r
              and abs(h_minus / (r * p.alpha) - 1.0) <= SINGULAR_MATCH_RTOL
              and abs(h_plus / (r * p.beta) - 1.0) <= SINGULAR_MATCH_RTOL)
        return Verdict(wrong=not ok, pinned_ok=ok)


def _bridge_grid(r: float, n: int) -> np.ndarray:
    """n times on [0, r^2], geometrically dense towards the swallowing time r^2."""
    return r * r * np.concatenate(([0.0], 1.0 - np.geomspace(1.0, 1e-8, n - 1)[1:], [1.0]))


def _captured(times: np.ndarray, values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Samples at ts, which the solver lands on exactly; NaN (failing every
    comparison) when some capture time is missing."""
    idx = np.minimum(np.searchsorted(times, ts), times.size - 1)
    if not np.array_equal(times[idx], ts):
        return np.full(ts.shape, np.nan)
    return values[idx]


class DensePaths:
    name = "dense_paths"
    warmup = (1.0, 2.0, 3000)

    def jobs(self, rng) -> list[tuple]:
        return [(0.5 + 1.5 * float(u), 4.0 * float(v), 2500 + int(5001 * w))
                for u, v, w in _inputs(rng, 3)]

    def run(self, job):
        r, c, n = job
        lam = Scaled(Lind(4.0), r)
        conv = bridge.halfplane_to_disk(lam, 2.0 * r, _bridge_grid(r, n))
        back = bridge.disk_to_halfplane(conv.term, 2.0 * r, conv.term.times)
        norm = holder.holder_sup_norm(conv.term.times, conv.term.table_values)
        grid = r * r * np.geomspace(1e-6, 1.0, n)
        minus = halfplane.singular_minus(Sqrt(c), float(grid[-1]), capture=grid)
        plus = halfplane.singular_plus(Sqrt(c), float(grid[-1]), capture=grid)
        return conv, back, norm, grid, minus, plus

    def check(self, job, out) -> Verdict:
        r, c, n = job
        conv, back, norm, grid, minus, plus = out
        traj = conv.trajectory
        ts = _bridge_grid(r, n)
        ts = ts[ts <= 0.999 * r * r]
        x = _captured(traj.times, traj.values, ts)
        x_ok = np.max(np.abs(x - r * (4.0 - 2.0 * np.sqrt(1.0 - ts / (r * r))))) <= LIND_TRAJ_ATOL * r
        tau_ok = traj.is_swallowed and abs(traj.swallowed_at - r * r) <= LIND_TAU_ATOL * r * r

        tb = back.term.times
        lam_exact = r * (4.0 - 4.0 * np.sqrt(np.maximum(1.0 - tb / (r * r), 0.0)))
        roundtrip = float(np.max(np.abs(back.term.table_values - lam_exact))) / r

        root = math.sqrt(c * c + 16.0)
        a_plus, a_minus = 0.5 * (c + root), 0.5 * (c - root)
        sq = np.sqrt(grid)
        ratio_ok = (np.max(np.abs(_captured(plus.times, plus.values, grid) / sq / a_plus - 1.0))
                    <= SHARP_RATIO_RTOL
                    and np.max(np.abs(_captured(minus.times, minus.values, grid) / sq / a_minus - 1.0))
                    <= SHARP_RATIO_RTOL)
        ok = bool(x_ok and tau_ok and ratio_ok and roundtrip <= ROUNDTRIP_RTOL
                  and abs(norm - 4.0) <= BRIDGE_NORM_ATOL)
        return Verdict(wrong=not ok, pinned_ok=ok, roundtrip=roundtrip)


WORKLOADS = {w.name: w for w in (ThresholdScan(), TangentTrace(), DensePaths())}
