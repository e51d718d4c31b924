"""Spans recorded from the benchmark process around the calls into each layer.

Nothing here changes the package: ``install`` replaces public entry points by
wrappers at the names their callers resolve (``solve_scalar`` is bound by name
inside ``halfplane``, ``disk`` and ``trace``; ``evolve_boundary`` inside
``critical`` and ``bridge``; ``solve_params`` is reached through the
``tangent`` module global that ``driving_term`` looks up), and ``uninstall``
puts the originals back. A wrapper records nothing outside a job's root span,
so oracle checks and set-up stay untraced.

A span has an id, its parent's id, the job index, a name ``<layer>.<call>``,
a start and an end. Spans are kept in memory and written out at the end.
Calls made millions of times per run (``DrivingTerm.value``,
``solve_params``, ``Trajectory.value_at``) are aggregated into per-name
totals only; they still count as children of the span that called them.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
from time import perf_counter

from loewner import bridge, critical, disk, halfplane, holder, trace, tangent
from loewner.driving import DrivingTerm
from loewner.trajectory import Trajectory


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent id, job, name, start, end)
        self.totals = {}       # name -> [calls, total seconds, self seconds]
        self.counts = {}       # counter name -> value
        self.job = -1
        self._stack = []       # open spans: [id, seconds covered by children]
        self._ids = itertools.count(1)
        self._patches = []

    def add(self, counter: str, amount) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def run_job(self, index: int, fn, job):
        """Run one job under its root span ``bench.job``."""
        self.job = index
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(job)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close("bench.job", frame, None, start, end)

    def _close(self, name, frame, parent, start, end):
        dur = end - start
        acc = self.totals.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        self.spans.append((frame[0], parent[0] if parent else 0, self.job, name, start, end))

    def patch(self, owner, attr: str, name: str, *, keep: bool = True, counter=None) -> None:
        """Wrap ``owner.attr``; ``counter(tracer, args, result)`` updates counts.

        With ``keep=False`` the call is only aggregated, on a leaner path:
        these are the leaf calls made millions of times per run.
        """
        original = getattr(owner, attr)
        stack = self._stack
        if keep:
            ids = self._ids
            close = self._close

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not stack:
                    return original(*args, **kwargs)
                parent = stack[-1]
                frame = [next(ids), 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    close(name, frame, parent, start, end)
                if counter is not None:
                    counter(self, args, result)
                return result
        else:
            acc = self.totals.setdefault(name, [0, 0.0, 0.0])

            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not stack:
                    return original(*args, **kwargs)
                frame = [0, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    dur = perf_counter() - start
                    stack.pop()
                    stack[-1][1] += dur
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += dur - frame[1]

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        def steps(tr, args, res):
            tr.add("integrate.steps", res.n_steps)

        def tips(tr, args, res):
            tr.add("trace.tips", len(res))

        def backward(tr, args, res):
            steps(tr, args, res)
            tr.add("trace.backward_solves", 1)

        def verdicts(tr, args, res):
            tr.add("critical.verdicts", len(res.verdicts))

        def scan_solve(tr, args, res):
            tr.add("critical.solves", 1)

        def pairs(tr, args, res):
            tr.add("holder.pairs_scanned", pairs_scanned(len(args[0])))

        self.patch(critical, "collision_threshold_experiment",
                   "critical.collision_threshold_experiment", counter=verdicts)
        self.patch(critical, "evolve_boundary", "halfplane.evolve_boundary", counter=scan_solve)
        self.patch(bridge, "evolve_boundary", "halfplane.evolve_boundary")
        self.patch(bridge, "evolve_disk_boundary", "disk.evolve_disk_boundary")
        self.patch(bridge, "halfplane_to_disk", "bridge.halfplane_to_disk")
        self.patch(bridge, "disk_to_halfplane", "bridge.disk_to_halfplane")
        self.patch(halfplane, "singular_plus", "halfplane.singular_plus")
        self.patch(halfplane, "singular_minus", "halfplane.singular_minus")
        self.patch(halfplane, "solve_scalar", "integrate.solve_scalar", counter=steps)
        self.patch(disk, "solve_scalar", "integrate.solve_scalar", counter=steps)
        self.patch(trace, "solve_scalar", "integrate.solve_scalar", counter=backward)
        self.patch(trace, "extract_trace", "trace.extract_trace", counter=tips)
        self.patch(holder, "holder_sup_norm", "holder.holder_sup_norm", counter=pairs)
        self.patch(tangent, "solve_params", "tangent.solve_params", keep=False)
        self.patch(DrivingTerm, "value", "driving.value", keep=False)
        self.patch(Trajectory, "values_at", "trajectory.values_at")
        self.patch(Trajectory, "value_at", "trajectory.value_at", keep=False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def pairs_scanned(n: int, dense_limit: int = holder.DENSE_PAIR_LIMIT) -> int:
    """Sample pairs holder_sup_norm compares for n samples (computed, not measured)."""
    if n <= dense_limit:
        return n * (n - 1) // 2
    gaps = sum(n - (1 << k) for k in range(n.bit_length()) if (1 << k) < n)
    return gaps + 2 * (n - 1)


#: layer -> name of its self-time metric
SELF_METRIC = {
    "bench": "bench.self_s",
    "critical": "critical.self_s",
    "halfplane": "halfplane.self_s",
    "integrate": "integrate.self_s",
    "driving": "driving.value_self_s",
    "tangent": "tangent.solve_params_self_s",
    "trace": "trace.self_s",
    "disk": "disk.self_s",
    "bridge": "bridge.self_s",
    "trajectory": "trajectory.self_s",
    "holder": "holder.sup_norm_s",
}


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """Layer counts and times of a traced loop of ``jobs`` jobs, as
    name -> (value, unit); times and work counts are per job."""
    tot = tracer.totals
    cnt = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    seconds = {metric: sum(acc[2] for name, acc in tot.items() if name.split(".", 1)[0] == layer)
               for layer, metric in SELF_METRIC.items()}
    seconds.update({
        "halfplane.evolve_boundary_s": inclusive("halfplane.evolve_boundary"),
        "halfplane.singular_s": inclusive("halfplane.singular_plus")
        + inclusive("halfplane.singular_minus"),
        "disk.evolve_boundary_s": inclusive("disk.evolve_disk_boundary"),
        "trajectory.values_at_s": inclusive("trajectory.values_at"),
    })
    solves = calls("integrate.solve_scalar")
    work = {
        "integrate.solves": solves,
        "integrate.steps": cnt.get("integrate.steps", 0),
        "driving.value_calls": calls("driving.value"),
        "halfplane.evolve_boundary_calls": calls("halfplane.evolve_boundary"),
        "tangent.solve_params_calls": calls("tangent.solve_params"),
        "trace.backward_solves": cnt.get("trace.backward_solves", 0),
        "trajectory.value_at_calls": calls("trajectory.value_at"),
    }
    verdicts = cnt.get("critical.verdicts", 0)
    out = {k: (v / jobs, "s/job") for k, v in seconds.items()}
    out.update({k: (v / jobs, "count/job") for k, v in work.items()})
    out.update({
        "holder.pairs_scanned": (cnt.get("holder.pairs_scanned", 0) / jobs, "computed/job"),
        "integrate.steps_per_solve": (work["integrate.steps"] / solves if solves else 0.0, "count"),
        "critical.verdicts": (verdicts, "count"),
        "critical.solves_per_verdict": (cnt.get("critical.solves", 0) / verdicts
                                        if verdicts else 0.0, "count"),
        "trace.tips": (cnt.get("trace.tips", 0), "count"),
    })
    return out
