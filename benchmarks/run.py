"""Benchmark of the loewner package: one closed-loop client per workload.

Usage, from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 benchmarks/run.py --workload threshold_scan --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0           # every workload, one process each
    python3 benchmarks/run.py --workload dense_paths --seed 0 --trace 1  # per-layer numbers

Each run builds its jobs from the seed before timing starts, sends the next
job only after the previous one returns, and checks every job's output
against an oracle (see workloads.py). Untraced runs (``--trace 0``) report
the end-to-end metrics; set-up time is the median wall time of several fresh
processes that import the package, generate the inputs and run one fixed
warm-up job. Traced runs (``--trace 1``) wrap the package's public entry
points (see spans.py) and report per-layer numbers per job, the tracing
overhead measured by replaying the same jobs untraced, per-call costs, and
the wall time of every pinned paper check and CLI subcommand.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. ``failed``
counts jobs that raised or broke the package's pinned contract; jobs whose
output contradicts the oracle are reported as ``wrong_share``. The full
result with provenance goes to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import os

# single-threaded numpy; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_results"
#: workloads, their rationale and every metric's name and unit
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])

#: fresh processes timed per run for setup_s
SETUP_REPEATS = 5


@dataclass
class JobRecord:
    seconds: float
    error: str | None
    wrong: bool = False
    pinned_ok: bool = False
    roundtrip: float = 0.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                   help="job wall time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_package():
    """Import loewner from this checkout's src/, or exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "loewner" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'loewner'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import loewner

    if Path(loewner.__file__).resolve().parent != (src / "loewner").resolve():
        print(f"error: imported loewner from {loewner.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return loewner


def run_job(wl, job, index, tracer) -> JobRecord:
    start = perf_counter()
    try:
        out = wl.run(job) if tracer is None else tracer.run_job(index, wl.run, job)
    except Exception as exc:  # one failing job must not end the run
        return JobRecord(perf_counter() - start, f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    v = wl.check(job, out)
    return JobRecord(seconds, None, v.wrong, v.pinned_ok, v.roundtrip)


def timed_loop(wl, jobs, seconds, tracer=None) -> list[JobRecord]:
    """Closed loop, one client: the next job starts when the previous one
    returns, until the jobs' own wall time (oracle checks excluded) reaches
    ``seconds``."""
    records = []
    busy = 0.0
    for i, job in enumerate(jobs):
        if busy >= seconds:
            break
        records.append(run_job(wl, job, i, tracer))
        busy += records[-1].seconds
    return records


def setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: waiting with one polls in steps of up to 50 ms
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def provenance(loewner, workload: str, seed: int, attempted: int, why: str) -> dict:
    import numpy as np

    return {
        "git_commit": git_commit(), "seed": seed, "python": platform.python_version(),
        "numpy": np.__version__, "loewner": loewner.__version__, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "workload": workload, "jobs_attempted": attempted,
        "why": why, "client": "closed loop, 1 client, single-threaded process",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(args) -> int:
    loewner = load_package()
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.jobs(np.random.default_rng(args.seed))
        wl.run(wl.warmup)
        return 0

    setup = [] if args.trace else setup_seconds(wl.name, args.seed)
    jobs = wl.jobs(np.random.default_rng(args.seed))
    wl.run(wl.warmup)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        records = timed_loop(wl, jobs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = len(records)
    times = [r.seconds for r in records]
    raised = [r for r in records if r.error is not None]
    failed = len(raised) + sum(1 for r in records if r.error is None and not r.pinned_ok)
    wrong = sum(1 for r in records if r.wrong)
    completed = attempted - len(raised)
    # shown with every run; per-layer metrics of traced runs
    oracle = {
        "fail_share": (len(raised) / attempted, "share"),
        "wrong_share": (wrong / attempted, "share"),
        "roundtrip_max": (max((r.roundtrip for r in records), default=0.0), "1"),
    }

    correct = failed == 0
    extra = {}
    if tracer is None:
        metrics = {
            "jobs_per_s": (completed / sum(times), "1/s"),
            "job_p50_ms": (float(np.percentile(times, 50)) * 1e3, "ms"),
            "job_p90_ms": (float(np.percentile(times, 90)) * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra["setup_runs_s"] = setup
    else:
        metrics, extra, ok = traced_extras(wl, jobs, records, tracer, args.seconds)
        metrics.update(oracle)
        correct = correct and ok

    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in spec} != {k: u for k, (v, u) in metrics.items()}:
        print("error: metric names or units differ from BENCHMARK.json", file=sys.stderr)
        return 1

    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == wl.name)
    prov = provenance(loewner, wl.name, args.seed, attempted, why)
    shown = {**metrics, **oracle}
    report(wl, args, prov, records, raised, shown, extra)
    write_result(wl.name, args, prov, correct, attempted, failed, shown, extra, tracer)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_extras(wl, jobs, records, tracer, seconds):
    """Per-layer metrics of a traced loop plus overhead, per-call costs and the
    pinned-check and CLI timings. Returns (metrics, extra, all_passed)."""
    from baselines import cli_timings, micro_timings, repro_timings
    from spans import layer_metrics

    metrics = layer_metrics(tracer, len(records))

    # replay the first jobs untraced, for a quarter of the run length
    replay = timed_loop(wl, jobs[:len(records)], seconds / 4.0)
    traced_s = sum(r.seconds for r in records[:len(replay)])
    untraced_s = sum(r.seconds for r in replay)
    metrics["tracing.traced_jobs_per_s"] = (len(replay) / traced_s, "1/s")
    metrics["tracing.untraced_jobs_per_s"] = (len(replay) / untraced_s, "1/s")
    metrics["tracing.overhead_share"] = (traced_s / untraced_s - 1.0, "share")

    metrics.update({k: (v, "ns") for k, v in micro_timings().items()})

    check_s, passed = repro_timings()
    metrics.update({f"repro.{k}_s": (v, "s") for k, v in check_s.items()})
    metrics["repro.checks_passed"] = (sum(passed.values()), "count")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        cli_s, codes = cli_timings(Path(tmp))
    metrics.update({f"cli.{k}_s": (v, "s") for k, v in cli_s.items()})
    extra = {"replayed_jobs": len(replay), "repro_passed": passed, "cli_exit_codes": codes}
    ok = all(passed.values()) and all(c == 0 for c in codes.values())
    return metrics, extra, ok


def report(wl, args, prov, records, raised, metrics, extra) -> None:
    print(f"# workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  jobs {len(records)} ({prov['client']})")
    print(f"# why: {prov['why']}")
    print("# provenance: " + json.dumps({k: v for k, v in prov.items() if k != "why"}))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"# percentiles over n={len(records)} jobs")
    if args.trace:
        from spans import SELF_METRIC

        layers = {k: metrics[k][0] for k in SELF_METRIC.values()}
        order = sorted(layers, key=layers.get, reverse=True)
        print("# self time per job, largest first: "
              + ", ".join(f"{k}={layers[k] * 1e3:.2f}ms" for k in order))
        print(f"# tracing overhead over {extra['replayed_jobs']} replayed jobs: "
              f"{metrics['tracing.overhead_share'][0]:.1%}")
        for name, ok in extra["repro_passed"].items():
            print(f"# repro {name}: {'PASS' if ok else 'FAIL'} "
                  f"in {metrics[f'repro.{name}_s'][0]:.3f} s")
    for r in raised[:5]:
        print(f"# job raised: {r.error}")


def write_result(name, args, prov, correct, attempted, failed, metrics, extra, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}_seed{args.seed}_trace{args.trace}"
    result = {
        "provenance": prov, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
    }
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer is not None:
        fields = ["id", "parent", "job", "name", "start", "end"]
        (OUT_DIR / f"spans_{stem}.json").write_text(
            json.dumps({"fields": fields, "spans": tracer.spans}) + "\n")


def run_all(args) -> int:
    """Run every workload in its own fresh process and print one table."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        rows.append((name, res))
    if not args.trace:
        keys = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "fail_share", "wrong_share",
                "setup_s", "peak_rss_mb")
        print("# " + f"{'workload':16s}" + "".join(f"{k:>13s}" for k in keys) + f"{'jobs':>7s}")
        for name, res in rows:
            full = json.loads((OUT_DIR / f"BENCH_{name}_seed{args.seed}_trace0.json").read_text())
            print("# " + f"{name:16s}"
                  + "".join(f"{full['metrics'][k]['value']:13.5g}" for k in keys)
                  + f"{res['attempted']:7d}")
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        load_package()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
