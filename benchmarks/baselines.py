"""Fixed-input timings for the traced run: the pinned paper checks, every CLI
subcommand, and per-call costs of the hottest leaf functions.

These regenerate the package's recorded baseline (time per pinned check, the
share of ``check_threshold_experiment``, per-call driving-term costs) with one
command. Per-call costs are machine-dependent.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from loewner import cli, repro, tangent
from loewner.driving import Lind
from loewner.tangent import TangentTerm

#: one fixed argv per CLI subcommand: the README's examples, with section 3
#: (the cheapest) for paper-repro; ``{d}`` is the scratch directory and
#: ``norm`` reads the file ``convert`` wrote
CLI_RUNS = (
    ("evolve", ["evolve", "--geometry", "halfplane", "--term", "constant:0", "--start", "1,1",
                "--t-end", "0.5", "--out", "{d}/h.csv"]),
    ("singular", ["singular", "--term", "sqrt:1", "--t-end", "1", "--out", "{d}/sing.csv"]),
    ("trace", ["trace", "--term", "tangent:1", "--t-grid", "log:1e-4:0.02:20",
               "--out", "{d}/tips.csv"]),
    ("tangent", ["tangent", "--t-grid", "log:1e-6:0.04:50", "--out", "{d}/params.csv"]),
    ("convert", ["convert", "--direction", "h2d", "--term", "lind:4", "--start", "2",
                 "--t-grid", "lin:0:0.999:800", "--out", "{d}/u.csv"]),
    ("norm", ["norm", "--input", "{d}/u.csv", "--exponent", "0.5"]),
    ("critical", ["critical", "--mode", "threshold", "--out", "{d}/critical.json"]),
    ("paper-repro", ["paper-repro", "--section", "3"]),
)

MICRO_CALLS = 2000
MICRO_REPEATS = 7


def repro_timings() -> tuple[dict[str, float], dict[str, bool]]:
    """Wall time and PASS state of each pinned check."""
    seconds, passed = {}, {}
    for checks in repro.SECTION_CHECKS.values():
        for check in checks:
            name = check.__name__.removeprefix("check_")
            start = perf_counter()
            result = check()
            seconds[name] = perf_counter() - start
            passed[name] = result.passed
    return seconds, passed


def cli_timings(workdir: Path) -> tuple[dict[str, float], dict[str, int]]:
    """Wall time and exit code of each subcommand, run in-process; output goes
    to ``workdir`` and captured streams."""
    seconds, codes = {}, {}
    for name, argv in CLI_RUNS:
        argv = [a.replace("{d}", str(workdir)) for a in argv]
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        seconds[name] = perf_counter() - start
        codes[name] = code
    return seconds, codes


def _per_call_ns(fn, args) -> float:
    runs = []
    for _ in range(MICRO_REPEATS):
        start = perf_counter()
        for a in args:
            fn(a)
        runs.append((perf_counter() - start) / len(args))
    return statistics.median(runs) * 1e9


def micro_timings() -> dict[str, float]:
    """Median per-call cost over fixed seeded times, in ns."""
    rng = np.random.default_rng(12345)
    unit = [float(u) for u in rng.random(MICRO_CALLS)]
    slit = [tangent.T_MAX_DEFAULT * (1.0 - u) for u in unit]
    return {
        "driving.lind_value_ns": _per_call_ns(Lind(4.0).value, unit),
        "driving.tangent_value_ns": _per_call_ns(TangentTerm(1.0).value, slit),
        "tangent.solve_params_ns": _per_call_ns(tangent.solve_params, slit),
    }
