"""Command-line frontend.

Subcommands: evolve, singular, trace, tangent, convert, norm, critical,
paper-repro. All output files are deterministic CSV/JSON (17 significant
digits, no timestamps). Exit codes: 0 success, 1 computational failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import bridge, critical, repro, tangent, trace
from .driving import parse_term, write_sampled_csv
from .errors import DomainError, LoewnerError
from .halfplane import evolve_boundary, evolve_interior, singular_minus, singular_plus
from .holder import holder_exponent_fit, holder_sup_norm
from .trajectory import write_trajectory_csv

_F = "{:.17g}".format

#: first time of the ``singular`` log grid, unless t_end * 1e-8 is later
_SINGULAR_GRID_FLOOR = 1e-12


def parse_grid(spec: str) -> np.ndarray:
    """Time-grid spec: ``lin:<a>:<b>:<n>``, ``log:<a>:<b>:<n>``, or a comma list."""
    if spec.startswith("lin:") or spec.startswith("log:"):
        kind, a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
        if not 2 <= n <= critical.MAX_GRID_NODES:
            raise ValueError(f"bad grid spec {spec!r}: n must lie in "
                             f"[2, {critical.MAX_GRID_NODES}]")
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise ValueError(f"bad grid spec {spec!r}")
        return np.linspace(a, b, n) if kind == "lin" else np.geomspace(a, b, n)
    grid = [float(x) for x in spec.split(",")]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"bad grid spec {spec!r}: entries must be finite")
    return np.asarray(grid, dtype=float)


def _term_covering(spec: str, t_end: float):
    """The term of ``spec``, checked to cover [0, t_end] before any solve or
    output file: a time past its domain is a usage error."""
    term = parse_term(spec)
    try:
        term.check_covers(t_end)
    except DomainError as exc:
        raise ValueError(str(exc)) from None
    return term


def _cmd_evolve(args) -> int:
    if not 0.0 <= args.t_end < math.inf:  # NaN fails too
        raise ValueError("--t-end must be finite and nonnegative")
    term = _term_covering(args.term, args.t_end)
    start = [float(x) for x in args.start.split(",")]
    if len(start) > 2:
        raise ValueError(f"--start takes re[,im], got {len(start)} components")
    if args.geometry == "halfplane":
        if len(start) == 2 and start[1] != 0.0:
            traj = evolve_interior(term, complex(start[0], start[1]), args.t_end, args.tol)
        else:
            traj = evolve_boundary(term, start[0], args.t_end, args.tol)
    else:
        from .disk import evolve_disk_boundary, evolve_disk_interior

        if len(start) == 2:
            traj = evolve_disk_interior(term, complex(start[0], start[1]), args.t_end, args.tol)
        else:
            traj = evolve_disk_boundary(term, start[0], args.t_end, args.tol)
    write_trajectory_csv(args.out, traj)
    return 0


def _cmd_singular(args) -> int:
    if not 2 <= args.n <= critical.MAX_GRID_NODES:
        raise ValueError(f"--n must lie in [2, {critical.MAX_GRID_NODES}]")
    if not _SINGULAR_GRID_FLOOR < args.t_end < math.inf:  # NaN fails too
        raise ValueError(f"--t-end must be finite and exceed the grid floor "
                         f"{_SINGULAR_GRID_FLOOR!r}")
    term = _term_covering(args.term, args.t_end)
    grid = np.geomspace(max(args.t_end * 1e-8, _SINGULAR_GRID_FLOOR), args.t_end, args.n)
    minus = singular_minus(term, args.t_end, args.tol, capture=grid)
    plus = singular_plus(term, args.t_end, args.tol, capture=grid)
    rows = zip(grid.tolist(), minus.values_at(grid).tolist(), plus.values_at(grid).tolist(),
               term.values(grid).tolist())
    with open(args.out, "w") as fh:
        fh.write("t,h_minus,h_plus,lambda\n")
        for t, lo, hi, lam in rows:
            fh.write(f"{_F(t)},{_F(lo)},{_F(hi)},{_F(lam)}\n")
    return 0


def _cmd_trace(args) -> int:
    grid = parse_grid(args.t_grid)
    term = _term_covering(args.term, float(grid.max()))
    tips = trace.extract_trace(term, grid, args.tol)
    with open(args.out, "w") as fh:
        fh.write("t,re,im\n")
        for t, tip in tips:
            fh.write(f"{_F(t)},{_F(tip.real)},{_F(tip.imag)}\n")
    return 0


def _cmd_tangent(args) -> int:
    grid = parse_grid(args.t_grid)
    # checked in full before --out is opened, so a bad grid leaves no file
    if not 0.0 <= grid.min() <= grid.max() <= tangent.T_MAX_DEFAULT:
        raise ValueError(f"--t-grid must lie in the tangent-slit domain "
                         f"[0, {tangent.T_MAX_DEFAULT!r}]")
    with open(args.out, "w") as fh:
        fh.write("t,alpha,beta,lambda\n")
        for t in grid:
            p = tangent.solve_params(float(t))
            fh.write(f"{_F(float(t))},{_F(p.alpha)},{_F(p.beta)},{_F(p.gamma_prevertex)}\n")
    return 0


def _cmd_convert(args) -> int:
    grid = parse_grid(args.t_grid)
    term = _term_covering(args.term, float(grid.max()))
    start = float(args.start)
    if args.direction == "h2d":
        res = bridge.halfplane_to_disk(term, start, grid, args.tol)
    else:
        res = bridge.disk_to_halfplane(term, start, grid, args.tol)
    write_sampled_csv(args.out, res.term.times, res.term.table_values)
    if res.is_partial:
        print(f"partial conversion: companion trajectory swallowed at "
              f"t={_F(res.swallowed_at)}", file=sys.stderr)
    return 0


def _cmd_norm(args) -> int:
    with warnings.catch_warnings():
        # a file without data rows is a usage error, raised by holder_sup_norm below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        times, values = np.loadtxt(args.input, delimiter=",", skiprows=1, usecols=(0, 1),
                                   comments="#", unpack=True)
    sup = holder_sup_norm(times, values, exponent=args.exponent)
    out = {"sup_norm": sup, "exponent_requested": args.exponent}
    try:
        lo, hi = (float(x) for x in args.fit_window.split(":"))
        fit = holder_exponent_fit(times, values, window=(lo, hi))
        out.update({"fit_exponent": fit.exponent, "fit_coefficient": fit.coefficient,
                    "fit_grid": fit.grid})
    except LoewnerError as exc:
        out["fit_error"] = str(exc)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_critical(args) -> int:
    if args.mode == "y-sequence":
        ys = critical.y_sequence(args.n)
        payload = {"y_sequence": list(ys)}
    elif args.mode == "c-iteration":
        res = critical.c_iteration(args.c, args.eps, args.n_max)
        payload = {"c": res.c, "eps": res.eps, "verdict": res.verdict,
                   "crossed_at": res.crossed_at, "norm_floor": res.norm_floor,
                   "values": list(res.values[:50])}
    else:
        cs = critical.c_grid(args.c_min, args.c_max, args.c_step)
        exp = critical.collision_threshold_experiment(cs)
        payload = {
            "threshold_experiment": [
                {"c": v.c, "verdict": "collides_by_t1" if v.collides else "no_collision",
                 "first_collision_t": v.first_collision_t, "y_handoff": v.y_handoff,
                 "x0": v.x0}
                for v in exp.verdicts],
            "threshold": exp.threshold,
            "monotone": exp.is_monotone,
        }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_paper_repro(args) -> int:
    failed = 0
    for r, seconds in repro.run_section(args.section):
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.criterion}: {r.detail}  ({seconds:.3f} s)")
        failed += 0 if r.passed else 1
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="loewner",
                                description="Loewner evolution toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, tol_default=1e-10):
        sp.add_argument("--tol", type=float, default=tol_default,
                        help="local error tolerance per step")

    sp = sub.add_parser("evolve", help="evolve one interior or boundary point")
    sp.add_argument("--geometry", choices=("halfplane", "disk"), required=True)
    sp.add_argument("--term", required=True, help="driving term spec (kind:params)")
    sp.add_argument("--start", required=True, help="re[,im] of the starting point")
    sp.add_argument("--t-end", type=float, required=True, dest="t_end")
    add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_evolve)

    sp = sub.add_parser("singular", help="both singular solutions and the driving term")
    sp.add_argument("--term", required=True)
    sp.add_argument("--t-end", type=float, required=True, dest="t_end")
    sp.add_argument("--n", type=int, default=200, help="log-grid size")
    add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_singular)

    sp = sub.add_parser("trace", help="reconstruct the slit trace")
    sp.add_argument("--term", required=True)
    sp.add_argument("--t-grid", required=True, dest="t_grid",
                    help="lin:a:b:n | log:a:b:n | comma list")
    add_common(sp, tol_default=1e-8)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("tangent", help="tangent circular-slit parameters")
    sp.add_argument("--t-grid", required=True, dest="t_grid")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_tangent)

    sp = sub.add_parser("convert", help="convert a driving term between geometries")
    sp.add_argument("--direction", choices=("h2d", "d2h"), required=True)
    sp.add_argument("--term", required=True)
    sp.add_argument("--start", required=True, help="x0 (h2d) or alpha0 (d2h)")
    sp.add_argument("--t-grid", required=True, dest="t_grid")
    add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("norm", help="Holder sup-norm and exponent fit of a CSV")
    sp.add_argument("--input", required=True)
    sp.add_argument("--exponent", type=float, default=0.5)
    sp.add_argument("--fit-window", default="1e-6:1e-2", dest="fit_window")
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("critical", help="critical-norm recursions and experiments")
    sp.add_argument("--mode", choices=("y-sequence", "c-iteration", "threshold"),
                    required=True)
    sp.add_argument("--n", type=int, default=50)
    sp.add_argument("--c", type=float, default=4.0)
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--n-max", type=int, default=10000, dest="n_max")
    sp.add_argument("--c-min", type=float, default=3.5, dest="c_min")
    sp.add_argument("--c-max", type=float, default=4.5, dest="c_max")
    sp.add_argument("--c-step", type=float, default=0.05, dest="c_step")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_critical)

    sp = sub.add_parser("paper-repro", help="run the preset experiments of one section")
    sp.add_argument("--section", type=int, choices=(2, 3, 4), required=True)
    sp.set_defaults(func=_cmd_paper_repro)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LoewnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
