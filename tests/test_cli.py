import cmath
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from loewner.cli import main, parse_grid
from loewner.critical import MAX_GRID_NODES, MAX_Y_ZEROS
from loewner.driving import write_sampled_csv
from loewner.holder import DENSE_PAIR_LIMIT
from loewner.repro import SHARP_RATIO_RTOL, SINGULAR_MATCH_RTOL
from loewner.tangent import solve_params


def test_parse_grid_forms():
    assert np.allclose(parse_grid("lin:0:1:5"), np.linspace(0, 1, 5))
    assert np.allclose(parse_grid("log:0.01:1:3"), np.geomspace(0.01, 1, 3))
    assert np.allclose(parse_grid("0.1,0.5,2"), [0.1, 0.5, 2.0])


def test_evolve_halfplane_matches_closed_form(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["evolve", "--geometry", "halfplane", "--term", "constant:0",
               "--start", "1,1", "--t-end", "0.5", "--out", str(out)])
    assert rc == 0
    last = out.read_text().strip().splitlines()[-1].split(",")
    w = cmath.sqrt((1 + 1j) ** 2 + 2.0)
    assert float(last[1]) == pytest.approx(w.real, abs=1e-4)
    assert float(last[2]) == pytest.approx(w.imag, abs=1e-4)


def test_evolve_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--geometry", "disk", "--term", "sqrt:1", "--start",
            "0.2,0.1", "--t-end", "0.4", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_singular_csv_headers(tmp_path):
    out = tmp_path / "sing.csv"
    assert main(["singular", "--term", "sqrt:1", "--t-end", "1", "--n", "8",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,h_minus,h_plus,lambda"
    t, hm, hp, lam = (float(x) for x in lines[-1].split(","))
    A = (1 + math.sqrt(17)) / 2
    assert hp == pytest.approx(A, rel=1e-6)
    assert lam == pytest.approx(1.0)


def test_singular_rows_at_tiny_t_end_are_the_captured_samples(tmp_path):
    # the solver spaces samples far closer than 1e-12 here; each row must be
    # the sample captured at its own t, which follows A+- sqrt(t)
    out = tmp_path / "sing.csv"
    assert main(["singular", "--term", "sqrt:1", "--t-end", "1e-10", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (200, 4)
    t, h_minus, h_plus = rows[:, 0], rows[:, 1], rows[:, 2]
    root = math.sqrt(17.0)
    for h, a in ((h_minus, 0.5 * (1.0 - root)), (h_plus, 0.5 * (1.0 + root))):
        assert np.max(np.abs(h / (a * np.sqrt(t)) - 1.0)) <= SHARP_RATIO_RTOL


def test_singular_tangent_example_matches_the_prevertices(tmp_path):
    # the Lip(1/3) term makes h+ stiff at t = 0; every row of the default log
    # grid from 1e-10 on must match alpha and beta
    out = tmp_path / "x.csv"
    assert main(["singular", "--term", "tangent:1", "--t-end", "0.01", "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert rows.shape == (200, 4)
    for t, h_minus, h_plus, _ in rows:
        p = solve_params(t)
        assert abs(h_minus / p.alpha - 1.0) <= SINGULAR_MATCH_RTOL
        assert abs(h_plus / p.beta - 1.0) <= SINGULAR_MATCH_RTOL


def test_tangent_csv(tmp_path):
    out = tmp_path / "tan.csv"
    assert main(["tangent", "--t-grid", "log:1e-6:0.04:5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,alpha,beta,lambda"
    t, a, b, lam = (float(x) for x in rows[1].split(","))
    assert a < 0 < b
    assert lam == pytest.approx(2 * a + b, rel=1e-12)


@pytest.mark.parametrize("grid", ["log:1e-4:0.1:5", "lin:-0.01:0.04:5", "0.01,0.06"])
def test_tangent_grid_outside_the_domain_writes_no_file(grid, tmp_path, capsys):
    # the whole grid is checked before the output is opened: no truncated CSV
    out = tmp_path / "tan.csv"
    assert main(["tangent", "--t-grid", grid, "--out", str(out)]) == 2
    assert "tangent-slit domain" in capsys.readouterr().err
    assert not out.exists()


def test_convert_and_norm_round_trip(tmp_path, capsys):
    conv = tmp_path / "u.csv"
    assert main(["convert", "--direction", "h2d", "--term", "lind:4", "--start", "2",
                 "--t-grid", "lin:0:0.999:400", "--out", str(conv)]) == 0
    assert main(["norm", "--input", str(conv), "--exponent", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 3.5 < payload["sup_norm"] <= 4.01


def test_norm_reads_swallowed_trajectory_csv(tmp_path, capsys):
    # x(t, 2) = 4 - 2 sqrt(1 - t) has Lip(1/2) norm 2; the file ends in the
    # swallowing comment, which norm must skip
    traj = tmp_path / "lind.csv"
    assert main(["evolve", "--geometry", "halfplane", "--term", "lind:4", "--start", "2",
                 "--t-end", "1", "--out", str(traj)]) == 0
    assert traj.read_text().splitlines()[-1].startswith("# terminal=swallowed")
    capsys.readouterr()
    assert main(["norm", "--input", str(traj)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sup_norm"] == pytest.approx(2.0, rel=1e-5)
    assert payload["sup_norm"] <= 2.0


def test_trace_csv(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["trace", "--term", "constant:0", "--t-grid", "0.25,1.0",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,re,im"
    t, re, im = (float(x) for x in rows[-1].split(","))
    assert (re, im) == (pytest.approx(0.0, abs=1e-4), pytest.approx(2.0, abs=1e-4))


def test_critical_json_modes(tmp_path, capsys):
    assert main(["critical", "--mode", "y-sequence", "--n", "3"]) == 0
    ys = json.loads(capsys.readouterr().out)["y_sequence"]
    assert ys[0] == pytest.approx(2.0, abs=1e-10)
    assert ys[1] == pytest.approx(2 * math.sqrt(2), abs=1e-10)

    assert main(["critical", "--mode", "c-iteration", "--c", "3.9", "--eps", "1e-6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "crosses_zero"

    out = tmp_path / "thr.json"
    assert main(["critical", "--mode", "threshold", "--c-min", "3.9", "--c-max", "4.1",
                 "--c-step", "0.2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    verdicts = {v["c"]: v for v in payload["threshold_experiment"]}
    assert verdicts[3.9]["verdict"] == "no_collision"
    assert verdicts[4.1]["verdict"] == "collides_by_t1"
    # the handoff state y(t_h) says why: below y+ = (c + sqrt(c^2 - 16))/2
    assert verdicts[4.1]["y_handoff"] < 0.5 * (4.1 + math.sqrt(4.1**2 - 16.0))
    assert verdicts[4.1]["first_collision_t"] == 1.0

    assert main(["critical", "--mode", "threshold"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == 4.0 and payload["monotone"] is True


def test_paper_repro_section_two(capsys):
    assert main(["paper-repro", "--section", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2 and "FAIL" not in out
    # each check's line ends in its wall time
    assert all(line.endswith(" s)") for line in out.splitlines())


def test_norm_of_a_dense_file_writes_nothing_to_stderr(tmp_path):
    # a fresh interpreter, so any numpy warning of the all-pairs scan would
    # reach stderr as it does for a user
    csv = tmp_path / "walk.csv"
    rng = np.random.default_rng(3)
    write_sampled_csv(csv, np.linspace(0.0, 1.0, DENSE_PAIR_LIMIT),
                      np.cumsum(rng.normal(size=DENSE_PAIR_LIMIT)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "loewner", "norm", "--input", str(csv)],
                         capture_output=True, text=True, env=env, check=False)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["sup_norm"] > 0.0


def test_norm_of_a_file_without_data_rows_is_a_usage_error(tmp_path, capsys):
    # numpy's "input contained no data" warning stays out of the report
    empty = tmp_path / "empty.csv"
    empty.write_text("t,u\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norm", "--input", str(empty)]) == 2
    assert capsys.readouterr().err == "usage error: need >= 2 samples with matching times/values\n"


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["evolve", "--geometry", "halfplane", "--term", "bogus:1",
                 "--start", "1,1", "--t-end", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["norm", "--input", str(tmp_path / "missing.csv")]) == 2
    # non-finite inputs are usage errors, not numerical failures or NaN output
    for geometry, start in (("halfplane", "nan"), ("disk", "nan"), ("disk", "nan,1")):
        assert main(["evolve", "--geometry", geometry, "--term", "sqrt:1", "--start", start,
                     "--t-end", "0.5", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["critical", "--mode", "c-iteration", "--c", "nan"]) == 2
    # an evolve end time that is not finite or is negative, as for singular
    for t_end in ("nan", "inf", "-1"):
        assert main(["evolve", "--geometry", "halfplane", "--term", "sqrt:1", "--start", "1",
                     "--t-end", t_end, "--out", str(tmp_path / "x.csv")]) == 2
    # a c grid that is unbounded or reversed, and counts that yield no result
    assert main(["critical", "--mode", "threshold", "--c-max", "inf"]) == 2
    assert main(["critical", "--mode", "threshold", "--c-min", "4", "--c-max", "3"]) == 2
    # a c grid of about twice the node limit (3.5 to 4.5 in steps of 5e-7)
    assert main(["critical", "--mode", "threshold", "--c-step", "5e-7"]) == 2
    assert main(["critical", "--mode", "c-iteration", "--n-max", "0"]) == 2
    # at c = 4 the iteration stays positive and would keep all n_max iterates
    assert main(["critical", "--mode", "c-iteration", "--n-max", str(10**6 + 1)]) == 2
    assert main(["critical", "--mode", "y-sequence", "--n", "-2"]) == 2
    assert main(["singular", "--term", "sqrt:1", "--t-end", "1", "--n", "0",
                 "--out", str(tmp_path / "s.csv")]) == 2
    # a singular t_end at or below the log grid's first time 1e-12, or not
    # finite; rejected before the grid is built, so numpy warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_end in ("1e-13", "1e-12", "nan", "inf"):
            assert main(["singular", "--term", "sqrt:1", "--t-end", t_end, "--n", "5",
                         "--out", str(tmp_path / "s.csv")]) == 2
    # a y-sequence longer than critical.MAX_Y_ZEROS (its O(n^2) cost)
    assert main(["critical", "--mode", "y-sequence", "--n", str(MAX_Y_ZEROS + 1)]) == 2
    # a term parameter that is not finite, and a start point with extra coordinates
    for term in ("tangent:nan", "tangent:inf"):
        assert main(["evolve", "--geometry", "halfplane", "--term", term, "--start", "1",
                     "--t-end", "0.01", "--out", str(tmp_path / "x.csv")]) == 2
    for term in ("sqrt:nan", "lind:nan", "constant:nan", "lind:inf"):
        for geometry in ("halfplane", "disk"):
            assert main(["evolve", "--geometry", geometry, "--term", term, "--start", "1",
                         "--t-end", "0.5", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["singular", "--term", "sqrt:nan", "--t-end", "1",
                 "--out", str(tmp_path / "s.csv")]) == 2
    for geometry in ("halfplane", "disk"):
        assert main(["evolve", "--geometry", geometry, "--term", "sqrt:1", "--start", "0.1,0.2,3",
                     "--t-end", "0.5", "--out", str(tmp_path / "x.csv")]) == 2
    # a radius whose square overflows or underflows (r**2 raised OverflowError)
    for term in ("tangent:1e200", "tangent:1e-200"):
        assert main(["trace", "--term", term, "--t-grid", "0.01",
                     "--out", str(tmp_path / "t.csv")]) == 2
    # time grids with a non-finite end or entry
    for grid in ("lin:0.1:inf:3", "log:0.1:inf:3", "lin:-inf:1:3", "0.1,nan", "0.1,inf,0.2"):
        assert main(["trace", "--term", "sqrt:1", "--t-grid", grid,
                     "--out", str(tmp_path / "t.csv")]) == 2
    # times past the term's domain, rejected before any solve or output file
    out = tmp_path / "d.csv"
    for args in (["trace", "--term", "tangent:1", "--t-grid", "0.01,0.1"],
                 ["evolve", "--geometry", "halfplane", "--term", "lind:4", "--start", "2",
                  "--t-end", "2"],
                 ["singular", "--term", "lind:4", "--t-end", "2"],
                 ["convert", "--direction", "h2d", "--term", "lind:4", "--start", "2",
                  "--t-grid", "0,0.5,2"]):
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
def test_bad_tolerance_exits_two(tol, tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for args in (["evolve", "--geometry", "halfplane", "--term", "lind:4", "--start", "2",
                  "--t-end", "0.5"],
                 ["singular", "--term", "tangent:1", "--t-end", "0.01"],
                 ["trace", "--term", "tangent:1", "--t-grid", "0.01"],
                 ["convert", "--direction", "h2d", "--term", "lind:4", "--start", "2",
                  "--t-grid", "lin:0:0.5:10"]):
        assert main(args + [f"--tol={tol}", "--out", out]) == 2
        assert "tol must be finite and > 0" in capsys.readouterr().err


def test_grid_sizes_are_capped_before_any_array_is_built(tmp_path, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid array was built")

    monkeypatch.setattr(np, "geomspace", no_grid)
    monkeypatch.setattr(np, "linspace", no_grid)
    out = str(tmp_path / "x.csv")
    start = time.perf_counter()
    # 10**9 nodes of a geomspace would take 8 GB
    assert main(["singular", "--term", "sqrt:1", "--t-end", "1", "--n", str(10**9),
                 "--out", out]) == 2
    for kind in ("lin", "log"):
        assert main(["trace", "--term", "sqrt:1", "--t-grid",
                     f"{kind}:0.1:1:{MAX_GRID_NODES + 1}", "--out", out]) == 2
    assert time.perf_counter() - start < 5.0


def test_subnormal_trace_time_exits_two(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["trace", "--term", "sqrt:1", "--t-grid", "1e-310", "--out", str(out)]) == 2
    assert "t=1e-310 is subnormal" in capsys.readouterr().err
    assert not out.exists()


def test_computational_failure_exits_one(tmp_path, capsys):
    # at t = 1 the lind:4.5 driving point is no slit tip: the backward profile
    # has no upper root, a computational failure, and no file is written
    out = tmp_path / "x.csv"
    rc = main(["trace", "--term", "lind:4.5", "--t-grid", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_nan_t_end_is_rejected(tmp_path, capsys):
    # NaN passes every `t_end < bound` test; the guards must reject it, as a
    # usage error
    rc = main(["evolve", "--geometry", "halfplane", "--term", "lind:4",
               "--start", "2", "--t-end", "nan", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("usage error:")
