"""Package layout checks: module boundaries and the benchmark's patch points."""

import ast
import importlib.util
from pathlib import Path

from loewner import Constant, Lind
from loewner.critical import collision_threshold_experiment
from loewner.disk import evolve_disk_boundary
from loewner.halfplane import evolve_boundary
from loewner.trace import extract_trace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loewner"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(path: Path) -> list[str]:
    """Private names a module takes from its sibling modules, by import or attribute."""
    tree = ast.parse(path.read_text())
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("loewner")):
            for alias in node.names:
                if node.module is None or node.module == "loewner":
                    siblings.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _is_private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = {p.name: _private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "benchmarks" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_points_resolve_and_restore():
    tracer = _load_spans().Tracer()
    tracer.install()  # raises AttributeError when a patched name is gone
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
        # each geometry must reach solve_scalar through its own module global
        tracer.run_job(0, lambda _: (evolve_boundary(Lind(4.0), 2.0, 0.5),
                                     evolve_disk_boundary(Constant(0.0), 2.0, 0.5),
                                     extract_trace(Constant(0.0), [0.25])), None)
        assert tracer.totals["integrate.solve_scalar"][0] == 5  # 1 + 1 + 3 eps levels
        # the threshold experiment reaches evolve_boundary through critical's
        # global, once per verdict
        tracer.run_job(1, collision_threshold_experiment, [3.6, 4.2])
        assert tracer.totals["halfplane.evolve_boundary"][0] == 2
        assert tracer.counts["critical.solves"] == 2
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
