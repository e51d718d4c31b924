"""Package layout checks: module boundaries, callers of public functions,
readers of public fields and properties, and the benchmark's patch points."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from loewner import Constant, Lind, Sqrt, disk, halfplane, integrate
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


def _exported_names(trees) -> set[str]:
    names = set()
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                names |= set(ast.literal_eval(node.value))
    return names


def _referenced_name(node) -> str | None:
    """The name a node refers to by load, attribute access or import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _unreferenced_public_functions() -> list[str]:
    """Public module-level functions that no src/ code outside their own body
    refers to and that no ``__all__`` lists."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    exported = _exported_names(trees.values())
    refs = Counter(_referenced_name(node) for tree in trees.values() for node in ast.walk(tree))
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and fn.name not in exported):
                own = sum(_referenced_name(node) == fn.name for node in ast.walk(fn))
                if refs[fn.name] == own:
                    found.append(f"{module}.{fn.name}")
    return found


def test_every_public_function_has_a_caller_in_src():
    # a function only its own test calls belongs in that test module
    assert _unreferenced_public_functions() == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_referenced_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _dataclass_fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    return [f for f in cls.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def _defaulted_parameters(function: ast.FunctionDef, skip_self: bool = False):
    """(name, position) of each defaulted parameter; position is None for a
    keyword-only one."""
    args = function.args
    positional = (args.posonlyargs + args.args)[1 if skip_self else 0:]
    first = len(positional) - len(args.defaults)
    found = [(a.arg, first + k) for k, a in enumerate(positional[first:])]
    return found + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]


def _public_signatures(trees):
    """Callee name -> (qualified name, defaulted parameters) of every public
    module-level function and every public class's constructor."""
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = (f"{module}.{node.name}", _defaulted_parameters(node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                params = []
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        params = _defaulted_parameters(item, skip_self=True)
                if _is_dataclass(node):
                    params = [(f.target.id, k) for k, f in enumerate(_dataclass_fields(node))
                              if f.value is not None]
                found[node.name] = (f"{module}.{node.name}", params)
    return found


def _sets(call: ast.Call, name: str, position) -> bool:
    """Whether the call passes the parameter, by keyword, by position or by a splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _test_only_parameters() -> list[str]:
    """Defaulted parameters of public functions and constructors that no call
    in src/ sets; the CLI's ``main(argv)`` is the entry-point hook."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    found = []
    for callee, (qualified, params) in _public_signatures(trees).items():
        mine = [c for c in calls if _referenced_name(c.func) == callee]
        for name, position in params:
            if qualified != "cli.main" and not any(_sets(c, name, position) for c in mine):
                found.append(f"{qualified}({name})")
    return found


def test_every_defaulted_parameter_is_set_by_src():
    # an option that only tests set is a knob the package never turns; tests
    # that need another value patch the module constant instead
    assert _test_only_parameters() == []


def _passed(call: ast.Call, name: str, position):
    """The expression a call passes for the parameter, or None when it passes
    none or passes it through a splat."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    args = call.args
    if position is None or any(isinstance(a, ast.Starred) for a in args[:position + 1]):
        return None
    return args[position] if len(args) > position else None


def _literal_repr(node) -> str | None:
    """repr of a literal expression's value; None for any other expression."""
    try:
        return repr(ast.literal_eval(node)) if node is not None else None
    except ValueError:
        return None


def _private_fixed_parameters() -> list[str]:
    """Parameters of private module-level functions in src/ that no call sets
    although they have a default, or to which every call passes the same
    literal. A private name is called only from its own module (see the
    private-imports rule), so the module's calls are all of them."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and _is_private(fn.name)):
                continue
            calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id == fn.name]
            if not calls:  # only passed around, as a callback: no call to read
                continue
            args = fn.args
            defaulted = {name for name, _ in _defaulted_parameters(fn)}
            params = [(a.arg, k) for k, a in enumerate(args.posonlyargs + args.args)]
            params += [(a.arg, None) for a in args.kwonlyargs]
            for name, position in params:
                where = f"{path.stem}.{fn.name}({name})"
                if name in defaulted and not any(_sets(c, name, position) for c in calls):
                    found.append(f"{where}: never set in src")
                    continue
                values = {_literal_repr(_passed(c, name, position)) for c in calls}
                if len(values) == 1 and None not in values:
                    found.append(f"{where}: always {values.pop()} in src")
    return found


def test_no_private_parameter_is_fixed_in_src():
    # a parameter that every caller leaves at its default, or sets to one
    # literal, is a code path that only tests can reach
    assert _private_fixed_parameters() == []


def _attribute_reads(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _unread_public_members() -> list[str]:
    """Fields of public dataclasses and public properties of public classes in
    src/ that no code outside their own class, in src/ or benchmarks/, reads as
    an attribute of that name."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    readers = list(trees.values()) + [ast.parse(p.read_text())
                                      for p in sorted((ROOT / "benchmarks").glob("*.py"))]
    reads = sum(map(_attribute_reads, readers), Counter())
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            members = [f.target.id for f in _dataclass_fields(cls)] if _is_dataclass(cls) else []
            members += [m.name for m in cls.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                        and any(_referenced_name(d) == "property" for d in m.decorator_list)]
            own = _attribute_reads(cls)
            found += [f"{module}.{cls.name}.{m}" for m in members if reads[m] == own[m]]
    return found


def test_every_public_field_and_property_is_read():
    # a result field nothing reads is work done for no one; the benchmark
    # counts as a reader, since it checks what the package computes
    assert _unread_public_members() == []


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
        # one solve each: evolve, disk and the trace tip
        assert tracer.totals["integrate.solve_scalar"][0] == 3
        # the threshold experiment reaches evolve_boundary through critical's
        # global, once per verdict
        tracer.run_job(1, collision_threshold_experiment, [3.6, 4.2])
        assert tracer.totals["halfplane.evolve_boundary"][0] == 2
        assert tracer.counts["critical.solves"] == 2
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original


def _trajectory_constructions() -> list[tuple[str, tuple[str, ...]]]:
    """(module.function, conditions of the enclosing ``if`` statements) of
    each ``Trajectory(...)`` call in src/."""
    found = []

    def visit(node, where, conditions):
        if isinstance(node, ast.Call) and _referenced_name(node.func) == "Trajectory":
            found.append((where, conditions))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            visit(node.test, where, conditions)
            for child in node.body:
                visit(child, where, conditions + (test,))
            for child in node.orelse:
                visit(child, where, conditions + (f"not {test}",))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, where, conditions)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def test_only_the_steppers_build_trajectories():
    # every solve returns the Trajectory its stepper built; the one other is
    # the singular solution at t_end == 0, where nothing is solved
    assert sorted(_trajectory_constructions()) == [
        ("halfplane._singular", ("t_end == 0.0",)),
        ("integrate._result", ()),
    ]


def _returns_of(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to keep what each call returns, in the list returned."""
    solve, returned = getattr(owner, name), []

    def spy(*args, **kwargs):
        returned.append(solve(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(owner, name, spy)
    return returned


@pytest.mark.parametrize("module, evolve, start, dtype", [
    (halfplane, halfplane.evolve_boundary, 2.0, np.float64),
    (halfplane, halfplane.evolve_interior, 0.5 + 1.0j, np.complex128),
    (disk, disk.evolve_disk_boundary, 2.0, np.float64),
    (disk, disk.evolve_disk_interior, 0.5j, np.complex128),
], ids=["evolve_boundary", "evolve_interior", "evolve_disk_boundary", "evolve_disk_interior"])
def test_each_evolve_returns_its_steppers_trajectory(monkeypatch, module, evolve, start, dtype):
    returned = _returns_of(monkeypatch, module, "solve_scalar")
    traj = evolve(Lind(3.0), start, 0.5)
    assert len(returned) == 1 and traj is returned[0]
    assert traj.values.dtype == dtype


@pytest.mark.parametrize("singular", [halfplane.singular_plus, halfplane.singular_minus],
                         ids=["singular_plus", "singular_minus"])
def test_singular_solutions_return_the_branch_trajectory(monkeypatch, singular):
    returned = _returns_of(monkeypatch, integrate, "solve_singular_branch")
    traj = singular(Sqrt(1.0), 0.5)
    assert len(returned) == 1 and traj is returned[0]
    assert (traj.times[0], traj.values[0]) == (0.0, 0.0)
    assert traj.values.dtype == np.float64


def test_solve_scalar_holds_one_step_body():
    # one Dormand-Prince step calls rhs for k1 once per solve and for k2..k7
    # per step: a second copy of the step body would show as more calls
    tree = ast.parse((PACKAGE / "integrate.py").read_text())
    (solve,) = (node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "solve_scalar")
    calls = [node for node in ast.walk(solve) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "rhs"]
    assert len(calls) == 7


def _raised_names(tree) -> set[str]:
    return {_referenced_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
            for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None}


def test_every_error_class_is_raised():
    # a public error nothing raises is API that promises a failure which
    # cannot happen
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(ast.parse(p.read_text()))
                           for p in sorted(PACKAGE.glob("*.py"))))
    assert classes
    assert sorted(classes - raised) == []
