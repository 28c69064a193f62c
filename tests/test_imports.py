"""Every name a package module imports is used where it is imported, none is a wrapper, every
function the benchmark tracer wraps exists, a fresh import loads only what runs, and the value
classes keep the dataclass contract they had."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flipwait.conjectures import INTERPRETATION, scan
from flipwait.counting import CountFamilyMismatch, CountFamilyReport, CountVector, count_first_occurrence
from flipwait.identities import CorollaryCheck
from flipwait.pattern import parse
from flipwait.recurrence import Recurrence
from flipwait.sequences import SeqFamily

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flipwait"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope: ast.AST):
    """The nodes inside `scope` that no function defined within it holds."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _imported_names(scope: ast.AST) -> dict[str, int]:
    """Names imported in `scope` itself, not in the functions it defines."""
    names = {}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation: ast.expr) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    out = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def test_annotation_names_read_string_annotations():
    tree = ast.parse('from a import X, Y, Z\nfrom b import W\n__all__ = ["W"]\n'
                     'def f(x: "X | None") -> dict[str, "Y"]:\n    pass\n')
    assert set(_imported_names(tree)) - _used_names(tree) == {"Z"}


def _unused_imports(tree: ast.Module) -> dict[str, int]:
    """Imported names that their scope never uses: the module for a module-level import, the function for a local one."""
    unused = {}
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))]:
        used = _used_names(scope)
        unused.update((name, line) for name, line in _imported_names(scope).items() if name not in used)
    return unused


def test_function_local_imports_are_used_in_their_own_function():
    tree = ast.parse("import os\nimport sys\n\ndef f():\n    import csv\n    from os import path\n    return sys\n\n"
                     "def g():\n    csv = path = 1\n    return csv, path, os\n")
    assert _unused_imports(tree) == {"csv": 5, "path": 6}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_module_level_callable_has_wrapped():
    # perfbench/tests/test_harness.py::test_end_to_end_runs_have_tracing_off takes any
    # callable with __wrapped__ in a flipwait module for a live tracer wrapper
    for path in PACKAGE.glob("*.py"):
        importlib.import_module("flipwait" if path.stem == "__init__" else f"flipwait.{path.stem}")
    wrapped = sorted(f"{name}.{attr}" for name, module in sys.modules.items()
                     if name.startswith("flipwait") and module is not None
                     for attr, value in vars(module).items()
                     if callable(value) and hasattr(value, "__wrapped__"))
    assert not wrapped, (
        f"{wrapped} carry __wrapped__ (a functools.cache, lru_cache or wraps decorator?): "
        "perfbench's test_end_to_end_runs_have_tracing_off would read them as tracer wrappers "
        "left switched on; hold cached state in a plain module global instead")


def test_benchmark_tracer_finds_every_traced_function(monkeypatch):
    # perfbench/tracing.py looks each LAYERS name up as flipwait.<module>.<function>
    # when it installs, so renaming or removing one breaks `run.py --trace 1`
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.LAYERS:
        module_name, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"flipwait.{module_name}"), fn_name, None)
        if not inspect.isfunction(fn):
            missing.append(name)
    assert tracing.LAYERS and not missing, f"perfbench traces {missing}, which flipwait no longer defines"


def _fresh_imports(code: str) -> set[str]:
    """The modules that running `code` adds to those a fresh interpreter has loaded before it."""
    script = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(' '.join(sorted(set(sys.modules) - before)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_a_fresh_import_loads_only_what_runs():
    # the modules perfbench's setup_s imports, and every module but simulate, whose SimReport is a dataclass
    public = [m.name for m in pkgutil.iter_modules([str(PACKAGE)]) if not m.name.startswith("_")]
    assert "cli" in public and "simulate" in public
    loaded = _fresh_imports("\n".join(f"import flipwait.{name}" for name in public))
    assert not loaded & {"argparse", "json", "csv"}
    every = [path.stem for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "simulate")]
    assert "dataclasses" not in _fresh_imports("\n".join(f"import flipwait.{name}" for name in every))
    loaded = _fresh_imports("import flipwait.cli\nflipwait.cli.main(['expect', 'HTH'])")
    assert "flipwait.exact" in loaded and "argparse" in loaded
    unused = {"flipwait.conjectures", "flipwait.counting", "flipwait.identities", "flipwait.simulate",
              "flipwait._simpy", "dataclasses", "json", "csv"}
    assert not loaded & unused


# (an instance, a different instance of the class, the fields in order, the repr, frozen)
CLASS_CONTRACTS = [
    (lambda: parse("HTH"), lambda: parse("HTT"), ("symbols", "alphabet_size"),
     "Pattern(symbols=(0, 1, 0), alphabet_size=2)", True),
    (lambda: Recurrence(((1, 1), (2, 1))), lambda: Recurrence(((1, 1), (2, -1))), ("taps",),
     "Recurrence(taps=((1, 1), (2, 1)))", True),
    (lambda: SeqFamily("fib2", (1, 2)), lambda: SeqFamily("fib2", (2, 1)), ("kind", "params"),
     "SeqFamily(kind='fib2', params=(1, 2))", True),
    # the recurrence a vector carries is neither compared nor shown
    (lambda: count_first_occurrence(parse("HH"), 4), lambda: CountVector(parse("HH"), (0, 0, 1, 1, 3)),
     ("pattern", "counts"),
     "CountVector(pattern=Pattern(symbols=(0, 0), alphabet_size=2), counts=(0, 0, 1, 1, 2))", True),
    (lambda: CountFamilyMismatch("HT", "runs(1, 1)=fib-bar:1", 3, 1, 2),
     lambda: CountFamilyMismatch("HT", "runs(1, 1)=fib-bar:1", 3, 1, 3),
     ("pattern", "family", "n", "dp_count", "sequence_value"),
     "CountFamilyMismatch(pattern='HT', family='runs(1, 1)=fib-bar:1', n=3, dp_count=1, sequence_value=2)", True),
    (lambda: CountFamilyReport(2), lambda: CountFamilyReport(2, [CountFamilyMismatch("H", "f", 1, 1, 0)]),
     ("checks", "mismatches"), "CountFamilyReport(checks=2, mismatches=[])", False),
    (lambda: CorollaryCheck("id1", (2,), 10, Fraction(1), Fraction(2), Fraction(1), Fraction(1, 2)),
     lambda: CorollaryCheck("id1", (2,), 10, Fraction(1), Fraction(2), Fraction(1), Fraction(1, 4)),
     ("which", "params", "N", "partial", "target", "gap", "bound"),
     "CorollaryCheck(which='id1', params=(2,), N=10, partial=Fraction(1, 1), target=Fraction(2, 1), "
     "gap=Fraction(1, 1), bound=Fraction(1, 2))", True),
    # the columns are compared but not shown
    (lambda: scan(2), lambda: scan(3),
     ("max_len", "interpretation", "violations", "spot_checks", "columns", "histogram"),
     f"ScanReport(max_len=2, interpretation={INTERPRETATION!r}, violations=[], spot_checks=2, histogram={{0: 2}})",
     False),
]


@pytest.mark.parametrize("make, make_other, fields, text, frozen", CLASS_CONTRACTS,
                         ids=[row[3].partition("(")[0] for row in CLASS_CONTRACTS])
def test_value_classes_keep_their_dataclass_contract(make, make_other, fields, text, frozen):
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert a != other and other != a
    as_tuple = tuple(getattr(a, name) for name in fields)
    assert a != as_tuple and as_tuple != a
    # an instance of a subclass with the same attributes is another class's
    twin = object.__new__(type("Twin", (type(a),), {}))
    vars(twin).update(vars(a))
    assert a != twin and twin != a
    if frozen:
        assert hash(a) == hash(b)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(other, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        for name in fields:
            setattr(a, name, getattr(other, name))
        assert a == other and repr(a) == repr(other)
