"""Every name a package module imports is used in that module, none is a wrapper, and every
function the benchmark tracer wraps exists."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flipwait"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
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
