"""Source hygiene: every name a module imports at top level is used there,
the package imports nothing at run time but the standard library, NumPy and
itself, and every function the benchmark tracer wraps still exists.

The scan reads each module of the package (not ``__init__.py``, whose
imports are its public re-exports) with :mod:`ast`.  A name counts as used
when it appears as an identifier anywhere in the module, including inside
string annotations such as ``-> "Potential"``.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "monosplit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level imported name -> line of its import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )


def test_the_scan_sees_unused_and_annotation_only_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from dataclasses import dataclass, field\n"
        "from .core import Vec, Point\n"
        "def f(x: 'Vec') -> Point:\n"
        "    return math.pi\n"
    )
    assert _unused_imports(source) == ["dataclass (line 3)", "field (line 3)"]


def test_package_scan_covers_every_module():
    assert "core.py" in MODULES and "splitting.py" in MODULES
    assert "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


RUNTIME_DEPENDENCIES = set(sys.stdlib_module_names) | {"numpy", "monosplit"}


def _imported_packages(source: str) -> set[str]:
    """Top-level package of every import anywhere in a module; a relative
    import is the package itself."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add("monosplit" if node.level else node.module.split(".")[0])
    return out


def test_the_dependency_scan_sees_nested_and_relative_imports():
    source = (
        "import os.path\n"
        "from .core import Vec\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    from numpy import linalg\n"
    )
    assert _imported_packages(source) == {"os", "monosplit", "scipy", "numpy"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_runtime_imports_are_the_standard_library_numpy_or_the_package(module):
    assert _imported_packages((PACKAGE / module).read_text()) - RUNTIME_DEPENDENCIES == set()


def test_traced_functions_exist():
    # A deleted or renamed target would otherwise fail only when the
    # benchmark runs with tracing on.
    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "perfbench" / "bench_trace.py"
    )
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = [
        f"{short}.{name}"
        for short, funcs in bench_trace.TARGETS.items()
        for name in funcs
        if not callable(getattr(importlib.import_module(f"monosplit.{short}"), name, None))
    ]
    assert missing == []
