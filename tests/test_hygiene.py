"""Source hygiene: every name a module imports at top level is used there,
the package imports nothing at run time but the standard library, NumPy and
itself, no module calls ``json.dump`` or ``json.dumps`` (``core.dumps_json``
is the one JSON writer), no module but ``core`` reads a ``.kind`` attribute
and none defines ``_couple`` (``PairwiseCost`` alone knows its formula and
kinds), no module reads an ``_``-prefixed attribute of an
object other than ``self`` or ``cls``, ``argmax`` and ``argmin`` take an
axis only in the blocked row kernel and the relaxation scan, every function
the benchmark tracer wraps still exists, the certificate fields its counter
reads still exist, every ``functools.cache`` or ``lru_cache`` decorates a
function of no parameters or of ``int`` ones only, and the README's Library
examples run on the package's top-level exports.

The scan reads each module of the package (not ``__init__.py``, whose
imports are its public re-exports) with :mod:`ast`.  A name counts as used
when it appears as an identifier anywhere in the module, including inside
string annotations such as ``-> "Potential"``.
"""

from __future__ import annotations

import ast
import importlib.util
import re
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


def _json_writer_calls(source: str) -> list[int]:
    """Lines that use json.dump or json.dumps, or import either by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps") \
                and isinstance(node.value, ast.Name) and node.value.id == "json":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" \
                and {a.name for a in node.names} & {"dump", "dumps"}:
            lines.append(node.lineno)
    return lines


def test_the_json_writer_scan_sees_calls_and_imports():
    source = (
        "import json\n"
        "from json import dumps as d, loads\n"
        "def f(x, out):\n"
        "    json.dump(x, out)\n"
        "    return json.loads(json.dumps(x))\n"
    )
    assert _json_writer_calls(source) == [2, 4, 5]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_dumps_json_is_the_one_json_writer(module):
    assert _json_writer_calls((PACKAGE / module).read_text()) == []


def _axis_reductions(source: str) -> list[str]:
    """Each argmax or argmin call given an axis (by keyword, or as the
    argument after the array), as "function: line" with the innermost
    enclosing def, in source order."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        if isinstance(node, ast.Call) and name in ("argmax", "argmin"):
            # np.argmax(a, axis) passes the array first; a.argmax(axis) does not.
            array_first = isinstance(func, ast.Name) or (
                isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))
            if any(k.arg == "axis" for k in node.keywords) or len(node.args) > array_first:
                found.append((node.lineno, f"{where}: {node.lineno}"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return [entry for _, entry in sorted(found)]


def test_the_axis_reduction_scan_sees_methods_functions_and_positional_axes():
    source = (
        "import numpy as np\n"
        "def f(a):\n"
        "    def g(b):\n"
        "        return b.argmin(axis=0), b.argmin()\n"
        "    return np.argmax(a, 1), a.argmax(), a.argmin(0), np.argmax(a)\n"
        "top = np.argmin(x, axis=1)\n"
    )
    assert _axis_reductions(source) == ["g: 4", "f: 5", "f: 5", "<module>: 6"]


# Chain tables, conjugates, the antiderivative check and the brackets are each
# one c-transform, max_a [c(a, q) - h(a)], and reduce along an axis only in
# monotone.c_transform, in blocks of at most PAIR_BLOCK_CELLS cells, so that no
# caller builds a dense matrix to reduce.  _relaxation_scan keeps its dense
# rounds: its cand.min(axis=0) keeps the last of tied +-0.0
# (np.array([0.0, -0.0]).min() is -0.0) where an argmax gather keeps the
# first, so routing it through the transform could flip signed zeros in its
# distances and in the chain values built on them.
AXIS_REDUCERS = {"c_transform", "_relaxation_scan"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_axis_argmax_and_argmin_live_only_in_the_row_kernel(module):
    found = _axis_reductions((PACKAGE / module).read_text())
    assert [f for f in found if f.split(":")[0] not in AXIS_REDUCERS] == []


def _cost_matrix_uses(source: str) -> list[str]:
    """Each definition of a function named matrix and each call of a .matrix
    attribute, as "line: what", in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "matrix":
            found.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "matrix":
            found.append((node.lineno, ast.unparse(node.func)))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_matrix_scan_sees_definitions_and_calls():
    source = (
        "class C:\n"
        "    def matrix(self, xs, ys):\n"
        "        return xs\n"
        "m = cost.matrix(a, b)\n"
        "q = form.matrix\n"
        "r = spec.pair_cost(1, 2).matrix(x, y)\n"
    )
    assert _cost_matrix_uses(source) == ["2: def matrix", "4: cost.matrix",
                                         "6: spec.pair_cost(1, 2).matrix"]


# Every cost cell comes from the one kernel, PairwiseCost.block, written into
# its caller's buffer.  The broadcast matrix it replaced is the kernel's
# oracle, tests/helpers.pair_matrix; a form's matrix field is read, not called.
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_defines_or_calls_a_cost_matrix(module):
    assert _cost_matrix_uses((PACKAGE / module).read_text()) == []


def _kind_reads(source: str) -> list[str]:
    """Each read of a .kind attribute, as "line: expression", in source order."""
    reads = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in reads]


def test_the_kind_scan_sees_attribute_reads_only():
    source = (
        "def f(cost, kind):\n"
        "    w = Witness(kind=kind)\n"
        "    return cost.kind, spec.pair_cost(1, 2).kind, w\n"
    )
    assert _kind_reads(source) == ["3: cost.kind", "3: spec.pair_cost(1, 2).kind"]


# PairwiseCost is the one place that knows the cost formula and its kinds:
# the closed forms have one coordinate loop (the formula it replaced is the
# oracle tests/helpers.couple), and no other module branches on a kind.
@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_cost_knows_its_kinds(module):
    source = (PACKAGE / module).read_text()
    assert "_couple" not in source
    assert module == "core.py" or _kind_reads(source) == []


def _private_reads(source: str) -> list[str]:
    """Each read of an _-prefixed, non-dunder attribute of an object other
    than self or cls, as "line: expression", in source order."""
    reads = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"{node.lineno}: {ast.unparse(node)}" for node in reads]


def test_the_private_read_scan_sees_other_objects_only():
    source = (
        "class P:\n"
        "    def f(self, other):\n"
        "        return self._vals, other._vals, type(self).__name__\n"
        "    @classmethod\n"
        "    def g(cls, p):\n"
        "        return cls._cache, p.table._index.find, np._core\n"
    )
    assert _private_reads(source) == ["3: other._vals", "6: p.table._index", "6: np._core"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_another_objects_private_attributes(module):
    assert _private_reads((PACKAGE / module).read_text()) == []


def _cached_functions(source: str) -> dict[str, list[str]]:
    """Each function decorated with functools.cache or functools.lru_cache
    (bare or called, through the module or a name imported from it, under
    any alias) -> its parameters that are not annotated int, in order."""
    tree = ast.parse(source)
    modules, caches = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            caches |= {a.asname or a.name for a in node.names
                       if a.name in ("cache", "lru_cache")}

    def is_cache(dec) -> bool:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(dec, ast.Attribute):
            return isinstance(dec.value, ast.Name) and dec.value.id in modules \
                and dec.attr in ("cache", "lru_cache")
        return isinstance(dec, ast.Name) and dec.id in caches

    def is_int(ann) -> bool:
        return (isinstance(ann, ast.Name) and ann.id == "int") or \
            (isinstance(ann, ast.Constant) and ann.value == "int")

    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and any(is_cache(d) for d in node.decorator_list):
            a = node.args
            named = [(x.arg, x) for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
            named += [(f"*{x.arg}", x) for x in (a.vararg,) if x is not None]
            named += [(f"**{x.arg}", x) for x in (a.kwarg,) if x is not None]
            found[node.name] = [name for name, x in named if not is_int(x.annotation)]
    return found


def test_the_cache_scan_sees_every_spelling_and_every_kind_of_parameter():
    source = (
        "import functools\n"
        "import functools as ft\n"
        "from functools import cache, lru_cache as lru, partial\n"
        "@functools.cache\n"
        "def a() -> int: ...\n"
        "@functools.lru_cache(maxsize=4)\n"
        "def b(n: int, /, m: 'int', *, k: int = 2): ...\n"
        "@cache\n"
        "def c(x: float, n: int, t): ...\n"
        "@lru(maxsize=None)\n"
        "def d(*args: int, **kw): ...\n"
        "class K:\n"
        "    @ft.lru_cache\n"
        "    def e(self, n: int): ...\n"
        "@partial\n"
        "def f(x): ...\n"
        "def g(x): ...\n"
    )
    assert _cached_functions(source) == {
        "a": [], "b": [], "c": ["x", "t"], "d": ["**kw"], "e": ["self"],
    }


# A process-wide cache must hold one object for the process, or one per small
# integer: a cache keyed on a seed, a path, a grid or any other input would
# hold on to every input it saw and tie a report to an earlier call.
CACHED = {"build_parser", "_perm_array", "_perm_positions", "knott_smith_alphas", "_fixed_claims"}


def test_every_cache_takes_no_parameters_or_only_ints():
    found = {}
    for module in sorted(p.name for p in PACKAGE.glob("*.py")):
        for name, params in _cached_functions((PACKAGE / module).read_text()).items():
            found[f"{module}:{name}"] = params
    assert {key.split(":")[1] for key in found} == CACHED
    assert {key: params for key, params in found.items() if params} == {}


def _bench_trace():
    spec = importlib.util.spec_from_file_location(
        "bench_trace", ROOT / "perfbench" / "bench_trace.py"
    )
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


def test_traced_functions_exist():
    # A deleted or renamed target would otherwise fail only when the
    # benchmark runs with tracing on.
    bench_trace = _bench_trace()
    missing = [
        f"{short}.{name}"
        for short, funcs in bench_trace.TARGETS.items()
        for name in funcs
        if not callable(getattr(importlib.import_module(f"monosplit.{short}"), name, None))
    ]
    assert missing == []


def test_the_tracer_counts_both_kinds_of_certificate():
    # The tracer reads n_test_points and n_vacuous from each certificate; a
    # renamed field would fail only when the benchmark runs with tracing on.
    from monosplit import assemble_splitting_tuple, certify_splitting
    from monosplit.core import GammaSet, QuadraticForm, classical_cost
    from monosplit.splitting import SplittingTuple

    count = _bench_trace().TARGETS["splitting"]["certify_splitting"]
    cost = classical_cost("c1", 2, 1)
    g = GammaSet.from_points([[0.0, 0.0], [1.0, 1.0]])
    half_square = SplittingTuple.from_closed_forms([QuadraticForm(((1.0,),))] * 2)
    table_product = certify_splitting(assemble_splitting_tuple(g, cost), g, cost)
    on_points = certify_splitting(half_square, g, cost, test_points=g.points)
    assert count((), {}, table_product) == {"points": 4, "vacuous": 0}
    assert count((), {}, on_points) == {"points": 2, "vacuous": 0}


def _readme_library_blocks() -> list[str]:
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_examples_run_on_the_top_level_exports():
    blocks = _readme_library_blocks()
    assert len(blocks) == 2
    for block in blocks:
        assert "from monosplit import" in block
        exec(compile(block, "README.md", "exec"), {})
    package = importlib.import_module("monosplit")
    assert all(callable(getattr(package, name)) for name in package.__all__)
