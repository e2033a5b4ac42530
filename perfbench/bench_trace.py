"""Spans and counters around the public functions of each monosplit module.

``Tracer.install`` replaces each traced function in every ``monosplit``
module namespace that holds it, so a call from one module into another is
seen as a child of the caller's span (for example ``scan_gain_digraph``
inside ``rockafellar_potential`` inside ``assemble_splitting_tuple``).
Spans stay in memory; self times and counts are derived from them when the
run ends.  Counts named ``cells`` and ``cost_evals`` are computed from the
input sizes, not observed inside the program.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

from monosplit.errors import ProjectionNotMonotone


def _vec(v) -> tuple:
    return tuple(v) if isinstance(v, (tuple, list)) else (float(v),)


def _count_rockafellar(args, kwargs, result):
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    s1 = args[2] if len(args) > 2 else kwargs["s1"]
    m = len(dict.fromkeys((_vec(x), _vec(y)) for x, y in pairs))
    rows = len(result.points) - (_vec(s1) in result.points)
    # two scalar cost calls per (query point, pair) in the tabulation loop
    return {"cost_evals": 2 * m * rows}


def _count_conjugate(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    finite = sum(1 for v in f.values if v != math.inf)
    return {"cost_evals": finite * len(result.points)}


def _count_certificate(args, kwargs, result):
    return {"points": result.n_test_points, "vacuous": result.n_vacuous}


def _count_knots(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"knots": len(grid)}


TARGETS = {
    "monotone": {
        "scan_gain_digraph": lambda a, k, r: {"calls": 1, "cells": len(a[0]) ** 2},
        "check_projection_condition": None,
        "is_c_monotone": lambda a, k, r: {"checked": r.checked},
        "is_n_c_monotone_bruteforce": lambda a, k, r: {"checked": r.checked},
        "sign_criterion_1d": None,
    },
    "antiderivative": {
        "rockafellar_potential": _count_rockafellar,
        "c_conjugate": _count_conjugate,
        "verify_antiderivative": None,
    },
    "splitting": {
        "assemble_splitting_tuple": None,
        "certify_splitting": _count_certificate,
        "sample_test_points": None,
    },
    "onedim": {"curve_potentials": _count_knots, "characterize_1d": None},
    "quadratic": {"counterexample_verify": None},
    "core": {"dumps_json": lambda a, k, r: {"bytes": len(r.encode())}},
    "cli": {"main": None},
}


class Tracer:
    """In-memory span recorder.  A span is (job, name, parent index, start, end)."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ProjectionNotMonotone:
                self.counts[f"{name}.refused"] += 1
                raise
            finally:
                self.spans[sid] = (self.job, name, parent, start, time.perf_counter())
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "monosplit" or n.startswith("monosplit."))]
        for short, funcs in TARGETS.items():
            home = sys.modules[f"monosplit.{short}"]
            for fname, counter in funcs.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self, scale) -> dict[str, float]:
        """Total self time per span name: duration minus child durations,
        each multiplied by scale[job] of the span's job."""
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (job, name, _, start, end) in enumerate(self.spans):
            out[name] += ((end - start) - child[sid]) * scale[job]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, (job, name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "job": job, "name": name,
                                     "parent": parent, "start": start, "end": end}) + "\n")
