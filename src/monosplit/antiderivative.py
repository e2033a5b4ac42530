"""Potentials, chain antiderivatives, and discrete c-conjugation.

Given a cyclically monotone set of pairs G in X1 x X2 and a base point s1
in its first projection, the chain antiderivative

    R(x) = sup { sum_{j=1..n} c(x^{j+1}, y^j) - c(x^j, y^j) :
                 (x^j, y^j) in G, x^1 = s1, x^{n+1} = x }

is a real-valued potential with R(s1) = 0 whose c-subdifferential graph
contains G.  The supremum is a longest-path problem on the gain digraph of
:mod:`monosplit.monotone`; it is finite exactly when no cycle has positive
gain, so properness failure and cycle detection are one and the same test.

Conjugation is taken in the discrete sense: f^c(y) maximises
c(x, y) - f(x) over the tabulated domain of f only.  Equivalently it is the
exact conjugate of f extended by +inf off its table, which keeps the
Young-Fenchel inequality c(x, y) <= f(x) + f^c(y) valid everywhere under
the same +inf convention.  A tabulated potential therefore evaluates to
+inf at points missing from its table; a potential given by a closed form
has no table.

Tabulation, conjugation and the antiderivative check are each one
c-transform (:func:`monosplit.monotone.c_transform`): R(p) = max_k
[c(p, y_k) - h_k] with h_k = c(x_k, y_k) - longest_k over the pairs, f^c
with h = f over f's finite table, and f(x1) + f^c(x2) - c(x1, x2) <= tol on
the pairs.  The transform works in row blocks, so peak memory does not grow
as grid x pairs.  Each grid is deduped once, and :func:`_on_grid` checks
only the values of a table on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    ClosedForm,
    PairwiseCost,
    RowIndex,
    Vec,
    _read_only,
    _vec_rows,
    as_vec,
    dedup_pairs,
    dedup_vecs,
    form_from_json,
    unique_rows,
)
from .errors import (
    BasePointNotInProjection,
    DimensionMismatch,
    ImproperInput,
    InputValidationError,
    NotCyclicallyMonotone,
    ParseError,
)
from .monotone import DEFAULT_TOL, c_transform, scan_gain_digraph

@dataclass(frozen=True, eq=False)
class Potential:
    """A scalar potential on one marginal space: a table or a closed form.

    Attributes:
        points: distinct marginal points carrying explicit values, as a
            read-only (k, d) array.
        values: matching values as a read-only (k,) array; +inf is allowed,
            -inf and NaN are not.  Queries off the table return +inf.
        closed_form: an analytic potential answering every query, in place
            of a table: with one, points and values must be empty.
    """

    points: np.ndarray
    values: np.ndarray
    closed_form: ClosedForm | None = None

    def __post_init__(self):
        try:
            rows = _vec_rows(self.points)
        except DimensionMismatch:
            raise InputValidationError("domain points mix dimensions") from None
        vals = np.array(self.values, dtype=float)
        if len(rows) != len(vals):
            raise InputValidationError("points and values must have equal length")
        bad = np.isnan(vals) | (vals == -math.inf)
        first = np.flatnonzero(bad | ~unique_rows(rows))
        if first.size:
            k = first[0]
            if bad[k]:
                raise InputValidationError("potential values must be finite or +inf")
            raise InputValidationError(f"duplicate domain point {tuple(rows[k].tolist())!r}")
        if self.closed_form is not None and len(rows):
            raise InputValidationError("a potential is a table or a closed form, not both")
        object.__setattr__(self, "points", _read_only(rows))
        object.__setattr__(self, "values", _read_only(vals))

    @classmethod
    def from_closed_form(cls, form: ClosedForm) -> "Potential":
        """A potential defined everywhere by its analytic expression."""
        return cls((), (), closed_form=form)

    def value_at(self, x: float | Sequence[float]) -> float:
        """The closed form, else the table value, else +inf: values_at on one row."""
        return float(self.values_at(_vec_rows([x]))[0])

    def values_at(self, xs: np.ndarray) -> np.ndarray:
        """The closed form at each row of a (k, d) array, else the table
        value by exact match, else +inf."""
        if self.closed_form is not None:
            return np.asarray(self.closed_form.values(xs), dtype=float)
        return self._padded[self._index.find(xs)]

    @cached_property
    def _index(self) -> RowIndex:
        return RowIndex(self.points)

    @cached_property
    def _padded(self) -> np.ndarray:
        """The values and a last +inf, which index -1 reads."""
        return np.append(self.values, math.inf)

    def to_json(self) -> dict:
        return {
            "points": self.points.tolist(),
            "values": self.values.tolist(),
            "closed_form": self.closed_form.to_json() if self.closed_form else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Potential":
        try:
            points = tuple(as_vec(p) for p in obj["points"])
            values = tuple(
                math.inf if v == "inf" else float(v) for v in obj["values"]
            )
            form = obj.get("closed_form")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad potential payload: {exc}") from exc
        return cls(points, values, closed_form=form_from_json(form) if form is not None else None)


def _on_grid(grid: np.ndarray, values: np.ndarray) -> Potential:
    """The table of values on grid, distinct read-only rows, checking only the values."""
    if (np.isnan(values) | (values == -math.inf)).any():
        raise InputValidationError("potential values must be finite or +inf")
    pot = object.__new__(Potential)
    pot.__dict__.update(points=grid, values=_read_only(values), closed_form=None)
    return pot


def rockafellar_potential(
    cost: PairwiseCost,
    pairs: Sequence[tuple],
    s1: float | Sequence[float],
    eval_points: Sequence[float | Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> Potential:
    """Tabulate the chain antiderivative of a monotone pair set.

    Chains live inside the given pairs and start at a pair whose first
    coordinate equals s1 exactly; the final increment steps to the query
    point.  One digraph scan, seeded at those pairs, yields the longest
    chain gains and decides properness: a positive cycle (beyond tol)
    anywhere in the pairs aborts with NotCyclicallyMonotone and the
    offending cycle.  R(s1) = 0 exactly.

    Values depend on the pairs actually supplied: refining a sampled graph
    can only raise R, so tabulated values certify the sampled set, not any
    continuum limit.
    """
    xs, ys = dedup_pairs(pairs)
    return _chain_potential(cost, xs, ys, as_vec(s1), dedup_vecs(eval_points), tol)


def _chain_potential(cost: PairwiseCost, xs, ys, base: Vec, grid: np.ndarray, tol: float) -> Potential:
    """rockafellar_potential on the distinct pairs (xs[k], ys[k]), given as
    (m, d) row arrays, based at the validated point base, on grid (:func:`_on_grid`)."""
    source = _rows_at(xs, base)
    if not source.any():
        raise BasePointNotInProjection(f"base point {base!r} is not a first coordinate of any pair")
    # The scan refuses non-finite edge gains c(x_v, y_u) - c(x_u, y_u), so the
    # gain digraph is complete: each pair is one step from a source, and the
    # seeded scan meets every cycle that an unseeded one would.
    scan = scan_gain_digraph(xs, ys, cost, tol=tol, source_mask=source)
    if scan.cycle is not None:
        raise NotCyclicallyMonotone(f"pairs contain a cycle with gain {scan.cycle_gain:.6g}",
                                    scan.cycle, scan.cycle_gain)
    # R(p) = max_k [c(p, y_k) - h_k], h_k = c(x_k, y_k) - longest_k: a c-transform over the y_k.
    best, _ = c_transform(cost, ys, cost.paired(xs, ys) - scan.longest, grid, False)
    return _on_grid(grid, np.where(_rows_at(grid, base), 0.0, best))


def _rows_at(rows: np.ndarray, base: Vec) -> np.ndarray:
    """Which rows equal base exactly (-0.0 equals 0.0, as in a row lookup);
    none where the widths differ."""
    if rows.shape[1] != len(base):
        return np.zeros(len(rows), dtype=bool)
    return (rows == base).all(axis=1)


def c_conjugate(
    f: Potential,
    cost: PairwiseCost,
    eval_points: Sequence[float | Sequence[float]],
) -> Potential:
    """Discrete c-conjugate f^c(y) = max_x (c(x, y) - f(x)) over f's table.

    Ties in the maximiser break toward the lowest domain index.  Raises
    ImproperInput when f has no finite tabulated value to maximise over.
    """
    if (f.values == math.inf).all():
        raise ImproperInput("cannot conjugate a potential with no finite values")
    return _conjugate(f, cost, dedup_vecs(eval_points))


def _conjugate(f: Potential, cost: PairwiseCost, grid: np.ndarray) -> Potential:
    """c_conjugate of f, which has a finite value, on grid (:func:`_on_grid`)."""
    finite = f.values != math.inf
    return _on_grid(grid, c_transform(cost, f.points[finite], f.values[finite], grid, True)[0])


@dataclass(frozen=True)
class AntiderivativeCheck:
    """Outcome of the antiderivative test: max over pairs and domain probes
    of f(x1) + c(x1', x2) - f(x1') - c(x1, x2)."""

    holds: bool
    max_residual: float


def verify_antiderivative(
    f: Potential,
    pairs: Sequence[tuple],
    cost: PairwiseCost,
    tol: float = DEFAULT_TOL,
) -> AntiderivativeCheck:
    """Check that every pair lies in the c-subdifferential graph of f.

    For each pair (x1, x2) and every tabulated probe x1' with finite value,
    the subgradient inequality f(x1) + c(x1', x2) <= f(x1') + c(x1, x2)
    must hold within tol.  Returns the worst residual; a pair where f is
    +inf fails outright.
    """
    x1, x2 = dedup_pairs(pairs)
    return _antiderivative_check(f, x1, x2, cost, tol)


def _antiderivative_check(f: Potential, x1, x2, cost: PairwiseCost, tol: float) -> AntiderivativeCheck:
    """verify_antiderivative on the distinct pairs (x1[k], x2[k]), given as
    (m, d) row arrays."""
    fx = f.values_at(x1)
    if (fx == math.inf).any():
        return AntiderivativeCheck(False, math.inf)
    # max over probes x1' of c(x1', x2) - f(x1') is f^c(x2) over f's finite table, which is
    # -inf for a closed form alone: it has no probes.
    probes = np.flatnonzero(f.values != math.inf)
    fc, _ = c_transform(cost, f.points[probes], f.values[probes], x2, True)
    worst = float(((fx + fc) - cost.paired(x1, x2)).max(initial=-math.inf))
    return AntiderivativeCheck(worst <= tol, worst)
