"""Core types for finite multi-marginal transport problems.

A product point is an N-tuple of marginal points, one per factor space
``X = X_1 x ... x X_N``.  Costs are sums of two-marginal couplings

    c(x_1, ..., x_N) = sum_{1 <= i < j <= N} c_ij(x_i, x_j),

optionally plus a separable shift ``sum_i h_i(x_i)``.  This module holds the
data model shared by every verifier and constructor in the package: marginal
and product points, pairwise cost kernels, full cost specifications, finite
point sets stored as one coordinate array from which every projection is
read, closed-form scalar fields used for shifts and potentials, and a
deterministic JSON layer.

Marginal indices are 1-based throughout the public API, matching the usual
mathematical labelling of the factors.
"""

from __future__ import annotations

import abc
import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputValidationError,
    OffGrid,
    ParseError,
)

Vec = tuple[float, ...]
Point = tuple[Vec, ...]

CLASSICAL_COSTS = ("c1", "c2", "c3")


def as_vec(values: float | Sequence[float]) -> Vec:
    """Coerce a scalar or sequence into a finite coordinate tuple."""
    if isinstance(values, (int, float)):
        values = (values,)
    out = tuple(float(v) for v in values)
    if not out:
        raise InputValidationError("marginal point must have at least one coordinate")
    for v in out:
        if not math.isfinite(v):
            raise InputValidationError(f"non-finite coordinate {v!r}")
    return out


def as_point(parts: Sequence[float | Sequence[float]]) -> Point:
    """Coerce a sequence of marginal points (scalars allowed) into a Point."""
    parts = tuple(parts)
    if len(parts) < 2:
        raise InputValidationError("a product point needs at least two marginals")
    return tuple(as_vec(p) for p in parts)


def _dot(x: Vec, y: Vec) -> float:
    return sum(a * b for a, b in zip(x, y))


def _rows(points) -> np.ndarray:
    """Points as a float array, coordinates on the last axis; a flat
    sequence of numbers is a column of one-dimensional points."""
    try:
        a = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch("points mix dimensions") from exc
    return a[:, None] if a.ndim == 1 else a


def _vec_rows(points) -> np.ndarray:
    """Marginal points as a (k, d) array, checked as :func:`as_vec` checks
    each point and with its errors; points of mixed dimension raise
    DimensionMismatch."""
    try:
        a = _rows(points)
    except (TypeError, ValueError):  # ragged, or not numbers
        a = None
    if a is None or a.ndim != 2 or not a.shape[1] or not np.isfinite(a).all():
        # as_vec raises for the first bad point; scalars mixed with 1-tuples pass
        a = _rows([as_vec(p) for p in points])
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a, so no caller's array can change it later."""
    a = a.copy()
    a.flags.writeable = False
    return a


KEYED_ROWS = 256  # unique_rows sorts one key per row from this many rows up
_FOLD_SHIFT, _FOLD_MULT = np.uint64(29), np.uint64(0x9E3779B97F4A7C15)


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of a (k, d) array as one np.void item of its 8*d bytes,
    after adding 0.0 turns -0.0 into 0.0: two finite rows have equal bytes
    exactly when they are equal."""
    rows = np.ascontiguousarray(rows, dtype=float) + 0.0  # -0.0 + 0.0 is 0.0
    return rows.view(np.dtype((np.void, 8 * rows.shape[1])))[:, 0]


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """One key per row of a (k, d) array, equal for equal rows (-0.0 equal
    to 0.0): the column itself when d = 1, else the IEEE bits of the
    columns (:func:`_row_bytes`) folded by an xor-shift and an odd 64-bit
    multiply."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    bits = _row_bytes(rows).view(np.uint64).reshape(rows.shape)
    key = bits[:, 0]
    for k in range(1, bits.shape[1]):
        key = (key ^ key >> _FOLD_SHIFT) * _FOLD_MULT ^ bits[:, k]
    return key


def _first_seen_sorted(rows: np.ndarray) -> np.ndarray:
    # A stable sort puts equal rows together, first seen first.
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[order[1:]] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return first


def unique_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the first-seen row of each distinct row of a (k, d) array,
    -0.0 equal to 0.0: the rows dict.fromkeys keeps of the rows as tuples.

    From KEYED_ROWS rows up, one key per row (:func:`_row_hash`) is sorted
    instead of all d columns.  Equal rows have equal keys, so a row whose
    key is unique is first seen; only the rows whose keys repeat (true
    duplicates and hash collisions) go through the column-wise stable sort,
    in index order, so a collision costs time and never changes the mask.
    Below KEYED_ROWS rows hashing costs more than it saves, and every row
    takes the column-wise sort.  The mask is the same on either path."""
    if len(rows) < KEYED_ROWS:
        return _first_seen_sorted(rows)
    key = _row_hash(rows)
    order = np.argsort(key)
    ranked = key[order]
    same = ranked[1:] == ranked[:-1]
    tied = np.zeros(len(rows), dtype=bool)  # in sorted order
    tied[1:] = same
    tied[:-1] |= same
    first = np.ones(len(rows), dtype=bool)
    if tied.any():
        ties = np.sort(order[tied])
        first[ties] = _first_seen_sorted(rows[ties])
    return first


def _search(a: np.ndarray, v: np.ndarray, side: str = "left") -> np.ndarray:
    """np.searchsorted(a, v, side), searching v in sorted order: a search
    that starts where the last one ended is several times faster on long v."""
    order = np.argsort(v)
    out = np.empty(len(v), dtype=np.intp)
    out[order] = np.searchsorted(a, v[order], side=side)
    return out


class RowIndex:
    """A fixed (k, d) table keyed once, for exact row lookups: find(queries)
    gives the index in the table of each query row, or -1 where none is
    equal (-0.0 equals 0.0; a width unlike the table's matches nothing).  A
    row repeated in the table finds its last copy, as a dict of the rows as
    tuples to their indices would.

    A scalar row's key is its value.  A wider row's key is its bytes, one
    np.void item of 8*d bytes, after adding 0.0 turns -0.0 into 0.0, so two
    finite rows have equal keys exactly when they are equal
    (:func:`_row_bytes`).  The table's keys are sorted once, stably; each
    lookup searches the queries' keys in sorted order (:func:`_search`)."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        self.width = table.shape[1]
        keys = self._keys(table)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        if self.width == 1:
            return np.ascontiguousarray(rows[:, 0], dtype=float)
        return _row_bytes(rows)

    def find(self, queries: np.ndarray) -> np.ndarray:
        if not len(self._order) or queries.shape[1] != self.width:
            return np.full(len(queries), -1)
        q = self._keys(queries)
        pos = np.maximum(_search(self._sorted, q, side="right") - 1, 0)
        return np.where(self._sorted[pos] == q, self._order[pos], -1)


def marginal_blocks(rows: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """Split (k, sum(dims)) flattened product points into one (k, d_i)
    column-slice view per marginal."""
    if rows.ndim != 2 or rows.shape[1] != sum(dims):
        raise DimensionMismatch(f"points need {sum(dims)} coordinates, got {rows.shape}")
    return [rows[:, e - d:e] for d, e in zip(dims, accumulate(dims))]


def _marginal_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InputValidationError("need at least two marginals of dimension >= 1")
    return dims


def _point_rows(points, dims: Sequence[int]) -> np.ndarray:
    """Product points as one (k, sum(dims)) array, checked a marginal at a
    time with the errors of the one-point checks: a wrong marginal count or
    dimension raises DimensionMismatch, a non-finite coordinate
    InputValidationError.  Scalars stand for 1-D marginals, and a
    k x sum(dims) array of numbers holds k flattened points, read whole."""
    n = len(dims)
    numbers = isinstance(points, np.ndarray) and points.dtype.kind in "biuf"
    if numbers and points.shape[1:] == (sum(dims),):
        rows = np.asarray(points, dtype=float)
        if not np.isfinite(rows).all():
            raise InputValidationError("coordinates must be finite")
        return rows
    try:  # a (k, N) or (k, N, d) payload of finite numbers is read whole too
        a = np.array(points, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not such a payload: the checks raise
        a = np.empty(0)
    if a.shape[1:2] == (n,) and tuple(dims) == (a.shape[2:] or (1,)) * n and np.isfinite(a).all():
        return a.reshape(-1, sum(dims))
    given = [tuple(p) for p in points]
    if any(len(p) != n for p in given):
        raise DimensionMismatch("point has the wrong number of marginals")
    if not given:
        return np.empty((0, sum(dims)))
    try:
        cols = [_vec_rows([p[i] for p in given]) for i in range(n)]
    except DimensionMismatch:  # a marginal holds points of two dimensions
        cols = []
    if len(cols) != n or any(c.shape[1] != d for c, d in zip(cols, dims)):
        raise DimensionMismatch("marginal dimension mismatch")
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# Closed-form scalar fields
# ---------------------------------------------------------------------------


class ClosedForm(abc.ABC):
    """A named scalar field on one marginal space.

    Closed forms back separable cost shifts and analytic potentials.  Values
    live on the extended real line: +inf encodes indicator-style domains.
    """

    @abc.abstractmethod
    def values(self, rows) -> np.ndarray:
        """Evaluate at each row of a (k, d) array of marginal points; entries
        may be ``math.inf``."""

    def value(self, x: Vec) -> float:
        """Evaluate at one marginal point; may return ``math.inf``."""
        return float(self.values([x])[0])

    def __call__(self, x: float | Sequence[float]) -> float:
        return self.value(as_vec(x))

    def negated(self) -> "ClosedForm":
        raise NotImplementedError(f"{type(self).__name__} cannot be negated")

    @abc.abstractmethod
    def to_json(self) -> dict:
        """Schema object with a ``form`` tag; inverse of :func:`form_from_json`."""


def _columns(rows, dim: int, what: str) -> np.ndarray:
    """The dim coordinate columns of an array of marginal points."""
    x = _rows(rows)
    if x.shape[1] != dim:
        raise DimensionMismatch(f"{what} of size {dim} applied to length {x.shape[1]}")
    return x.T


def _matrix_tuple(matrix: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    rows = tuple(tuple(float(v) for v in row) for row in matrix)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise InputValidationError("matrix rows must be nonempty and equally sized")
    for row in rows:
        for v in row:
            if not math.isfinite(v):
                raise InputValidationError("matrix entries must be finite")
    return rows


@dataclass(frozen=True)
class QuadraticForm(ClosedForm):
    """q_A(x) = (1/2) <x, A x> for a square matrix A.

    ``QuadraticForm.identity(d)`` gives the plain q(x) = |x|^2 / 2.
    """

    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        m = _matrix_tuple(self.matrix)
        if len(m) != len(m[0]):
            raise DimensionMismatch("quadratic form needs a square matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, dim: int, scale: float = 1.0) -> "QuadraticForm":
        rows = tuple(
            tuple(scale if i == j else 0.0 for j in range(dim)) for i in range(dim)
        )
        return cls(rows)

    def values(self, rows) -> np.ndarray:
        x = _columns(rows, len(self.matrix), "quadratic form")
        return 0.5 * sum(x[i] * _dot(row, x) for i, row in enumerate(self.matrix))

    def negated(self) -> "QuadraticForm":
        return QuadraticForm(tuple(tuple(-v for v in row) for row in self.matrix))

    def to_json(self) -> dict:
        return {"form": "quadratic", "matrix": [list(r) for r in self.matrix]}


@dataclass(frozen=True)
class LinearForm(ClosedForm):
    """<b, x> + constant."""

    vector: Vec
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "vector", as_vec(self.vector))
        if not math.isfinite(self.constant):
            raise InputValidationError("constant must be finite")

    def values(self, rows) -> np.ndarray:
        x = _columns(rows, len(self.vector), "linear form")
        return _dot(self.vector, x) + self.constant

    def negated(self) -> "LinearForm":
        return LinearForm(-np.array(self.vector), -self.constant)

    def to_json(self) -> dict:
        return {"form": "linear", "vector": list(self.vector), "constant": self.constant}


@dataclass(frozen=True)
class EvenPowerForm(ClosedForm):
    """sum_k coef_k |x|^{p_k} on a one-dimensional marginal.

    The absolute value implements the even extension consistent with taking
    odd roots of negative arguments, so fractional powers like 4/3 evaluate
    to real numbers on the whole line.
    """

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        terms = tuple((float(c), float(p)) for c, p in self.terms)
        for c, p in terms:
            if not (math.isfinite(c) and math.isfinite(p)) or p <= 0:
                raise InputValidationError("even-power terms need finite coef and power > 0")
        object.__setattr__(self, "terms", terms)

    def values(self, rows) -> np.ndarray:
        t = np.abs(_columns(rows, 1, "even-power form")[0])
        # float_power calls libm pow on each entry, so one row agrees bit for
        # bit with Python's float ** (np.power may take a SIMD path).
        return sum((c * np.float_power(t, p) for c, p in self.terms), np.zeros_like(t))

    def negated(self) -> "EvenPowerForm":
        return EvenPowerForm(tuple((-c, p) for c, p in self.terms))

    def to_json(self) -> dict:
        return {"form": "even_power", "terms": [[c, p] for c, p in self.terms]}


INDICATOR_SUBSPACES = ("first_axis", "diagonal")


@dataclass(frozen=True)
class IndicatorQuadraticForm(ClosedForm):
    """Indicator of a linear subspace plus q_A: +inf off the subspace.

    Supported subspaces: ``first_axis`` (all coordinates after the first
    vanish) and ``diagonal`` (all coordinates equal).  Membership is exact.
    """

    subspace: str
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.subspace not in INDICATOR_SUBSPACES:
            raise InputValidationError(f"unknown subspace {self.subspace!r}")
        object.__setattr__(self, "quad", QuadraticForm(self.matrix))
        object.__setattr__(self, "matrix", getattr(self, "quad").matrix)

    def values(self, rows) -> np.ndarray:
        x = _columns(rows, len(self.matrix), "indicator form")
        member = (x[1:] == (0.0 if self.subspace == "first_axis" else x[0])).all(axis=0)
        return np.where(member, self.quad.values(x.T), math.inf)  # type: ignore[attr-defined]

    def to_json(self) -> dict:
        return {
            "form": "indicator_quadratic",
            "subspace": self.subspace,
            "matrix": [list(r) for r in self.matrix],
        }


def form_from_json(obj: dict) -> ClosedForm:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ParseError("closed form JSON must be an object with a 'form' tag")
    tag = obj["form"]
    try:
        if tag == "quadratic":
            return QuadraticForm(_matrix_tuple(obj["matrix"]))
        if tag == "linear":
            return LinearForm(as_vec(obj["vector"]), float(obj.get("constant", 0.0)))
        if tag == "even_power":
            return EvenPowerForm(tuple((float(c), float(p)) for c, p in obj["terms"]))
        if tag == "indicator_quadratic":
            return IndicatorQuadraticForm(obj["subspace"], _matrix_tuple(obj["matrix"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad closed form payload for {tag!r}: {exc}") from exc
    raise ParseError(f"unknown closed form tag {tag!r}")


# ---------------------------------------------------------------------------
# Pairwise costs
# ---------------------------------------------------------------------------

PAIRWISE_KINDS = ("inner_product", "half_sq_dist", "bilinear", "tabulated")
PAIR_BLOCK_CELLS = 1 << 20  # cells of a pair block built or reduced at a time


@dataclass(frozen=True, eq=False)
class PairwiseCost:
    """One two-marginal coupling c_ij, with an overall sign, and the one place
    that knows its formula: value, paired and block evaluate it, bit for bit
    alike, the closed forms through one coordinate loop.

    Kinds:
        inner_product   <x, y>
        half_sq_dist    |x - y|^2 / 2
        bilinear        <x, A y>
        tabulated       finite lookup table on explicit grids

    Attributes:
        kind: one of :data:`PAIRWISE_KINDS`.
        sign: +1 or -1 multiplier, so negated costs stay first-class values.
        coef: the matrix A, when kind == "bilinear".
        grid_x, grid_y, table: lookup data, when kind == "tabulated": the
            grids as read-only (k, d) arrays and the table as a read-only
            (len(grid_x), len(grid_y)) array.
    """

    kind: str
    sign: int = 1
    coef: tuple[tuple[float, ...], ...] | None = None
    grid_x: np.ndarray | None = None
    grid_y: np.ndarray | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in PAIRWISE_KINDS:
            raise InputValidationError(f"unknown pairwise cost kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise InputValidationError("sign must be +1 or -1")
        if self.kind == "bilinear":
            if self.coef is None:
                raise InputValidationError("bilinear cost needs a matrix")
            object.__setattr__(self, "coef", _matrix_tuple(self.coef))
        if self.kind == "tabulated":
            if self.grid_x is None or self.grid_y is None or self.table is None:
                raise InputValidationError("tabulated cost needs grid_x, grid_y, table")
            gx, gy = _vec_rows(self.grid_x), _vec_rows(self.grid_y)
            if len(self.table) != len(gx) or any(len(r) != len(gy) for r in self.table):
                raise DimensionMismatch("table shape must be len(grid_x) x len(grid_y)")
            tab = np.array(self.table, dtype=float).reshape(len(gx), len(gy))
            if not np.isfinite(tab).all():
                raise InputValidationError("table entries must be finite")
            object.__setattr__(self, "grid_x", _read_only(gx))
            object.__setattr__(self, "grid_y", _read_only(gy))
            object.__setattr__(self, "table", _read_only(tab))

    @classmethod
    def inner_product(cls, sign: int = 1) -> "PairwiseCost":
        return cls("inner_product", sign)

    @classmethod
    def half_sq_dist(cls, sign: int = 1) -> "PairwiseCost":
        return cls("half_sq_dist", sign)

    @classmethod
    def bilinear(cls, matrix: Sequence[Sequence[float]], sign: int = 1) -> "PairwiseCost":
        return cls("bilinear", sign, coef=_matrix_tuple(matrix))

    @classmethod
    def tabulated(
        cls,
        grid_x: Sequence[Sequence[float] | float],
        grid_y: Sequence[Sequence[float] | float],
        table: Sequence[Sequence[float]],
        sign: int = 1,
    ) -> "PairwiseCost":
        return cls("tabulated", sign, grid_x=grid_x, grid_y=grid_y, table=table)

    def accepts(self, dx: int, dy: int) -> bool:
        """Whether this cost couples points of dimension dx with points of
        dimension dy: equal positive ones for inner_product and half_sq_dist,
        the matrix's shape for bilinear, the grids' widths for tabulated."""
        if self.kind == "bilinear":
            return (dx, dy) == (len(self.coef), len(self.coef[0]))
        if self.kind == "tabulated":
            return (dx, dy) == (self.grid_x.shape[1], self.grid_y.shape[1])
        return dx == dy > 0

    @cached_property
    def mixed_sign(self) -> int:
        """The sign of the mixed partial d^2 c / dx dy on scalar points where
        it is one constant, as in Carlier's class (Carlier, 2003), else 0: +1
        for inner_product, -1 for half_sq_dist, sign(a) for a 1x1 bilinear
        [[a]], each times sign; 0 for wider matrices and tables."""
        if self.kind == "bilinear":
            return self.sign * int(np.sign(self.coef[0][0])) if np.shape(self.coef) == (1, 1) else 0
        return self.sign * {"inner_product": 1, "half_sq_dist": -1}.get(self.kind, 0)

    def _grid_index(self, pts: np.ndarray, axis: str) -> np.ndarray:
        index = (self._x_index if axis == "x" else self._y_index).find(pts)
        if (index < 0).any():
            p = tuple(pts[int((index < 0).argmax())].tolist())
            raise OffGrid(f"point {p!r} not on the tabulated {axis}-grid")
        return index

    @cached_property
    def _x_index(self) -> RowIndex:
        return RowIndex(self.grid_x)

    @cached_property
    def _y_index(self) -> RowIndex:
        return RowIndex(self.grid_y)

    def value(self, x: Vec, y: Vec) -> float:
        """c(x, y) for one pair of points: paired on one row."""
        return float(self.paired([x], [y])[0])

    def paired(self, xs, ys) -> np.ndarray:
        """c(xs[r], ys[r]) for each row r of two (k, d) arrays; a side with
        one row pairs with every row of the other."""
        x, y = _rows(xs), _rows(ys)
        if self.kind == "tabulated":
            ix, iy = self._grid_index(x, "x"), self._grid_index(y, "y")
            return self.sign * self.table[ix, iy]
        x, y = self._coordinates(x, y)
        return self._fill(x, y, np.empty(x.shape[1] if y.shape[1] == 1 else y.shape[1]))

    def block(self, xs, ys, out: np.ndarray, transposed: bool = False) -> np.ndarray:
        """Write c(xs[a], ys[b]) into out[a, b] (out[b, a] when transposed), bit for
        bit as paired, and return out; a table gathers its cells."""
        x, y = _rows(xs), _rows(ys)
        if self.kind == "tabulated":  # flat positions in the table, then the gather
            ix, iy = self._grid_index(x, "x") * len(self.grid_y), self._grid_index(y, "y")
            flat = np.add.outer(iy, ix) if transposed else np.add.outer(ix, iy)
            np.take(self.table, flat, out=out, mode="clip")
            return np.negative(out, out=out) if self.sign < 0 else out
        x, y = (np.ascontiguousarray(v) for v in self._coordinates(x, y))
        # Each term is symmetric in its operands bit for bit, so a transposed block swaps them.
        x, y = (y, x) if transposed else (x, y)
        return self._fill(x[:, :, None], y[:, None, :], out)

    def _coordinates(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A closed form's (k, d) operands as coordinate-major (d, k) arrays,
        a bilinear y as its rows <A_i, y> summed from 0."""
        if not self.accepts(x.shape[1], y.shape[1]):
            raise DimensionMismatch(
                f"{self.kind} cost does not couple dimensions {x.shape[1]} and {y.shape[1]}"
            )
        if self.kind == "bilinear":
            return x.T, np.array([_dot(row, y.T) for row in self.coef])
        return x.T, y.T

    def _fill(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The closed forms' one coordinate loop: out[r] from x[:, r] and
        y[:, r], coordinate-major operands whose axis 1 runs along out's rows
        (a side with one row there broadcasts), PAIR_BLOCK_CELLS cells or one
        row of out at a time.  Coordinates add from 0.0 in order, a term after
        the first through one buffer of that size, then the sum is halved
        (half_sq_dist) and signed."""
        cells = out.size // max(1, len(out))  # in one row of out
        step = max(1, PAIR_BLOCK_CELLS // max(1, cells))
        buf = np.empty(min(len(out), step) * cells) if len(x) > 1 else None
        half = self.kind == "half_sq_dist"
        for r in range(0, len(out), step):
            o = out[r:r + step]
            t = o if buf is None else buf[:o.size].reshape(o.shape)
            xr = x if x.shape[1] == 1 else x[:, r:r + step]
            yr = y if y.shape[1] == 1 else y[:, r:r + step]
            for c in range(len(x)):
                a, b = xr[c], yr[c]
                if half:
                    a = b = np.subtract(a, b, out=t)
                np.add(o if c else 0.0, np.multiply(a, b, out=t), out=o)
            if half:
                o *= 0.5
            if self.sign < 0:
                np.negative(o, out=o)
        return out

    def negated(self) -> "PairwiseCost":
        return PairwiseCost(
            self.kind, -self.sign, coef=self.coef,
            grid_x=self.grid_x, grid_y=self.grid_y, table=self.table,
        )

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "sign": self.sign}
        if self.kind == "bilinear":
            assert self.coef is not None
            out["matrix"] = [list(r) for r in self.coef]
        if self.kind == "tabulated":
            assert self.grid_x is not None and self.grid_y is not None and self.table is not None
            out["grid_x"] = self.grid_x.tolist()
            out["grid_y"] = self.grid_y.tolist()
            out["table"] = self.table.tolist()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PairwiseCost":
        try:
            kind = obj["kind"]
            sign = int(obj.get("sign", 1))
            if kind == "bilinear":
                return cls.bilinear(obj["matrix"], sign)
            if kind == "tabulated":
                return cls.tabulated(obj["grid_x"], obj["grid_y"], obj["table"], sign)
            return cls(kind, sign)
        except (KeyError, TypeError, ValueError, InputValidationError) as exc:
            if isinstance(exc, InputValidationError):
                raise
            raise ParseError(f"bad pairwise cost payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Cost specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostSpec:
    """A full cost: one pairwise coupling per marginal pair, plus shifts.

    Attributes:
        dims: marginal dimensions (d_1, ..., d_N), N >= 2.
        pairs: mapping (i, j) -> PairwiseCost for every 1 <= i < j <= N.
        shift: optional tuple of per-marginal summand tuples; the shift
            contribution at p is sum_i sum_h h(p_i).
    """

    dims: tuple[int, ...]
    pairs: Mapping[tuple[int, int], PairwiseCost]
    shift: tuple[tuple[ClosedForm, ...], ...] | None = None

    def __post_init__(self):
        dims = _marginal_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        n = len(dims)
        pairs = dict(self.pairs)
        expected = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        if set(pairs) != expected:
            raise InputValidationError(
                f"pairwise map must cover exactly the index pairs {sorted(expected)}"
            )
        for (i, j), c in pairs.items():
            if not c.accepts(dims[i - 1], dims[j - 1]):
                raise DimensionMismatch(f"pair ({i},{j}) couples dimensions {dims[i - 1]} and "
                                        f"{dims[j - 1]}, which its {c.kind} cost does not")
        object.__setattr__(self, "pairs", pairs)
        if self.shift is not None:
            if len(self.shift) != n:
                raise InputValidationError("shift must provide one entry per marginal")
            object.__setattr__(
                self, "shift", tuple(tuple(forms) for forms in self.shift)
            )

    @property
    def n_marginals(self) -> int:
        return len(self.dims)

    def pair_cost(self, i: int, j: int) -> PairwiseCost:
        if not (1 <= i < j <= self.n_marginals):
            raise IndexOutOfRange(f"pair ({i},{j}) outside 1..{self.n_marginals}")
        return self.pairs[(i, j)]

    def shift_values(self, i: int, rows) -> np.ndarray:
        """Separable shift contribution of marginal i (1-based) at each row
        of an array of its points."""
        x = _rows(rows)
        forms = self.shift[i - 1] if self.shift is not None else ()
        return sum((h.values(x) for h in forms), np.zeros(len(x)))

    def total(self, p: Point) -> float:
        """The cost at one product point: total_many on its one row."""
        return float(self.total_many(_point_rows([p], self.dims))[0])

    def total_many(self, rows: np.ndarray) -> np.ndarray:
        """The cost at each row of a (k, sum(dims)) array of flattened
        product points, added from 0.0: couplings pair by pair, then the
        shifts."""
        cols = marginal_blocks(rows, self.dims)
        out = np.zeros(len(rows))
        for (i, j), c in self.pairs.items():
            out = out + c.paired(cols[i - 1], cols[j - 1])
        if self.shift is not None:
            for i, col in enumerate(cols, start=1):
                out = out + self.shift_values(i, col)
        return out

    def negated(self) -> "CostSpec":
        """Flip the sign of every coupling and every shift term."""
        shift = None
        if self.shift is not None:
            shift = tuple(tuple(h.negated() for h in forms) for forms in self.shift)
        return CostSpec(
            self.dims,
            {k: c.negated() for k, c in self.pairs.items()},
            shift,
        )

    def to_json(self) -> dict:
        out: dict = {
            "N": self.n_marginals,
            "dims": list(self.dims),
            "pairs": {f"{i},{j}": c.to_json() for (i, j), c in sorted(self.pairs.items())},
        }
        if self.shift is not None:
            out["shift"] = [[h.to_json() for h in forms] for forms in self.shift]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CostSpec":
        try:
            dims = tuple(int(d) for d in obj["dims"])
            pairs = {}
            for key, payload in obj["pairs"].items():
                i, j = (int(t) for t in key.split(","))
                pairs[(i, j)] = PairwiseCost.from_json(payload)
            shift = None
            if obj.get("shift") is not None:
                shift = tuple(
                    tuple(form_from_json(h) for h in forms) for forms in obj["shift"]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad cost spec payload: {exc}") from exc
        return cls(dims, pairs, shift)


def classical_cost(which: str, n_marginals: int, dim: int) -> CostSpec:
    """Build one of the classical costs on (R^d)^N.

    c1 sums inner products over pairs, c2 sums half squared distances, and
    c3 is |x_1 + ... + x_N|^2 / 2, encoded as c1 plus the separable shift
    sum_i q(x_i) so that every pairwise coupling stays two-marginal.
    """
    if which not in CLASSICAL_COSTS:
        raise InputValidationError(f"unknown classical cost {which!r}")
    if n_marginals < 2 or dim < 1:
        raise InputValidationError("need n_marginals >= 2 and dim >= 1")
    dims = (dim,) * n_marginals
    kind = "half_sq_dist" if which == "c2" else "inner_product"
    pairs = {
        (i, j): PairwiseCost(kind)
        for i in range(1, n_marginals + 1)
        for j in range(i + 1, n_marginals + 1)
    }
    shift = None
    if which == "c3":
        q = QuadraticForm.identity(dim)
        shift = tuple((q,) for _ in range(n_marginals))
    return CostSpec(dims, pairs, shift)


# ---------------------------------------------------------------------------
# Finite point sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GammaSet:
    """A finite subset of the product space: marginal dimensions dims and
    the distinct points, first seen first, as one read-only (size,
    sum(dims)) array coords with the marginals side by side (-0.0 equals
    0.0; a point keeps the signs it was first seen with).  Every projection
    is read from coords (:func:`marginal_blocks`); points, the same points
    as marginal tuples, is built on first use for witnesses, base points
    and messages.
    """

    dims: tuple[int, ...]
    coords: np.ndarray

    def __post_init__(self):
        dims = _marginal_dims(self.dims)
        rows = np.asarray(self.coords, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != sum(dims):
            raise DimensionMismatch(f"points need {sum(dims)} coordinates, got {rows.shape}")
        if not len(rows):
            raise InputValidationError("the point set must be nonempty")
        if not np.isfinite(rows).all():
            raise InputValidationError("coordinates must be finite")
        rows = rows[unique_rows(rows)]
        rows.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coords", rows)

    @classmethod
    def from_points(cls, points: Sequence, dims: Sequence[int] | None = None) -> "GammaSet":
        """The set of the given product points; scalars stand for 1-D
        marginals, and dims default to those of the first point."""
        pts = list(points)
        if dims is None:
            if not pts:
                raise InputValidationError("cannot infer dims from an empty set")
            dims = tuple(map(len, as_point(pts[0])))
        try:
            return cls(dims, _point_rows(pts, _marginal_dims(dims)))
        except (TypeError, ValueError):
            for p in pts:  # a point as_point refuses raises its error first
                as_point(p)
            raise

    @property
    def n_marginals(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return len(self.coords)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """The points as marginal tuples, in the order of coords."""
        return tuple(zip(*(map(tuple, b.tolist()) for b in marginal_blocks(self.coords, self.dims))))

    def __contains__(self, p) -> bool:
        """Whether p, a product point as from_points takes one, is a point
        of the set; anything from_points would refuse is not."""
        try:
            row = _point_rows([p], self.dims)
        except (TypeError, ValueError):
            return False
        return bool(self._index.find(row)[0] >= 0)

    @cached_property
    def _index(self) -> RowIndex:
        return RowIndex(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaSet):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash((self.dims, self.size))

    def to_json(self) -> dict:
        return {
            "N": self.n_marginals,
            "dims": list(self.dims),
            "points": [[list(x) for x in p] for p in self.points],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GammaSet":
        try:
            dims, n, points = tuple(int(d) for d in obj["dims"]), int(obj["N"]), list(obj["points"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad gamma set payload: {exc}") from exc
        if n != len(dims):
            raise ParseError("N disagrees with dims length")
        try:
            return cls(dims, _point_rows(points, _marginal_dims(dims)))
        except (TypeError, ValueError):
            try:
                for p in points:  # a bad coordinate is a parse error, reported first
                    for x in p:
                        as_vec(x)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad gamma set payload: {exc}") from exc
            raise


def dedup_vecs(points: Sequence[float | Sequence[float]]) -> np.ndarray:
    """Validated marginal points as a read-only (k, d) array, duplicates
    dropped, in first-seen order."""
    rows = _vec_rows(points)
    if not len(rows):
        raise InputValidationError("need at least one evaluation point")
    return _read_only(rows[unique_rows(rows)])


def dedup_pairs(pairs: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Validated (x, y) pairs as x and y row arrays, duplicate pairs dropped,
    in first-seen order."""
    try:
        x, y = _vec_rows([x for x, _ in pairs]), _vec_rows([y for _, y in pairs])
    except InputValidationError:
        for x, y in pairs:  # the first bad coordinate in pair order
            as_vec(x), as_vec(y)
        raise DimensionMismatch("pairs mix marginal dimensions") from None
    if not len(x):
        raise InputValidationError("the pair list must be nonempty")
    return unique_pairs(x, y)


def unique_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of x and y side by side, first seen first (-0.0
    equal to 0.0, the first-seen sign kept), split back into x and y rows:
    the pairs dict.fromkeys keeps of the pairs as tuples."""
    xy = np.concatenate([x, y], axis=1)
    xy = xy[unique_rows(xy)]
    return xy[:, :x.shape[1]], xy[:, x.shape[1]:]


# ---------------------------------------------------------------------------
# Deterministic JSON writing
# ---------------------------------------------------------------------------


def fields_json(report) -> dict:
    """A report dataclass as {field: value} in declaration order; used as
    its to_json, the values are left for :func:`dumps_json` to write."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


def dumps_json(obj) -> str:
    """Serialize to JSON with two-space indentation and a final newline.

    Floats are written as their shortest round-trip repr and keys in
    insertion order, so identical inputs produce byte-identical documents.
    Infinities are written as the strings "inf" and "-inf" wherever they
    occur; NaN and values JSON cannot represent raise InputValidationError.
    Any other object is written as its ``to_json()``, so report objects,
    whose ``to_json`` is often :func:`fields_json`, are written field by
    field, nested ones included.

    For JSON values the bytes are those of ``json.dumps(obj, indent=2,
    allow_nan=False)``, which never uses the C encoder when it indents and
    spends a generator frame per token.  This writer recurses once per
    container and writes each of the two shapes that carry most of a
    report's bytes in one string operation: finite floats (potential
    values) and equal-length rows of finite floats (potential points,
    witness and worst points).
    """
    try:
        return _write(obj, "\n", set()) + "\n"
    except (TypeError, ValueError) as exc:
        raise InputValidationError(f"cannot serialize to JSON: {exc}") from exc


def _write(o, nl: str, path: set) -> str:
    """o as json.dumps writes it with indent=2, nl being a newline and the
    indent of o's own line; path holds the ids of the enclosing containers."""
    if isinstance(o, str):
        return _escape(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        if math.isinf(o):
            return '"inf"' if o > 0 else '"-inf"'
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    is_dict = isinstance(o, dict)
    if not is_dict and not isinstance(o, (list, tuple)):
        if hasattr(o, "to_json"):
            return _write(o.to_json(), nl, path)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        return "{}" if is_dict else "[]"
    if id(o) in path:
        raise ValueError("Circular reference detected")
    path.add(id(o))
    inner = nl + "  "
    sep = "," + inner
    if is_dict:
        body = sep.join([f"{_key(k)}: {_write(v, inner, path)}" for k, v in o.items()])
    elif _all_finite_floats(o):
        body = sep.join(map(float.__repr__, o))
    elif set(map(type, o)) <= {list, tuple} and len(widths := set(map(len, o))) == 1 \
            and _all_finite_floats(flat := list(chain.from_iterable(o))):
        row = "[" + inner + "  " + (sep + "  ").join(["%r"] * widths.pop()) + inner + "]"
        body = sep.join([row] * len(o)) % tuple(flat)
    else:
        body = sep.join([_write(v, inner, path) for v in o])
    path.remove(id(o))
    return ("{" if is_dict else "[") + inner + body + nl + ("}" if is_dict else "]")


def _all_finite_floats(items: list) -> bool:
    return set(map(type, items)) == {float} and all(map(math.isfinite, items))


def _key(k) -> str:
    """A dict key as json.dumps writes it: a string, or a scalar's JSON text
    in quotes (an infinity's text is quoted already)."""
    if k is not None and not isinstance(k, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    text = _write(k, "", set())
    return text if text[0] == '"' else _escape(text)


def loads_json(text: str):
    """Parse JSON text, mapping malformed documents to ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
