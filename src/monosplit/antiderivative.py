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
the same +inf convention.  Potentials therefore evaluate to +inf at points
missing from their table unless a closed form is attached.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    ClosedForm,
    PairwiseCost,
    Vec,
    _rows,
    as_vec,
    dedup_pairs,
    dedup_vecs,
    form_from_json,
)
from .errors import (
    BasePointNotInProjection,
    ImproperInput,
    InputValidationError,
    NotCyclicallyMonotone,
    ParseError,
)
from .monotone import DEFAULT_TOL, scan_gain_digraph

FORM_AGREEMENT_TOL = 1e-9


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable key per row of a (k, d) array: the coordinate itself when
    d = 1, else a record compared field by field (so -0.0 equals 0.0)."""
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.shape[1] == 1:
        return rows[:, 0]
    return rows.view([(f"f{k}", float) for k in range(rows.shape[1])])[:, 0]


@dataclass(frozen=True)
class Potential:
    """A scalar potential on one marginal space, tabulated and extended.

    Attributes:
        points: distinct marginal points carrying explicit values.
        values: matching values; +inf is allowed, -inf and NaN are not.
        closed_form: optional analytic extension.  When present it must
            agree with the table within 1e-9 and answers queries off the
            table; otherwise off-table queries return +inf.
        argmax: for conjugates, the index into the parent's domain that
            attained each tabulated maximum (lowest index on ties).
    """

    points: tuple[Vec, ...]
    values: tuple[float, ...]
    closed_form: ClosedForm | None = None
    argmax: tuple[int, ...] | None = None
    _table: dict = field(init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = tuple(as_vec(p) for p in self.points)
        vals = tuple(float(v) for v in self.values)
        if len(pts) != len(vals):
            raise InputValidationError("points and values must have equal length")
        table: dict[Vec, float] = {}
        for p, v in zip(pts, vals):
            if math.isnan(v) or v == -math.inf:
                raise InputValidationError("potential values must be finite or +inf")
            if p in table:
                raise InputValidationError(f"duplicate domain point {p!r}")
            table[p] = v
        for p in pts[1:]:
            if len(p) != len(pts[0]):
                raise InputValidationError("domain points mix dimensions")
        if self.argmax is not None and len(self.argmax) != len(pts):
            raise InputValidationError("argmax must align with the domain points")
        if self.closed_form is not None and pts:
            w = self.closed_form.values(pts)
            # isclose treats equal infinities as close and any other +inf as not.
            bad = np.flatnonzero(~np.isclose(w, vals, rtol=0.0, atol=FORM_AGREEMENT_TOL))
            if bad.size:
                k = bad[0]
                raise InputValidationError(
                    f"closed form disagrees with table at {pts[k]!r}: "
                    f"{float(w[k])!r} vs {vals[k]!r}"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_closed_form(cls, form: ClosedForm) -> "Potential":
        """A potential defined everywhere by its analytic expression."""
        return cls((), (), closed_form=form)

    @property
    def is_proper(self) -> bool:
        """True when some value is finite (closed forms count as proper)."""
        if any(v != math.inf for v in self.values):
            return True
        return self.closed_form is not None and not self.points

    def value_at(self, x: float | Sequence[float]) -> float:
        """Table value, else closed form, else +inf."""
        key = as_vec(x)
        hit = self._table.get(key)
        if hit is not None:
            return hit
        if self.closed_form is not None:
            return self.closed_form.value(key)
        return math.inf

    def __call__(self, x: float | Sequence[float]) -> float:
        return self.value_at(x)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Table points (n, d), values, sorted point keys, table index of each."""
        rows = np.array(self.points, dtype=float) if self.points else np.empty((0, 1))
        keys = _row_keys(rows)
        order = np.argsort(keys, kind="stable")
        return rows, np.array(self.values), keys[order], order

    def values_at(self, xs: np.ndarray) -> np.ndarray:
        """value_at for each row of a (k, d) array: the table by exact match,
        else the closed form, else +inf."""
        rows, vals, keys, order = self._arrays
        out = np.full(len(xs), math.inf)
        miss = np.ones(len(xs), dtype=bool)
        if len(keys) and xs.shape[1] == rows.shape[1]:
            q = _row_keys(xs)
            pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
            miss = keys[pos] != q
            out[~miss] = vals[order[pos[~miss]]]
        if self.closed_form is not None and miss.any():
            out[miss] = self.closed_form.values(xs[miss])
        return out

    def to_json(self) -> dict:
        out: dict = {
            "points": [list(p) for p in self.points],
            "values": ["inf" if v == math.inf else v for v in self.values],
            "closed_form": self.closed_form.to_json() if self.closed_form else None,
        }
        if self.argmax is not None:
            out["argmax"] = list(self.argmax)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Potential":
        try:
            points = tuple(as_vec(p) for p in obj["points"])
            values = tuple(
                math.inf if v == "inf" else float(v) for v in obj["values"]
            )
            form = obj.get("closed_form")
            argmax = obj.get("argmax")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad potential payload: {exc}") from exc
        return cls(
            points,
            values,
            closed_form=form_from_json(form) if form is not None else None,
            argmax=tuple(int(a) for a in argmax) if argmax is not None else None,
        )


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
    deduped = dedup_pairs(pairs)
    xs = [p[0] for p in deduped]
    ys = [p[1] for p in deduped]
    base = as_vec(s1)
    source = [x == base for x in xs]
    if not any(source):
        raise BasePointNotInProjection(
            f"base point {base!r} is not a first coordinate of any pair"
        )
    # The scan refuses non-finite edge gains c(x_v, y_u) - c(x_u, y_u), so the
    # gain digraph is complete: each pair is one step from a source, and the
    # seeded scan meets every cycle that an unseeded one would.
    scan = scan_gain_digraph(xs, ys, cost, tol=tol, source_mask=source)
    if scan.cycle is not None:
        raise NotCyclicallyMonotone(
            f"pairs contain a cycle with gain {scan.cycle_gain:.6g}",
            scan.cycle,
            scan.cycle_gain,
        )
    pts = dedup_vecs(eval_points)
    gains = (scan.longest + cost.matrix(pts, ys)) - cost.paired(xs, ys)
    best = gains[np.arange(len(pts)), gains.argmax(axis=1)]
    values = np.where((_rows(pts) == base).all(axis=1), 0.0, best)
    return Potential(pts, tuple(values.tolist()))


def c_conjugate(
    f: Potential,
    cost: PairwiseCost,
    eval_points: Sequence[float | Sequence[float]],
) -> Potential:
    """Discrete c-conjugate f^c(y) = max_x (c(x, y) - f(x)) over f's table.

    Ties in the maximiser break toward the lowest domain index; the chosen
    indices are recorded on the result for reproducibility.  Raises
    ImproperInput when f has no finite tabulated value to maximise over.
    """
    rows, vals = f._arrays[:2]
    finite = np.flatnonzero(vals != math.inf)
    if not finite.size:
        raise ImproperInput("cannot conjugate a potential with no finite values")
    pts = dedup_vecs(eval_points)
    gains = cost.matrix(rows[finite], pts) - vals[finite, None]
    arg = gains.argmax(axis=0)  # first maximum: the lowest domain index
    best = gains[arg, np.arange(len(pts))]
    return Potential(pts, tuple(best.tolist()), argmax=tuple(finite[arg].tolist()))


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
    cand = dedup_pairs(pairs)
    x1, x2 = _rows([p[0] for p in cand]), _rows([p[1] for p in cand])
    fx = f.values_at(x1)
    if (fx == math.inf).any():
        return AntiderivativeCheck(False, math.inf)
    rows, vals = f._arrays[:2]
    probes = np.flatnonzero(vals != math.inf)
    worst = -math.inf
    if probes.size:
        resid = ((fx + cost.matrix(rows[probes], x2)) - vals[probes, None]) - cost.paired(x1, x2)
        worst = float(resid.max())
    return AntiderivativeCheck(worst <= tol, worst)
