"""Assembly and certification of splitting tuples.

A splitting tuple for a set G under a pairwise-sum cost is a family of one
potential per marginal with

    c(x_1, ..., x_N) <= u_1(x_1) + ... + u_N(x_N)   everywhere,

with equality at every point of G.  When every two-marginal projection of G
is cyclically monotone, such a tuple exists and is assembled explicitly
here: f_{i,j} is the chain antiderivative of the (i, j) projection based at
s_i, and

    u_i = sum_{k > i} f_{i,k} + sum_{k < i} f_{k,i}^c,

with conjugates taken in the discrete sense of
:mod:`monosplit.antiderivative`.  Separable cost shifts are absorbed by
adding the shift of marginal i onto u_i.

Certification follows the construction.  A tuple that carries its pair
tables (every assembled tuple does) is certified on the whole product of
its tables.  Once each u_i equals the sum of its terms plus its shift (the
table identity, checked on its grid), every point x of that product has

    sum_i u_i(x_i) - c(x) = sum_{i<j} [f_{i,j}(x_i) + f_{i,j}^c(x_j) - c_{i,j}(x_i, x_j)],

and each bracket is >= 0 by the discrete Fenchel-Young inequality.  The
lowest bracket of a row x is f_{i,j}(x) - f_{i,j}^cc(x), f^cc the
c-transform over f^c's table that assembly's conjugates also take, so
N(N-1)/2 transforms over grid_i x grid_j, none of whose arrays grows as
grid x pairs, bound max(c - sum u_i) over all prod_i |grid_i| points: that
finite product, not a continuum.

Tuples without pair tables (closed forms, curve potentials) are tested on
a declared set of product points instead: G, a seeded lattice-and-uniform
sample around it that the certificates of one command share, or the
caller's points.  Points where some u_i is +inf satisfy the inequality
vacuously and are counted separately; the sum over the u_i gathers live
rows only once some row is vacuous.  The certificate records its sample so
every reported number is recomputable.  Equality is checked on all of G
either way.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .antiderivative import Potential, _chain_potential, c_conjugate
from .core import (
    ClosedForm,
    CostSpec,
    GammaSet,
    Point,
    Vec,
    _point_rows,
    _vec_rows,
    as_point,
    fields_json,
    marginal_blocks,
    unique_pairs,
    unique_rows,
)
from .errors import (
    BasePointNotInGamma,
    DimensionMismatch,
    InputValidationError,
    NotCyclicallyMonotone,
    ProjectionNotMonotone,
    UndefinedOnGamma,
)
from .monotone import DEFAULT_TOL, _check_gamma_against_spec, c_transform

DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 0
LATTICE_PER_AXIS = 5
LATTICE_CAP = 20_000


@dataclass(frozen=True)
class SplittingTuple:
    """Potentials u_1, ..., u_N together with their provenance.

    pair_potentials maps (i, j) with i < j (1-based) to the chain
    antiderivative f_{i,j} on marginal i; pair_conjugates maps the same key
    to its discrete conjugate on marginal j.  Tuples built directly from
    closed forms carry empty provenance.
    """

    potentials: tuple[Potential, ...]
    pair_potentials: Mapping[tuple[int, int], Potential]
    pair_conjugates: Mapping[tuple[int, int], Potential]
    base_point: Point | None = None

    def __post_init__(self):
        if len(self.potentials) < 2:
            raise InputValidationError("a splitting tuple needs at least two potentials")

    @classmethod
    def from_closed_forms(cls, forms: Sequence[ClosedForm]) -> "SplittingTuple":
        """Wrap user-supplied analytic potentials, one per marginal."""
        return cls(tuple(Potential.from_closed_form(f) for f in forms), {}, {})

    @property
    def n_marginals(self) -> int:
        return len(self.potentials)

    def to_json(self) -> dict:
        return {
            "N": self.n_marginals,
            "base_point": self.base_point,
            "potentials": self.potentials,
            "pair_potentials": {f"{i},{j}": f for (i, j), f in sorted(self.pair_potentials.items())},
            "pair_conjugates": {f"{i},{j}": f for (i, j), f in sorted(self.pair_conjugates.items())},
        }


def _grid(projection: np.ndarray, extra: Sequence) -> np.ndarray:
    """The distinct rows of a marginal's projection, then the distinct
    extra points not among them, first seen first."""
    rows = projection
    if len(extra):
        more = _vec_rows(extra)
        if more.shape[1] != rows.shape[1]:
            raise DimensionMismatch("points mix dimensions")
        rows = np.concatenate([rows, more])
    return rows[unique_rows(rows)]


def assemble_splitting_tuple(
    g: GammaSet,
    spec: CostSpec,
    s: Sequence | None = None,
    eval_grids: Sequence[Sequence] | None = None,
    tol: float = DEFAULT_TOL,
) -> SplittingTuple:
    """Build the explicit splitting tuple from two-marginal projections.

    Each f_{i,j} is the chain antiderivative of the (i, j) projection of g
    (its distinct pairs, read from g.coords) based at s_i, tabulated on
    grid_i = projection_i(g) union the optional extra evaluation points for
    marginal i; conjugates are tabulated on grid_j.  Shifted costs add their
    marginal shift onto u_i.

    The base point defaults to the first point of g.  A projection with a
    positive-gain cycle aborts with ProjectionNotMonotone naming the pair
    and the cycle.
    """
    _check_gamma_against_spec(g, spec)
    n = g.n_marginals
    if s is None:
        base = g.points[0]
    else:
        base = as_point(s)
        if base not in g:
            raise BasePointNotInGamma(f"base point {base!r} is not a member of the set")
    if eval_grids is not None and len(eval_grids) != n:
        raise InputValidationError("eval_grids must supply one list per marginal")

    blocks = marginal_blocks(g.coords, g.dims)
    grids = [
        _grid(x, eval_grids[i] if eval_grids is not None else ()) for i, x in enumerate(blocks)
    ]

    pair_pots: dict[tuple[int, int], Potential] = {}
    pair_conjs: dict[tuple[int, int], Potential] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cost_ij = spec.pair_cost(i, j)
            xs, ys = unique_pairs(blocks[i - 1], blocks[j - 1])
            try:
                f = _chain_potential(cost_ij, xs, ys, base[i - 1], grids[i - 1], tol)
            except NotCyclicallyMonotone as exc:
                raise ProjectionNotMonotone(
                    f"projection ({i}, {j}) is not cyclically monotone: {exc}",
                    (i, j),
                    exc.cycle,
                    exc.gain,
                ) from exc
            pair_pots[(i, j)] = f
            pair_conjs[(i, j)] = c_conjugate(f, cost_ij, grids[j - 1])

    # Every f_{i,k} and f_{k,i}^c is tabulated on grids[i - 1], in its order.
    potentials = []
    for i in range(1, n + 1):
        terms = [pair_pots[(i, k)] for k in range(i + 1, n + 1)]
        terms += [pair_conjs[(k, i)] for k in range(1, i)]
        total = sum(u.values for u in terms) + spec.shift_values(i, grids[i - 1])
        potentials.append(Potential(grids[i - 1], total))
    return SplittingTuple(tuple(potentials), pair_pots, pair_conjs, base)


def sample_test_points(
    g: GammaSet,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
    """Deterministic certification sample: G, a lattice, and uniform draws.

    The lattice covers the bounding box of G's marginals expanded by 50
    percent on each side, with the per-axis count (LATTICE_PER_AXIS) reduced
    until the lattice stays under LATTICE_CAP points (dropped entirely if
    even 2 per axis overflows).  Uniform draws use numpy's default generator with the given
    seed.  Returns a (k, sum(dims)) array of distinct flattened points in
    first-seen order; points of G come first, so equality points are always
    present.
    """
    lo, hi = g.coords.min(axis=0), g.coords.max(axis=0)
    pad = np.where(hi > lo, 0.5 * (hi - lo), 0.5)
    lows, highs = lo - pad, hi + pad
    total_dim = len(lows)
    blocks = [g.coords]
    k = LATTICE_PER_AXIS
    while k >= 2 and k**total_dim > LATTICE_CAP:
        k -= 1
    if k >= 2:
        axes = np.meshgrid(*(np.linspace(a, b, k) for a, b in zip(lows, highs)), indexing="ij")
        blocks.append(np.stack(axes, axis=-1).reshape(-1, total_dim))
    rng = np.random.default_rng(seed)
    blocks.append(rng.uniform(low=lows, high=highs, size=(n_samples, total_dim)))
    pts = np.concatenate(blocks)
    return pts[unique_rows(pts)]


def projection_product(g: GammaSet) -> np.ndarray:
    """The product of g's marginal projections, each marginal's distinct
    points first seen first, as one (k, sum(dims)) array in the order of
    itertools.product."""
    margs = [x[unique_rows(x)] for x in marginal_blocks(g.coords, g.dims)]
    index = np.indices([len(x) for x in margs]).reshape(len(margs), -1)
    return np.hstack([x[k] for x, k in zip(margs, index)])


@dataclass(frozen=True)
class PairBrackets:
    """The Fenchel-Young brackets f_{i,j}(x) + f_{i,j}^c(y) - c_{i,j}(x, y) of
    one pair over grid_i x grid_j, rows where f_{i,j} is +inf skipped: the
    cells reduced, the lowest bracket, and where it lies: the first lowest
    row x, at the first y where that row attains it (None when no bracket
    is finite)."""

    pair: tuple[int, int]
    cells: int
    lowest_bracket: float
    lowest_at: tuple[Vec, Vec] | None

    to_json = fields_json


@dataclass(frozen=True)
class TableIdentity:
    """How far u_i strays from the sum of its pair terms plus its shift on
    its grid, and the first grid point where it strays most."""

    marginal: int
    max_residual: float
    worst_point: Vec | None

    to_json = fields_json


@dataclass(frozen=True)
class SplittingCertificate:
    """Evidence that a tuple splits the cost on a finite set of points.

    max_equality_residual_on_gamma is the max of |c(p) - sum u_i(p_i)| over
    the set itself.  max_inequality_violation bounds c(p) - sum u_i(p_i)
    from above (negative means uniform slack): over the table product it
    is minus the sum of the pairs' lowest brackets, and pairs and
    table_identity hold the reductions behind it; over test points it is
    the max over the non-vacuous ones, at worst_inequality_point, drawn
    with seed (None when the caller supplied explicit points).  The test
    point and vacuous counts cover whichever set was checked.
    """

    passed: bool
    max_inequality_violation: float
    max_equality_residual_on_gamma: float
    worst_inequality_point: Point | None
    worst_equality_point: Point | None
    n_test_points: int
    n_gamma_points: int
    n_vacuous: int
    seed: int | None
    tol: float
    pairs: tuple[PairBrackets, ...] | None = None
    table_identity: tuple[TableIdentity, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "passed": self.passed,
            "max_inequality_violation": self.max_inequality_violation,
            "max_equality_residual_on_gamma": self.max_equality_residual_on_gamma,
            "worst_inequality_point": self.worst_inequality_point,
            "worst_equality_point": self.worst_equality_point,
            "n_test_points": self.n_test_points,
            "n_gamma_points": self.n_gamma_points,
            "n_vacuous": self.n_vacuous,
            "seed": self.seed,
            "inequality_tol": self.tol,
            "equality_tol": self.tol,
        }
        if self.pairs is not None:
            out["pairs"] = self.pairs
            out["table_identity"] = self.table_identity or ()
        return out


def certify_splitting(
    tup: SplittingTuple,
    g: GammaSet,
    spec: CostSpec,
    test_points: Sequence | None = None,
    tol: float = DEFAULT_TOL,
) -> SplittingCertificate:
    """Test equality on the set, and the splitting inequality on the table
    product or, for a tuple without pair tables, on test points.

    Both paths raise UndefinedOnGamma when some u_i is +inf on its marginal
    of g, and PASS requires |c(p) - sum u_i(p_i)| <= tol at every point of
    g.  A tuple with pair tables also needs each u_i within tol of its
    table identity and every pair's lowest bracket summed to >= -tol, so
    that c <= sum u_i + tol on the whole finite product of the grids.  It
    raises InputValidationError when a pair table is missing, when a term
    is off u_i's grid or its row order (naming u_i), and when given
    test_points, which it never reads.  Any other tuple passes when
    c(p) <= sum u_i(p_i) + tol at every non-vacuous test point: test_points
    if given (shared by the certificates of one command; a wrongly shaped
    one raises DimensionMismatch), else sample_test_points(g), recorded
    with its seed.  +inf potentials satisfy the inequality vacuously, and
    the sum adds in place until some row is.
    """
    if tup.n_marginals != spec.n_marginals or g.dims != spec.dims:
        raise DimensionMismatch("tuple, set, and cost must agree on the marginals")

    blocks = marginal_blocks(g.coords, g.dims)
    on_gamma = [u.values_at(x) for u, x in zip(tup.potentials, blocks)]
    undefined = np.argwhere(np.isinf(np.column_stack(on_gamma)))
    if len(undefined):
        r, i = undefined[0]
        raise UndefinedOnGamma(
            f"potential u_{i + 1} is +inf at {g.points[r][i]!r}, a point of projection {i + 1}"
        )
    resid = np.abs(sum(on_gamma) - spec.total_many(g.coords))
    w = int(resid.argmax())
    max_resid, worst_eq = float(resid[w]), g.points[w]

    if tup.pair_potentials or tup.pair_conjugates:
        if test_points is not None:
            raise InputValidationError(
                "a tuple with pair tables is certified on the product of its tables, "
                "not on test points"
            )
        if not (set(tup.pair_potentials) == set(tup.pair_conjugates) == set(spec.pairs)):
            raise InputValidationError("the tuple needs one pair table and conjugate per pair")
        identity = tuple(_table_identity(tup, spec, i) for i in range(1, tup.n_marginals + 1))
        brackets = tuple(_pair_brackets(tup, spec, key) for key in sorted(spec.pairs))
        max_viol = 0.0 - sum(b.lowest_bracket for b in brackets)  # 0.0, never -0.0
        sizes = [len(u.values) for u in tup.potentials]
        live = [int(np.count_nonzero(u.values != math.inf)) for u in tup.potentials]
        return SplittingCertificate(
            passed=max_viol <= tol
            and max_resid <= tol
            and all(t.max_residual <= tol for t in identity),
            max_inequality_violation=max_viol,
            max_equality_residual_on_gamma=max_resid,
            worst_inequality_point=None,
            worst_equality_point=worst_eq,
            n_test_points=math.prod(sizes),
            n_gamma_points=g.size,
            n_vacuous=math.prod(sizes) - math.prod(live),
            seed=None,
            tol=tol,
            pairs=brackets,
            table_identity=identity,
        )

    if test_points is None:
        used_seed: int | None = DEFAULT_SEED
        pts = sample_test_points(g)
    else:
        try:
            pts = _point_rows(test_points, spec.dims)
        except TypeError as exc:  # a number where a product point belongs
            raise DimensionMismatch(f"test points must be product points: {exc}") from exc
        used_seed = None

    # u_1 + ... + u_N in order; a row stops at its first +inf (vacuous).
    total = np.zeros(len(pts))
    blocks = marginal_blocks(pts, spec.dims)
    for u, x in zip(tup.potentials, blocks):
        live = np.flatnonzero(total != math.inf) if (total == math.inf).any() else slice(None)
        total[live] += u.values_at(x[live])
    covered = np.flatnonzero(total != math.inf)
    vacuous = len(pts) - len(covered)
    max_viol = -math.inf
    worst_ineq: Point | None = None
    if covered.size:
        viol = spec.total_many(pts[covered]) - total[covered]
        w = int(viol.argmax())
        max_viol = float(viol[w])
        worst_ineq = tuple(tuple(x[covered[w]].tolist()) for x in blocks)

    passed = max_viol <= tol and max_resid <= tol
    return SplittingCertificate(
        passed=passed,
        max_inequality_violation=max_viol,
        max_equality_residual_on_gamma=max_resid,
        worst_inequality_point=worst_ineq,
        worst_equality_point=worst_eq,
        n_test_points=len(pts),
        n_gamma_points=g.size,
        n_vacuous=vacuous,
        seed=used_seed,
        tol=tol,
    )


def _table_identity(tup: SplittingTuple, spec: CostSpec, i: int) -> TableIdentity:
    """u_i against its terms plus its shift, summed in assembly's order."""
    u, n = tup.potentials[i - 1], tup.n_marginals
    terms = [tup.pair_potentials[(i, k)] for k in range(i + 1, n + 1)]
    terms += [tup.pair_conjugates[(k, i)] for k in range(1, i)]
    if any(t.points.shape != u.points.shape or not np.array_equal(t.points, u.points)
           for t in terms):
        raise InputValidationError(
            f"a pair table of u_{i} is not on the grid of u_{i} in its row order"
        )
    want = sum(t.values for t in terms) + spec.shift_values(i, u.points)
    # Equal entries (+inf against +inf included) are no residual.
    resid = np.abs(np.subtract(want, u.values, out=np.zeros(len(want)), where=want != u.values))
    if not len(resid):
        return TableIdentity(i, 0.0, None)
    k = int(resid.argmax())
    return TableIdentity(i, float(resid[k]), tuple(u.points[k].tolist()))


def _pair_brackets(tup: SplittingTuple, spec: CostSpec, key: tuple[int, int]) -> PairBrackets:
    """The brackets of pair key over grid_i x grid_j: row x's lowest is f(x) - f^cc(x), f^cc
    the c-transform over f^c's table, at x's first maximising y; the first lowest row wins."""
    f, fc, cost = tup.pair_potentials[key], tup.pair_conjugates[key], spec.pair_cost(*key)
    rows = np.flatnonzero(f.values != math.inf)
    fcc, cols = c_transform(cost, fc.points, fc.values, f.points[rows], False)
    low = f.values[rows] - fcc
    lowest, at = math.inf, None
    if len(low) and low[a := int(low.argmin())] < math.inf:
        lowest = float(low[a])
        at = (tuple(f.points[rows[a]].tolist()), tuple(fc.points[cols[a]].tolist()))
    return PairBrackets(key, len(rows) * len(fc.values), lowest, at)
