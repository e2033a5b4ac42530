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

Certification is sample-based: the inequality is tested on a declared set
of product points (a deterministic lattice over the 50 percent expanded
bounding box of G's marginals plus seeded uniform draws, unless the caller
supplies points), and equality is tested on all of G.  Points where some
u_i is +inf satisfy the inequality vacuously and are counted separately.
The certificate records its sample so every reported number is
recomputable.
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
    _enc,
    _point_rows,
    _vec_rows,
    as_point,
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
from .monotone import DEFAULT_TOL, _check_gamma_against_spec

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
            "base_point": [list(v) for v in self.base_point]
            if self.base_point is not None
            else None,
            "potentials": [u.to_json() for u in self.potentials],
            "pair_potentials": {
                f"{i},{j}": f.to_json() for (i, j), f in sorted(self.pair_potentials.items())
            },
            "pair_conjugates": {
                f"{i},{j}": f.to_json() for (i, j), f in sorted(self.pair_conjugates.items())
            },
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
class SplittingCertificate:
    """Sampled evidence that a tuple splits the cost on a point set.

    max_inequality_violation is the max of c(p) - sum u_i(p_i) over the
    non-vacuous test points (negative means uniform slack);
    max_equality_residual_on_gamma is the max of |c(p) - sum u_i(p_i)| over
    the set itself.  Both worst points are recorded, as are the sample
    size, the vacuous count, and the sampling seed (None when the caller
    supplied explicit points).
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
    inequality_tol: float
    equality_tol: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "max_inequality_violation": _enc(self.max_inequality_violation),
            "max_equality_residual_on_gamma": _enc(self.max_equality_residual_on_gamma),
            "worst_inequality_point": [list(v) for v in self.worst_inequality_point]
            if self.worst_inequality_point is not None
            else None,
            "worst_equality_point": [list(v) for v in self.worst_equality_point]
            if self.worst_equality_point is not None
            else None,
            "n_test_points": self.n_test_points,
            "n_gamma_points": self.n_gamma_points,
            "n_vacuous": self.n_vacuous,
            "seed": self.seed,
            "inequality_tol": self.inequality_tol,
            "equality_tol": self.equality_tol,
        }


def certify_splitting(
    tup: SplittingTuple,
    g: GammaSet,
    spec: CostSpec,
    test_points: Sequence | None = None,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    ineq_tol: float = DEFAULT_TOL,
    eq_tol: float = DEFAULT_TOL,
) -> SplittingCertificate:
    """Test the splitting inequality on a sample and equality on the set.

    PASS means both: c(p) <= sum u_i(p_i) + ineq_tol at every non-vacuous
    test point, and |c(p) - sum u_i(p_i)| <= eq_tol at every point of g.
    Raises UndefinedOnGamma when some u_i is +inf on its marginal of g;
    everywhere else +inf potentials satisfy the inequality vacuously.  A
    supplied test point of the wrong shape raises DimensionMismatch.
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

    if test_points is None:
        pts = sample_test_points(g, n_samples=n_samples, seed=seed)
        used_seed: int | None = seed
    else:
        pts = _point_rows(test_points, spec.dims)
        used_seed = None

    # u_1 + ... + u_N in order; a row stops at its first +inf (vacuous).
    total = np.zeros(len(pts))
    blocks = marginal_blocks(pts, spec.dims)
    for u, x in zip(tup.potentials, blocks):
        live = np.flatnonzero(total != math.inf)
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

    passed = max_viol <= ineq_tol and max_resid <= eq_tol
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
        inequality_tol=ineq_tol,
        equality_tol=eq_tol,
    )
