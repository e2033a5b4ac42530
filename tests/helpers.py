"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: the chain
enumerator walks every simple chain explicitly, the coupling oracle
enumerates assignments without any library verifier, the scalar
certificate loops over points with the one-point evaluators, the pair and
sign loops visit one pair of points at a time with Python sums, the
brute-force loop one multiset at a time, the row dedup sorts every row
column by column, the projections dedup the points as tuples, and the
generators build monotone structure by construction rather than by
checking it.  The exactness probe, which no command runs, lives here with
its one-point evaluator ``sum_at``, as do ``add_separable_shift``, which
builds the shifted costs of the invariance tests,
``is_two_marginal_cyclically_monotone``, the projection verdict on a list
of pairs, ``translated``, which moves a set,
``counterexample_domain_point`` and ``find_rows``, a one-off row lookup.
``gathered_certificate`` is a reference of another kind: the certificate's
earlier vectorized sum, which gathers the live rows for every potential and
reads every value through the table lookup, and which the library's point
path must equal bit for bit.  The
``dense_*`` references are of that kind too: the c-transform, and chain
tabulation, conjugation, the antiderivative check and the pair brackets as
c-transforms, each over one whole matrix, which the library's blocked
transform must equal bit for bit, and the Bellman-Ford scan of one
problem at a time over a dense candidate array a round, which the
library's stacked relaxation must equal bit for bit.  So are ``couple``,
the closed-form cost formula the kernel's one coordinate loop replaced,
``validate_point`` and ``total_loop``, the one-point ``CostSpec.total`` it
replaced, ``pair_matrix``, the broadcast cost matrix that
``PairwiseCost.block`` replaced, and
``point_rows_per_marginal``, the per-marginal reading of product points that
``core._point_rows`` keeps for every payload it does not read whole: the
library must equal both bit for bit, errors included, and ``signed_power_where``,
the odd power that settled the sign of zero with a comparison, which
``onedim.signed_power`` must equal bit for bit.  ``rounding_bound`` bounds how far two
orders of adding the same terms can land apart: the judge of the bits the
transform moved against the formulas it replaced.
``sample_test_points_concatenated`` and ``counterexample_verify_recomputed``
are the examples' earlier paths: the sampler that concatenated its three
blocks and gathered every kept row, and the counterexample check that
recomputed its seed-independent claims and stacked its points marginal by
marginal on every call; the library must equal both bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from monosplit.antiderivative import AntiderivativeCheck, Potential
from monosplit.core import (
    ClosedForm,
    CostSpec,
    GammaSet,
    PairwiseCost,
    Point,
    RowIndex,
    Vec,
    _point_rows,
    _rows,
    _vec_rows,
    as_point,
    as_vec,
    classical_cost,
    dedup_pairs,
    dedup_vecs,
    marginal_blocks,
    unique_rows,
)
from monosplit.errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InputValidationError,
    InternalInconsistency,
    NotCyclicallyMonotone,
    NotOneDimensional,
    OrderTooLarge,
    UndefinedOnGamma,
)
from monosplit.monotone import (
    BRUTE_FORCE_BUDGET,
    DEFAULT_TOL,
    GainScan,
    MonotonicityVerdict,
    Witness,
    _check_gamma_against_spec,
    _cycle_verdict,
    _full_pair_matrices,
    _perm_array,
    is_n_c_monotone_bruteforce,
    is_pair_monotone_classical,
    scan_gain_digraph,
)
from monosplit.onedim import (
    GRADE_LIMIT,
    GRADE_PANELS,
    GRADE_PIECES,
    PANELS_PER_UNIT,
    CurvePotentials,
    MonotoneBijection,
)
from monosplit.quadratic import (
    KERNEL_TOL,
    PAIR_WITNESS_LAMBDAS,
    PSD_TOL,
    CounterexampleReport,
    _span_residual,
    counterexample_construct,
)
from monosplit.splitting import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    LATTICE_CAP,
    LATTICE_PER_AXIS,
    PairBrackets,
    SplittingCertificate,
    SplittingTuple,
    sample_test_points,
)

COUPLING_BUDGET = 2_000_000
COARSE_GRID = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def add_separable_shift(
    spec: CostSpec,
    forms: Sequence[ClosedForm | Sequence[ClosedForm] | None],
) -> CostSpec:
    """Return the cost c + sum_i h_i with the given per-marginal terms.

    Each entry may be a single form, a sequence of forms, or None.  Existing
    shift terms are kept and the new ones appended.
    """
    if len(forms) != spec.n_marginals:
        raise InputValidationError("need one shift entry per marginal")
    merged: list[tuple[ClosedForm, ...]] = []
    for i, entry in enumerate(forms):
        if entry is None:
            new: tuple[ClosedForm, ...] = ()
        elif isinstance(entry, ClosedForm):
            new = (entry,)
        else:
            new = tuple(entry)
        old = spec.shift[i] if spec.shift is not None else ()
        merged.append(tuple(old) + new)
    return CostSpec(spec.dims, dict(spec.pairs), tuple(merged))


def translated(g: GammaSet, z: Sequence[float | Sequence[float]] | Point) -> GammaSet:
    """g moved by z, one vector per marginal; a z of other dims is refused."""
    zp = as_point(z)
    dims = tuple(map(len, zp))
    if dims != g.dims:
        raise DimensionMismatch(f"cannot translate a set of dims {g.dims} by dims {dims}")
    return GammaSet(g.dims, g.coords + np.concatenate(zp))


def counterexample_domain_point(a1: float, a2: float, a3: float, b3: float) -> Point:
    """The point of the counterexample's domain with reduced coordinates
    (a1, a2, a3, b3), where its potentials are finite."""
    return ((a1, 0.0), (a2, a2), (a3, b3))


def find_rows(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index in table of each row of queries, or -1: :meth:`RowIndex.find`
    on a table keyed for this one lookup."""
    return RowIndex(table).find(queries)


def project(g: GammaSet, i: int) -> tuple[Vec, ...]:
    """Distinct i-th marginal values of g, in first-seen order (1-based i)."""
    if not (1 <= i <= g.n_marginals):
        raise IndexOutOfRange(f"marginal index {i} outside 1..{g.n_marginals}")
    return tuple(dict.fromkeys(p[i - 1] for p in g.points))


def project_pair(g: GammaSet, i: int, j: int) -> tuple[tuple[Vec, Vec], ...]:
    """Distinct (x_i, x_j) pairs of g, in first-seen order; requires i < j."""
    if not (1 <= i <= g.n_marginals) or not (1 <= j <= g.n_marginals):
        raise IndexOutOfRange(f"pair ({i},{j}) outside 1..{g.n_marginals}")
    if i >= j:
        raise IndexOutOfRange("project_pair requires i < j")
    return tuple(dict.fromkeys((p[i - 1], p[j - 1]) for p in g.points))


def is_two_marginal_cyclically_monotone(
    pairs: Sequence[tuple],
    cost: PairwiseCost,
    tol: float = DEFAULT_TOL,
) -> MonotonicityVerdict:
    """Cyclic monotonicity of a finite set of (x, y) pairs given as a list:
    the verdict check_projection_condition gives a projection, on the
    distinct pairs in first-seen order.

    Equivalent to n-c-monotonicity for every n at once: a violating
    permutation decomposes into cycles, and a cyclic shift along any
    positive cycle is itself a violation.
    """
    xs, ys = dedup_pairs(pairs)
    return _cycle_verdict(xs, ys, cost, tol)


def gamma_1d(rows: Sequence[Sequence[float]]) -> GammaSet:
    """Build a GammaSet with scalar marginals from rows of coordinates."""
    return GammaSet.from_points([[float(v) for v in row] for row in rows])


def make_comonotone_gamma(rng: np.random.Generator, n_marginals: int = 3,
                          size: int = 4) -> GammaSet:
    """1-D set whose coordinates move together: x_i^(k) nondecreasing in k
    for every marginal, hence all pair projections are monotone."""
    rows = []
    current = rng.uniform(-2.0, 0.0, size=n_marginals)
    for _ in range(size):
        rows.append([float(v) for v in current])
        current = current + rng.uniform(0.0, 1.0, size=n_marginals)
    return GammaSet.from_points(rows)


def make_random_gamma(rng: np.random.Generator, n_marginals: int = 3,
                      size: int = 4) -> GammaSet:
    """1-D set with coordinates drawn from a coarse grid (ties are likely,
    which exercises the multiset and dedup paths)."""
    rows = [
        [float(rng.choice(COARSE_GRID)) for _ in range(n_marginals)]
        for _ in range(size)
    ]
    return GammaSet.from_points(rows)


def make_random_pairs(rng: np.random.Generator, m: int = 4,
                      monotone: bool = False) -> list[tuple[Vec, Vec]]:
    """Scalar (x, y) pairs; monotone=True sorts both coordinates so the
    relation is comonotone."""
    xs = [float(rng.choice(COARSE_GRID)) for _ in range(m)]
    ys = [float(rng.choice(COARSE_GRID)) for _ in range(m)]
    if monotone:
        xs.sort()
        ys.sort()
    return [(as_vec(x), as_vec(y)) for x, y in zip(xs, ys)]


def make_bilinear_pairs(rng: np.random.Generator,
                        m: int = 5) -> tuple[PairwiseCost, list[tuple[Vec, Vec]]]:
    """A random SPD bilinear coupling <x, A y> on R^2 and m pairs
    (x, A^-1 S x) with S symmetric positive definite, so that
    <x', A y> = <x', S x> and the pairs are cyclically monotone."""
    def spd():
        b = rng.normal(size=(2, 2))
        return b @ b.T + 0.5 * np.eye(2)

    a, s = spd(), spd()
    cost = PairwiseCost.bilinear(a.tolist())
    xs = rng.uniform(-2.0, 2.0, size=(m, 2))
    ys = np.linalg.solve(a, s @ xs.T).T
    return cost, [(as_vec(x), as_vec(y)) for x, y in zip(xs.tolist(), ys.tolist())]


def chain_enumeration_oracle(cost: PairwiseCost, pairs: list[tuple[Vec, Vec]],
                             base: Vec, x: Vec) -> float:
    """R(x) by brute enumeration of every simple chain from the base.

    Chains are ordered tuples of distinct pair indices whose first pair has
    first coordinate equal to the base; the value telescopes the gains and
    ends with the step to x.  With no positive cycles, restricting to simple
    chains loses nothing, so this equals the chain supremum.
    """
    m = len(pairs)
    sources = [k for k in range(m) if pairs[k][0] == base]
    if x == base:
        return 0.0
    best = -math.inf
    for k in range(1, m + 1):
        for chain in itertools.permutations(range(m), k):
            if chain[0] not in sources:
                continue
            total = 0.0
            for a, b in zip(chain, chain[1:]):
                total += cost.value(pairs[b][0], pairs[a][1]) - cost.value(
                    pairs[a][0], pairs[a][1]
                )
            last = chain[-1]
            total += cost.value(x, pairs[last][1]) - cost.value(
                pairs[last][0], pairs[last][1]
            )
            best = max(best, total)
    return best


def bruteforce_cycle_gain(cost: PairwiseCost, pairs: list[tuple[Vec, Vec]]) -> float:
    """Largest gain over all cycles through distinct pairs (>= 2 long);
    positive means the relation is not cyclically monotone."""
    m = len(pairs)
    best = -math.inf
    for k in range(2, m + 1):
        for cyc in itertools.permutations(range(m), k):
            if cyc[0] != min(cyc):
                continue
            total = 0.0
            loop = cyc + (cyc[0],)
            for a, b in zip(loop, loop[1:]):
                total += cost.value(pairs[b][0], pairs[a][1]) - cost.value(
                    pairs[a][0], pairs[a][1]
                )
            best = max(best, total)
    return best


def coupling_oracle_holds(g: GammaSet, spec: CostSpec, n: int,
                          tol: float = 1e-9) -> bool:
    """n-c-monotonicity from the assignment problem: g is n-c-monotone iff
    for every n points of g (repetition allowed) the diagonal assignment
    attains the brute-force coupling optimum."""
    for combo in itertools.combinations_with_replacement(g.points, n):
        columns = [[p[i] for p in combo] for i in range(g.n_marginals)]
        if not brute_force_optimal_coupling(columns, spec).diagonal_attains(tol):
            return False
    return True


def scalar_certificate(tup, g: GammaSet, spec: CostSpec, points, tol: float = 1e-9) -> dict:
    """The splitting certificate by a plain loop over points: sum_at and
    total one point at a time, the first strict maximum winning each max.
    Keys match the fields of SplittingCertificate."""
    max_resid, worst_eq = -math.inf, None
    for p in g.points:
        resid = abs(sum_at(tup, p) - spec.total(p))
        if resid > max_resid:
            max_resid, worst_eq = resid, p
    max_viol, worst_ineq, vacuous = -math.inf, None, 0
    for p in points:
        total = sum_at(tup, p)
        if total == math.inf:
            vacuous += 1
        elif spec.total(p) - total > max_viol:
            max_viol, worst_ineq = spec.total(p) - total, p
    return {
        "passed": max_viol <= tol and max_resid <= tol,
        "max_inequality_violation": max_viol,
        "max_equality_residual_on_gamma": max_resid,
        "worst_inequality_point": worst_ineq,
        "worst_equality_point": worst_eq,
        "n_test_points": len(points),
        "n_gamma_points": g.size,
        "n_vacuous": vacuous,
    }


def pair_monotone_classical_loop(
    pairs: Sequence[tuple],
    tol: float = 1e-12,
) -> MonotonicityVerdict:
    """Reference for is_pair_monotone_classical: <x - x', y - y'> >= -tol
    tested one pair at a time, the inner product a Python sum.  The failing
    inner product is the witness value."""
    deduped = list(dict.fromkeys((as_vec(x), as_vec(y)) for x, y in pairs))
    inner = PairwiseCost.inner_product()
    checked = 0
    for a in range(len(deduped)):
        for b in range(a + 1, len(deduped)):
            (xa, ya), (xb, yb) = deduped[a], deduped[b]
            checked += 1
            v = sum((p - q) * (r - s) for p, q, r, s in zip(xa, xb, ya, yb))
            if v < -tol:
                diagonal = inner.value(xa, ya) + inner.value(xb, yb)
                permuted = inner.value(xa, yb) + inner.value(xb, ya)
                witness = Witness(
                    kind="pair",
                    points=((xa, ya), (xb, yb)),
                    permutations=((0, 1), (1, 0)),
                    permuted_sum=permuted,
                    diagonal_sum=diagonal,
                    value=v,
                )
                return MonotonicityVerdict(False, witness, checked, tol)
    return MonotonicityVerdict(True, None, checked, tol)


def sign_criterion_loop(g: GammaSet, tol: float = DEFAULT_TOL) -> MonotonicityVerdict:
    """Reference for sign_criterion_1d: the differences of every two points
    tested one pair at a time, positive and negative parts Python sums; a
    mixed-sign pair is swapped on its negative-difference coordinates."""
    if any(d != 1 for d in g.dims):
        raise NotOneDimensional("the sign criterion needs scalar marginals")
    spec = classical_cost("c1", g.n_marginals, 1)
    checked = 0
    for a in range(g.size):
        for b in range(a + 1, g.size):
            p, q = g.points[a], g.points[b]
            t = [p[i][0] - q[i][0] for i in range(g.n_marginals)]
            checked += 1
            pos = sum(v for v in t if v > tol)
            neg = sum(v for v in t if v < -tol)
            if pos > 0.0 and neg < 0.0:
                swapped = {i + 1 for i, v in enumerate(t) if v < -tol}
                mix_pq = tuple(
                    q[i - 1] if i in swapped else p[i - 1]
                    for i in range(1, g.n_marginals + 1)
                )
                mix_qp = tuple(
                    p[i - 1] if i in swapped else q[i - 1]
                    for i in range(1, g.n_marginals + 1)
                )
                witness = Witness(
                    kind="signs",
                    points=(p, q),
                    permutations=tuple(
                        (1, 0) if i in swapped else (0, 1)
                        for i in range(1, g.n_marginals + 1)
                    ),
                    permuted_sum=spec.total(mix_pq) + spec.total(mix_qp),
                    diagonal_sum=spec.total(p) + spec.total(q),
                    value=pos * neg,
                )
                return MonotonicityVerdict(False, witness, checked, tol)
    return MonotonicityVerdict(True, None, checked, tol)


def bruteforce_loop(
    g: GammaSet,
    spec: CostSpec,
    n: int,
    tol: float = DEFAULT_TOL,
    budget: float = BRUTE_FORCE_BUDGET,
) -> MonotonicityVerdict:
    """Reference for is_n_c_monotone_bruteforce: one multiset per Python
    iteration, its sums assembled from the pair matrices into one array with
    an axis per marginal 2..N; the first violation in (multiset,
    permutation) lexicographic order becomes the witness."""
    _check_gamma_against_spec(g, spec)
    if n < 1:
        raise InputValidationError("order n must be at least 1")
    if n > 7:
        raise OrderTooLarge(f"order {n} is beyond the factorial guard of 7")
    nmarg = g.n_marginals
    n_multisets = math.comb(g.size + n - 1, n)
    per_multiset = math.factorial(n) ** (nmarg - 1)
    if n_multisets * per_multiset > budget:
        raise OrderTooLarge(
            f"{n_multisets} multisets x {per_multiset} permutation tuples "
            f"exceeds the budget of {budget}"
        )

    mats = _full_pair_matrices(g, spec)
    shifts = [
        spec.shift_values(i, x)
        for i, x in enumerate(marginal_blocks(g.coords, g.dims), start=1)
    ]
    perms = _perm_array(n)
    rows = np.arange(n)
    # Axis k of the sum array indexes the permutation of marginal k + 2; a
    # pair's term broadcasts along the axes of its permuted marginals.
    ndim = nmarg - 1
    layout = [
        (i, j, tuple(len(perms) if k + 2 in (i, j) else 1 for k in range(ndim)))
        for i, j in sorted(mats)
    ]
    checked = 0

    for combo in itertools.combinations_with_replacement(range(g.size), n):
        idx = np.array(combo)
        vals = np.full((len(perms),) * ndim, float(shifts[0][idx].sum()))
        for i, j, shape in layout:
            sub = mats[(i, j)][np.ix_(idx, idx)]
            if i == 1:
                # pair (1, j) plus the shift of marginal j
                term = sub[rows, perms].sum(axis=1) + shifts[j - 1][idx][perms].sum(axis=1)
            else:
                term = sub[perms[:, None, :], perms[None, :, :]].sum(axis=2)
            vals += term.reshape(shape)
        diagonal = float(vals[(0,) * ndim])
        checked += per_multiset
        viol = vals > diagonal + tol
        if viol.any():
            first = np.argwhere(viol)[0]
            sigmas = (tuple(range(n)),) + tuple(
                tuple(int(v) for v in perms[pi]) for pi in first
            )
            witness = Witness(
                kind="permutation",
                points=tuple(g.points[a] for a in combo),
                permutations=sigmas,
                permuted_sum=float(vals[tuple(first)]),
                diagonal_sum=diagonal,
            )
            return MonotonicityVerdict(False, witness, checked, tol)
    return MonotonicityVerdict(True, None, checked, tol)


def shift_splitting_tuple(
    tup: SplittingTuple, forms: Sequence[ClosedForm | None]
) -> SplittingTuple:
    """Replace each u_i by u_i + h_i on its table (h_i = None leaves u_i).

    Used for the shift-covariance law: the result splits the shifted cost
    exactly when the input splits the unshifted one.  Only tabulated values
    move; analytic extensions are dropped, so apply this to table-backed
    tuples.
    """
    if len(forms) != tup.n_marginals:
        raise InputValidationError("need one shift entry per marginal")
    pots = []
    for u, h in zip(tup.potentials, forms):
        if h is None:
            pots.append(u)
            continue
        if u.closed_form is not None:
            raise InputValidationError(
                "shift_splitting_tuple only supports table-backed potentials"
            )
        vals = np.array(u.values)
        shifted = np.where(vals == math.inf, vals, vals + h.values(u.points))
        pots.append(Potential(u.points, shifted))
    return SplittingTuple(
        tuple(pots), tup.pair_potentials, tup.pair_conjugates, tup.base_point
    )


def splitting_implies_monotone_check(
    tup: SplittingTuple,
    g: GammaSet,
    spec: CostSpec,
    n: int,
    tol: float = DEFAULT_TOL,
) -> MonotonicityVerdict:
    """Consistency harness: a certified tuple forces n-monotonicity of g.

    Runs the brute-force verifier and converts any failure into
    InternalInconsistency, since a split set can never fail monotonicity
    unless the implementation is wrong.
    """
    verdict = is_n_c_monotone_bruteforce(g, spec, n, tol=tol)
    if not verdict.holds:
        w = verdict.witness
        raise InternalInconsistency(
            "splitting certified but monotonicity failed: "
            f"gain {w.gain:.6g} at permutations {w.permutations!r}"
        )
    return verdict


def sum_at(tup: SplittingTuple, p: Point) -> float:
    """u_1(p_1) + ... + u_N(p_N) in extended-real arithmetic: values are
    finite or +inf, so +inf absorbs."""
    total = 0.0
    for u, x in zip(tup.potentials, p):
        total += u.value_at(x)
    return total


def table_values_at(u: Potential, xs: np.ndarray) -> np.ndarray:
    """Potential.values_at by the table path alone, closed-form potentials
    (whose tables are empty) included: an exact row lookup, the closed form
    where it misses, else +inf."""
    index = RowIndex(u.points).find(xs)
    out = np.append(u.values, math.inf)[index]
    if u.closed_form is not None and (index < 0).any():
        out[index < 0] = u.closed_form.values(xs[index < 0])
    return out


def gathered_certificate(
    tup: SplittingTuple,
    g: GammaSet,
    spec: CostSpec,
    test_points=None,
    tol: float = DEFAULT_TOL,
) -> SplittingCertificate:
    """certify_splitting as it was before the sum learned to add in place:
    every potential's values come from table_values_at on the rows still
    live, gathered by index, and scattered back into the running sum."""
    blocks = marginal_blocks(g.coords, g.dims)
    on_gamma = [table_values_at(u, x) for u, x in zip(tup.potentials, blocks)]
    undefined = np.argwhere(np.isinf(np.column_stack(on_gamma)))
    if len(undefined):
        raise UndefinedOnGamma("some potential is +inf on its marginal of g")
    resid = np.abs(sum(on_gamma) - spec.total_many(g.coords))
    w = int(resid.argmax())
    max_resid, worst_eq = float(resid[w]), g.points[w]

    if test_points is None:
        pts = sample_test_points(g)
        used_seed = DEFAULT_SEED
    else:
        pts = _point_rows(test_points, spec.dims)
        used_seed = None

    total = np.zeros(len(pts))
    blocks = marginal_blocks(pts, spec.dims)
    for u, x in zip(tup.potentials, blocks):
        live = np.flatnonzero(total != math.inf)
        total[live] += table_values_at(u, x[live])
    covered = np.flatnonzero(total != math.inf)
    max_viol, worst_ineq = -math.inf, None
    if covered.size:
        viol = spec.total_many(pts[covered]) - total[covered]
        w = int(viol.argmax())
        max_viol = float(viol[w])
        worst_ineq = tuple(tuple(x[covered[w]].tolist()) for x in blocks)
    return SplittingCertificate(
        passed=max_viol <= tol and max_resid <= tol,
        max_inequality_violation=max_viol,
        max_equality_residual_on_gamma=max_resid,
        worst_inequality_point=worst_ineq,
        worst_equality_point=worst_eq,
        n_test_points=len(pts),
        n_gamma_points=g.size,
        n_vacuous=len(pts) - len(covered),
        seed=used_seed,
        tol=tol,
    )


def couple(cost: PairwiseCost, x, y):
    """The closed-form kinds on coordinate sequences, as the library wrote
    them before its one coordinate loop: floats for one pair of points, or
    broadcastable arrays for many, summed in one order.  The kernel must
    equal it bit for bit, errors' types included."""
    if cost.kind == "bilinear":
        if len(x) != len(cost.coef) or len(y) != len(cost.coef[0]):
            raise DimensionMismatch("bilinear cost shape mismatch")
        s = sum(x[i] * sum(a * b for a, b in zip(row, y)) for i, row in enumerate(cost.coef))
    elif len(x) != len(y):
        raise DimensionMismatch(f"{cost.kind} needs equal dimensions")
    elif cost.kind == "inner_product":
        s = sum(a * b for a, b in zip(x, y))
    else:
        s = 0.5 * sum((a - b) * (a - b) for a, b in zip(x, y))
    return s if cost.sign > 0 else -s


def validate_point(spec: CostSpec, p: Point) -> Point:
    """The one-point check the library's total ran before it read a point
    as one row."""
    if len(p) != spec.n_marginals:
        raise DimensionMismatch(f"point has {len(p)} marginals, cost expects {spec.n_marginals}")
    for x, d in zip(p, spec.dims):
        if len(x) != d:
            raise DimensionMismatch("marginal dimension mismatch")
    return p


def total_loop(spec: CostSpec, p: Point) -> float:
    """CostSpec.total as a loop over one point: each pair through couple (a
    table through paired on one row), then the shifts, added from 0.0."""
    validate_point(spec, p)
    out = 0.0
    for (i, j), c in spec.pairs.items():
        x, y = p[i - 1], p[j - 1]
        out += float(c.paired([x], [y])[0]) if c.kind == "tabulated" else couple(c, x, y)
    if spec.shift is not None:
        for i, x in enumerate(p, start=1):
            out += float(spec.shift_values(i, [x])[0])
    return out


def pair_matrix(cost: PairwiseCost, xs, ys) -> np.ndarray:
    """M[a, b] = c(xs[a], ys[b]) as one array, with the kernel's errors: the
    closed forms broadcast over (d, k, 1) x (d, 1, g) coordinate arrays
    through :func:`couple`, a table gathers by np.ix_.  This is the matrix the
    library built before its block kernel, which must equal it bit for
    bit."""
    x, y = _rows(xs), _rows(ys)
    if cost.kind == "tabulated":
        ix, iy = np.ix_(cost._grid_index(x, "x"), cost._grid_index(y, "y"))
        return cost.sign * cost.table[ix, iy]
    return couple(cost, x.T[:, :, None], y.T[:, None, :])


def dense_c_transform(cost: PairwiseCost, points, h, queries, table_first: bool) -> tuple:
    """c_transform with every cell in one (table, queries) matrix, reduced
    by argmax along the table: -inf and row 0 at each query of no table."""
    if not len(points):
        return np.full(len(queries), -math.inf), np.zeros(len(queries), dtype=np.intp)
    cm = pair_matrix(cost, points, queries) if table_first else pair_matrix(cost, queries, points).T
    cells = cm - np.asarray(h, dtype=float)[:, None]
    k = cells.argmax(axis=0)
    return cells[k, np.arange(len(queries))], k


def dense_chain_potential(cost: PairwiseCost, xs, ys, base, eval_points, tol: float) -> Potential:
    """_chain_potential as one dense c-transform over the pairs' y_k with
    h_k = c(x_k, y_k) - longest_k."""
    source = find_rows(np.array([base]), xs) == 0
    scan = scan_gain_digraph(xs, ys, cost, tol=tol, source_mask=source)
    if scan.cycle is not None:
        raise NotCyclicallyMonotone("dense reference: positive cycle", scan.cycle, scan.cycle_gain)
    pts = dedup_vecs(eval_points)
    best, _ = dense_c_transform(cost, ys, cost.paired(xs, ys) - scan.longest, pts, False)
    return Potential(pts, np.where(find_rows(np.array([base]), pts) == 0, 0.0, best))


def dense_c_conjugate(f: Potential, cost: PairwiseCost, eval_points) -> Potential:
    """c_conjugate as one dense c-transform over f's finite table."""
    finite = f.values != math.inf
    pts = dedup_vecs(eval_points)
    return Potential(pts, dense_c_transform(cost, f.points[finite], f.values[finite], pts, True)[0])


def dense_antiderivative_check(f: Potential, x1, x2, cost: PairwiseCost,
                               tol: float) -> AntiderivativeCheck:
    """_antiderivative_check as f(x1) + f^c(x2) - c(x1, x2), f^c one dense
    c-transform over f's finite table."""
    fx = f.values_at(x1)
    if (fx == math.inf).any():
        return AntiderivativeCheck(False, math.inf)
    finite = f.values != math.inf
    fc, _ = dense_c_transform(cost, f.points[finite], f.values[finite], x2, True)
    worst = float(((fx + fc) - cost.paired(x1, x2)).max(initial=-math.inf))
    return AntiderivativeCheck(worst <= tol, worst)


def dense_pair_brackets(tup: SplittingTuple, spec: CostSpec, key: tuple[int, int]) -> PairBrackets:
    """_pair_brackets with each finite row of f as f(x) - f^cc(x), f^cc one
    dense c-transform over f^c's table; the first lowest row by argmin."""
    f, fc, cost = tup.pair_potentials[key], tup.pair_conjugates[key], spec.pair_cost(*key)
    rows = np.flatnonzero(f.values != math.inf)
    fcc, cols = dense_c_transform(cost, fc.points, fc.values, f.points[rows], False)
    low = f.values[rows] - fcc
    lowest, at = math.inf, None
    if low.size and low[a := int(low.argmin())] < lowest:
        lowest = float(low[a])
        at = (tuple(f.points[rows[a]].tolist()), tuple(fc.points[cols[a]].tolist()))
    return PairBrackets(key, len(rows) * len(fc.values), lowest, at)


def dense_relaxation_scan(xs, ys, cost: PairwiseCost, tol: float, source_mask) -> tuple:
    """One problem of _relaxation_scan alone, as (scan, dist, pred, the last
    round's improved mask): m rounds of dense Bellman-Ford relaxation on the negated gains
    gains[u, v] = c(x_v, y_u) - c(x_u, y_u), each a full m x m candidate
    array reduced along its first axis."""
    m = len(xs)
    cm = pair_matrix(cost, xs, ys)  # cm[a, b] = c(x_a, y_b)
    gains = cm.T - np.diag(cm)[:, None]  # gains[u, v] = c(x_v, y_u) - c(x_u, y_u)
    if not np.isfinite(gains).all():
        raise InputValidationError("an edge gain is not finite: the costs on the pairs overflow")
    np.fill_diagonal(gains, 0.0)
    if source_mask is None:
        dist = np.zeros(m)
    else:
        dist = np.where(np.asarray(source_mask, dtype=bool), 0.0, np.inf)
    pred = np.full(m, -1, dtype=int)
    improved = np.zeros(m, dtype=bool)
    cols = np.arange(m)
    for _ in range(m):
        cand = dist[:, None] - gains
        arg = cand.argmin(axis=0)
        best = cand[arg, cols]  # the first of tied minima, as pred records
        improved = best < dist
        if not improved.any():
            break
        pred[improved] = arg[improved]
        dist = np.where(improved, best, dist)

    cycle = None
    cycle_gain = 0.0
    seen_cycles: set[tuple[int, ...]] = set()
    for v in np.flatnonzero(improved):
        seen_at: dict[int, int] = {}
        chain: list[int] = []
        u = int(v)
        while u != -1 and u not in seen_at:
            seen_at[u] = len(chain)
            chain.append(u)
            u = int(pred[u])
        if u == -1:
            continue
        cyc = tuple(reversed(chain[seen_at[u]:]))
        rot = cyc.index(min(cyc))
        cyc = cyc[rot:] + cyc[:rot]
        if cyc in seen_cycles:
            continue
        seen_cycles.add(cyc)
        gain = float(sum(gains[cyc[k], cyc[(k + 1) % len(cyc)]] for k in range(len(cyc))))
        if gain > tol:
            cycle, cycle_gain = cyc, gain
            break
    longest = None if source_mask is None else -dist
    return GainScan(longest, cycle, cycle_gain), dist, pred, improved


def rounding_bound(*terms) -> np.ndarray:
    """2 gamma_k sum|terms|, elementwise over k broadcast terms (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3; u = eps / 2,
    gamma_k = k u / (1 - k u)): how far apart two float sums of the same k
    terms, each in its own order and grouping, can land.  Each lies within
    gamma_(k-1) sum|terms| of the exact sum, and gamma_k over gamma_(k-1)
    leaves more room than this bound's own rounding takes."""
    k, u = len(terms), np.finfo(float).eps / 2
    return 2 * (k * u / (1 - k * u)) * sum(np.abs(t) for t in terms)


EXACTNESS_BUDGET = 1_000_000


@dataclass(frozen=True)
class ExactnessReport:
    """Whether the set equals the intersection of projection preimages and
    whether test points on the candidate product with splitting equality
    all lie in the set.

    Equality off the set is not automatically a bug: the exactness
    characterisation assumes the projections coincide with the
    subdifferential graphs of the pair potentials, and chain-constructed
    potentials may have strictly larger graphs.  The report describes the
    instance; it never raises.
    """

    intersection_equals_gamma: bool
    extra_intersection_points: tuple[Point, ...]
    equality_outside_gamma: tuple[tuple[Point, float], ...]
    candidates_checked: int
    n_test_points: int
    equality_tol: float

    @property
    def holds(self) -> bool:
        return self.intersection_equals_gamma and not self.equality_outside_gamma

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "intersection_equals_gamma": self.intersection_equals_gamma,
            "extra_intersection_points": [
                [list(v) for v in p] for p in self.extra_intersection_points
            ],
            "equality_outside_gamma": [
                {"point": [list(v) for v in p], "residual": r}
                for p, r in self.equality_outside_gamma
            ],
            "candidates_checked": self.candidates_checked,
            "n_test_points": self.n_test_points,
            "equality_tol": self.equality_tol,
        }


def check_exactness_condition(
    g: GammaSet,
    tup: SplittingTuple,
    spec: CostSpec,
    test_points: Sequence | None = None,
    eq_tol: float = DEFAULT_TOL,
    budget: int = EXACTNESS_BUDGET,
) -> ExactnessReport:
    """Probe the two halves of the exactness characterisation.

    (a) Enumerate the product of the marginal projections and test whether
    the points whose every (i, j) projection lies in the projected set are
    exactly the points of g.  (b) Among the supplied test points, any
    point lying on the candidate product (every coordinate an exact member
    of its projection) with splitting equality residual <= eq_tol must
    belong to g; offenders are reported with their residuals.
    """
    n = g.n_marginals
    margs = [project(g, i) for i in range(1, n + 1)]
    count = 1
    for m in margs:
        count *= len(m)
        if count > budget:
            raise BudgetExceeded(
                f"candidate product exceeds budget ({count} > {budget})"
            )
    pair_sets = {
        (i, j): set(project_pair(g, i, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    extras: list[Point] = []
    checked = 0
    for combo in itertools.product(*margs):
        p: Point = tuple(combo)
        checked += 1
        if p in g:
            continue
        if all((p[i - 1], p[j - 1]) in pair_sets[(i, j)] for (i, j) in pair_sets):
            extras.append(p)

    marg_sets = [set(m) for m in margs]
    eq_outside: list[tuple[Point, float]] = []
    pts = [as_point(p) for p in test_points] if test_points is not None else []
    for p in pts:
        if p in g:
            continue
        if not all(x in marg_sets[i] for i, x in enumerate(p)):
            continue
        total = sum_at(tup, p)
        if total == math.inf:
            continue
        cval = spec.total(p)
        if cval == math.inf:
            continue
        resid = abs(total - cval)
        if resid <= eq_tol:
            eq_outside.append((p, resid))
    return ExactnessReport(
        intersection_equals_gamma=not extras,
        extra_intersection_points=tuple(extras),
        equality_outside_gamma=tuple(eq_outside),
        candidates_checked=checked,
        n_test_points=len(pts),
        equality_tol=eq_tol,
    )


def point_rows_per_marginal(points, dims: Sequence[int]) -> np.ndarray:
    """core._point_rows as it read every payload before its rectangular
    path: an array of flattened points whole, anything else one marginal
    at a time through _vec_rows, whose errors and their order the library
    must keep."""
    n = len(dims)
    numbers = isinstance(points, np.ndarray) and points.dtype.kind in "biuf"
    if numbers and points.shape[1:] == (sum(dims),):
        rows = np.asarray(points, dtype=float)
        if not np.isfinite(rows).all():
            raise InputValidationError("coordinates must be finite")
        return rows
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


def unique_rows_lexsort(rows: np.ndarray) -> np.ndarray:
    """core.unique_rows as one column-wise stable sort of every row, with
    no row key: the reference for its keyed path."""
    # A stable sort puts equal rows together, first seen first.
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[order[1:]] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return first


@dataclass(frozen=True)
class OptimalCoupling:
    """Exhaustive multi-marginal assignment optimum over permutations.

    Attributes:
        value: the maximal total cost over all (s_2, ..., s_N).
        sigmas: the first lexicographic maximiser, one 0-based permutation
            per marginal after the first.
        diagonal_value: total cost of the identity assignment.
        checked: number of permutation tuples evaluated.
    """

    value: float
    sigmas: tuple[tuple[int, ...], ...]
    diagonal_value: float
    checked: int

    def diagonal_attains(self, tol: float = DEFAULT_TOL) -> bool:
        return self.value <= self.diagonal_value + tol


def brute_force_optimal_coupling(
    marginal_lists: Sequence[Sequence[float | Sequence[float]]],
    spec: CostSpec,
    budget: int = COUPLING_BUDGET,
) -> OptimalCoupling:
    """Maximise the assignment cost by plain enumeration.

    Takes N columns of n marginal points and evaluates every way of
    permuting columns 2..N against the first, each through spec.total.
    Serves as the independent oracle for the monotonicity verifiers: the
    diagonal attains the maximum exactly when the diagonal set is
    n-c-monotone.
    """
    nmarg = spec.n_marginals
    if len(marginal_lists) != nmarg:
        raise DimensionMismatch("need one column of points per marginal")
    cols = [tuple(as_vec(x) for x in col) for col in marginal_lists]
    n = len(cols[0])
    if n == 0 or any(len(col) != n for col in cols):
        raise InputValidationError("marginal columns must share one nonzero length")
    total_tuples = math.factorial(n) ** (nmarg - 1)
    if total_tuples > budget:
        raise BudgetExceeded(
            f"{total_tuples} permutation tuples exceed the budget of {budget}"
        )
    best = -math.inf
    best_sigmas: tuple[tuple[int, ...], ...] | None = None
    diagonal_value = 0.0
    checked = 0
    for sigmas in itertools.product(itertools.permutations(range(n)), repeat=nmarg - 1):
        value = 0.0
        for j in range(n):
            point = (cols[0][j],) + tuple(
                cols[k][sigmas[k - 1][j]] for k in range(1, nmarg)
            )
            value += spec.total(point)
        if checked == 0:
            diagonal_value = value
        checked += 1
        if value > best:
            best = value
            best_sigmas = sigmas
    assert best_sigmas is not None
    return OptimalCoupling(best, best_sigmas, diagonal_value, checked)


def _add_in_order(terms: np.ndarray) -> np.ndarray:
    return np.cumsum(terms, axis=-1)[..., -1]


def _simpson_per_interval(fn, a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson with n (even) panels on each interval [a[r], b[r]];
    signed, with one call of fn on every node of every interval, and the
    Riemann brackets |h| |fn(b) - fn(a)|."""
    h = (b - a) / n
    k = np.arange(n + 1)
    nodes = a[:, None] + k * h[:, None]
    nodes[:, -1] = b  # a + n h can miss b in the last bit
    f = fn(nodes)
    fa, fb = f[:, 0], f[:, -1]
    weighted = np.where(k[1:-1] % 2, 4.0, 2.0) * f[:, 1:-1]
    total = _add_in_order(np.column_stack([fa + fb, weighted]))
    return total * h / 3.0, np.abs(h) * np.abs(fb - fa)


def _graded_from_zero(fn, x: float) -> tuple[float, float]:
    """integral_0^x fn with geometric refinement into 0; |x| <= GRADE_LIMIT.

    Piece edges are x 2^{-j}, and all pieces go through fn in one call;
    the innermost sliver [0, x 2^{-J}] is closed by a trapezoid whose
    bracket is included in the returned bound.
    """
    if x == 0.0:
        return 0.0, 0.0
    edges = np.ldexp(x, -np.arange(GRADE_PIECES, -1, -1))  # x 2^-J, ..., x
    inner = edges[0]
    f0, fi = fn(np.array([0.0, inner]))
    v, e = _simpson_per_interval(fn, edges[:-1], edges[1:], GRADE_PANELS)
    value = _add_in_order(np.concatenate([[0.0, 0.5 * inner * (f0 + fi)], v]))
    bound = _add_in_order(np.concatenate([[0.0, 0.5 * abs(inner) * abs(fi - f0)], e]))
    return float(value), float(bound)


def integral_per_knot(fn, x: float) -> tuple[float, float]:
    """Reference for onedim.integral_from_zero: graded pieces up to
    GRADE_LIMIT, then one plain Simpson rule at PANELS_PER_UNIT panels per
    unit length.  Returns (value, Riemann bracket)."""
    if abs(x) <= GRADE_LIMIT:
        return _graded_from_zero(fn, x)
    s = math.copysign(GRADE_LIMIT, x)
    v1, e1 = _graded_from_zero(fn, s)
    n = max(2, 2 * math.ceil(abs(x - s) * PANELS_PER_UNIT / 2))
    v2, e2 = _simpson_per_interval(fn, np.array([s]), np.array([x]), n)
    return v1 + float(v2[0]), e1 + float(e2[0])


def curve_potentials_per_knot(
    alphas: Sequence[MonotoneBijection], grid: Sequence[float]
) -> CurvePotentials:
    """Reference for onedim.curve_potentials: every knot is integrated
    independently from 0 by integral_per_knot; the bound of a marginal is
    its largest bracket over the grid."""
    n = len(alphas)
    knots = sorted({float(t) for t in grid})
    pots = []
    bounds = []
    for i in range(n):
        others = [alphas[k] for k in range(n) if k != i]
        inv = alphas[i].inverse

        def integrand(t: np.ndarray, _others=others, _inv=inv) -> np.ndarray:
            s = _inv(t)
            return sum(a(s) for a in _others)

        values, brackets = zip(*(integral_per_knot(integrand, t) for t in knots))
        pots.append(Potential(tuple((t,) for t in knots), values))
        bounds.append(max((0.0, *brackets)))
    return CurvePotentials(tuple(pots), tuple(bounds))


def signed_power_where(t, p: float):
    """Reference for onedim.signed_power: the odd power with the sign of
    zero settled by a comparison and a where pass; a float for a scalar."""
    t = np.asarray(t, dtype=float)
    odd = np.copysign(np.float_power(np.abs(t), p), t)
    out = np.where(t == 0.0, 0.0, odd)
    return float(out) if out.ndim == 0 else out


def sample_test_points_concatenated(
    g: GammaSet, n_samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """splitting.sample_test_points as it built its sample before it wrote
    one buffer: G, a meshgrid lattice and the draws as three arrays,
    concatenated, and every first-seen row gathered into a fresh array."""
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


def counterexample_verify_recomputed(
    n_span: int = 200, n_random: int = 10_000, seed: int = 0
) -> CounterexampleReport:
    """quadratic.counterexample_verify as it was before it cached its fixed
    claims: every claim recomputed on each call, and the span and domain
    points stacked marginal by marginal."""
    ce = counterexample_construct()
    u1, u2, u3 = ce.forms()
    spec = ce.cost()

    eigvals, eigvecs = np.linalg.eigh(ce.sym_m.as_array())
    eig = tuple(float(v) for v in eigvals)
    kernel_mask = np.abs(eigvals) <= PSD_TOL
    kernel_dim = int(kernel_mask.sum())
    computed_kernel = eigvecs[:, kernel_mask].T
    declared = np.array(ce.kernel_basis, dtype=float)
    resid = math.inf
    if kernel_dim > 0:
        resid = max(_span_residual(declared, computed_kernel),
                    _span_residual(computed_kernel, declared))
    nonzero = [v for v in eig if abs(v) > PSD_TOL]
    nz_prod = float(np.prod(nonzero)) if nonzero else 0.0

    coeffs = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n_span, 2))
    lam, mu = coeffs[:, :1], coeffs[:, 1:]
    span = [lam * np.array(x) + mu * np.array(y) for x, y in zip(ce.v1, ce.v2)]
    total = u1.values(span[0]) + u2.values(span[1]) + u3.values(span[2])
    eq_max = float(np.abs(total - spec.total_many(np.hstack(span))).max())

    draws = np.random.default_rng(seed + 1).uniform(-5.0, 5.0, size=(n_random, 4))
    a1, a2, a3, b3 = draws.T
    domain = [np.column_stack(c) for c in ((a1, np.zeros_like(a1)), (a2, a2), (a3, b3))]
    total = u1.values(domain[0]) + u2.values(domain[1]) + u3.values(domain[2])
    slack = total - spec.total_many(np.hstack(domain))
    algebra_max = float(np.abs(slack - ce.reduced_slack(draws)).max())

    witnesses = []
    witness_ok = True
    origin: Point = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    for (i, j), lam_w, expected in PAIR_WITNESS_LAMBDAS:
        p = ce.span_point(lam_w, 1.0)
        pairs = [(p[i - 1], p[j - 1]), (origin[i - 1], origin[j - 1])]
        verdict = is_pair_monotone_classical(pairs)
        value = verdict.witness.value if verdict.witness is not None else math.inf
        witnesses.append((f"{i},{j}", lam_w, float(value)))
        if verdict.holds or abs(value - expected) > 1e-12:
            witness_ok = False

    passed = (eig[0] >= -PSD_TOL and kernel_dim == 2 and resid <= KERNEL_TOL and eq_max <= 1e-9
              and float(slack.min()) >= -1e-9 and algebra_max <= 1e-9 and witness_ok)
    return CounterexampleReport(
        passed=passed,
        eigenvalues=eig,
        min_eigenvalue=eig[0],
        kernel_dim=kernel_dim,
        kernel_match_residual=resid,
        nonzero_eigen_sum=float(sum(nonzero)),
        nonzero_eigen_product=nz_prod,
        equality_max_residual=eq_max,
        n_span_samples=len(coeffs),
        slack_min=float(slack.min()),
        algebra_max_residual=algebra_max,
        n_random_points=n_random,
        seed=seed,
        pair_witnesses=tuple(witnesses),
    )
