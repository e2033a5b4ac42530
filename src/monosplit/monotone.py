"""Monotonicity verifiers for finite point sets under pairwise-sum costs.

A set G is n-c-monotone when no relabelling of marginal columns raises the
total cost: for every n-tuple drawn from G (repetition allowed) and all
permutations (s_1, ..., s_N) of the tuple positions,

    sum_j c(x_1^{s_1(j)}, ..., x_N^{s_N(j)})  <=  sum_j c(x_1^j, ..., x_N^j).

Fixing s_1 to the identity loses no generality (relabel j by s_1^{-1}), and
enumerating multisets instead of ordered tuples loses none either, so the
brute-force verifier walks multisets in lexicographic index order and
permutation tuples in lexicographic order, reporting the first violation it
meets.  It takes the multisets in blocks of a fixed size, and sums
the costs of every permutation tuple of a block as one array, adding each
pair term one tuple position at a time.  Where a multiset's n!^(N-1)
permutation tuples outnumber n! sums a pair, a bound from those sums, with
a rounding margin, first clears the multisets that cannot violate.  It
handles any number N of marginals.  c-monotone means 2-c-monotone:
:func:`is_c_monotone` computes order 2 as array sums over the masks of
marginals to swap between two points, in row blocks of point pairs whose
pair-cost entries each block evaluates for itself, and equals the
enumerator's verdict, witness and count bit for bit.  The 1-D sign
criterion and the classical pair test scan pairs the same way.

For two marginals, cyclic monotonicity is equivalent to the absence of a
positive-gain cycle in the digraph on pairs with edge weight

    w(p -> q) = c(x_q, y_p) - c(x_p, y_p),

which this module detects by Bellman-Ford relaxation on negated weights,
or, for co-ordered scalar pairs (Carlier 2003), by a sort and prefix sums.
Relaxation reduces each round along the contiguous rows of the transposed
gains, and the projections of one size relax together, as the lanes of one
stack of at most PAIR_BLOCK_CELLS cells (at least one lane).
The same scan, seeded at the pairs over a base point, powers the
Rockafellar construction in :mod:`monosplit.antiderivative`: one pass gives
both the chain values and properness, which fails exactly when a positive
cycle exists here.

Every table the construction and its certificate build is one c-transform,
T_h(q) = max_a [c(a, q) - h(a)] over a finite table (:func:`c_transform`),
taken in blocks of at most PAIR_BLOCK_CELLS cells: chain values, discrete
conjugates, the antiderivative check and the certificate's brackets.

All inequality checks use an absolute tolerance (default 1e-9): violations
not exceeding it count as holding.  Verifiers are deterministic; ties in
cycle extraction break toward the lowest pair index.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    CostSpec,
    GammaSet,
    PairwiseCost,
    Point,
    Vec,
    _read_only,
    _rows,
    classical_cost,
    dedup_pairs,
    fields_json,
    marginal_blocks,
    unique_pairs,
)
from .errors import (
    DimensionMismatch,
    InputValidationError,
    NotOneDimensional,
    OrderTooLarge,
)

DEFAULT_TOL = 1e-9
BRUTE_FORCE_BUDGET = 50_000_000
PAIR_BLOCK_CELLS = 1 << 20


def c_transform(cost: PairwiseCost, points: np.ndarray, h: np.ndarray, queries: np.ndarray,
                table_first: bool) -> tuple[np.ndarray, np.ndarray]:
    """The c-transform T_h(q) = max_a [c(points[a], q) - h[a]] at each query row q (with
    c(q, points[a]) when not table_first) and the first a attaining it, -inf and 0 over no
    points; cells are built PAIR_BLOCK_CELLS or one query at a time."""
    vals, arg = np.full(len(queries), -math.inf), np.zeros(len(queries), dtype=np.intp)
    step = max(1, PAIR_BLOCK_CELLS // max(1, len(points)))
    for q0 in range(0, len(queries) if len(points) else 0, step):
        q = queries[q0:q0 + step]
        cells = (cost.matrix(points, q).T if table_first else cost.matrix(q, points)) - h
        k = arg[q0:q0 + step] = cells.argmax(axis=1)
        vals[q0:q0 + step] = cells[np.arange(len(k)), k]
    return vals, arg


@dataclass(frozen=True)
class Witness:
    """A concrete violation of the monotonicity inequality.

    Attributes:
        kind: how the violation was found ("permutation", "pair", "cycle",
            "signs"); the inequality content is identical for all kinds.
        points: the tuples x^1, ..., x^n involved.
        permutations: one permutation per marginal, as 0-based image tuples;
            entry i sends position j to permutations[i][j].
        permuted_sum: sum of costs after applying the permutations.
        diagonal_sum: sum of costs of the tuples as given.
        value: optional kind-specific scalar (inner product for "pair",
            cycle gain for "cycle", sign product for "signs").
    """

    kind: str
    points: tuple[Point, ...]
    permutations: tuple[tuple[int, ...], ...]
    permuted_sum: float
    diagonal_sum: float
    value: float | None = None

    @property
    def gain(self) -> float:
        return self.permuted_sum - self.diagonal_sum

    to_json = fields_json


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Outcome of a monotonicity check.

    Attributes:
        holds: whether every examined inequality held within tolerance.
        witness: a violation when holds is false, else None.
        checked: number of inequality comparisons examined.
        tolerance: the absolute tolerance used.
    """

    holds: bool
    witness: Witness | None
    checked: int
    tolerance: float

    to_json = fields_json


def recheck_witness(witness: Witness, spec: CostSpec) -> tuple[float, float]:
    """Re-evaluate both sides of a witness straight through the cost.

    Independent of every verifier: builds the permuted tuples explicitly and
    sums spec.total.  Returns (permuted_sum, diagonal_sum).
    """
    n = len(witness.points)
    if len(witness.permutations) != spec.n_marginals:
        raise DimensionMismatch("witness permutation count must match marginals")
    permuted = 0.0
    diagonal = 0.0
    for j in range(n):
        mixed = tuple(
            witness.points[witness.permutations[i][j]][i]
            for i in range(spec.n_marginals)
        )
        permuted += spec.total(mixed)
        diagonal += spec.total(witness.points[j])
    return permuted, diagonal


# ---------------------------------------------------------------------------
# Cost matrices and the gain digraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GainScan:
    """Result of scanning the two-marginal gain digraph.

    Attributes:
        longest: best chain gain into each vertex from the pairs in
            source_mask; None for an unseeded scan.
        cycle: vertex indices of a positive cycle, lowest index first, or
            None when every cycle gain is within tolerance.
        cycle_gain: net gain of that cycle (0.0 when cycle is None).
    """

    longest: np.ndarray | None
    cycle: tuple[int, ...] | None
    cycle_gain: float


def _sorted_scan(x: np.ndarray, y: np.ndarray, cost: PairwiseCost, source_mask) -> GainScan | None:
    """scan_gain_digraph's sorted path on (m, d) arrays, or None when it does
    not apply.  The corner bound covers every cost: rounding is monotone."""
    if cost.kind == "bilinear":  # s: the sign of the constant mixed partial, or 0
        s = cost.sign * int(np.sign(cost.coef[0][0])) if np.shape(cost.coef) == (1, 1) else 0
    else:
        s = cost.sign * {"inner_product": 1, "half_sq_dist": -1}.get(cost.kind, 0)
    if s == 0 or x.shape[1] != 1 or y.shape[1] != 1 or not x.size:
        return None
    x, sy = x[:, 0], s * y[:, 0]
    order = np.lexsort((sy, x))
    sy = sy[order]
    if (sy[1:] < sy[:-1]).any():
        return None
    x, y = x[order], y[order, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        corners = cost.paired(x[[0, 0, -1, -1]], y[[0, -1, 0, -1]])
        if not np.isfinite(2.0 * np.abs(corners).max()):
            return None
    if source_mask is None:
        return GainScan(None, None, 0.0)
    src = np.flatnonzero(np.asarray(source_mask, dtype=bool)[order])
    if not src.size or x[src[0]] != x[src[-1]]:
        return None
    lo, hi = src[0], src[-1]
    diag = cost.paired(x, y)
    up = cost.paired(x[hi + 1:], y[hi:-1]) - diag[hi:-1]
    down = cost.paired(x[:lo], y[1:lo + 1]) - diag[1:lo + 1]
    # 0.0 minus the prefix sums is relaxation's 0.0 - g1 - g2 ..., signed zeros too.
    dist = np.zeros(len(x))
    dist[hi + 1:] = 0.0 - np.cumsum(up)
    dist[:lo] = (0.0 - np.cumsum(down[::-1]))[::-1]
    longest = np.empty(len(x))
    longest[order] = -dist
    return GainScan(longest, None, 0.0)


def _gain_lane(xs, ys, cost: PairwiseCost, out: np.ndarray | None = None) -> np.ndarray:
    """The transposed gain digraph of the pairs (xs[k], ys[k]), lane[v, u] =
    c(x_v, y_u) - c(x_u, y_u) with 0.0 on the diagonal, written to out, or
    over the cost matrix when out is None."""
    cm = cost.matrix(xs, ys)  # cm[a, b] = c(x_a, y_b)
    lane = cm if out is None else out
    np.subtract(cm, cm.diagonal().copy(), out=lane)
    if not np.isfinite(lane).all():
        raise InputValidationError("an edge gain is not finite: the costs on the pairs overflow")
    np.fill_diagonal(lane, 0.0)
    return lane


def _gain_stacks(problems: Sequence[tuple]) -> Iterator[tuple[list[int], np.ndarray]]:
    """The gain lanes of (xs, ys, cost, source_mask) problems in (L, m, m)
    stacks of problems with m pairs, as many as fit in PAIR_BLOCK_CELLS
    cells (at least one), each yielded with the indices of its problems once
    full.  Lanes are built in problem order, so the first problem with a
    gain that is not finite, or a point off a tabulated grid, is the one
    refused."""
    left = Counter(len(problem[0]) for problem in problems)
    filling: dict[int, tuple[list[int], np.ndarray | None]] = {}
    for k, (xs, ys, cost, _) in enumerate(problems):
        m = len(xs)
        if m not in filling:
            lanes = min(left[m], max(1, PAIR_BLOCK_CELLS // max(1, m * m)))
            filling[m] = ([], np.empty((lanes, m, m)) if lanes > 1 else None)
        members, stack = filling[m]
        if stack is None:
            stack = _gain_lane(xs, ys, cost)[None]
        else:
            _gain_lane(xs, ys, cost, stack[len(members)])
        members.append(k)
        left[m] -= 1
        if len(members) == len(stack):
            del filling[m]
            yield members, stack
        del stack  # so that no full stack outlives its relaxation


def _relaxation_scan(problems: Sequence[tuple], tol: float) -> list[GainScan]:
    """scan_gain_digraph's dense path for each (xs, ys, cost, source_mask)
    problem, in problem order: m rounds of Bellman-Ford relaxation on
    negated gains.

    The problems relax in the stacks of :func:`_gain_stacks`, whose gains
    are transposed so that each round reduces along the contiguous last
    axis into one candidate buffer a stack.  Lanes never interact, and a
    round leaves a converged lane unchanged, so each lane ends as it would
    alone."""
    scans: list = [None] * len(problems)
    for members, gains_t in _gain_stacks(problems):
        lanes, m = len(members), gains_t.shape[1]
        dist = np.zeros((lanes, m))
        for lane, k in enumerate(members):
            if problems[k][3] is not None:
                dist[lane] = np.where(np.asarray(problems[k][3], dtype=bool), 0.0, np.inf)
        pred = np.full((lanes, m), -1, dtype=np.intp)
        improved = np.zeros((lanes, m), dtype=bool)
        cand = np.empty(gains_t.shape)
        flat, rows = cand.reshape(-1), np.arange(lanes * m).reshape(lanes, m) * m
        tails = dist[:, None, :]  # a view, as dist changes in place
        for _ in range(m):
            np.subtract(tails, gains_t, out=cand)
            arg = cand.argmin(axis=2)
            best = flat[rows + arg]  # the first of tied minima, as pred records
            np.less(best, dist, out=improved)
            if not improved.any():
                break
            np.copyto(pred, arg, where=improved)
            np.copyto(dist, best, where=improved)
        for lane, k in enumerate(members):
            scans[k] = _lane_scan(dist[lane], pred[lane], improved[lane], gains_t[lane], tol,
                                  seeded=problems[k][3] is not None)
        del gains_t, cand, flat  # before the next stack's gains are built
    return scans


def _lane_scan(dist, pred, improved, gains_t, tol: float, seeded: bool) -> GainScan:
    """The GainScan of one relaxed lane: -dist as the chain values when
    seeded, and the first cycle of the predecessor graph, met from the
    vertices the last round improved in ascending order, whose gain exceeds
    tol, rotated to start at its lowest index."""
    longest = -dist if seeded else None
    seen_cycles: set[tuple[int, ...]] = set()
    for v in np.flatnonzero(improved):
        # Follow predecessors until a vertex repeats (a cycle of the
        # predecessor graph) or the chain dead-ends at an initial vertex.
        seen_at: dict[int, int] = {}
        chain: list[int] = []
        u = int(v)
        while u != -1 and u not in seen_at:
            seen_at[u] = len(chain)
            chain.append(u)
            u = int(pred[u])
        if u == -1:
            continue
        cyc = tuple(reversed(chain[seen_at[u]:]))  # forward edge order
        rot = cyc.index(min(cyc))
        cyc = cyc[rot:] + cyc[:rot]
        if cyc in seen_cycles:
            continue
        seen_cycles.add(cyc)
        gain = float(sum(gains_t[cyc[(k + 1) % len(cyc)], cyc[k]] for k in range(len(cyc))))
        if gain > tol:
            return GainScan(longest, cyc, gain)
    return GainScan(longest, None, 0.0)


def scan_gain_digraph(
    xs: Sequence[Vec],
    ys: Sequence[Vec],
    cost: PairwiseCost,
    tol: float = DEFAULT_TOL,
    source_mask: Sequence[bool] | None = None,
) -> GainScan:
    """Longest chain gains and positive-cycle detection in one pass.

    Scalar pairs under a cost with a mixed partial of constant sign s
    (inner_product, half_sq_dist, 1x1 bilinear with coef != 0) that are
    co-ordered (sorted by (x, s*y), s*y nondecreasing) and whose gains cannot
    overflow hold no positive cycle.  For them a seeded scan whose sources
    share one x sums consecutive gains outward from the sources, in
    O(m log m) with no m x m array: relaxation's values bit for bit where
    the arithmetic is exact, within rounding where a tie (equal y) lets
    relaxation keep another walk.  Every other input runs m rounds of
    Bellman-Ford relaxation on negated gains (m = number of pairs), as a
    stack of one lane; check_projection_condition relaxes the projections of
    one size together, as the lanes of one stack, each ending bit for bit as
    it does here.  An improvement in the final round signals a cycle;
    candidate vertices are scanned in ascending index, each extracted cycle
    is rotated to start at its lowest index, and the first one whose
    recomputed gain exceeds tol is reported.  Cycles with gain within tol
    are ignored, so the verdict matches the tolerance convention of the
    verifiers.  A gain that is not finite raises InputValidationError:
    relaxation would stall.
    """
    x, y = _rows(xs), _rows(ys)
    scan = _sorted_scan(x, y, cost, source_mask)
    return scan if scan is not None else _relaxation_scan([(x, y, cost, source_mask)], tol)[0]


def _cycle_verdict(
    xs: np.ndarray, ys: np.ndarray, cost: PairwiseCost, tol: float, scan: GainScan | None = None
) -> MonotonicityVerdict:
    """Cyclic monotonicity of the distinct pairs (xs[k], ys[k]), given as
    (m, d) row arrays; a positive cycle of the gain digraph is the witness.
    scan is the pairs' unseeded scan, run here when not given."""
    m = len(xs)
    if scan is None:
        scan = scan_gain_digraph(xs, ys, cost, tol=tol)
    if scan.cycle is None:
        return MonotonicityVerdict(True, None, checked=m * m, tolerance=tol)
    cyc = scan.cycle
    k = len(cyc)
    points = tuple((tuple(xs[c].tolist()), tuple(ys[c].tolist())) for c in cyc)
    forward = tuple((j + 1) % k for j in range(k))
    identity = tuple(range(k))
    permuted = sum(cost.value(points[(j + 1) % k][0], points[j][1]) for j in range(k))
    diagonal = sum(cost.value(points[j][0], points[j][1]) for j in range(k))
    witness = Witness(
        kind="cycle",
        points=points,
        permutations=(forward, identity),
        permuted_sum=float(permuted),
        diagonal_sum=float(diagonal),
        value=scan.cycle_gain,
    )
    return MonotonicityVerdict(False, witness, checked=m * m, tolerance=tol)


# ---------------------------------------------------------------------------
# Brute-force permutation verifiers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _perm_array(n: int) -> np.ndarray:
    """The permutations of range(n), one a row in lexicographic order;
    read-only, since every caller shares it."""
    return _read_only(np.array(list(itertools.permutations(range(n))), dtype=int))


@lru_cache(maxsize=16)
def _perm_positions(n: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The order-n position slices, read-only and built once per n: pair
    (1, j) meets row k with column perms[p, k], entry k * n + perms[p, k] of
    a multiset's flattened submatrix; and perms[:, k] itself, which places
    the shift values and, against itself, the rows and columns that pair
    (i, j), i > 1, meets.  Each is kept as n contiguous slices, one per k."""
    perms = _perm_array(n)
    return _positions(np.arange(n) * n + perms), _positions(perms)


def _check_gamma_against_spec(g: GammaSet, spec: CostSpec) -> None:
    if g.dims != spec.dims:
        raise DimensionMismatch(f"point set dims {g.dims} do not match cost dims {spec.dims}")


def _full_pair_matrices(g: GammaSet, spec: CostSpec) -> dict[tuple[int, int], np.ndarray]:
    blocks = marginal_blocks(g.coords, g.dims)
    return {(i, j): cost.matrix(blocks[i - 1], blocks[j - 1]) for (i, j), cost in spec.pairs.items()}


def _positions(index: np.ndarray) -> tuple[np.ndarray, ...]:
    """The slices index[..., k] along the trailing axis, each contiguous and read-only."""
    return tuple(_read_only(index[..., k]) for k in range(index.shape[-1]))


def _add_positions(rows: np.ndarray, positions: tuple[np.ndarray, ...], axis: int = 1) -> np.ndarray:
    """rows.take(positions[0], axis) + ... + rows.take(positions[-1], axis),
    added left to right: the sum over a last axis of rows gathered at the
    stacked positions, in the order NumPy sums a short trailing axis,
    without that gather.  NumPy starts from +0.0, so where every term is
    -0.0 its sum is +0.0 and this one -0.0.  Callers add the result to a
    running sum that is never -0.0, which either zero leaves unchanged, so
    their sums are NumPy's bit for bit."""
    total = rows.take(positions[0], axis=axis)
    for cols in positions[1:]:
        total += rows.take(cols, axis=axis)
    return total


def _permuted_sums(idx: np.ndarray, mats: dict, shifts: np.ndarray, positions: tuple) -> np.ndarray:
    """The cost sum of every permutation tuple of each multiset of a (b, n)
    block, as a (b, n!^(N-1)) array whose column 0 is the diagonal: the
    enumerator's dense body.  Axis k + 1 of the unflattened array indexes
    the permutation of marginal k + 2; a pair's term broadcasts along the
    axes of its permuted marginals."""
    fixed_first, by_position = positions
    (b, n), nperm, ndim = idx.shape, len(by_position[0]), len(shifts) - 1
    vals = np.empty((b,) + (nperm,) * ndim)
    vals[...] = shifts[0][idx].sum(axis=-1).reshape((-1,) + (1,) * ndim)
    for (i, j), mat in sorted(mats.items()):
        # Entry [a, c] of a multiset's submatrix holds M_ij[idx[a], idx[c]].
        sub = mat[idx[:, :, None], idx[:, None, :]]
        if i == 1:
            # pair (1, j) plus the shift of marginal j
            term = (_add_positions(sub.reshape(b, n * n), fixed_first)
                    + _add_positions(shifts[j - 1][idx], by_position))
        else:
            # row perms[p, k] against column perms[q, k], added k by k as
            # _add_positions adds, with no n!-by-n! index table
            term = sub[:, by_position[0][:, None], by_position[0]]
            for cols in by_position[1:]:
                term += sub[:, cols[:, None], cols]
        vals += term.reshape((-1,) + tuple(nperm if k + 2 in (i, j) else 1 for k in range(ndim)))
    return vals.reshape(b, -1)


def _bound_clears(
    idx: np.ndarray, mats: dict, shifts: np.ndarray, positions: tuple, tol: float
) -> np.ndarray:
    """Which multisets of a (b, n) block no permutation tuple can violate,
    by the bound of :func:`is_n_c_monotone_bruteforce`: n! cells a pair
    instead of n!^(N-1) a multiset.  Every pair goes in one array with the
    tuple positions or permutations on axis 0, then the pairs, then the
    multisets, so each reduction adds or compares whole rows."""
    fixed_first, by_position = positions
    (b, n), nmarg, m = idx.shape, len(shifts), shifts.shape[1]
    flat = (idx[:, :, None] * m + idx[:, None, :]).reshape(b, n * n).T
    sub = np.stack([mats[k].take(flat) for k in sorted(mats)], axis=1)
    terms = _add_positions(sub, fixed_first, axis=0)
    # Sorted pairs start with (1, 2), ..., (1, N), which add shifts 2..N.
    h = shifts[:, idx.T].transpose(1, 0, 2)
    terms[:, :nmarg - 1] += _add_positions(h[:, 1:], by_position, axis=0)
    total = shifts[0][idx].sum(axis=-1)
    # The diagonal accumulates its pieces in the full sums' order, from S on.
    diag = np.cumsum(np.concatenate((total[None], terms[0])), axis=0)[-1]
    bound = total + terms.max(axis=0).sum(axis=0)
    scale = n * np.abs(sub).max(axis=0).sum(axis=0) + np.abs(h).sum(axis=(0, 1))
    margin = 4 * n * (nmarg + len(mats)) * np.finfo(float).eps * scale
    return (bound + margin <= diag + tol) & np.isfinite(scale + scale)


def is_n_c_monotone_bruteforce(
    g: GammaSet,
    spec: CostSpec,
    n: int,
    tol: float = DEFAULT_TOL,
    budget: float = BRUTE_FORCE_BUDGET,
) -> MonotonicityVerdict:
    """Exhaustive order-n monotonicity check straight from the definition.

    Walks every size-n multiset of points (repetition allowed; a tuple may
    use the same point twice) and every permutation tuple with the first
    marginal fixed to the identity.  Multisets come in blocks of b, drawn
    from the lexicographic stream straight into a (b, n) index array, whose
    cost sums are taken from precomputed pairwise matrices into one array
    with an axis for the multiset and one per marginal 2..N
    (:func:`_permuted_sums`); this caches evaluations but settles every
    comparison.  Every block but the last holds as many multisets as fit
    PAIR_BLOCK_CELLS / 32 cells over the n positions of a term, so an early
    violation costs at most one such block.  Each term adds its n positions
    one by one, the order in which NumPy sums a multiset's term over a short
    axis, so no sum depends on the block size.  A term may come out -0.0
    where NumPy, summing from +0.0, gives +0.0; no sum changes, since the
    running sum starts from a NumPy sum, is never -0.0, and is left as it is
    by either zero.  The first violation in (multiset, permutation)
    lexicographic order becomes the witness.  Any number of marginals is
    supported.

    When a multiset has more permutation tuples than n! times the number P
    of pairs (N >= 3 and n >= 3, or n = 2 and N >= 6), a cheap bound (:func:`_bound_clears`)
    first clears the multisets of each block that cannot violate, and only
    the others are summed in full, in order; so verdict, witness, sums and
    checked are those of the full sums, while the work is not.  For a
    multiset a_0 <= ... <= a_{n-1}, pair (1, j) adds T_1j[s] = sum_k
    M_1j[a_k, a_s(k)] plus shift j over the tuple, and pair (i, j), i > 1,
    adds sum_k M_ij[a_s(k), a_t(k)], which in exact arithmetic is
    D_ij[t s^-1] with D_ij[p] = sum_k M_ij[a_k, a_p(k)].  So in exact
    arithmetic no cell exceeds U = S + sum max T_1j + sum max D_ij, S the
    shift-1 sum: n! cells a pair instead of n!^(N-1) a multiset.  The
    diagonal comes out bit for bit as the full sums' first cell, from the
    same pieces added in the same order.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 3-4; u = eps / 2, gamma_k = k u / (1 - k u)).  A cell adds K =
    n (N + P) floats (n matrix entries a pair, n shift values a marginal)
    in some order, whose magnitudes sum to at most W = n sum_pairs
    max|submatrix| + the sum of |shift values| over the tuple; so the float
    cell lies within gamma_K W of its exact sum.  The float T, D and S lie
    within gamma_K W of their exact sums (together), and U's float sum
    within gamma_K (1 + gamma_K) W of the exact sum of its float pieces.
    So every float cell is at most U + (3 gamma_K + gamma_K^2) W, which
    is below U + 4 K eps W.  Rounding is monotone, so fl(U + 4 K eps W) <=
    fl(diagonal + tol) means no cell exceeds fl(diagonal + tol), the full
    sums' test, and the multiset is cleared.  A multiset whose 2W is not
    finite (NaN, infinities, or partial sums that could overflow) is never
    cleared.  The bound's blocks take PAIR_BLOCK_CELLS / 32 cells over the
    n positions of its n!-cell terms; the multisets it leaves go through
    the full sums in blocks of at most the full sums' size.

    Raises OrderTooLarge when n > 7, or when multisets * permutation tuples
    would exceed the budget.
    """
    return next(_bruteforce_verdicts(g, spec, (n,), tol, budget))


def _bruteforce_verdicts(
    g: GammaSet,
    spec: CostSpec,
    orders: Iterable[int],
    tol: float = DEFAULT_TOL,
    budget: float = BRUTE_FORCE_BUDGET,
) -> Iterator[MonotonicityVerdict]:
    """:func:`is_n_c_monotone_bruteforce` at each of orders in turn, raising
    what it raises when an order is reached.  The set is checked against the
    cost once, and its pair matrices and shift values are built once, at the
    first order that passes the guards."""
    _check_gamma_against_spec(g, spec)
    tables = None
    for n in orders:
        if n < 1:
            raise InputValidationError("order n must be at least 1")
        if n > 7:
            raise OrderTooLarge(f"order {n} is beyond the factorial guard of 7")
        n_multisets = math.comb(g.size + n - 1, n)
        per_multiset = math.factorial(n) ** (g.n_marginals - 1)
        if n_multisets * per_multiset > budget:
            raise OrderTooLarge(
                f"{n_multisets} multisets x {per_multiset} permutation tuples "
                f"exceeds the budget of {budget}"
            )
        if tables is None:
            blocks = marginal_blocks(g.coords, g.dims)
            shifts = np.array([spec.shift_values(i, x) for i, x in enumerate(blocks, start=1)])
            tables = _full_pair_matrices(g, spec), shifts
        yield _order_verdict(g, n, *tables, tol)


def _order_verdict(g: GammaSet, n: int, mats: dict, shifts: np.ndarray,
                   tol: float) -> MonotonicityVerdict:
    """The order-n walk of :func:`is_n_c_monotone_bruteforce` over the
    pair matrices and shift values of g."""
    nmarg = g.n_marginals
    per_multiset = math.factorial(n) ** (nmarg - 1)
    perms, positions = _perm_array(n), _perm_positions(n)
    # A term has per_multiset cells a multiset, added up from n takes of that
    # size; capping the n of them at PAIR_BLOCK_CELLS / 32 cells a block keeps
    # each of a block's arrays within a quarter megabyte.  The bound's terms
    # have n! cells a multiset.  Every block but the last is full, so an
    # early violation costs at most one block.
    dense_cap = max(1, PAIR_BLOCK_CELLS // (32 * per_multiset * n))
    bounded = per_multiset > len(perms) * len(mats)
    cap = max(1, PAIR_BLOCK_CELLS // (32 * len(perms) * n)) if bounded else dense_cap
    # The multisets' indices as one flat stream, n to a multiset.
    stream = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(g.size), n))
    done = 0
    while len(idx := np.fromiter(itertools.islice(stream, cap * n), int).reshape(-1, n)):
        if bounded:
            rows = np.flatnonzero(~_bound_clears(idx, mats, shifts, positions, tol))
        else:
            rows = np.arange(len(idx))
        for start in range(0, len(rows), dense_cap):
            part = rows[start:start + dense_cap]
            flat = _permuted_sums(idx[part], mats, shifts, positions)
            viol = flat > flat[:, :1] + tol
            hit = viol.any(axis=1)
            t = int(hit.argmax())
            if not hit[t]:
                continue
            first = int(viol[t].argmax())
            sigmas = (tuple(range(n)),) + tuple(
                tuple(int(v) for v in perms[pi])
                for pi in np.unravel_index(first, (len(perms),) * (nmarg - 1))
            )
            k = int(part[t])
            witness = Witness(
                kind="permutation",
                points=tuple(g.points[a] for a in idx[k].tolist()),
                permutations=sigmas,
                permuted_sum=float(flat[t, first]),
                diagonal_sum=float(flat[t, 0]),
            )
            return MonotonicityVerdict(False, witness, (done + k + 1) * per_multiset, tol)
        done += len(idx)
    return MonotonicityVerdict(True, None, done * per_multiset, tol)


def _scan_pairs(m: int, slabs: int, strict: bool, hit: Callable) -> tuple:
    """First pair a <= b (a < b when strict) of range(m) in row-major order
    where hit(rows, cols) is true, and the number of pairs scanned through
    it; (None, all pairs) when there is none.  hit gets slices, a block of
    rows and the columns from its first row on, and returns a boolean array
    of that shape; it holds about `slabs` such arrays, whose cells a block
    keeps near PAIR_BLOCK_CELLS."""
    k = m - int(strict)  # a < b over range(m) is a <= b - 1 over range(m - 1)
    step = max(1, PAIR_BLOCK_CELLS // (slabs * m))
    for r0 in range(0, m, step):
        rows = min(step, m - r0)
        upper = np.less_equal.outer(np.arange(strict, rows + strict), np.arange(m - r0))
        found = hit(slice(r0, r0 + rows), slice(r0, m)) & upper
        first = int(found.argmax())
        if found.flat[first]:
            a, b = divmod(first, m - r0)
            a, b = r0 + a, r0 + b
            return (a, b), a * k - a * (a - 1) // 2 + (b - int(strict) - a) + 1
    return None, k * (k + 1) // 2


def is_c_monotone(g: GammaSet, spec: CostSpec, tol: float = DEFAULT_TOL) -> MonotonicityVerdict:
    """2-c-monotonicity: no coordinate swap between two points pays off.

    Order 2 of :func:`is_n_c_monotone_bruteforce` with no budget, by swap
    masks: its permutation tuples are the 2^(N-1) sets of marginals 2..N to
    swap between points a <= b.  Pair (i, j) adds M_ij[a,a] + M_ij[b,b] when
    i and j are both swapped or both fixed, M_ij[a,b] + M_ij[b,a] otherwise.
    Sums add in the enumerator's order (h_1(a) + h_1(b), then the pairs
    sorted, h_j(a) + h_j(b) joining pair (1, j)), so verdict, witness, sums
    and count equal the enumerator's bit for bit.
    """
    _check_gamma_against_spec(g, spec)
    blocks = marginal_blocks(g.coords, g.dims)
    pairs = sorted(spec.pairs.items())
    diags = [cost.paired(blocks[i - 1], blocks[j - 1]) for (i, j), cost in pairs]
    shifts = [spec.shift_values(i, x) for i, x in enumerate(blocks, start=1)]
    # Entry i of a mask: whether marginal i + 1 moves; marginal 1 never does.
    masks = [(False, *s) for s in itertools.product((False, True), repeat=g.n_marginals - 1)]

    def swap_sums(rows: slice, cols: slice) -> np.ndarray:
        h = [v[rows, None] + v[None, cols] for v in shifts]
        same = [d[rows, None] + d[None, cols] for d in diags]
        cross = []
        for (i, j), cost in pairs:
            # M_ij[rows, cols] and M_ij[cols, rows], evaluated for this block
            # only, entry by entry as in the full matrix; one block of all
            # rows needs the one matrix.
            mat = cost.matrix(blocks[i - 1][rows], blocks[j - 1][cols])
            back = mat if rows == cols else cost.matrix(blocks[i - 1][cols], blocks[j - 1][rows])
            cross.append(mat + back.T)
        out = np.empty((len(masks),) + h[0].shape)
        for s, mask in enumerate(masks):
            vals = h[0]
            for k, ((i, j), _) in enumerate(pairs):
                term = same[k] if mask[i - 1] == mask[j - 1] else cross[k]
                vals = vals + (term + h[j - 1] if i == 1 else term)
            out[s] = vals
        return out

    def violated(rows: slice, cols: slice) -> np.ndarray:
        vals = swap_sums(rows, cols)
        return (vals > vals[0] + tol).any(axis=0)

    slabs = len(shifts) + 2 * len(pairs) + 2 * len(masks)
    pair, n_pairs = _scan_pairs(g.size, slabs, False, violated)
    checked = n_pairs * len(masks)
    if pair is None:
        return MonotonicityVerdict(True, None, checked, tol)
    a, b = pair
    vals = swap_sums(slice(a, a + 1), slice(b, b + 1))[:, 0, 0]
    s = int(np.flatnonzero(vals > vals[0] + tol)[0])
    witness = Witness(
        kind="permutation",
        points=(g.points[a], g.points[b]),
        permutations=tuple((1, 0) if moved else (0, 1) for moved in masks[s]),
        permuted_sum=float(vals[s]),
        diagonal_sum=float(vals[0]),
    )
    return MonotonicityVerdict(False, witness, checked, tol)


def is_pair_monotone_classical(
    pairs: Sequence[tuple],
    tol: float = 1e-12,
) -> MonotonicityVerdict:
    """Monotone relation in the classical sense: <x - x', y - y'> >= -tol.

    The failing inner product is stored as the witness value; swapping the
    second coordinates of the two pairs realises it as a cost violation for
    the inner-product coupling.  Pairs are scanned in (a, b) order, a < b,
    the inner product summed coordinate by coordinate from the left.
    """
    x, y = dedup_pairs(pairs)
    if x.shape != y.shape:
        raise DimensionMismatch(f"x of dimension {x.shape[1]} paired with y of {y.shape[1]}")
    return _classical_verdict(x, y, tol)


def _classical_verdict(x: np.ndarray, y: np.ndarray, tol: float) -> MonotonicityVerdict:
    """is_pair_monotone_classical on the distinct pairs (x[k], y[k]), given
    as (m, d) row arrays of one width."""

    def negative(rows: slice, cols: slice) -> np.ndarray:
        v = 0.0
        for xs, ys in zip(x.T, y.T):
            v = v + (xs[rows, None] - xs[None, cols]) * (ys[rows, None] - ys[None, cols])
        return v < -tol

    pair, checked = _scan_pairs(len(x), 4, True, negative)
    if pair is None:
        return MonotonicityVerdict(True, None, checked, tol)
    (xa, ya), (xb, yb) = ((tuple(x[k].tolist()), tuple(y[k].tolist())) for k in pair)
    inner = PairwiseCost.inner_product()
    witness = Witness(
        kind="pair",
        points=((xa, ya), (xb, yb)),
        permutations=((0, 1), (1, 0)),
        permuted_sum=inner.value(xa, yb) + inner.value(xb, ya),
        diagonal_sum=inner.value(xa, ya) + inner.value(xb, yb),
        value=sum((p - q) * (r - s) for p, q, r, s in zip(xa, xb, ya, yb)),
    )
    return MonotonicityVerdict(False, witness, checked, tol)


def sign_criterion_1d(g: GammaSet, tol: float = DEFAULT_TOL) -> MonotonicityVerdict:
    """Difference-sign test for scalar marginals.

    Holds when for every two points of g the coordinatewise differences all
    share one sign (entries within tol of zero count as both).  Equivalent
    to c-monotonicity for the classical costs; a mixed-sign pair yields an
    explicit violation by swapping the negative-difference coordinates.
    Pairs are scanned in (a, b) order, a < b; the positive and negative
    differences are each summed from the left, and their product is the
    witness value.
    """
    if any(d != 1 for d in g.dims):
        raise NotOneDimensional("the sign criterion needs scalar marginals")
    x = g.coords

    def mixed(rows: slice, cols: slice) -> np.ndarray:
        # Sums run from the left like the witness's Python sums, so signs agree.
        t = x[rows, None, :] - x[None, cols, :]
        pos = np.where(t > tol, t, 0.0).cumsum(axis=-1)[..., -1]
        neg = np.where(t < -tol, t, 0.0).cumsum(axis=-1)[..., -1]
        return (pos > 0.0) & (neg < 0.0)

    pair, checked = _scan_pairs(g.size, 4 * g.n_marginals, True, mixed)
    if pair is None:
        return MonotonicityVerdict(True, None, checked, tol)
    p, q = g.points[pair[0]], g.points[pair[1]]
    t = [p[i][0] - q[i][0] for i in range(g.n_marginals)]
    pos = sum(v for v in t if v > tol)
    neg = sum(v for v in t if v < -tol)
    moved = [v < -tol for v in t]
    mix_pq = tuple(qi if s else pi for pi, qi, s in zip(p, q, moved))
    mix_qp = tuple(pi if s else qi for pi, qi, s in zip(p, q, moved))
    spec = classical_cost("c1", g.n_marginals, 1)
    witness = Witness(
        kind="signs",
        points=(p, q),
        permutations=tuple((1, 0) if s else (0, 1) for s in moved),
        permuted_sum=spec.total(mix_pq) + spec.total(mix_qp),
        diagonal_sum=spec.total(p) + spec.total(q),
        value=pos * neg,
    )
    return MonotonicityVerdict(False, witness, checked, tol)


# ---------------------------------------------------------------------------
# Projection condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionReport:
    """Cyclic-monotonicity verdicts for every pair projection of a set.

    The condition is sufficient for full c-cyclic monotonicity, and not
    necessary: a set can be monotone while some projection is not.
    """

    verdicts: dict[tuple[int, int], MonotonicityVerdict]
    all_hold: bool

    def to_json(self) -> dict:
        return {
            "pairs": {f"{i},{j}": v for (i, j), v in sorted(self.verdicts.items())},
            "all_hold": self.all_hold,
        }


def check_projection_condition(
    g: GammaSet,
    spec: CostSpec,
    tol: float = DEFAULT_TOL,
) -> ProjectionReport:
    """Check every pair projection of g for c_ij-cyclic monotonicity.

    Each projection is read from g.coords as the distinct (x_i, x_j) rows in
    first-seen order (:func:`unique_pairs`).  Its verdict is cyclic
    monotonicity, n-c-monotonicity for every n at once: it holds unless the
    scan finds a positive cycle of the gain digraph, the witness.  Each
    projection tries the sorted path of :func:`scan_gain_digraph`; all the
    others relax in one :func:`_relaxation_scan`, those of one size together.
    """
    _check_gamma_against_spec(g, spec)
    blocks = marginal_blocks(g.coords, g.dims)
    pairs = sorted(spec.pairs.items())
    projections = [(*unique_pairs(blocks[i - 1], blocks[j - 1]), cost) for (i, j), cost in pairs]
    scans = [_sorted_scan(x, y, cost, None) for x, y, cost in projections]
    dense = [k for k, scan in enumerate(scans) if scan is None]
    if dense:
        relaxed = _relaxation_scan([(*projections[k], None) for k in dense], tol)
        for k, scan in zip(dense, relaxed):
            scans[k] = scan
    verdicts = {
        ij: _cycle_verdict(*projection, tol, scan)
        for (ij, _), projection, scan in zip(pairs, projections, scans)
    }
    return ProjectionReport(verdicts, all(v.holds for v in verdicts.values()))
