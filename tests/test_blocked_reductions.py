"""The blocked c-transform and its four uses against the dense formulas.

``monotone.c_transform`` computes T_h(q) = max_a [c(a, q) - h(a)] over a
table in blocks of at most ``monotone.PAIR_BLOCK_CELLS`` cells.  It is run
here at caps 1, 40 and the default against its one-matrix reference in
``tests/helpers.py``, in both orientations, with -0.0 and +inf in h, and so
are chain tabulation, conjugation, the antiderivative check and the pair
brackets, each one transform: tables and brackets must agree bit for bit,
the antiderivative check in its verdict and the value of its worst residual.

Before the transform, the same four reduced row term + c(x, y) - column term
cell by cell.  The transform adds the same terms in another order, so chain
values, antiderivative residuals and lowest brackets move in the last bits;
each is checked against that earlier formula within ``rounding_bound``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dense_antiderivative_check,
    dense_c_conjugate,
    dense_c_transform,
    dense_chain_potential,
    dense_pair_brackets,
    find_rows,
    pair_matrix,
    rounding_bound,
)
from monosplit import monotone
from monosplit.antiderivative import (
    Potential,
    _antiderivative_check,
    _chain_potential,
    c_conjugate,
)
from monosplit.core import CostSpec, PairwiseCost, dedup_vecs, unique_pairs
from monosplit.errors import NotCyclicallyMonotone
from monosplit.monotone import c_transform, scan_gain_digraph
from monosplit.splitting import SplittingTuple, _pair_brackets

CAPS = (1, 40, monotone.PAIR_BLOCK_CELLS)
# Zeros of both signs half the time, so that rows often tie at +-0.0, where
# the first cell and np.max or np.min (which keep the last) differ in sign.
ZEROS = st.sampled_from((-0.0, 0.0))
# Some values are not dyadic, so that the earlier formulas round differently.
COORDS = st.one_of(ZEROS, st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 3.0, 0.1, -1 / 3, 2.7)))
VALUES = st.one_of(ZEROS, st.sampled_from((-1.5, 0.25, 2.0, math.inf, 0.3, -2 / 3)))


def _costs(d):
    """The inner product, half_sq_dist of both signs and small bilinear
    couplings of both signs, some coefficients -0.0."""
    mats = st.lists(st.lists(st.sampled_from((-1.0, -0.0, 0.5, 2.0)), min_size=d, max_size=d),
                    min_size=d, max_size=d)
    return st.one_of(
        st.just(PairwiseCost.inner_product()),
        st.just(PairwiseCost.half_sq_dist(-1)),
        st.just(PairwiseCost.half_sq_dist()),
        mats.map(PairwiseCost.bilinear),
        mats.map(lambda a: PairwiseCost.bilinear(a, -1)),
    )


@st.composite
def _points(draw, d, min_size=0, max_size=9):
    rows = draw(st.lists(st.tuples(*[COORDS] * d), min_size=min_size, max_size=max_size))
    return np.array(rows, dtype=float).reshape(-1, d)


@st.composite
def _table(draw, d, finite=False):
    """A potential on distinct points, some values +inf (one finite at least
    when asked)."""
    pts = dedup_vecs(draw(_points(d, min_size=1)))
    vals = draw(st.lists(VALUES, min_size=len(pts), max_size=len(pts)))
    if finite and all(v == math.inf for v in vals):
        vals[draw(st.integers(0, len(vals) - 1))] = 0.5
    return Potential(pts, vals)


@st.composite
def _chain_case(draw, d):
    """A cost, distinct pairs (xs, ys) and a grid of their xs and more,
    which the chain body takes once deduped (dedup_vecs), as assembly's
    grids are."""
    xs, extra, cost = draw(_points(d, min_size=1)), draw(_points(d)), draw(_costs(d))
    if draw(st.booleans()):  # y = x, with each zero's sign drawn anew
        ys = xs.copy()
        flips = draw(st.lists(st.booleans(), min_size=xs.size, max_size=xs.size))
        ys[(ys == 0) & np.reshape(flips, ys.shape)] *= -1.0
    else:  # comonotone along each axis
        ys = draw(_points(d, min_size=len(xs), max_size=len(xs)))
        xs, ys = np.sort(xs, axis=0), np.sort(ys, axis=0)
    xs, ys = unique_pairs(xs, ys)
    return cost, xs, ys, np.concatenate([xs, extra])


@st.composite
def _antiderivative_case(draw, d):
    """A table f, pairs (x1, x2) whose first coordinates are mostly from f's
    table, so that the probes are reached, and a cost."""
    f, x2, cost = draw(_table(d)), draw(_points(d, min_size=1)), draw(_costs(d))
    picks = draw(st.lists(st.integers(-1, len(f.points) - 1), min_size=len(x2), max_size=len(x2)))
    x1 = np.array([f.points[k] if k >= 0 else -x2[i] for i, k in enumerate(picks)])
    return f, x1, x2, cost


def _bracket_case(d):
    return st.tuples(_table(d), _table(d), _costs(d)).map(lambda c: (
        SplittingTuple((c[0], c[1]), {(1, 2): c[0]}, {(1, 2): c[1]}),
        CostSpec((d, d), {(1, 2): c[2]})))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _at_every_cap(run):
    """run() at each cap, with PAIR_BLOCK_CELLS patched for its duration."""
    out = []
    for cap in CAPS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monotone, "PAIR_BLOCK_CELLS", cap)
            out.append(run())
    return out


def _dims(build):
    """Cases in 1-D and 2-D: build(d) gives the strategy for dimension d."""
    return st.sampled_from((1, 2)).flatmap(build)


def _row_bound(bounds, axis):
    """The largest bound of each row's finite cells: a max or min over cells
    moves by at most its largest cell's move, and a cell that is infinite
    under one formula is the same infinity under the other."""
    return np.where(np.isfinite(bounds), bounds, 0.0).max(axis=axis, initial=0.0)


def _within(old, new, bound) -> bool:
    with np.errstate(invalid="ignore"):  # inf - inf, where old == new decides
        return bool(np.all((old == new) | (np.abs(old - new) <= bound)))


@given(_dims(lambda d: st.tuples(_points(d), _points(d), _costs(d), st.booleans(), st.data())))
def test_c_transform_matches_the_dense_reference_at_every_cap(case):
    points, queries, cost, table_first, data = case
    h = np.array(data.draw(st.lists(VALUES, min_size=len(points), max_size=len(points))))
    want, first = dense_c_transform(cost, points, h, queries, table_first)
    for vals, arg in _at_every_cap(lambda: c_transform(cost, points, h, queries, table_first)):
        assert _bits(vals) == _bits(want)
        assert arg.tolist() == first.tolist()
    if len(points):  # the first row of each tie is kept, zeros of either sign tying
        cm = (pair_matrix(cost, points, queries) if table_first
              else pair_matrix(cost, queries, points).T)
        ties = (cm - h[:, None]) == want
        assert first.tolist() == ties.argmax(axis=0).tolist()


@given(_dims(_chain_case))
def test_chain_values_match_the_dense_formula_at_every_cap(case):
    cost, xs, ys, grid = case

    def run():
        return _chain_potential(cost, xs, ys, xs[0], dedup_vecs(grid), 1e-9)

    try:
        want = dense_chain_potential(cost, xs, ys, xs[0], grid, 1e-9)
    except NotCyclicallyMonotone:  # the scan refuses before any reduction
        with pytest.raises(NotCyclicallyMonotone):
            run()
        return
    for got in _at_every_cap(run):
        assert _bits(got.points) == _bits(want.points)
        assert _bits(got.values) == _bits(want.values)


@given(_dims(lambda d: st.tuples(_table(d, finite=True), _points(d, min_size=1), _costs(d))))
def test_conjugate_values_match_the_dense_formula_at_every_cap(case):
    f, queries, cost = case
    want = dense_c_conjugate(f, cost, queries)
    for got in _at_every_cap(lambda: c_conjugate(f, cost, queries)):
        assert _bits(got.points) == _bits(want.points)
        assert _bits(got.values) == _bits(want.values)


@given(_dims(_antiderivative_case))
def test_antiderivative_check_matches_the_dense_formula_at_every_cap(case):
    f, x1, x2, cost = case
    want = dense_antiderivative_check(f, x1, x2, cost, 1e-9)
    for got in _at_every_cap(lambda: _antiderivative_check(f, x1, x2, cost, 1e-9)):
        assert got.holds == want.holds
        assert got.max_residual == want.max_residual


@given(_dims(_bracket_case))
def test_pair_brackets_match_the_dense_formula_at_every_cap(case):
    tup, spec = case
    want = dense_pair_brackets(tup, spec, (1, 2))
    for got in _at_every_cap(lambda: _pair_brackets(tup, spec, (1, 2))):
        assert (got.pair, got.cells) == (want.pair, want.cells)
        assert _bits(got.lowest_bracket) == _bits(want.lowest_bracket)
        assert repr(got.lowest_at) == repr(want.lowest_at)  # signed zeros too


@given(_dims(_chain_case))
def test_chain_values_move_within_the_rounding_bound(case):
    cost, xs, ys, grid = case
    source = find_rows(xs[:1], xs) == 0
    scan = scan_gain_digraph(xs, ys, cost, tol=1e-9, source_mask=source)
    if scan.cycle is not None:
        return
    got = _chain_potential(cost, xs, ys, xs[0], dedup_vecs(grid), 1e-9)
    cm, diag, longest = pair_matrix(cost, got.points, ys), cost.paired(xs, ys), scan.longest
    at_base = find_rows(xs[:1], got.points) == 0
    old = np.where(at_base, 0.0, ((longest + cm) - diag).max(axis=1))
    assert _within(old, got.values, _row_bound(rounding_bound(longest, cm, diag), axis=1))


@given(_dims(_antiderivative_case))
def test_antiderivative_residuals_move_within_the_rounding_bound(case):
    f, x1, x2, cost = case
    fx, probes = f.values_at(x1), f.values != math.inf
    if (fx == math.inf).any() or not probes.any():
        return
    cm, fa = pair_matrix(cost, f.points[probes], x2), f.values[probes, None]
    diag = cost.paired(x1, x2)
    old = (((fx + cm) - fa) - diag).max(axis=0)
    fc, _ = dense_c_transform(cost, f.points[probes], f.values[probes], x2, True)
    bound = _row_bound(rounding_bound(fx, cm, fa, diag), axis=0)
    assert _within(old, (fx + fc) - diag, bound)
    got = _antiderivative_check(f, x1, x2, cost, 1e-9)
    assert _within(old.max(), got.max_residual, bound.max())


@given(_dims(_bracket_case))
def test_lowest_brackets_move_within_the_rounding_bound(case):
    tup, spec = case
    f, fc = tup.pair_potentials[(1, 2)], tup.pair_conjugates[(1, 2)]
    rows = f.values != math.inf
    fx, cm = f.values[rows, None], pair_matrix(spec.pair_cost(1, 2), f.points[rows], fc.points)
    old = (fx + fc.values) - cm
    bound = rounding_bound(fx, fc.values, cm)
    got = _pair_brackets(tup, spec, (1, 2))
    assert _within(old.min(initial=math.inf), got.lowest_bracket, _row_bound(bound, axis=None))


def test_rounding_bound_covers_two_orders_that_differ():
    # (1 + u) - 1 is 0.0 and 1 + (u - 1) is u, u = eps / 2.
    u = np.finfo(float).eps / 2
    gap = abs(((1.0 + u) - 1.0) - (1.0 + (u - 1.0)))
    assert 0.0 < gap <= rounding_bound(1.0, u, -1.0) < 16 * gap


def test_signed_zero_ties_keep_the_first_cell():
    # c = -(x * y) is -0.0 at y = 0.0, so c - f is -0.0 - 0.0 = -0.0 at
    # x = 0.5, then -0.0 - -0.0 = 0.0 at x = -1.0: the first cell is the
    # maximum, where np.max would keep the last.
    f = Potential([[0.5], [-1.0]], [0.0, -0.0])
    for got in _at_every_cap(lambda: c_conjugate(f, PairwiseCost.inner_product(-1), [[0.0]])):
        assert _bits(got.values) == _bits([-0.0])
    # A bracket row is f(x) - f^cc(x), so its bits come from the transform
    # c(x, y) - f^c(y) over f^c's table, not from (f(x) + f^c(y)) - c(x, y).
    # With c = -(x * y), at x = 0.5 that is -0.5 - 1.0 at y = 1.0, then
    # -0.0 - 0.0 = -0.0, then 0.5 - 0.5 = 0.0: the first maximum is f^cc,
    # where np.max would keep the last, and the row is -0.0 - -0.0 = 0.0
    # where the last would give -0.0 - 0.0 = -0.0.  At x = -1.0 the first
    # maximum is 1.0 - 1.0 = 0.0 at y = 1.0, and the row is -0.0 - 0.0 =
    # -0.0: it ties the first row, which is kept, where np.min would keep
    # the last.
    f = Potential([[0.5], [-1.0]], [-0.0, -0.0])
    fc = Potential([[1.0], [0.0], [-1.0]], [1.0, 0.0, 0.5])
    spec = CostSpec((1, 1), {(1, 2): PairwiseCost.inner_product(-1)})
    tup = SplittingTuple((f, fc), {(1, 2): f}, {(1, 2): fc})
    for got in _at_every_cap(lambda: _pair_brackets(tup, spec, (1, 2))):
        assert _bits(got.lowest_bracket) == _bits(0.0)
        assert got.lowest_at == ((0.5,), (0.0,))
