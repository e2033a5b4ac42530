"""The blocked row reduction against the dense formulas it replaced.

Chain tabulation, conjugation, the antiderivative check and the pair
brackets reduce row term + c(x, y) - column term in row blocks of at most
``monotone.PAIR_BLOCK_CELLS`` cells.  Each is run here at caps 1, 40 and
the default against its one-matrix reference in ``tests/helpers.py``, on
1-D and 2-D points with -0.0 coordinates and +inf table values: tables and
brackets must agree bit for bit, the antiderivative check in its verdict
and the value of its worst residual.
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
    dense_chain_potential,
    dense_pair_brackets,
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
from monosplit.splitting import SplittingTuple, _pair_brackets

CAPS = (1, 40, monotone.PAIR_BLOCK_CELLS)
# Zeros of both signs half the time, so that rows often tie at +-0.0, where
# the first cell and np.max or np.min (which keep the last) differ in sign.
ZEROS = st.sampled_from((-0.0, 0.0))
COORDS = st.one_of(ZEROS, st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 3.0)))
VALUES = st.one_of(ZEROS, st.sampled_from((-1.5, 0.25, 2.0, math.inf)))


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


@given(_dims(lambda d: st.tuples(
    _points(d, min_size=1), _points(d), _costs(d), st.booleans(), st.data())))
def test_chain_values_match_the_dense_formula_at_every_cap(case):
    xs, extra, cost, identity, data = case
    if identity:  # y = x, with each zero's sign drawn anew
        ys = xs.copy()
        flips = data.draw(st.lists(st.booleans(), min_size=xs.size, max_size=xs.size))
        ys[(ys == 0) & np.reshape(flips, ys.shape)] *= -1.0
    else:  # comonotone along each axis
        ys = data.draw(_points(xs.shape[1], min_size=len(xs), max_size=len(xs)))
        xs, ys = np.sort(xs, axis=0), np.sort(ys, axis=0)
    xs, ys = unique_pairs(xs, ys)
    grid = np.concatenate([xs, extra])

    def run():
        return _chain_potential(cost, xs, ys, xs[0], grid, 1e-9)

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


@given(_dims(lambda d: st.tuples(_table(d), _points(d, min_size=1), _costs(d), st.data())))
def test_antiderivative_check_matches_the_dense_formula_at_every_cap(case):
    f, x2, cost, data = case
    # First coordinates mostly from f's table, so that the probes are reached.
    picks = data.draw(st.lists(st.integers(-1, len(f.points) - 1),
                               min_size=len(x2), max_size=len(x2)))
    x1 = np.array([f.points[k] if k >= 0 else -x2[i] for i, k in enumerate(picks)])
    want = dense_antiderivative_check(f, x1, x2, cost, 1e-9)
    for got in _at_every_cap(lambda: _antiderivative_check(f, x1, x2, cost, 1e-9)):
        assert got.holds == want.holds
        assert got.max_residual == want.max_residual


@given(_dims(lambda d: st.tuples(_table(d), _table(d), _costs(d),
                                 st.sampled_from((1e-9, 0.5, 4.0)))))
def test_pair_brackets_match_the_dense_formula_at_every_cap(case):
    f, fc, cost, tol = case
    d = f.points.shape[1]
    spec = CostSpec((d, d), {(1, 2): cost})
    tup = SplittingTuple((f, fc), {(1, 2): f}, {(1, 2): fc})
    want = dense_pair_brackets(tup, spec, (1, 2), tol)
    for got in _at_every_cap(lambda: _pair_brackets(tup, spec, (1, 2), tol)):
        assert (got.pair, got.cells, got.contacts) == (want.pair, want.cells, want.contacts)
        assert _bits(got.lowest_bracket) == _bits(want.lowest_bracket)
        assert repr(got.lowest_at) == repr(want.lowest_at)  # signed zeros too


def test_signed_zero_ties_keep_the_first_cell():
    # c = -(x * y) is -0.0 at y = 0.0, so c - f is -0.0 - 0.0 = -0.0 at
    # x = 0.5, then -0.0 - -0.0 = 0.0 at x = -1.0: the first cell is the
    # maximum, where np.max would keep the last.
    f = Potential([[0.5], [-1.0]], [0.0, -0.0])
    for got in _at_every_cap(lambda: c_conjugate(f, PairwiseCost.inner_product(-1), [[0.0]])):
        assert _bits(got.values) == _bits([-0.0])
    # The brackets f + fc - x * y of x = 0.5 are (-0.0 + 0.5) - 0.5 = 0.0 at
    # y = 1.0, then (-0.0 + -0.0) - 0.0 = -0.0 at y = 0.0: the first is the
    # lowest, where np.min would keep the last.
    f, fc = Potential([[0.5]], [-0.0]), Potential([[1.0], [0.0]], [0.5, -0.0])
    spec = CostSpec((1, 1), {(1, 2): PairwiseCost.inner_product()})
    tup = SplittingTuple((f, fc), {(1, 2): f}, {(1, 2): fc})
    for got in _at_every_cap(lambda: _pair_brackets(tup, spec, (1, 2), 1e-9)):
        assert _bits(got.lowest_bracket) == _bits(0.0)
        assert got.lowest_at == ((0.5,), (1.0,))
        assert got.contacts == 2
