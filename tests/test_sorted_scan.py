"""The sorted scan of co-ordered scalar projections against relaxation.

``monotone._relaxation_scan`` is the dense Bellman-Ford scan that
``scan_gain_digraph`` falls back to; here it is the reference, run on one
problem at a time.  On grid data at scales 10^0 .. 10^9 every cost and gain
is exact, so both scans must agree bit for bit.  On general floats they may end on different walks
of equal exact value, and the tests bound that difference by rounding.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    bruteforce_cycle_gain,
    chain_enumeration_oracle,
    gamma_1d,
    is_two_marginal_cyclically_monotone,
)
from monosplit import monotone
from monosplit.cli import main
from monosplit.core import CostSpec, PairwiseCost, classical_cost
from monosplit.errors import InputValidationError
from monosplit.monotone import (
    DEFAULT_TOL,
    check_projection_condition,
    scan_gain_digraph,
)
from monosplit.quadratic import commuting_spd_gamma, random_commuting_spds

SCALAR_COSTS = [
    PairwiseCost.inner_product(1),
    PairwiseCost.inner_product(-1),
    PairwiseCost.half_sq_dist(1),
    PairwiseCost.half_sq_dist(-1),
    *(PairwiseCost.bilinear([[c]], s) for c in (0.5, -2.0, 3.0) for s in (1, -1)),
]
ZERO_BILINEAR = PairwiseCost.bilinear([[0.0]])
GRID = [k / 2 for k in range(-4, 5)] + [-0.0]


def _sigma(cost: PairwiseCost) -> int:
    """Sign of the mixed partial, computed apart from the library."""
    if cost.kind == "bilinear":
        return cost.sign * (1 if cost.coef[0][0] > 0 else -1)
    return cost.sign if cost.kind == "inner_product" else -cost.sign


def _dedup(xs, ys):
    pairs = list(dict.fromkeys(((float(x),), (float(y),)) for x, y in zip(xs, ys)))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _both_scans(xs, ys, cost, mask):
    scan = scan_gain_digraph(xs, ys, cost, source_mask=mask)
    [ref] = monotone._relaxation_scan([(xs, ys, cost, mask)], DEFAULT_TOL)
    return scan, ref


@st.composite
def scalar_pairs(draw):
    """Grid pairs times a power of ten, co-ordered for the cost about 3/4 of
    the time, in a drawn order, and a base index."""
    cost = draw(st.sampled_from(SCALAR_COSTS))
    m = draw(st.integers(1, 8))
    xs = draw(st.lists(st.sampled_from(GRID), min_size=m, max_size=m))
    ys = draw(st.lists(st.sampled_from(GRID), min_size=m, max_size=m))
    if draw(st.integers(0, 3)):
        sigma = _sigma(cost)
        xs, ys = sorted(xs), [sigma * v for v in sorted(sigma * v for v in ys)]
        order = draw(st.permutations(range(m)))
        xs, ys = [xs[k] for k in order], [ys[k] for k in order]
    scale = 10.0 ** draw(st.integers(0, 9))
    xs, ys = _dedup([scale * v for v in xs], [scale * v for v in ys])
    return cost, xs, ys, draw(st.integers(0, len(xs) - 1))


def _pairs_of(x, y, cost, base):
    xs, ys = _dedup(x, y)
    return cost, xs, ys, xs.index((base,))


INNER, HALF = SCALAR_COSTS[0], SCALAR_COSTS[2]


@given(scalar_pairs())
@example(_pairs_of([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], INNER, 0.0))  # base at the minimum
@example(_pairs_of([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], INNER, 2.0))  # at the maximum
@example(_pairs_of([0.0, 1.0, 1.0, 2.0], [-1.0, 0.5, 1.5, 2.0], INNER, 1.0))  # duplicate x
@example(_pairs_of([-0.0, 0.5, 1.0], [1.0, -0.0, 0.0], HALF, 0.0))  # +-0.0, anti-ordered
@example(_pairs_of([1.5e9, 0.5e9, -2e9], [1e9, 1e9, -0.5e9], INNER, 0.5e9))  # scale 1e9
def test_sorted_scan_equals_relaxation_bit_for_bit(case):
    cost, xs, ys, b = case
    mask = [x == xs[b] for x in xs]
    for source_mask in (None, mask):
        scan, ref = _both_scans(xs, ys, cost, source_mask)
        assert (scan.cycle, scan.cycle_gain) == (ref.cycle, ref.cycle_gain)
        if source_mask is None:
            assert scan.longest is None and ref.longest is None
        else:
            assert scan.longest.tobytes() == ref.longest.tobytes()
    if len(xs) <= 5:
        pairs = list(zip(xs, ys))
        assert (scan.cycle is None) == (bruteforce_cycle_gain(cost, pairs) <= DEFAULT_TOL)
        if scan.cycle is None:
            for v, x in enumerate(xs):
                assert scan.longest[v] == chain_enumeration_oracle(cost, pairs, xs[b], x)


def test_sources_over_several_x_fall_through():
    xs, ys = _dedup([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 2.0, 2.5])
    mask = [True, False, True, False]
    with mock.patch.object(monotone, "_relaxation_scan", wraps=monotone._relaxation_scan) as relax:
        scan = scan_gain_digraph(xs, ys, INNER, source_mask=mask)
    assert relax.call_count == 1
    # Pair 2 is a source, yet the chain from pair 0 reaches it with gain 0.5.
    assert scan.longest.tolist() == [0.0, 0.0, 0.5, 2.5]


@given(st.lists(st.sampled_from(GRID), min_size=1, max_size=6), st.integers(0, 5))
def test_zero_bilinear_coefficient_falls_through(values, shift):
    xs, ys = _dedup(values, values[shift % len(values):] + values[:shift % len(values)])
    with mock.patch.object(monotone, "_relaxation_scan", wraps=monotone._relaxation_scan) as relax:
        scan = scan_gain_digraph(xs, ys, ZERO_BILINEAR, source_mask=[True] * len(xs))
    assert relax.call_count == 1
    assert scan.cycle is None and not scan.longest.any()


def _exact_cost(cost: PairwiseCost, x: float, y: float) -> Fraction:
    fx, fy = Fraction(x), Fraction(y)
    if cost.kind == "half_sq_dist":
        return cost.sign * (fx - fy) ** 2 / 2
    coef = Fraction(cost.coef[0][0]) if cost.kind == "bilinear" else 1
    return cost.sign * coef * fx * fy


def test_inexact_ties_differ_from_relaxation_only_by_rounding():
    # Equal second coordinates make a shortcut exactly as good as the chain
    # through the pairs between, so the rounded sums can pick either walk,
    # and relaxation can meet a cycle whose gain is rounding alone.
    rng = np.random.default_rng(7)
    costs = SCALAR_COSTS + [PairwiseCost.bilinear([[0.3]], -1)]
    seen = {"longest": 0, "cycle": 0}
    for trial in range(600):
        cost = costs[trial % len(costs)]
        sigma = _sigma(cost)
        m = int(rng.integers(2, 9))
        scale = 10.0 ** int(rng.integers(0, 10))
        x = np.sort(rng.normal(size=m)) * scale
        y = sigma * np.sort(sigma * rng.choice(rng.normal(size=2), m)) * scale
        order = rng.permutation(m)
        xs, ys = _dedup(x[order], y[order])
        mask = [v == xs[0] for v in xs]
        scan, ref = _both_scans(xs, ys, cost, mask)
        assert scan.cycle is None
        if ref.cycle is not None:
            seen["cycle"] += 1
            k = len(ref.cycle)
            exact = sum(
                _exact_cost(cost, xs[ref.cycle[(j + 1) % k]][0], ys[ref.cycle[j]][0])
                - _exact_cost(cost, xs[ref.cycle[j]][0], ys[ref.cycle[j]][0])
                for j in range(k)
            )
            assert exact <= 0
            continue
        corners = cost.paired([[min(xs)[0]]] * 2 + [[max(xs)[0]]] * 2,
                              [[min(ys)[0]], [max(ys)[0]]] * 2)
        bound = 8 * len(xs) * np.finfo(float).eps * np.abs(corners).max()
        assert np.abs(scan.longest - ref.longest).max() <= bound
        seen["longest"] += bool((scan.longest != ref.longest).any())
    assert seen["longest"] and seen["cycle"]  # the draws reach both effects


def test_large_coordinated_projection_builds_no_pair_matrix(monkeypatch):
    real = PairwiseCost.matrix

    def small_only(self, xs, ys):
        if len(xs) * len(ys) > 4:
            raise AssertionError(f"a {len(xs)} x {len(ys)} cost matrix")
        return real(self, xs, ys)

    monkeypatch.setattr(PairwiseCost, "matrix", small_only)
    rng = np.random.default_rng(3)
    m = 5000
    x = np.sort(rng.uniform(-3.0, 3.0, m))
    y = np.sort(rng.uniform(-1.0, 5.0, m))
    order = rng.permutation(m)
    xs, ys = [(v,) for v in x[order].tolist()], [(v,) for v in y[order].tolist()]
    assert scan_gain_digraph(xs, ys, INNER).cycle is None
    base = xs[123]
    scan = scan_gain_digraph(xs, ys, INNER, source_mask=[v == base for v in xs])
    assert scan.cycle is None and scan.longest[123] == 0.0
    # Sorted, the base is pair r, and the values sum consecutive gains
    # outward from it: upward from r, downward from r.
    r = int(np.flatnonzero(x == base[0])[0])
    up = x[r + 1:] * y[r:-1] - x[r:-1] * y[r:-1]
    down = x[:r] * y[1:r + 1] - x[1:r + 1] * y[1:r + 1]
    longest = np.empty(m)
    longest[order] = scan.longest
    assert longest[r + 1:].tolist() == np.cumsum(up).tolist()
    assert longest[:r].tolist() == np.cumsum(down[::-1])[::-1].tolist()


def test_coordinated_overflow_is_refused_as_before():
    xs, ys = [(1e155,), (1.0,), (2.0,)], [(1e155,), (2.0,), (3.0,)]
    for mask in (None, [False, True, False]):
        with pytest.warns(RuntimeWarning), pytest.raises(
            InputValidationError,
            match="^an edge gain is not finite: the costs on the pairs overflow$",
        ):
            scan_gain_digraph(xs, ys, INNER, source_mask=mask)
    # Twice the largest cost overflows, though every gain is finite: the
    # sorted scan stays silent and hands the pairs to relaxation.
    xs, ys = [(1e154,), (1.0,), (2.0,)], [(1e154,), (2.0,), (3.0,)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(monotone, "_relaxation_scan",
                               wraps=monotone._relaxation_scan) as relax:
            scan = scan_gain_digraph(xs, ys, INNER, source_mask=[False, True, False])
    assert relax.call_count == 1 and scan.cycle is None and math.isfinite(scan.longest[0])


def test_relaxation_runs_only_where_the_sorted_scan_does_not_apply(
    monkeypatch, tmp_path, capsys
):
    calls = []  # the pair count of each problem, a list per relaxation scan

    def counted(problems, tol, _fn=monotone._relaxation_scan):
        calls.append([len(problem[0]) for problem in problems])
        return _fn(problems, tol)

    monkeypatch.setattr(monotone, "_relaxation_scan", counted)
    rng = np.random.default_rng(5)
    path = tmp_path / "comonotone.json"
    rows = np.sort(rng.uniform(-1.5, 1.5, size=(40, 3)), axis=0)
    path.write_text(json.dumps(gamma_1d(rows.tolist()).to_json()))
    assert main(["split", str(path), "--cost", "c1", "--grid=-2:2:0.25"]) == 0
    capsys.readouterr()
    assert calls == []

    anti = [((0.0,), (1.0,)), ((1.0,), (0.0,))]
    assert not is_two_marginal_cyclically_monotone(anti, INNER).holds
    assert calls == [[2]]

    mats = random_commuting_spds(3, 2, seed=4)
    g = commuting_spd_gamma(mats, rng.uniform(-2.0, 2.0, size=(12, 2)))
    assert check_projection_condition(g, classical_cost("c1", 3, 2)).all_hold
    assert calls[1:] == [[12, 12, 12]]  # the three projections relax in one call

    table = PairwiseCost.tabulated([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [0.0, 1.0]])
    spec = CostSpec((1, 1), {(1, 2): table})
    assert check_projection_condition(gamma_1d([[0.0, 0.0], [1.0, 1.0]]), spec).all_hold
    assert calls[2:] == [[2]]
