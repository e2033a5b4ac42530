"""Monotonicity verifiers: brute force, cycle scan, pair checks, signs."""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    COARSE_GRID,
    brute_force_optimal_coupling,
    bruteforce_cycle_gain,
    bruteforce_loop,
    coupling_oracle_holds,
    gamma_1d,
    is_two_marginal_cyclically_monotone,
    make_comonotone_gamma,
    make_random_gamma,
    make_random_pairs,
    pair_monotone_classical_loop,
    project_pair,
    sign_criterion_loop,
)
from monosplit import monotone
from monosplit.cli import main
from monosplit.core import (
    CostSpec,
    GammaSet,
    PairwiseCost,
    classical_cost,
    dumps_json,
)
from monosplit.errors import DimensionMismatch, OffGrid, OrderTooLarge
from monosplit.monotone import (
    ProjectionReport,
    check_projection_condition,
    is_c_monotone,
    is_n_c_monotone_bruteforce,
    is_pair_monotone_classical,
    recheck_witness,
    scan_gain_digraph,
    sign_criterion_1d,
)
from monosplit.quadratic import commuting_spd_gamma, random_commuting_spds

INNER = PairwiseCost.inner_product()


def test_comonotone_sets_pass_everything(rng):
    for _ in range(5):
        g = make_comonotone_gamma(rng, n_marginals=3, size=4)
        spec = classical_cost("c1", 3, 1)
        for order in (2, 3, 4):
            assert is_n_c_monotone_bruteforce(g, spec, order).holds
        assert is_c_monotone(g, spec).holds
        assert sign_criterion_1d(g).holds
        assert check_projection_condition(g, spec).all_hold


def test_antitone_pair_fails_with_witness():
    g = gamma_1d([[0.0, 1.0], [1.0, 0.0]])
    spec = classical_cost("c1", 2, 1)
    verdict = is_n_c_monotone_bruteforce(g, spec, 2)
    assert not verdict.holds
    w = verdict.witness
    assert w.gain > 0
    permuted, diagonal = recheck_witness(w, spec)
    assert permuted == pytest.approx(w.permuted_sum, abs=1e-12)
    assert diagonal == pytest.approx(w.diagonal_sum, abs=1e-12)


def test_witness_recheck_on_random_failures(rng):
    found = 0
    spec = classical_cost("c1", 3, 1)
    for _ in range(50):
        g = make_random_gamma(rng, size=4)
        verdict = is_n_c_monotone_bruteforce(g, spec, 3)
        if verdict.holds:
            continue
        found += 1
        permuted, diagonal = recheck_witness(verdict.witness, spec)
        assert permuted == pytest.approx(verdict.witness.permuted_sum, abs=1e-9)
        assert diagonal == pytest.approx(verdict.witness.diagonal_sum, abs=1e-9)
        assert permuted > diagonal + verdict.tolerance
    assert found > 0


def test_order_one_always_holds(rng):
    g = make_random_gamma(rng, size=3)
    assert is_n_c_monotone_bruteforce(g, classical_cost("c1", 3, 1), 1).holds


def test_repetition_allowed_beyond_set_size():
    g = gamma_1d([[t, t, t] for t in (-1.0, 0.0, 1.0)])
    spec = classical_cost("c1", 3, 1)
    assert is_n_c_monotone_bruteforce(g, spec, 4).holds  # order > |g|


def test_order_too_large_guards():
    g = gamma_1d([[0.0, 0.0]])
    spec = classical_cost("c1", 2, 1)
    with pytest.raises(OrderTooLarge):
        is_n_c_monotone_bruteforce(g, spec, 8)
    big = gamma_1d([[float(k), float(k)] for k in range(30)])
    with pytest.raises(OrderTooLarge):
        is_n_c_monotone_bruteforce(big, spec, 7, budget=1000)


def test_bruteforce_matches_coupling_oracle_for_any_marginal_count(rng):
    seen = set()
    for nmarg in (2, 3, 4, 5):
        spec = classical_cost(("c1", "c3")[nmarg % 2], nmarg, 1)
        for order in (2, 3):
            for make in (make_comonotone_gamma, make_random_gamma, make_random_gamma):
                g = make(rng, n_marginals=nmarg, size=5 - order)
                verdict = is_n_c_monotone_bruteforce(g, spec, order)
                assert verdict.holds == coupling_oracle_holds(g, spec, order)
                if verdict.holds:
                    multisets = math.comb(g.size + order - 1, order)
                    assert verdict.checked == multisets * math.factorial(order) ** (nmarg - 1)
                else:
                    permuted, diagonal = recheck_witness(verdict.witness, spec)
                    assert permuted > diagonal + verdict.tolerance
                seen.add((nmarg, verdict.holds))
    assert seen == {(k, h) for k in (2, 3, 4, 5) for h in (True, False)}


def test_is_c_monotone_matches_coupling_oracle(rng):
    for which in ("c1", "c2", "c3"):
        spec = classical_cost(which, 3, 1)
        for _ in range(30):
            g = make_random_gamma(rng, size=4)
            verdict = is_c_monotone(g, spec)
            assert verdict.holds == coupling_oracle_holds(g, spec, 2)
            if not verdict.holds:
                permuted, diagonal = recheck_witness(verdict.witness, spec)
                assert permuted == pytest.approx(verdict.witness.permuted_sum, abs=1e-9)
                assert diagonal == pytest.approx(verdict.witness.diagonal_sum, abs=1e-9)
                assert permuted > diagonal + verdict.tolerance


def _json(verdict) -> str:
    # The written report tells -0.0 from 0.0, which == on the verdicts does not.
    return dumps_json(verdict)


def _grid_rows(rng, shape):
    """Coarse-grid coordinates with random signs, so 0.0 and -0.0 both occur."""
    return rng.choice(COARSE_GRID, size=shape) * rng.choice((-1.0, 1.0), size=shape)


def _mixed_costs(rng) -> list[CostSpec]:
    """Cost files with linear, quadratic and empty shifts and bilinear,
    tabulated and negated pairs; the tabulated one needs coarse-grid points."""
    grid = [[v] for v in COARSE_GRID]
    docs = [
        {
            "dims": [1, 1, 1],
            "pairs": {
                "1,2": {"kind": "bilinear", "matrix": [[1.5]]},
                "1,3": {"kind": "tabulated", "grid_x": grid, "grid_y": grid,
                        "table": rng.normal(size=(9, 9)).tolist()},
                "2,3": {"kind": "half_sq_dist", "sign": -1},
            },
            "shift": [[], [{"form": "linear", "vector": [0.7], "constant": 0.25}],
                      [{"form": "quadratic", "matrix": [[2.0]]}]],
        },
        {
            "dims": [2, 2, 2],
            "pairs": {
                "1,2": {"kind": "bilinear", "matrix": [[2.0, 0.5], [-0.25, 1.0]]},
                "1,3": {"kind": "inner_product", "sign": -1},
                "2,3": {"kind": "half_sq_dist"},
            },
            "shift": [[{"form": "quadratic", "matrix": [[1.0, 0.3], [0.3, 2.0]]}], [],
                      [{"form": "linear", "vector": [-0.5, 1.25], "constant": 0.0}]],
        },
    ]
    return [CostSpec.from_json(doc) for doc in docs]


def _order_two_corpus(rng):
    """(set, cost) pairs: N = 2..5, d = 1, 2; comonotone, coarse-grid and
    Gaussian points; c1, c2, c3 and, for N = 3, the mixed cost files."""
    mixed = {spec.dims[0]: spec for spec in _mixed_costs(rng)}
    for nmarg in (2, 3, 4, 5):
        for dim in (1, 2):
            for size in (1, 3, 6):
                shape = (size, nmarg, dim)
                for rows in (np.cumsum(rng.uniform(0.0, 1.0, shape), axis=0),
                             _grid_rows(rng, shape), rng.normal(size=shape)):
                    g = GammaSet.from_points(rows.tolist())
                    for which in ("c1", "c2", "c3"):
                        yield g, classical_cost(which, nmarg, dim)
                    if nmarg == 3:
                        yield GammaSet.from_points(_grid_rows(rng, shape).tolist()), mixed[dim]


def test_is_c_monotone_equals_the_order_two_enumerator(rng):
    outcomes = set()
    for g, spec in _order_two_corpus(rng):
        for tol in (1e-9, 0.0, 0.5):
            fast = is_c_monotone(g, spec, tol=tol)
            assert _json(fast) == _json(is_n_c_monotone_bruteforce(g, spec, 2, tol, math.inf))
            assert _json(fast) == _json(bruteforce_loop(g, spec, 2, tol, math.inf))
            outcomes.add((g.n_marginals, fast.holds))
    assert outcomes == {(n, h) for n in (2, 3, 4, 5) for h in (True, False)}


@pytest.mark.parametrize("outer", [(), (5,), (3, 4)])
def test_numpy_sums_a_short_trailing_axis_left_to_right(rng, outer):
    # The enumerator adds a term's n positions one by one from +0.0, while
    # bruteforce_loop sums them over a trailing axis: the two agree bit for
    # bit only while NumPy adds such an axis in that order.
    for n in range(1, 8):
        rows = rng.normal(size=outer + (n,)) * 10.0 ** rng.integers(-8, 9, size=n)
        rows[rng.random(rows.shape) < 0.2] = -0.0
        expected = np.zeros(outer)
        for k in range(n):
            expected = expected + rows[..., k]
        assert np.add.reduce(rows, axis=-1).tobytes() == expected.tobytes()
    for row, total in (([1e16, 1.0, 1.0], 1e16), ([-0.0], 0.0)):
        assert np.add.reduce(np.array([[row]]), axis=-1).tobytes() == np.array([[total]]).tobytes()


ENUMERATOR_WORK = 100_000  # multisets x permutation tuples per Hypothesis example
GRID_JSON = [[v] for v in COARSE_GRID]


def _enumerator_cost(kind: str, nmarg: int, dim: int, rng) -> CostSpec:
    """c1, c2, c3; c1 or c2 plus linear and quadratic shifts; or, on the
    coarse grid, bilinear pairs (1, j) and tabulated pairs (i, j), i > 1."""
    if kind in ("c1", "c2", "c3"):
        return classical_cost(kind, nmarg, dim)
    doc = {"dims": [dim] * nmarg, "pairs": {}, "shift": []}
    for i, j in itertools.combinations(range(1, nmarg + 1), 2):
        if kind == "shifted":
            pair = {"kind": ("inner_product", "half_sq_dist")[(i + j) % 2]}
        elif i == 1:
            pair = {"kind": "bilinear", "matrix": [[float(rng.normal())]]}
        else:
            pair = {"kind": "tabulated", "grid_x": GRID_JSON, "grid_y": GRID_JSON,
                    "table": rng.normal(size=(9, 9)).tolist()}
        doc["pairs"][f"{i},{j}"] = pair
    for _ in range(nmarg):
        a = rng.normal(size=(dim, dim))
        doc["shift"].append([
            {"form": "linear", "vector": rng.normal(size=dim).tolist(),
             "constant": float(rng.normal())},
            {"form": "quadratic", "matrix": (a + a.T).tolist()},
        ][:int(rng.integers(0, 3))])
    return CostSpec.from_json(doc)


@st.composite
def enumerator_cases(draw):
    """(set, cost, order): comonotone sets (passing under c1 and c3), the same
    with marginals of two late points swapped, coarse-grid sets, and two
    layouts whose sums depend on the order of addition: coordinates near
    1e8 mixed with ones near 1e-8, and coarse-grid sets holding both -0.0
    and 0.0."""
    nmarg = draw(st.sampled_from([3, 2, 4, 5]))

    def work(n: int, size: int) -> int:
        return math.comb(size + n - 1, n) * math.factorial(n) ** (nmarg - 1)

    n = draw(st.sampled_from([o for o in (2, 3, 4, 1) if work(o, 1) <= ENUMERATOR_WORK]))
    size = draw(st.sampled_from([k for k in range(1, 7) if work(n, k) <= ENUMERATOR_WORK]))
    kind = draw(st.sampled_from(["c1", "c2", "c3", "shifted", "bilinear+tabulated"]))
    dim = 1 if kind == "bilinear+tabulated" else draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["comonotone", "swapped", "grid", "magnitudes", "zeros"]))
    if layout == "zeros":
        rows = _grid_rows(rng, (size, nmarg, dim))
        zero = rng.random(rows.shape) < 0.5
        rows[zero] = rng.choice((0.0, -0.0), size=int(zero.sum()))
        rows.flat[0], rows.flat[-1] = 0.0, -0.0
    elif layout == "grid" or kind == "bilinear+tabulated":
        rows = _grid_rows(rng, (size, nmarg, dim))
    elif layout == "magnitudes":
        scale = rng.choice((1e8, 1e-8), size=(size, nmarg, dim))
        rows = rng.normal(size=(size, nmarg, dim)) * scale
    else:
        rows = np.cumsum(rng.normal(size=(size, nmarg, dim)) ** 2, axis=0)
        if layout == "swapped" and size > 1:
            k = int(rng.integers(1, nmarg))
            rows[[-2, -1], k] = rows[[-1, -2], k]
    g = GammaSet.from_points(rows.tolist())
    return g, _enumerator_cost(kind, nmarg, dim, rng), n


@pytest.mark.parametrize("cells", [monotone.PAIR_BLOCK_CELLS, 1 << 12, 1])
@given(enumerator_cases(), st.sampled_from([1e-9, 0.0, 0.5]))
def test_block_enumerator_equals_the_per_multiset_loop(cells, case, tol):
    g, spec, n = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monotone, "PAIR_BLOCK_CELLS", cells)
        fast = is_n_c_monotone_bruteforce(g, spec, n, tol)
    assert _json(fast) == _json(bruteforce_loop(g, spec, n, tol))


def test_block_enumerator_finds_witnesses_past_block_boundaries(rng, monkeypatch):
    # Blocks of two multisets, then one: a late violation lies many blocks on.
    monkeypatch.setattr(monotone, "PAIR_BLOCK_CELLS", 1)
    outcomes = set()
    for nmarg in (2, 3, 4, 5):
        for n in (2, 3, 4) if nmarg <= 3 else (2, 3):
            for which in ("c1", "c3"):
                rows = np.cumsum(rng.uniform(0.0, 1.0, (5, nmarg, 1)), axis=0)
                spec = classical_cost(which, nmarg, 1)
                passing = GammaSet.from_points(rows.tolist())
                rows[[3, 4], nmarg - 1] = rows[[4, 3], nmarg - 1]
                failing = GammaSet.from_points(rows.tolist())
                for g in (passing, failing):
                    fast = is_n_c_monotone_bruteforce(g, spec, n)
                    assert _json(fast) == _json(bruteforce_loop(g, spec, n))
                    multisets = fast.checked // math.factorial(n) ** (nmarg - 1)
                    assert fast.holds or multisets > 3
                    outcomes.add((nmarg, fast.holds))
    assert outcomes == {(k, h) for k in (2, 3, 4, 5) for h in (True, False)}


def test_block_enumerator_memory_is_bounded(rng):
    g = make_comonotone_gamma(rng, n_marginals=3, size=10)
    spec = classical_cost("c1", 3, 1)
    tracemalloc.start()
    try:
        for n in (2, 3, 4):
            assert is_n_c_monotone_bruteforce(g, spec, n).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_block_enumerator_exits_on_an_early_violation(monkeypatch):
    # The first multiset (one point n times) never violates; the second,
    # which holds the antitone point, does.
    g = gamma_1d([[0.0, 0.0], [1.0, -1.0]] + [[float(k), float(k)] for k in range(2, 8)])
    spec = classical_cost("c1", 2, 1)
    combinations = itertools.combinations_with_replacement
    drawn = []

    def counting(*args):
        for combo in combinations(*args):
            drawn.append(combo)
            yield combo

    monkeypatch.setattr(itertools, "combinations_with_replacement", counting)
    for n in (2, 3, 4):
        drawn.clear()
        verdict = is_n_c_monotone_bruteforce(g, spec, n)
        assert not verdict.holds and verdict.checked == 2 * math.factorial(n)
        # Exactly one block is drawn, and a block holds at most the order's cap.
        cap = max(1, monotone.PAIR_BLOCK_CELLS // (32 * math.factorial(n) * n))
        assert len(drawn) == min(cap, math.comb(g.size + n - 1, n))


def test_block_enumerator_takes_full_blocks_from_the_first(rng, monkeypatch):
    # 55, 220 and 715 multisets at orders 2-4, against caps of 4096 multisets
    # summed in full, 1820 bounded and 341 bounded: 715 is 341 + 341 + 33.
    calls = []
    for name in ("_permuted_sums", "_bound_clears"):
        real = getattr(monotone, name)
        monkeypatch.setattr(monotone, name,
                            lambda *args, f=real, name=name: calls.append(name) or f(*args))
    g = make_comonotone_gamma(rng, n_marginals=3, size=10)
    spec = classical_cost("c1", 3, 1)
    for n, blocks in ((2, ["_permuted_sums"]), (3, ["_bound_clears"]), (4, ["_bound_clears"] * 3)):
        calls.clear()
        assert is_n_c_monotone_bruteforce(g, spec, n).holds
        assert calls == blocks


def test_block_enumerator_memory_is_bounded_from_a_full_first_block(rng):
    # 37 820 order-3 multisets, bounded in blocks of 1820.
    g = make_comonotone_gamma(rng, n_marginals=3, size=60)
    spec = classical_cost("c3", 3, 1)
    tracemalloc.start()
    try:
        verdict = is_n_c_monotone_bruteforce(g, spec, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.checked == math.comb(62, 3) * 36
    assert peak < 2 * 2**20


def test_order_stream_equals_single_orders_and_raises_where_they_do(rng):
    g = make_comonotone_gamma(rng, n_marginals=3, size=6)
    spec = classical_cost("c3", 3, 1)
    stream = monotone._bruteforce_verdicts(g, spec, (2, 3, 4, 8))
    for n in (2, 3, 4):
        assert _json(next(stream)) == _json(is_n_c_monotone_bruteforce(g, spec, n))
    with pytest.raises(OrderTooLarge):
        next(stream)
    with pytest.raises(DimensionMismatch):
        next(monotone._bruteforce_verdicts(g, classical_cost("c3", 3, 2), (8,)))


def test_cached_order_tables_are_read_only():
    for n in (1, 3):
        fixed_first, by_position = monotone._perm_positions(n)
        for table in (monotone._perm_array(n), *fixed_first, *by_position):
            with pytest.raises(ValueError):
                table[0] = 1


@st.composite
def near_tie_cases(draw):
    """(set, cost, order, tol) where many permutation tuples tie with the
    diagonal: integer and dyadic coordinates, comonotone columns that repeat
    values, and the same with two points' coordinates of one marginal
    swapped, all scaled by 10^0 to 10^9; tol 0, 1e-9 or one ulp of the
    largest diagonal."""
    nmarg = draw(st.sampled_from([3, 4, 5]))

    def work(n: int, size: int) -> int:
        return math.comb(size + n - 1, n) * math.factorial(n) ** (nmarg - 1)

    n = draw(st.sampled_from([o for o in (3, 4, 2) if work(o, 1) <= ENUMERATOR_WORK]))
    size = draw(st.sampled_from([k for k in range(1, 8) if work(n, k) <= ENUMERATOR_WORK]))
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (size, nmarg, dim)
    layout = draw(st.sampled_from(["integers", "dyadic", "comonotone", "swapped"]))
    if layout == "integers":
        rows = rng.integers(-3, 4, size=shape).astype(float)
    elif layout == "dyadic":
        rows = rng.integers(-8, 9, size=shape) / 8.0
    else:
        rows = np.cumsum(rng.integers(0, 2, size=shape), axis=0).astype(float)
        if layout == "swapped" and size > 1:
            a, b = rng.choice(size, 2, replace=False)
            rows[[a, b], nmarg - 1] = rows[[b, a], nmarg - 1]
    rows *= 10.0 ** draw(st.integers(0, 9))
    g = GammaSet.from_points(rows.tolist())
    spec = _enumerator_cost(draw(st.sampled_from(["c1", "c2", "c3", "shifted"])), nmarg, dim, rng)
    diagonal = n * max(abs(spec.total(p)) for p in g.points)
    tol = draw(st.sampled_from([0.0, 1e-9, float(np.spacing(diagonal))]))
    return g, spec, n, tol


@pytest.mark.parametrize("cells", [monotone.PAIR_BLOCK_CELLS, 1 << 12, 1])
@given(near_tie_cases())
def test_bounded_enumerator_equals_the_per_multiset_loop_on_near_ties(cells, case):
    g, spec, n, tol = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monotone, "PAIR_BLOCK_CELLS", cells)
        fast = is_n_c_monotone_bruteforce(g, spec, n, tol)
    assert _json(fast) == _json(bruteforce_loop(g, spec, n, tol))


def test_bound_clears_comonotone_multisets_without_their_full_sums(rng, monkeypatch):
    summed = []  # the multisets summed in full, in order
    dense = monotone._permuted_sums

    def counting(idx, *args):
        summed.extend(map(tuple, idx.tolist()))
        return dense(idx, *args)

    monkeypatch.setattr(monotone, "_permuted_sums", counting)
    g = make_comonotone_gamma(rng, n_marginals=3, size=10)
    spec = classical_cost("c1", 3, 1)
    verdict = is_n_c_monotone_bruteforce(g, spec, 4)
    assert verdict.holds and verdict.checked == math.comb(13, 4) * 24**2
    assert summed == []
    # Points 4 and 5 trade their third coordinates: only a multiset holding
    # both can violate, and only such multisets are summed in full.
    rows = np.array(g.coords)
    rows[[4, 5], 2] = rows[[5, 4], 2]
    swapped = GammaSet(g.dims, rows)
    verdict = is_n_c_monotone_bruteforce(swapped, spec, 4)
    assert not verdict.holds
    assert summed and all(4 in combo and 5 in combo for combo in summed)
    assert summed[0] == (0, 0, 4, 5)
    # The violation lies in the first dense block: no other block is summed.
    assert len(summed) <= max(1, monotone.PAIR_BLOCK_CELLS // (32 * 24**2 * 4))
    assert _json(verdict) == _json(bruteforce_loop(swapped, spec, 4))


def test_bound_leaves_a_rounding_tie_to_the_full_sums():
    # The set is comonotone, so no tuple beats the diagonal in exact
    # arithmetic, but at tol 0 one permuted float sum rounds 256 above it.
    # Without its rounding margin the bound would clear that multiset.
    g = GammaSet.from_points([[[280826945.0], [224493374.0], [280826945.0]],
                              [[280826945.0], [789777576.0], [789777576.0]]])
    spec = classical_cost("c1", 3, 1)
    fast = is_n_c_monotone_bruteforce(g, spec, 3, 0.0)
    assert not fast.holds and fast.witness.gain == 256.0
    assert _json(fast) == _json(bruteforce_loop(g, spec, 3, 0.0))


def test_per_multiset_loop_never_calls_the_bound(rng, monkeypatch):
    g = make_comonotone_gamma(rng, n_marginals=3, size=5)
    spec = classical_cost("c3", 3, 1)
    fast = is_n_c_monotone_bruteforce(g, spec, 4)

    def forbidden(*args):
        raise AssertionError("the reference loop must not use the bound")

    monkeypatch.setattr(monotone, "_bound_clears", forbidden)
    assert _json(bruteforce_loop(g, spec, 4)) == _json(fast)


def test_is_c_monotone_memory_does_not_grow_with_full_pair_matrices():
    # Three 2000 x 2000 pair matrices alone would take 96 MB.
    rng = np.random.default_rng(4)
    g = commuting_spd_gamma(random_commuting_spds(3, 2, seed=2),
                            rng.uniform(-2.0, 2.0, (2000, 2)).tolist())
    tracemalloc.start()
    try:
        verdict = is_c_monotone(g, classical_cost("c3", 3, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.checked == 2001 * 1000 * 4
    assert peak < 40 * 2**20


def test_pair_scans_agree_across_row_blocks(rng, monkeypatch):
    # One-row blocks: a violation past the first row is found in a later block.
    monkeypatch.setattr(monotone, "PAIR_BLOCK_CELLS", 1)
    specs = [_mixed_costs(rng)[1], classical_cost("c3", 3, 2)]
    late = 0
    for _ in range(6):
        # Comonotone but for marginal 3 of points 8 and 9, swapped.
        rows = np.cumsum(rng.uniform(0.0, 1.0, (12, 3, 2)), axis=0)
        rows[[8, 9], 2] = rows[[9, 8], 2]
        for g in map(GammaSet.from_points, (rows.tolist(), _grid_rows(rng, (12, 3, 2)).tolist())):
            for spec in specs:
                fast = is_c_monotone(g, spec)
                slow = is_n_c_monotone_bruteforce(g, spec, 2, budget=math.inf)
                assert _json(fast) == _json(slow)
                late += fast.witness is not None and fast.witness.points[0] != g.points[0]
        g1 = gamma_1d(_grid_rows(rng, (12, 4)).tolist())
        assert _json(sign_criterion_1d(g1)) == _json(sign_criterion_loop(g1))
        pairs = [(x, y) for x, y in zip(_grid_rows(rng, (12, 2)), _grid_rows(rng, (12, 2)))]
        fast = is_pair_monotone_classical(pairs)
        assert _json(fast) == _json(pair_monotone_classical_loop(pairs))
    assert late


def test_sign_tests_equal_their_reference_loops(rng):
    # Grid points with tol 0.5 or 0.25 make ties (differences equal to tol);
    # Gaussian ones make sums that round differently in another order.
    draws = (_grid_rows,) * 2 + (lambda r, shape: r.normal(size=shape),) * 6
    outcomes = set()
    for nmarg in (2, 3, 4, 5):
        for size in (1, 2, 5, 9):
            for draw in draws:
                g = gamma_1d(draw(rng, (size, nmarg)).tolist())
                for tol in (1e-9, 0.0, 0.5):
                    fast = sign_criterion_1d(g, tol=tol)
                    assert _json(fast) == _json(sign_criterion_loop(g, tol=tol))
                    outcomes.add(("signs", fast.holds))
    for dim in (1, 2, 3):
        for size in (1, 2, 5, 9):
            for draw in draws:
                pairs = [(x, y) for x, y in zip(draw(rng, (size, dim)).tolist(),
                                                draw(rng, (size, dim)).tolist())]
                for tol in (1e-12, 0.0, 0.25):
                    fast = is_pair_monotone_classical(pairs, tol=tol)
                    assert _json(fast) == _json(pair_monotone_classical_loop(pairs, tol=tol))
                    outcomes.add(("pairs", fast.holds))
    assert outcomes == {(k, h) for k in ("signs", "pairs") for h in (True, False)}


def test_cycle_scan_matches_exhaustive_cycles(rng):
    for _ in range(60):
        pairs = make_random_pairs(rng, m=5)
        scan = scan_gain_digraph([p[0] for p in pairs], [p[1] for p in pairs], INNER)
        oracle = bruteforce_cycle_gain(INNER, pairs)
        if oracle <= 1e-9:
            assert scan.cycle is None
        else:
            assert scan.cycle is not None
            # the scan reports the first positive cycle, not the best one
            assert 1e-9 < scan.cycle_gain <= oracle + 1e-12


def test_two_marginal_verdict_matches_brute_force(rng):
    for _ in range(50):
        pairs = make_random_pairs(rng, m=4)
        verdict = is_two_marginal_cyclically_monotone(pairs, INNER)
        g = GammaSet.from_points([[p[0][0], p[1][0]] for p in pairs])
        spec = classical_cost("c1", 2, 1)
        brute = all(
            is_n_c_monotone_bruteforce(g, spec, k).holds for k in range(2, g.size + 1)
        )
        assert verdict.holds == brute


def test_pair_monotone_classical_witness_value():
    verdict = is_pair_monotone_classical([((1.0,), (0.0,)), ((0.0,), (1.0,))])
    assert not verdict.holds
    assert verdict.witness.value == -1.0
    assert is_pair_monotone_classical([((0.0,), (0.0,)), ((1.0,), (2.0,))]).holds


def test_pair_monotone_classical_rejects_mismatched_dimensions():
    # zip would pair x's first coordinate with y's only one and drop the rest.
    for pairs in ([((0.0, 1.0), (0.0,)), ((1.0, 0.0), (1.0,))],
                  [((0.0,), (0.0, 1.0)), ((1.0,), (1.0, 0.0))]):
        with pytest.raises(DimensionMismatch):
            is_pair_monotone_classical(pairs)


def test_sign_criterion_matches_bruteforce(rng):
    spec = classical_cost("c1", 3, 1)
    agree = 0
    for _ in range(60):
        g = make_random_gamma(rng, size=3)
        signs = sign_criterion_1d(g)
        brute = all(
            is_n_c_monotone_bruteforce(g, spec, k).holds for k in range(2, g.size + 1)
        )
        assert signs.holds == brute
        agree += 1
    assert agree == 60


def test_sign_criterion_witness_has_mixed_signs():
    g = gamma_1d([[0.0, 0.0, 0.0], [1.0, -1.0, 2.0]])
    verdict = sign_criterion_1d(g)
    assert not verdict.holds
    assert verdict.witness.kind == "signs"


def test_projection_condition_reports_failing_pair():
    g = gamma_1d([[0.0, 0.0, 0.0], [1.0, 1.0, -1.0]])
    report = check_projection_condition(g, classical_cost("c1", 3, 1))
    assert not report.all_hold
    assert not report.verdicts[(1, 3)].holds
    assert not report.verdicts[(2, 3)].holds
    assert report.verdicts[(1, 2)].holds


def _projection_report_from_tuples(g: GammaSet, spec: CostSpec, tol: float) -> str:
    """The projection report built pair by pair from project_pair's tuples."""
    verdicts = {
        (i, j): is_two_marginal_cyclically_monotone(project_pair(g, i, j), cost, tol)
        for (i, j), cost in spec.pairs.items()
    }
    return dumps_json(ProjectionReport(verdicts, all(v.holds for v in verdicts.values())))


def _projection_corpus(rng):
    """(set, cost): comonotone sets whose first two points share all but the
    last marginal, coarse-grid sets and sets of signed -1, 0 and 1, whose
    projections repeat pairs and hold both -0.0 and 0.0, for N = 2, 3 and
    d = 1, 2 under c1, c2 and c3, plus the N = 3 mixed cost files on the
    last two kinds."""
    mixed = {spec.dims[0]: spec for spec in _mixed_costs(rng)}
    for nmarg in (2, 3):
        for dim in (1, 2):
            for size in (1, 6, 12):
                shape = (size, nmarg, dim)
                signs = rng.choice((-1.0, 1.0), size=shape)
                few = rng.choice((-1.0, 0.0, 1.0), size=shape) * signs
                comonotone = np.cumsum(rng.uniform(0.0, 1.0, shape), axis=0)
                comonotone[1:2, :-1] = comonotone[0, :-1]
                for rows in (comonotone, _grid_rows(rng, shape), few):
                    g = GammaSet.from_points(rows.tolist())
                    for which in ("c1", "c2", "c3"):
                        yield g, classical_cost(which, nmarg, dim)
                    if nmarg == 3 and rows is not comonotone:
                        yield g, mixed[dim]


def test_projections_from_coords_equal_the_tuple_projections(rng):
    outcomes = set()
    for g, spec in _projection_corpus(rng):
        for tol in (1e-9, 0.0, 0.5):
            report = check_projection_condition(g, spec, tol)
            assert dumps_json(report) == _projection_report_from_tuples(g, spec, tol)
            for (i, j), verdict in report.verdicts.items():
                repeated = len(project_pair(g, i, j)) < g.size
                outcomes.add((g.dims[0], repeated, verdict.witness and verdict.witness.kind))
    assert outcomes >= {(d, r, w) for d in (1, 2) for r in (True, False) for w in (None, "cycle")}


@pytest.mark.parametrize("dim", [1, 2])
def test_projections_from_coords_keep_the_first_seen_signed_zero(dim):
    # Points 0 and 1 share their (1, 2) pair but for the sign of a zero x,
    # points 2 and 3 but for that of a zero y; the first of each is the
    # signed one in the first set only, and the antitone point 4 puts the
    # pairs on a positive cycle.
    def vec(v):
        return [v] * dim

    signed = [[vec(-0.0), vec(1.0), vec(0.0)], [vec(1.0), vec(-0.0), vec(3.0)]]
    plain = [[vec(0.0), vec(1.0), vec(2.0)], [vec(1.0), vec(0.0), vec(4.0)]]
    antitone = [vec(1.0), vec(-1.0), vec(1.0)]
    reports = []
    for first, second in ((signed, plain), (plain, signed)):
        g = GammaSet.from_points([first[0], second[0], first[1], second[1], antitone])
        spec = classical_cost("c1", 3, dim)
        report = check_projection_condition(g, spec)
        assert not report.verdicts[(1, 2)].holds
        assert report.verdicts[(1, 2)].witness.kind == "cycle"
        reports.append(dumps_json(report))
        assert reports[-1] == _projection_report_from_tuples(g, spec, monotone.DEFAULT_TOL)
    assert "-0.0" in reports[0] and "-0.0" not in reports[1]


def test_projections_from_coords_refuse_an_off_grid_point_alike(rng):
    spec = next(s for s in _mixed_costs(rng) if s.dims == (1, 1, 1))
    g = GammaSet.from_points(_grid_rows(rng, (6, 3, 1)).tolist() + [[[0.25], [0.5], [1.0]]])
    with pytest.raises(OffGrid) as fast:
        check_projection_condition(g, spec)
    with pytest.raises(OffGrid) as slow:
        _projection_report_from_tuples(g, spec, monotone.DEFAULT_TOL)
    assert (type(fast.value), str(fast.value)) == (type(slow.value), str(slow.value))


def test_projection_condition_builds_no_tuple_projection(capsys, tmp_path, monkeypatch):
    # Loading, the projection check, is_c_monotone and the brute force of
    # the pinned passing 2-D run read g.coords only.  A failing run builds
    # the view for its witness, which shows that the patch bites.
    def forbidden(self):
        raise AssertionError("built the tuple view of a GammaSet")

    data = Path(__file__).parent / "data"
    monkeypatch.chdir(tmp_path)
    Path("gamma.json").write_text((data / "verify_passing_2d_gamma.json").read_text())
    antitone = [[[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]]
    Path("failing.json").write_text(json.dumps(GammaSet.from_points(antitone).to_json()))
    monkeypatch.setattr(GammaSet, "points", property(forbidden))
    assert main(["verify", "gamma.json", "--cost", "c3", "--brute", "3"]) == 0
    assert capsys.readouterr().out == (data / "verify_passing_2d.json").read_text()
    with pytest.raises(AssertionError, match="tuple view"):
        main(["verify", "failing.json"])


def test_brute_force_optimal_coupling_identity_attains():
    spec = classical_cost("c1", 2, 1)
    coup = brute_force_optimal_coupling([[0.0, 1.0], [0.0, 1.0]], spec)
    assert coup.diagonal_attains()
    assert coup.value == 1.0
    anti = brute_force_optimal_coupling([[0.0, 1.0], [1.0, 0.0]], spec)
    assert anti.value == 1.0  # optimum re-sorts the antitone assignment
    assert not anti.diagonal_attains()
