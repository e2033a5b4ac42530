"""Stacked Bellman-Ford relaxation against one problem at a time.

``monotone._relaxation_scan`` relaxes every problem with the same pair
count as a lane of one stack, as many lanes as fit in
``monotone.PAIR_BLOCK_CELLS`` cells.  Each lane must end exactly as
``helpers.dense_relaxation_scan`` ends that problem alone: the same
distance bytes, predecessors, last improved mask, cycle and cycle gain,
whatever the other lanes do.  Stacks here mix lanes that converge with
lanes that cycle through all m rounds, seeded and unseeded, d = 1 and 2, on
half-integer grids with ties and both signed zeros, at the default cap, a
cap of a few lanes and a cap of one lane per stack.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import dense_relaxation_scan
from monosplit import monotone
from monosplit.core import CostSpec, GammaSet, PairwiseCost
from monosplit.errors import InputValidationError, OffGrid
from monosplit.monotone import DEFAULT_TOL, check_projection_condition

GRID = [k / 2 for k in range(-4, 5)] + [-0.0]
COSTS = {
    1: [PairwiseCost.inner_product(1), PairwiseCost.half_sq_dist(-1),
        PairwiseCost.bilinear([[1.5]], -1)],
    2: [PairwiseCost.inner_product(-1), PairwiseCost.half_sq_dist(1),
        PairwiseCost.bilinear([[1.0, 0.5], [-0.5, 2.0]])],
}
CAPS = (monotone.PAIR_BLOCK_CELLS, 30, 1)
INNER = COSTS[1][0]
OVERFLOW = "^an edge gain is not finite: the costs on the pairs overflow$"


@st.composite
def problems(draw):
    """One to six (xs, ys, cost, source_mask) problems of 1, 2, 3 or 5
    pairs each, so that sizes repeat and stack."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        m, dim = draw(st.sampled_from((1, 2, 3, 5))), draw(st.sampled_from((1, 2)))
        vec = st.tuples(*[st.sampled_from(GRID)] * dim)
        xs = draw(st.lists(vec, min_size=m, max_size=m))
        ys = draw(st.lists(vec, min_size=m, max_size=m))
        mask = draw(st.none() | st.lists(st.booleans(), min_size=m, max_size=m))
        out.append((xs, ys, draw(st.sampled_from(COSTS[dim])), mask))
    return out


def _scalars(values):
    return [(v,) for v in values]


CYCLING = (_scalars([0.0, 1.0, 2.0]), _scalars([2.0, 1.0, 0.0]), INNER, None)
CONVERGING = (_scalars([0.0, 1.0, 2.0]), _scalars([-0.0, 0.5, 0.5]), INNER, None)


def _relax_lanes(problems_, cells):
    """_relaxation_scan with PAIR_BLOCK_CELLS = cells: the scans, each
    problem's (dist, pred, improved) as its lane ended, and the problems of
    each stack."""
    stacks, lanes = [], []
    real_stacks, real_lane = monotone._gain_stacks, monotone._lane_scan

    def recording_stacks(problems_):
        for members, gains_t in real_stacks(problems_):
            stacks.append(list(members))
            yield members, gains_t

    def recording_lane(dist, pred, improved, *args, **kwargs):
        lanes.append((dist.copy(), pred.copy(), improved.copy()))
        return real_lane(dist, pred, improved, *args, **kwargs)

    with mock.patch.object(monotone, "PAIR_BLOCK_CELLS", cells), \
            mock.patch.object(monotone, "_gain_stacks", recording_stacks), \
            mock.patch.object(monotone, "_lane_scan", recording_lane):
        scans = monotone._relaxation_scan(problems_, DEFAULT_TOL)
    ended = dict(zip([k for members in stacks for k in members], lanes))
    return scans, [ended[k] for k in range(len(problems_))], stacks


@given(problems())
@example([CYCLING, CONVERGING, (*CYCLING[:3], [True, False, False]),
          (*CONVERGING[:3], [False, False, True])])
@example([CONVERGING, (_scalars([1.0]), _scalars([-0.0]), INNER, [True]), CYCLING])
def test_stacked_lanes_equal_the_one_problem_scan_bit_for_bit(case):
    refs = [dense_relaxation_scan(xs, ys, cost, DEFAULT_TOL, mask) for xs, ys, cost, mask in case]
    for cells in CAPS:
        scans, lanes, stacks = _relax_lanes(case, cells)
        for scan, lane, (ref, *ref_lane) in zip(scans, lanes, refs):
            (dist, pred, improved), (ref_dist, ref_pred, ref_improved) = lane, ref_lane
            assert dist.tobytes() == ref_dist.tobytes()
            assert pred.tolist() == ref_pred.tolist()
            assert improved.tolist() == ref_improved.tolist()
            assert scan.cycle == ref.cycle
            assert scan.cycle_gain.hex() == ref.cycle_gain.hex()
            if ref.longest is None:
                assert scan.longest is None
            else:
                assert scan.longest.tobytes() == ref.longest.tobytes()
        sizes = [len(xs) for xs, *_ in case]
        per_stack = max(1, cells // max(sizes) ** 2)
        assert sorted(k for members in stacks for k in members) == list(range(len(case)))
        assert all(len({sizes[k] for k in members}) == 1 for members in stacks)
        if cells == 1:
            assert all(len(members) == 1 for members in stacks)
        if per_stack >= len(case):  # every size in one stack
            assert len(stacks) == len(set(sizes))


def test_the_examples_mix_cycling_and_converging_lanes_in_one_stack():
    refs = [dense_relaxation_scan(*problem[:3], DEFAULT_TOL, problem[3])[0]
            for problem in (CYCLING, CONVERGING)]
    assert refs[0].cycle is not None and refs[1].cycle is None
    _, _, stacks = _relax_lanes([CYCLING, CONVERGING], monotone.PAIR_BLOCK_CELLS)
    assert stacks == [[0, 1]]


@pytest.mark.parametrize("cells", CAPS)
def test_a_lane_whose_gains_overflow_is_refused_as_alone(cells):
    over = (_scalars([1e155, 1.0, 2.0]), _scalars([1e155, 2.0, 3.0]), INNER, None)
    for case in ([CYCLING, over, CONVERGING], [over, CYCLING]):
        with pytest.warns(RuntimeWarning), \
                pytest.raises(InputValidationError, match=OVERFLOW) as alone:
            for xs, ys, cost, mask in case:
                dense_relaxation_scan(xs, ys, cost, DEFAULT_TOL, mask)
        with mock.patch.object(monotone, "PAIR_BLOCK_CELLS", cells), \
                pytest.warns(RuntimeWarning), \
                pytest.raises(InputValidationError, match=OVERFLOW) as stacked:
            monotone._relaxation_scan(case, DEFAULT_TOL)
        assert str(stacked.value) == str(alone.value)


def test_the_first_refused_projection_in_pair_order_is_the_one_reported():
    # Projection (1, 3) repeats a pair, so it has 2 pairs where (1, 2) and
    # (2, 3) have 3: those two stack, and (2, 3) is built after (1, 3) all
    # the same.  Each of (1, 3) and (2, 3) has a point off its table's grid.
    g = GammaSet.from_points([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 2.0, 0.0]])
    spec = CostSpec((1, 1, 1), {
        (1, 2): PairwiseCost.tabulated([0.0, 1.0], [0.0, 1.0, 2.0], [[0.0] * 3, [1.0] * 3]),
        (1, 3): PairwiseCost.tabulated([0.0], [0.0, 1.0], [[0.0, 1.0]]),
        (2, 3): PairwiseCost.tabulated([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]]),
    })
    with pytest.raises(OffGrid, match=r"point \(1\.0,\) not on the tabulated x-grid"):
        check_projection_condition(g, spec)
