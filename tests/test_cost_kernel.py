"""The array evaluators against independent one-point references.

``PairwiseCost.block``/``paired``/``value`` must reproduce
``helpers.couple``, the closed-form formula their one coordinate loop
replaced, and a dict of the grid points for tables; ``block`` must also
equal ``helpers.pair_matrix``, the broadcast matrix it replaced, in both
orientations and at every buffer size, where entries overflow too, and peak
in memory at its result plus one buffer; ``CostSpec.total_many``
must reproduce ``total``, and ``total`` ``helpers.total_loop``, the one-point
loop it replaced; ``Potential.values_at`` and ``value_at`` must
reproduce a dict of the table.  All bit for bit, signed zeros included, with
the same errors.  ``ClosedForm.values`` must reproduce the plain float
formulas of each form, and the row helpers ``unique_rows``/``find_rows``
what ``dict.fromkeys`` and a dict lookup give on the rows as tuples.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    add_separable_shift,
    couple,
    find_rows,
    pair_matrix,
    total_loop,
    unique_rows_lexsort,
)
from monosplit import core
from monosplit.antiderivative import Potential
from monosplit.core import (
    PAIRWISE_KINDS,
    CostSpec,
    EvenPowerForm,
    LinearForm,
    PairwiseCost,
    QuadraticForm,
    RowIndex,
    classical_cost,
    marginal_blocks,
    unique_rows,
)
from monosplit.errors import DimensionMismatch, OffGrid

FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def vecs(d: int, max_size: int = 6):
    return st.lists(st.tuples(*[FLOATS] * d), min_size=1, max_size=max_size)


def same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def cost_and_points(draw):
    kind = draw(st.sampled_from(PAIRWISE_KINDS))
    sign = draw(st.sampled_from((1, -1)))
    dx = draw(st.integers(1, 3))
    dy = dx if kind in ("inner_product", "half_sq_dist") else draw(st.integers(1, 3))
    xs, ys = draw(vecs(dx)), draw(vecs(dy))
    if kind == "bilinear":
        coef = draw(st.lists(st.lists(FLOATS, min_size=dy, max_size=dy), min_size=dx, max_size=dx))
        cost = PairwiseCost.bilinear(coef, sign)
        return cost, xs, ys, lambda x, y: couple(cost, x, y)
    if kind == "tabulated":
        # grid points may repeat, and -0.0 stands for 0.0
        gx, gy = xs + draw(vecs(dx, 3)), ys + draw(vecs(dy, 3))
        table = draw(st.lists(st.lists(FLOATS, min_size=len(gy), max_size=len(gy)),
                              min_size=len(gx), max_size=len(gx)))
        ix = {p: i for i, p in enumerate(gx)}
        iy = {p: i for i, p in enumerate(gy)}
        cost = PairwiseCost.tabulated(gx, gy, table, sign)
        return cost, xs, ys, lambda x, y: sign * table[ix[x]][iy[y]]
    cost = PairwiseCost(kind, sign)
    return cost, xs, ys, lambda x, y: couple(cost, x, y)


@given(cost_and_points())
def test_matrix_and_paired_reproduce_value_bit_for_bit(case):
    cost, xs, ys, reference = case
    m = pair_matrix(cost, xs, ys)
    block = cost.block(xs, ys, np.empty((len(xs), len(ys))))
    assert m.shape == (len(xs), len(ys))
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert same_bits(m[a, b], reference(x, y))
            assert same_bits(block[a, b], reference(x, y))
            assert same_bits(cost.value(x, y), reference(x, y))
    k = min(len(xs), len(ys))
    row = cost.paired(xs[:k], ys[:k])
    assert all(same_bits(row[r], reference(xs[r], ys[r])) for r in range(k))
    # a side with one row pairs with every row of the other
    assert all(same_bits(v, reference(xs[0], y)) for v, y in zip(cost.paired(xs[:1], ys), ys))
    assert all(same_bits(v, reference(x, ys[0])) for v, x in zip(cost.paired(xs, ys[:1]), xs))


GRID = PairwiseCost.tabulated([0.0, 1.0], [(2.0, 3.0)], [[1.0], [2.0]])


@pytest.mark.parametrize("cost, x, y, error", [
    (PairwiseCost.inner_product(), (1.0,), (1.0, 2.0), DimensionMismatch),
    (PairwiseCost.half_sq_dist(-1), (1.0, 2.0), (1.0,), DimensionMismatch),
    (PairwiseCost.bilinear([[1.0, 2.0]]), (1.0,), (1.0,), DimensionMismatch),
    (PairwiseCost.bilinear([[1.0, 2.0]]), (1.0, 0.0), (1.0, 2.0), DimensionMismatch),
    (GRID, (0.5,), (2.0, 3.0), OffGrid),
    (GRID, (1.0,), (2.0, 4.0), OffGrid),
    (GRID, (1.0, 0.0), (2.0, 3.0), OffGrid),
])
def test_kernel_raises_what_value_raises(cost, x, y, error):
    with pytest.raises(error):
        cost.value(x, y)
    with pytest.raises(error):
        pair_matrix(cost, [x], [y])
    for transposed in (False, True):
        with pytest.raises(error):
            cost.block([x], [y], np.empty((1, 1)), transposed)
    with pytest.raises(error):
        cost.paired([x], [y])


@pytest.mark.parametrize("cost", [PairwiseCost.inner_product(), PairwiseCost.half_sq_dist(-1)])
def test_points_without_coordinates_are_refused(cost):
    # No formula reads a point of dimension 0: refused, not left unwritten.
    for call in (lambda: cost.value((), ()), lambda: cost.paired([()], [()]),
                 lambda: cost.block([()], [()], np.empty((1, 1)))):
        with pytest.raises(DimensionMismatch, match="does not couple dimensions 0 and 0"):
            call()


@pytest.mark.parametrize("cost, sign", [
    (PairwiseCost.inner_product(), 1),
    (PairwiseCost.inner_product(-1), -1),
    (PairwiseCost.half_sq_dist(), -1),
    (PairwiseCost.half_sq_dist(-1), 1),
    (PairwiseCost.bilinear([[2.5]]), 1),
    (PairwiseCost.bilinear([[2.5]], -1), -1),
    (PairwiseCost.bilinear([[-0.5]]), -1),
    (PairwiseCost.bilinear([[0.0]]), 0),
    (PairwiseCost.bilinear([[1.0, 0.0]]), 0),
    (PairwiseCost.bilinear([[1.0], [0.0]]), 0),
    (GRID, 0),
    (PairwiseCost.tabulated([0.0, 1.0], [0.0, 1.0], [[0.0, 0.0], [0.0, 1.0]]), 0),
])
def test_mixed_sign_is_the_constant_sign_of_the_mixed_partial(cost, sign):
    assert cost.mixed_sign == sign
    assert cost.negated().mixed_sign == -sign


# Both zeros, subnormals, and magnitudes whose products, differences and
# sums overflow (1e155 squared, 1.7e308 doubled), so that cells are inf or
# inf - inf = nan, as well as ordinary values.
ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e155, -1e155, 1.7e308, -1.7e308)),
    FLOATS,
)


def _entry_points(dim: int):
    return st.lists(st.tuples(*[ENTRIES] * dim), min_size=1, max_size=5)


@st.composite
def kernel_cases(draw):
    """A cost of each kind and sign, with points of dimension 1 to 3 (a
    bilinear cost's two sides may differ) whose coordinates, coefficients
    and table entries are ENTRIES."""
    kind, sign = draw(st.sampled_from(PAIRWISE_KINDS)), draw(st.sampled_from((1, -1)))
    d = draw(st.integers(1, 3))
    dy = draw(st.integers(1, 3)) if kind == "bilinear" else d
    xs, ys = draw(_entry_points(d)), draw(_entry_points(dy))
    if kind == "bilinear":
        coef = draw(st.lists(st.lists(ENTRIES, min_size=dy, max_size=dy), min_size=d, max_size=d))
        return PairwiseCost.bilinear(coef, sign), xs, ys
    if kind == "tabulated":
        gx, gy = xs + draw(_entry_points(d)), ys + draw(_entry_points(dy))
        table = draw(st.lists(st.lists(ENTRIES, min_size=len(gy), max_size=len(gy)),
                              min_size=len(gx), max_size=len(gx)))
        return PairwiseCost.tabulated(gx, gy, table, sign), xs, ys
    return PairwiseCost(kind, sign), xs, ys


@given(kernel_cases(), st.sampled_from((1, 3, core.PAIR_BLOCK_CELLS)))
def test_block_equals_the_broadcast_matrix_bit_for_bit(case, cells):
    cost, xs, ys = case
    with np.errstate(over="ignore", invalid="ignore"):
        want = pair_matrix(cost, xs, ys)
        for transposed in (False, True):
            out = np.full(want.T.shape if transposed else want.shape, 7.0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "PAIR_BLOCK_CELLS", cells)
                got = cost.block(xs, ys, out, transposed)
            assert got is out
            got = got.T if transposed else got
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))  # zeros and nans too


@pytest.mark.parametrize("kind", ["inner_product", "half_sq_dist"])
def test_a_block_peaks_at_its_result_plus_one_buffer(kind):
    rng = np.random.default_rng(5)
    x, y = rng.uniform(-2.0, 2.0, (2000, 2)), rng.uniform(-2.0, 2.0, (2000, 2))
    cost = PairwiseCost(kind)
    for transposed in (False, True):
        tracemalloc.start()
        try:
            out = cost.block(x, y, np.empty((2000, 2000)), transposed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 256 kB covers the transposed points and NumPy's broadcast buffers
        assert peak <= out.nbytes + 8 * core.PAIR_BLOCK_CELLS + (1 << 18)
    # The broadcast matrix held a temporary of the result's size beside it.
    tracemalloc.start()
    try:
        pair_matrix(cost, x, y)
        assert tracemalloc.get_traced_memory()[1] >= 2 * out.nbytes
    finally:
        tracemalloc.stop()


@given(
    st.sampled_from(("c1", "c2", "c3")),
    st.integers(2, 4),
    st.integers(1, 2),
    st.booleans(),
    st.data(),
)
def test_total_many_reproduces_total(which, n, d, shifted, data):
    spec = classical_cost(which, n, d)
    if shifted:
        # the last marginal gets no shift term: an empty tuple
        spec = add_separable_shift(
            spec,
            [LinearForm((1.5,) * d, -2.0)] + [QuadraticForm.identity(d, -0.5)] * (n - 2) + [None],
        )
    rows = data.draw(st.lists(st.tuples(*[FLOATS] * (n * d)), min_size=1, max_size=8))
    got = spec.total_many(np.array(rows))
    for r, flat in enumerate(rows):
        point = tuple(flat[k * d:(k + 1) * d] for k in range(n))
        assert same_bits(got[r], spec.total(point))


def test_total_many_covers_tabulated_and_bilinear_pairs():
    spec = CostSpec((1, 2, 1), {
        (1, 2): PairwiseCost.bilinear([[1.0, -2.0]]),
        (1, 3): PairwiseCost.tabulated([0.0, 1.0], [5.0], [[3.0], [4.0]], sign=-1),
        (2, 3): PairwiseCost.bilinear([[0.5], [2.0]]),
    })
    rows = [(1.0, 2.0, 3.0, 5.0), (-0.0, 1.0, 1.0, 5.0)]
    got = spec.total_many(np.array(rows))
    for r, (a, b, c, e) in enumerate(rows):
        assert same_bits(got[r], spec.total(((a,), (b, c), (e,))))
    with pytest.raises(OffGrid):
        spec.total_many(np.array([(0.5, 2.0, 3.0, 5.0)]))
    with pytest.raises(DimensionMismatch):
        spec.total_many(np.array([(0.0, 2.0, 3.0)]))


@st.composite
def spec_and_point(draw):
    """A cost on n marginals of dimension d, each pair of a drawn kind and
    sign, maybe shifted, and a point whose coordinates are ENTRIES: as
    drawn, or with a marginal missing, one too many, or one too wide.  A
    tabulated pair's grids hold the point's marginals unless drawn off."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    point = tuple(draw(st.tuples(*[ENTRIES] * d)) for _ in range(n))
    pairs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            kind, sign = draw(st.sampled_from(PAIRWISE_KINDS)), draw(st.sampled_from((1, -1)))
            if kind == "bilinear":
                coef = draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                                     min_size=d, max_size=d))
                pairs[(i, j)] = PairwiseCost.bilinear(coef, sign)
            elif kind == "tabulated":
                on = [] if draw(st.booleans()) and draw(st.booleans()) else [point[i - 1]]
                gx, gy = on + draw(_entry_points(d)), [point[j - 1]] + draw(_entry_points(d))
                table = draw(st.lists(st.lists(ENTRIES, min_size=len(gy), max_size=len(gy)),
                                      min_size=len(gx), max_size=len(gx)))
                pairs[(i, j)] = PairwiseCost.tabulated(gx, gy, table, sign)
            else:
                pairs[(i, j)] = PairwiseCost(kind, sign)
    spec = CostSpec((d,) * n, pairs)
    if draw(st.booleans()):
        vector, matrix = draw(st.tuples(*[ENTRIES] * d)), [[draw(ENTRIES)] * d] * d
        spec = add_separable_shift(spec, [LinearForm(vector, -2.0), QuadraticForm(matrix)]
                                   + [None] * (n - 2))
    shape = draw(st.sampled_from(("as drawn", "missing", "extra", "wide")))
    if shape == "missing":
        point = point[:-1]
    elif shape == "extra":
        point = point + point[:1]
    elif shape == "wide":
        point = (point[0] + (0.0,),) + point[1:]
    return spec, point


def _outcome(fn):
    """fn's value, or the type of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the error's type is the outcome compared
        return type(exc)


@given(spec_and_point())
def test_total_reproduces_the_one_point_loop(case):
    spec, point = case
    with np.errstate(all="ignore"):
        got, want = _outcome(lambda: spec.total(point)), _outcome(lambda: total_loop(spec, point))
    if isinstance(want, type):
        assert got is want
    else:
        assert type(got) is float
        assert same_bits(got, want) or (math.isnan(got) and math.isnan(want))


@given(st.integers(1, 3), st.data())
def test_closed_form_values_reproduce_float_formulas(d, data):
    """One formula per form serves arrays and single points; on floats it
    must give what the textbook loop gives, Python's ** included."""
    matrix = data.draw(st.lists(st.lists(FLOATS, min_size=d, max_size=d), min_size=d, max_size=d))
    vector = data.draw(st.lists(FLOATS, min_size=d, max_size=d))
    terms = data.draw(st.lists(st.tuples(FLOATS, st.sampled_from((4 / 3, 2.0, 8 / 5, 6.0))),
                               max_size=3))
    rows = data.draw(vecs(d))
    oracles = [
        (QuadraticForm(matrix),
         lambda x: 0.5 * sum(x[i] * sum(matrix[i][j] * x[j] for j in range(d)) for i in range(d))),
        (LinearForm(vector, 0.25), lambda x: sum(a * b for a, b in zip(vector, x)) + 0.25),
    ]
    if d == 1:
        oracles.append((EvenPowerForm(terms), lambda x: sum(c * abs(x[0]) ** p for c, p in terms)))
    for form, oracle in oracles:
        got = form.values(np.array(rows))
        for r, x in enumerate(rows):
            assert same_bits(got[r], oracle(x))
            assert type(form.value(x)) is float and same_bits(form.value(x), got[r])


@given(st.integers(1, 3), st.booleans(), st.data())
def test_values_at_reproduces_value_at(d, with_form, data):
    table = data.draw(st.lists(st.tuples(*[st.sampled_from((-1.0, 0.0, 0.5, 2.0))] * d),
                               min_size=1, max_size=8, unique=True))
    values = data.draw(st.lists(st.one_of(FLOATS, st.just(math.inf)),
                                min_size=len(table), max_size=len(table)))
    form = LinearForm((1.0,) * d, 0.0) if with_form else None
    pot = Potential.from_closed_form(form) if form else Potential(tuple(table), tuple(values))
    # queries: table points, their -0.0 twins, and points off the table
    queries = table + [tuple(-v if v == 0.0 else v for v in p) for p in table]
    queries += data.draw(st.lists(st.tuples(*[st.sampled_from((-0.0, 0.0, 0.5, 3.0))] * d),
                                  max_size=6))
    lookup = {} if form else dict(zip(table, values))
    got = pot.values_at(np.array(queries).reshape(len(queries), d))
    for q, v in zip(queries, got):
        want = lookup[q] if q in lookup else form.value(q) if form else math.inf
        assert same_bits(v, want)
        assert same_bits(pot.value_at(q), want)


ROW_VALUES = st.sampled_from((-1.0, -0.0, 0.0, 0.5, 2.0))


def rows(d: int, min_size: int = 0):
    return st.lists(st.tuples(*[ROW_VALUES] * d), min_size=min_size, max_size=10)


def as_array(points: list, d: int) -> np.ndarray:
    return np.array(points, dtype=float).reshape(len(points), d)


def _one_key(rows: np.ndarray) -> np.ndarray:
    return np.zeros(len(rows), dtype=np.uint64)


# unique_rows at its row-count default (here, the column-wise sort), keyed
# from one row up, and keyed with one key for every row, so that every row
# goes through the tie sort.
UNIQUE_ROWS_PATHS = {
    "default": {},
    "keyed": {"KEYED_ROWS": 0},
    "all tied": {"KEYED_ROWS": 0, "_row_hash": _one_key},
}


@given(st.sampled_from(sorted(UNIQUE_ROWS_PATHS)), st.integers(1, 6), st.data())
def test_unique_rows_keeps_what_dict_fromkeys_keeps(path, d, data):
    points = data.draw(rows(d))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in UNIQUE_ROWS_PATHS[path].items():
            mp.setattr(core, name, value)
        kept = as_array(points, d)[unique_rows(as_array(points, d))]
    want = list(dict.fromkeys(points))  # first seen, -0.0 equal to 0.0
    assert [tuple(r) for r in kept.tolist()] == want
    assert all(same_bits(a, b) for r, w in zip(kept.tolist(), want) for a, b in zip(r, w))


def lattice(values, d: int) -> np.ndarray:
    return np.stack(np.meshgrid(*[values] * d, indexing="ij"), axis=-1).reshape(-1, d)


def certification_samples() -> list[np.ndarray]:
    """Rows shaped like the two certification samples the benchmark dedups:
    a 120-point comonotone set, the 5^3 lattice and 10^4 draws, and 40
    points, the 5^6 lattice and 2 000 draws.  Some points of each set are
    lattice points with their zeros written -0.0, and some draws repeat."""
    rng = np.random.default_rng(16)
    out = []
    for m, d, draws in ((120, 3, 10_000), (40, 6, 2_000)):
        grid = lattice(np.linspace(-1.0, 1.0, 5), d)
        on_grid = grid[rng.choice(len(grid), 10, replace=False)]
        on_grid[on_grid == 0.0] = -0.0
        gamma = np.vstack([np.sort(rng.uniform(-1.0, 1.0, (m - 10, d)), axis=0), on_grid])
        uniform = rng.uniform(-1.5, 1.5, (draws, d))
        repeats = uniform[rng.choice(draws, 50)]
        out.append(np.vstack([gamma, grid, uniform, repeats, gamma[:5]]))
    return out


def test_unique_rows_on_certification_samples_matches_the_column_sort():
    for pts in certification_samples():
        assert len(pts) >= core.KEYED_ROWS
        want = unique_rows_lexsort(pts)
        assert want.sum() < len(pts) - 60  # the repeats, the -0.0 points, gamma[:5]
        assert np.array_equal(unique_rows(pts), want)


def test_row_hash_has_no_collision_on_samples_and_lattices():
    # A collision costs the tie sort, never the mask; this guards the speed.
    cases = certification_samples()
    for d in range(1, 7):
        cases += [lattice(np.linspace(-1.0, 1.0, 5), d), lattice(np.arange(-2.0, 3.0), d)]
    for pts in cases:
        distinct = len(set(map(tuple, pts.tolist())))
        assert len(np.unique(core._row_hash(pts))) == distinct


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_find_rows_answers_what_a_dict_lookup_answers(d, dq, data):
    table = data.draw(rows(d))
    queries = data.draw(rows(dq)) + (table if dq == d else [])
    index = {p: i for i, p in enumerate(table)}  # a repeated row: its last copy
    got = find_rows(as_array(table, d), as_array(queries, dq))
    assert got.tolist() == [index.get(q, -1) for q in queries]


def laid_out(points: list, d: int, layout: str) -> np.ndarray:
    """as_array with its rows in one of three layouts: packed, column-major,
    or a column slice of a wider array, as marginal_blocks hands values_at
    a marginal's rows."""
    a = as_array(points, d)
    if layout == "column-major":
        return np.asfortranarray(a)
    if layout == "slice":
        pad = np.full((len(a), 1), 7.0)
        return marginal_blocks(np.hstack([pad, a, pad]), (1, d, 1))[1]
    return a


@given(st.sampled_from([1, 2, 3, 64]), st.booleans(),
       st.sampled_from(["packed", "column-major", "slice"]), st.data())
def test_a_row_index_answers_every_batch_as_a_dict_lookup(d, distinct, layout, data):
    # One index answers several batches.  Sixty-four columns make the
    # widest keys, 512 bytes a row.
    values = FLOATS if distinct else ROW_VALUES
    table = data.draw(st.lists(st.tuples(*[values] * d), max_size=12))
    index = RowIndex(laid_out(table, d, layout))
    lookup = {p: i for i, p in enumerate(table)}  # a repeated row: its last copy
    for _ in range(3):
        queries = data.draw(st.lists(st.tuples(*[values] * d), max_size=6))
        if table:
            # table rows, and table rows with one coordinate changed
            picks = data.draw(st.lists(st.sampled_from(table), max_size=6))
            queries += picks + [p[:-1] + (p[-1] + 1.0,) for p in picks]
        got = index.find(laid_out(queries, d, layout))
        assert got.tolist() == [lookup.get(q, -1) for q in queries]

