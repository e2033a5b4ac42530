"""Core data model: points, costs, closed forms, sets, JSON."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import add_separable_shift, gamma_1d, project, project_pair, translated
from monosplit.core import (
    CostSpec,
    EvenPowerForm,
    GammaSet,
    IndicatorQuadraticForm,
    LinearForm,
    PairwiseCost,
    QuadraticForm,
    as_point,
    as_vec,
    classical_cost,
    dumps_json,
    fields_json,
    form_from_json,
    loads_json,
)
from monosplit.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputValidationError,
    ParseError,
)
from monosplit.monotone import MonotonicityVerdict, Witness
from monosplit.onedim import YoungCheck

finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# points and vectors
# ---------------------------------------------------------------------------


def test_as_vec_coerces_scalars_and_sequences():
    assert as_vec(1.5) == (1.5,)
    assert as_vec([1, 2]) == (1.0, 2.0)
    assert as_vec((0.0,)) == (0.0,)


def test_as_vec_rejects_non_finite():
    with pytest.raises(InputValidationError):
        as_vec(float("nan"))
    with pytest.raises(InputValidationError):
        as_vec([1.0, math.inf])


def test_as_point_shapes():
    p = as_point([[1.0, 2.0], [3.0], 4.0])
    assert p == ((1.0, 2.0), (3.0,), (4.0,))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_quadratic_form_value_and_identity():
    q = QuadraticForm(((2.0, 0.0), (0.0, 4.0)))
    assert q.value((1.0, 1.0)) == 3.0
    qi = QuadraticForm.identity(3)
    assert qi.value((1.0, 2.0, 2.0)) == 4.5
    with pytest.raises(DimensionMismatch):
        q.value((1.0,))


def test_linear_form():
    f = LinearForm((2.0, -1.0), constant=0.5)
    assert f.value((1.0, 1.0)) == 1.5
    assert f.negated().value((1.0, 1.0)) == -1.5
    assert json.dumps(LinearForm((0.0, 1.5), -0.0).negated().to_json()) == (
        '{"form": "linear", "vector": [-0.0, -1.5], "constant": 0.0}'
    )


def test_even_power_form_is_even():
    u = EvenPowerForm(((0.75, 4.0 / 3.0),))
    assert u.value((2.0,)) == u.value((-2.0,))
    assert u.value((0.0,)) == 0.0


def test_indicator_quadratic_form_membership_exact():
    u1 = IndicatorQuadraticForm("first_axis", ((2.0, 0.0), (0.0, 0.0)))
    assert u1.value((3.0, 0.0)) == 9.0
    assert u1.value((3.0, 1e-300)) == math.inf
    u2 = IndicatorQuadraticForm("diagonal", ((2.0, 0.0), (0.0, 2.0)))
    assert u2.value((1.5, 1.5)) == 4.5
    assert u2.value((1.5, 1.4)) == math.inf
    # rows on and off both subspaces, signed zeros included
    mixed = [(3.0, 0.0), (3.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (1.5, 1.5), (1.5, 1.4),
             (3.0, 1e-300), (-2.0, -2.0)]
    inf = math.inf
    expected = {u1: [9.0, 9.0, 0.0, 0.0, inf, inf, inf, inf],
                u2: [inf, inf, 0.0, 0.0, 4.5, inf, inf, 8.0]}
    for form, want in expected.items():
        got = form.values(np.array(mixed)).tolist()
        assert got == want == [form.value(x) for x in mixed]
    with pytest.raises(InputValidationError):
        IndicatorQuadraticForm("bogus", ((1.0,),))


@given(st.lists(finite, min_size=1, max_size=4))
def test_form_json_round_trip(coords):
    vec = tuple(coords)
    forms = [
        LinearForm(vec, constant=1.25),
        QuadraticForm.identity(len(vec)),
        EvenPowerForm(((0.5, 2.0), (0.25, 4.0 / 3.0))),
    ]
    for f in forms:
        g = form_from_json(loads_json(dumps_json(f.to_json())))
        x = vec if not isinstance(f, EvenPowerForm) else vec[:1]
        assert g.value(x) == pytest.approx(f.value(x), abs=1e-15)


# ---------------------------------------------------------------------------
# pairwise costs and cost specs
# ---------------------------------------------------------------------------


def test_pairwise_cost_values():
    inner = PairwiseCost.inner_product()
    assert inner.value((1.0, 2.0), (3.0, -1.0)) == 1.0
    half = classical_cost("c2", 2, 1).pair_cost(1, 2)
    assert half.value((1.0,), (3.0,)) == 2.0


def test_pairwise_cost_symmetry_of_classical_kernels():
    inner = PairwiseCost.inner_product()
    half = classical_cost("c2", 2, 2).pair_cost(1, 2)
    x, y = (1.0, -2.0), (0.5, 3.0)
    assert inner.value(x, y) == inner.value(y, x)
    assert half.value(x, y) == half.value(y, x)


@given(
    st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=5),
)
def test_classical_cost_identities(points):
    """c3 = c1 + sum_i q(x_i) and c2 = (N-1) sum_i q(x_i) - c1 on R^1."""
    c1 = classical_cost("c1", 3, 1)
    c2 = classical_cost("c2", 3, 1)
    c3 = classical_cost("c3", 3, 1)
    for row in points:
        p = as_point(row)
        qsum = 0.5 * sum(t * t for (t,) in p)
        assert c3.total(p) == pytest.approx(c1.total(p) + qsum, abs=1e-9)
        assert c2.total(p) == pytest.approx(2.0 * qsum - c1.total(p), abs=1e-9)
        assert c3.total(p) == pytest.approx(0.5 * sum(t for (t,) in p) ** 2, abs=1e-9)


def test_cost_spec_validation():
    with pytest.raises(InputValidationError):
        CostSpec((1,), {})
    pairs = {(1, 2): PairwiseCost.inner_product()}
    with pytest.raises(InputValidationError):
        CostSpec((1, 1, 1), pairs)  # missing (1,3) and (2,3)
    with pytest.raises(DimensionMismatch):
        CostSpec((1, 2), {(1, 2): PairwiseCost.inner_product()})


def test_cost_spec_negation_and_shift():
    spec = classical_cost("c1", 2, 1)
    p = as_point([1.0, 2.0])
    assert spec.negated().total(p) == -spec.total(p)
    shifted = add_separable_shift(spec, [LinearForm((1.0,)), None])
    assert shifted.total(p) == spec.total(p) + 1.0


def test_cost_spec_json_round_trip():
    spec = classical_cost("c3", 3, 2)
    back = CostSpec.from_json(loads_json(dumps_json(spec.to_json())))
    p = as_point([[1.0, 0.5], [0.0, -1.0], [2.0, 2.0]])
    assert back.total(p) == pytest.approx(spec.total(p), abs=1e-15)
    assert back.dims == spec.dims


# ---------------------------------------------------------------------------
# gamma sets
# ---------------------------------------------------------------------------


def test_gamma_dedup_and_membership():
    g = GammaSet.from_points([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0]])
    assert g.size == 2
    assert as_point([0.0, 1.0]) in g
    assert as_point([0.0, 2.0]) not in g
    assert g.dims == (1, 1)


def test_projections_preserve_first_seen_order():
    g = gamma_1d([[0.0, 5.0], [1.0, 5.0], [0.0, 7.0]])
    assert project(g, 1) == ((0.0,), (1.0,))
    assert project(g, 2) == ((5.0,), (7.0,))
    assert project_pair(g, 1, 2) == (
        ((0.0,), (5.0,)),
        ((1.0,), (5.0,)),
        ((0.0,), (7.0,)),
    )
    with pytest.raises(IndexOutOfRange):
        project(g, 3)
    with pytest.raises(IndexOutOfRange):
        project_pair(g, 2, 1)


def test_gamma_translation():
    g = gamma_1d([[0.0, 1.0], [1.0, 2.0]])
    t = translated(g, [10.0, -1.0])
    assert t.points == (((10.0,), (0.0,)), ((11.0,), (1.0,)))
    # -0.0 + -0.0 stays -0.0 in the report; a shift of other dims is refused.
    zero = translated(GammaSet.from_points([[-0.0, [-0.0, 1.0]]]), [-0.0, [-0.0, 0.0]])
    assert json.dumps(zero.to_json()["points"]) == "[[[-0.0], [-0.0, 1.0]]]"
    with pytest.raises(DimensionMismatch):
        translated(g, [1.0, [1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        translated(g, [1.0, 2.0, 3.0])


def test_gamma_json_round_trip():
    g = GammaSet.from_points([[[1.0, 2.0], [3.0]], [[0.0, 0.0], [1.0]]])
    back = GammaSet.from_json(loads_json(dumps_json(g.to_json())))
    assert back.points == g.points and back.dims == g.dims


def test_gamma_rejects_mixed_dims():
    with pytest.raises(InputValidationError):
        GammaSet.from_points([[[1.0, 2.0], [3.0]], [[0.0], [1.0]]])


# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------


def test_dumps_json_deterministic_and_lossless():
    doc = {"a": 1.0 / 3.0, "b": [1, 2.5], "c": {"x": True, "y": None}}
    s1, s2 = dumps_json(doc), dumps_json(doc)
    assert s1 == s2
    back = loads_json(s1)
    assert back["a"] == 1.0 / 3.0  # the shortest repr round-trips doubles


def test_dumps_json_rejects_non_finite():
    with pytest.raises(InputValidationError):
        dumps_json({"bad": math.nan})
    with pytest.raises(InputValidationError):
        dumps_json(YoungCheck(math.nan, 1.0, math.nan, False, 0.0))
    with pytest.raises(InputValidationError):
        dumps_json({"bad": object()})


def test_dumps_json_writes_report_objects_field_by_field():
    witness = Witness("pair", (((0.0,), (1.0,)), ((1.0,), (-0.0,))), ((0, 1), (1, 0)), 0.0, 1.0)
    written = {
        "kind": "pair", "points": [[[0.0], [1.0]], [[1.0], [-0.0]]],
        "permutations": [[0, 1], [1, 0]], "permuted_sum": 0.0, "diagonal_sum": 1.0,
        "value": None,
    }
    assert dumps_json(witness) == _stdlib_json(written)
    verdict = MonotonicityVerdict(False, witness, 4, 1e-9)
    assert dumps_json({"v": [verdict]}) == _stdlib_json(
        {"v": [{"holds": False, "witness": written, "checked": 4, "tolerance": 1e-9}]})
    young = YoungCheck(math.inf, 2.0, -math.inf, False, 0.0)
    assert dumps_json(young) == _stdlib_json(
        {"lhs": "inf", "rhs": 2.0, "gap": "-inf", "equality": False, "quadrature_bound": 0.0})


@dataclass(frozen=True)
class _Report:
    zeta: float
    alpha: tuple
    inner: _Report | None = None

    to_json = fields_json


def test_fields_json_writes_a_report_in_field_order():
    report = _Report(1.5, (2, 3.0), _Report(-math.inf, ()))
    assert list(report.to_json()) == ["zeta", "alpha", "inner"]
    assert dumps_json(report) == _stdlib_json(
        {"zeta": 1.5, "alpha": [2, 3.0], "inner": {"zeta": "-inf", "alpha": [], "inner": None}})


# The writer's oracle: what json.dumps writes with the same settings.
def _stdlib_json(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


json_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1]),
)
json_scalars = st.one_of(
    json_floats,
    json_floats.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(["inf", "-inf", "\u00e9\u2211\U0001f600", "tab\tnul\x00\x7f\"q\\"]),
)
json_keys = st.one_of(st.text(), st.integers(), json_floats, st.booleans(), st.none())
float_rows = st.integers(0, 3).flatmap(
    lambda k: st.lists(st.lists(json_floats, min_size=k, max_size=k), max_size=5)
)
ragged_rows = st.lists(st.lists(json_floats, max_size=3), max_size=5)
# A float list with one item of another JSON type spliced in.
mixed_floats = st.tuples(
    st.lists(json_floats, max_size=5), st.sampled_from([1, True, False, None, "inf"]),
    st.integers(0, 5),
).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
json_docs = st.recursive(
    st.one_of(json_scalars, st.lists(json_floats), float_rows, ragged_rows, mixed_floats),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_keys, inner, max_size=4),
    ),
    max_leaves=12,
)


@given(json_docs)
def test_dumps_json_writes_what_the_stdlib_writes(doc):
    assert dumps_json(doc) == _stdlib_json(doc)


def _self_list() -> list:
    lst = [1.0]
    lst.append(lst)
    return lst


def _stable_id(doc) -> str:
    """repr without object addresses, so a case keeps its id from run to run."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(doc))


@pytest.mark.parametrize("doc", [
    [math.nan], [[0.5], [math.nan]], math.nan, np.float64(math.nan),
    {"k": [1.0, math.nan]}, {math.nan: 1}, {(1, 2): 1},
    object(), [object()], np.int64(1), np.bool_(True),
    _self_list(), {"a": {}, "b": [_self_list()]},
], ids=_stable_id)
def test_dumps_json_raises_what_the_stdlib_raises(doc):
    with pytest.raises((TypeError, ValueError)) as stdlib:
        _stdlib_json(doc)
    with pytest.raises(InputValidationError) as ours:
        dumps_json(doc)
    assert str(ours.value) == f"cannot serialize to JSON: {stdlib.value}"
    assert type(ours.value.__cause__) is type(stdlib.value)


def _inf_as_text(doc):
    """doc with each infinity in it replaced by the string written for it."""
    if isinstance(doc, float) and math.isinf(doc):
        return "inf" if doc > 0 else "-inf"
    if isinstance(doc, dict):
        return {_inf_as_text(k): _inf_as_text(v) for k, v in doc.items()}
    return [_inf_as_text(v) for v in doc] if isinstance(doc, list) else doc


@pytest.mark.parametrize("doc", [
    *([bad] for bad in (math.inf, -math.inf)),
    *([[0.5], [bad]] for bad in (math.inf, -math.inf)),
    math.inf, -math.inf, np.float64(math.inf), {math.inf: [0.5, -math.inf]},
], ids=_stable_id)
def test_dumps_json_writes_infinities_as_strings(doc):
    assert dumps_json(doc) == _stdlib_json(_inf_as_text(doc))


DATA = Path(__file__).parent / "data"
# Input files in the data directory are written compactly, not by dumps_json.
DATA_INPUTS = {"verify_passing_2d_gamma.json"}


def test_every_compact_data_file_is_a_listed_input():
    compact = {p.name for p in DATA.glob("*.json") if p.read_text().count("\n") <= 1}
    assert compact == DATA_INPUTS


@pytest.mark.parametrize(
    "name", sorted(p.name for p in DATA.glob("*.json") if p.name not in DATA_INPUTS)
)
def test_pinned_reports_are_rewritten_byte_for_byte(name):
    text = (DATA / name).read_text()
    assert dumps_json(loads_json(text)) == text


def test_loads_json_raises_parse_error():
    with pytest.raises(ParseError):
        loads_json("{nope")
    with pytest.raises(ParseError):
        GammaSet.from_json({"N": 2, "dims": [1]})
