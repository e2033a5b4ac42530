"""Chain antiderivatives, discrete conjugation, and the potential type."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    bruteforce_cycle_gain,
    chain_enumeration_oracle,
    make_bilinear_pairs,
    make_random_pairs,
)
from monosplit.antiderivative import (
    Potential,
    c_conjugate,
    rockafellar_potential,
    verify_antiderivative,
)
from monosplit.core import PairwiseCost, QuadraticForm
from monosplit.errors import (
    BasePointNotInProjection,
    ImproperInput,
    InputValidationError,
    NotCyclicallyMonotone,
    ParseError,
)

INNER = PairwiseCost.inner_product()
HALF_SQ = PairwiseCost.half_sq_dist()


def _identity_pairs():
    return [((float(t),), (float(t),)) for t in (-1, 0, 1, 2)]


def test_identity_pairs_frozen_table():
    grid = [(-1.0,), (0.0,), (1.0,), (2.0,)]
    r = rockafellar_potential(INNER, _identity_pairs(), (0.0,), grid)
    assert dict(zip(map(tuple, r.points.tolist()), r.values.tolist())) == {
        (-1.0,): 0.0,
        (0.0,): 0.0,
        (1.0,): 0.0,
        (2.0,): 1.0,
    }


def test_base_value_is_exact_zero():
    r = rockafellar_potential(INNER, _identity_pairs(), (0.0,), [(0.0,)])
    assert r.value_at((0.0,)) == 0.0


def test_matches_chain_enumeration_oracle(rng):
    for _ in range(25):
        pairs = make_random_pairs(rng, m=5, monotone=True)
        base = pairs[0][0]
        evals = [p[0] for p in pairs] + [(-3.0,), (0.25,), (3.0,)]
        r = rockafellar_potential(INNER, pairs, base, evals)
        for x in r.points:
            expect = chain_enumeration_oracle(INNER, pairs, base, x)
            assert r.value_at(x) == pytest.approx(expect, abs=1e-9)


def test_tabulation_matches_chain_oracle_on_continuous_and_bilinear_pairs(rng):
    for _ in range(8):
        t = np.sort(rng.uniform(-2.0, 2.0, size=(6, 2)), axis=0)
        scalar = [((x,), (y,)) for x, y in t.tolist()]
        for cost, pairs in ((INNER, scalar), make_bilinear_pairs(rng, m=5)):
            base = pairs[2][0]
            d = len(base)
            evals = [p[0] for p in pairs] + [(0.5,) * d, (-3.0,) * d]
            r = rockafellar_potential(cost, pairs, base, evals)
            assert r.value_at(base) == 0.0
            for x in r.points.tolist():
                expect = chain_enumeration_oracle(cost, pairs, base, x)
                assert r.value_at(x) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_oracle_agreement_under_squared_distance(rng):
    # antitone relations are the monotone ones for the distance coupling
    for _ in range(10):
        pairs = make_random_pairs(rng, m=4, monotone=True)
        xs = sorted(p[0] for p in pairs)
        ys = sorted((p[1] for p in pairs), reverse=True)
        anti = list(zip(xs, ys))
        base = anti[0][0]
        evals = [p[0] for p in anti] + [(5.0,)]
        r = rockafellar_potential(HALF_SQ, anti, base, evals)
        for x in r.points:
            expect = chain_enumeration_oracle(HALF_SQ, anti, base, x)
            assert r.value_at(x) == pytest.approx(expect, abs=1e-9)


def test_refuses_positive_cycle_with_diagnostics():
    anti = [((0.0,), (1.0,)), ((1.0,), (0.0,))]
    with pytest.raises(NotCyclicallyMonotone) as exc:
        rockafellar_potential(INNER, anti, (0.0,), [(0.0,)])
    assert exc.value.gain == pytest.approx(bruteforce_cycle_gain(INNER, anti), abs=1e-12)
    assert sorted(exc.value.cycle) == [0, 1]


def test_refuses_positive_cycle_that_avoids_every_source():
    # pair 0 is the only source; the cycle 1 -> 2 -> 1 gains 2 - 1 = 1
    pairs = [((0.0,), (0.0,)), ((1.0,), (2.0,)), ((2.0,), (1.0,))]
    with pytest.raises(NotCyclicallyMonotone) as exc:
        rockafellar_potential(INNER, pairs, (0.0,), [(0.0,)])
    assert sorted(exc.value.cycle) == [1, 2]
    assert exc.value.gain == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cost, pairs", [
    (INNER, [((1e155,), (1e155,)), ((1.0,), (2.0,)), ((2.0,), (1.0,))]),
    (HALF_SQ, [((1e154,), (-1e154,)), ((1.0,), (1.0,)), ((2.0,), (2.0,))]),
])
def test_refuses_pairs_whose_costs_overflow(cost, pairs):
    # c(x_0, y_0) overflows, so no finite gain leaves the source pair and a
    # seeded scan would never reach the positive cycle 1 -> 2 -> 1
    assert bruteforce_cycle_gain(cost, pairs[1:]) == pytest.approx(1.0)
    with pytest.warns(RuntimeWarning), pytest.raises(InputValidationError, match="overflow"):
        rockafellar_potential(cost, pairs, pairs[0][0], [pairs[0][0]])


def test_properness_failure_iff_positive_cycle(rng):
    for cost in (INNER, PairwiseCost.half_sq_dist(-1), HALF_SQ):
        raised_count = 0
        for trial in range(50):
            pairs = make_random_pairs(rng, m=2 + trial % 5)
            gain = bruteforce_cycle_gain(cost, pairs)
            base = pairs[0][0]
            try:
                rockafellar_potential(cost, pairs, base, [base])
                raised = False
            except NotCyclicallyMonotone:
                raised = True
            assert raised == (gain > 1e-9)
            raised_count += raised
        assert 0 < raised_count < 50  # both branches exercised


def test_base_must_appear_in_first_projection():
    with pytest.raises(BasePointNotInProjection):
        rockafellar_potential(INNER, _identity_pairs(), (0.5,), [(0.0,)])


def test_a_base_of_another_width_matches_no_pair():
    # (0.0,) would broadcast against every coordinate of (0.0, 0.0).
    pairs = [((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 1.0))]
    with pytest.raises(BasePointNotInProjection):
        rockafellar_potential(INNER, pairs, (0.0,), [(0.0, 0.0)])
    with pytest.raises(BasePointNotInProjection):
        rockafellar_potential(INNER, [((0.0,), (0.0,)), ((1.0,), (1.0,))], (0.0, 0.0), [(0.0,)])


def test_conjugate_of_tabulated_quadratic():
    grid = [(-2.0 + 0.25 * k,) for k in range(17)]
    f = Potential(tuple(grid), tuple(0.5 * p[0] ** 2 for p in grid))
    conj = c_conjugate(f, INNER, grid)
    for y, v in zip(conj.points.tolist(), conj.values.tolist()):
        assert v == pytest.approx(0.5 * y[0] ** 2, abs=1e-12)


def test_conjugate_breaks_ties_toward_lowest_index():
    f = Potential(((-1.0,), (1.0,)), (0.0, 0.0))
    conj = c_conjugate(f, INNER, [(0.0,)])
    assert conj.values.tolist() == [0.0]


def test_conjugate_ties_pick_the_lowest_finite_index():
    # index 0 is +inf; at y = (1, 0) entries 1 and 3 tie, at y = (0, 0)
    # entries 1 and 2 tie, and at y = (0, 1) entry 3 wins outright
    f = Potential(((5.0, 5.0), (1.0, 0.0), (0.0, 1.0), (2.0, 7.0)),
                  (math.inf, 0.0, 0.0, 1.0))
    conj = c_conjugate(f, INNER, [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)])
    assert conj.values.tolist() == [1.0, 0.0, 6.0]


def test_conjugate_ignores_infinite_entries():
    f = Potential(((0.0,), (1.0,)), (math.inf, 3.0))
    conj = c_conjugate(f, INNER, [(2.0,), (0.0,)])
    assert conj.values.tolist() == [-1.0, -3.0]


def test_conjugate_requires_a_finite_value():
    f = Potential(((0.0,), (1.0,)), (math.inf, math.inf))
    with pytest.raises(ImproperInput):
        c_conjugate(f, INNER, [(0.0,)])


def test_young_fenchel_and_graph_inclusion(rng):
    for _ in range(20):
        pairs = make_random_pairs(rng, m=5, monotone=True)
        base = pairs[0][0]
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        r = rockafellar_potential(INNER, pairs, base, xs)
        conj = c_conjugate(r, INNER, ys + [(-2.5,), (2.5,)])
        for x in r.points:
            for y in conj.points:
                lhs = r.value_at(x) + conj.value_at(y)
                assert lhs >= INNER.value(x, y) - 1e-9
        # Graph inclusion: every pair attains Young-Fenchel equality.
        for x, y in pairs:
            assert abs(r.value_at(x) + conj.value_at(y) - INNER.value(x, y)) <= 1e-9


def test_verify_antiderivative_accepts_the_construction(rng):
    for _ in range(20):
        pairs = make_random_pairs(rng, m=5, monotone=True)
        base = pairs[0][0]
        r = rockafellar_potential(INNER, pairs, base, [p[0] for p in pairs])
        check = verify_antiderivative(r, pairs, INNER)
        assert check.holds
        assert abs(check.max_residual) <= 1e-9


def test_verify_antiderivative_rejects_flat_potential():
    pairs = [((0.0,), (1.0,)), ((1.0,), (5.0,))]
    flat = Potential(((0.0,), (1.0,)), (0.0, 0.0))
    check = verify_antiderivative(flat, pairs, INNER)
    assert not check.holds
    assert check.max_residual == 1.0  # probe x1'=1 against the pair (0, 1)


def test_verify_antiderivative_fails_on_missing_point():
    flat = Potential(((0.0,),), (0.0,))
    check = verify_antiderivative(flat, [((1.0,), (1.0,))], INNER)
    assert not check.holds
    assert check.max_residual == math.inf


def test_potential_json_roundtrip_with_inf_and_argmax():
    p = Potential(((0.0,), (1.0,)), (1.5, math.inf))
    q = Potential.from_json(p.to_json())
    assert q.points.tolist() == p.points.tolist()
    assert q.values.tolist() == p.values.tolist()
    # a document that carries the retired conjugate argmax key still loads
    old = {**p.to_json(), "argmax": [0, 1]}
    assert Potential.from_json(old).to_json() == p.to_json() == q.to_json()
    with pytest.raises(ParseError):
        Potential.from_json({"values": [0.0]})


def _tabulated_cost():
    return PairwiseCost.tabulated([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [1.0, 2.0]])


@pytest.mark.parametrize("make, name", [
    (lambda: Potential(((0.0,), (1.0,)), (0.0, 1.0)), "points"),
    (lambda: Potential(((0.0,), (1.0,)), (0.0, 1.0)), "values"),
    (_tabulated_cost, "grid_x"),
    (_tabulated_cost, "grid_y"),
    (_tabulated_cost, "table"),
])
def test_tables_are_read_only_arrays(make, name):
    table = getattr(make(), name)
    assert isinstance(table, np.ndarray)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = 5.0


def test_a_potential_copies_the_arrays_it_is_given():
    points, values = np.array([[0.0], [1.0]]), np.array([0.0, 1.0])
    p = Potential(points, values)
    points[0, 0] = values[0] = 7.0
    assert p.points.tolist() == [[0.0], [1.0]]
    assert p.values.tolist() == [0.0, 1.0]
    assert points.flags.writeable


def test_potential_closed_form_roundtrip_and_fallback():
    form = QuadraticForm(((2.0,),))
    p = Potential.from_closed_form(form)
    q = Potential.from_json(p.to_json())
    assert q.value_at((3.0,)) == p.value_at((3.0,))
    bare = Potential(((0.0,),), (0.0,))
    assert bare.value_at((1.0,)) == math.inf  # off the table, no closed form


def test_potential_validation_rules():
    with pytest.raises(InputValidationError):
        Potential(((0.0,), (0.0,)), (1.0, 2.0))  # duplicate point
    with pytest.raises(InputValidationError):
        Potential(((0.0,),), (-math.inf,))
    with pytest.raises(InputValidationError):
        Potential(((0.0,),), (float("nan"),))
    form = QuadraticForm(((2.0,),))
    with pytest.raises(InputValidationError):  # a table and a closed form, though they agree
        Potential(((1.0,),), (1.0,), closed_form=form)
    with pytest.raises(InputValidationError):
        Potential.from_json({**Potential(((1.0,),), (1.0,)).to_json(), "closed_form": form.to_json()})
