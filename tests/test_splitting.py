"""Assembly, shifting, certification, and exactness of splitting tuples."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from helpers import (
    check_exactness_condition,
    gamma_1d,
    make_comonotone_gamma,
    scalar_certificate,
    shift_splitting_tuple,
    splitting_implies_monotone_check,
    sum_at,
)
from monosplit.core import GammaSet, QuadraticForm, as_point, classical_cost
from monosplit.errors import (
    BasePointNotInGamma,
    BudgetExceeded,
    DimensionMismatch,
    InputValidationError,
    InternalInconsistency,
    ProjectionNotMonotone,
    UndefinedOnGamma,
)
from monosplit.onedim import knott_smith_alphas, knott_smith_forms
from monosplit.splitting import (
    SplittingTuple,
    assemble_splitting_tuple,
    certify_splitting,
    sample_test_points,
)

C1 = classical_cost("c1", 3, 1)
C3 = classical_cost("c3", 3, 1)
HALF_SQUARE = QuadraticForm(((1.0,),))  # t -> t^2 / 2
DIAGONAL = gamma_1d([[t, t, t] for t in (-1.0, 0.0, 1.0)])
CUBE = [tuple((float(a),) for a in combo)
        for combo in itertools.product((-1, 0, 1), repeat=3)]


def _table(potential):
    return {p[0]: v for p, v in zip(potential.points, potential.values)}


def test_diagonal_assembly_frozen_tables():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    assert tup.base_point == ((-1.0,), (-1.0,), (-1.0,))
    assert _table(tup.potentials[0]) == {-1.0: 0.0, 0.0: -2.0, 1.0: -2.0}
    assert _table(tup.potentials[1]) == {-1.0: 1.0, 0.0: 0.0, 1.0: 1.0}
    assert _table(tup.potentials[2]) == {-1.0: 2.0, 0.0: 2.0, 1.0: 4.0}


def test_diagonal_certificate_is_exact_on_the_cube():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    cert = certify_splitting(tup, DIAGONAL, C1, test_points=CUBE)
    assert cert.passed
    assert cert.max_inequality_violation == 0.0  # attained on the set itself
    assert cert.max_equality_residual_on_gamma == 0.0
    assert cert.n_test_points == 27
    assert cert.n_gamma_points == 3
    assert cert.n_vacuous == 0
    assert cert.seed is None  # explicit points, nothing was sampled


def test_diagonal_exactness_lists_equality_beyond_the_set():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    report = check_exactness_condition(DIAGONAL, tup, C1, test_points=CUBE)
    assert report.intersection_equals_gamma
    assert report.extra_intersection_points == ()
    offenders = {tuple(x[0] for x in p) for p, _ in report.equality_outside_gamma}
    assert offenders == {(0.0, -1.0, -1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)}
    assert all(r <= 1e-9 for _, r in report.equality_outside_gamma)
    assert not report.holds
    assert report.candidates_checked == 27


def test_shift_covariance_between_plain_and_shifted_costs():
    plain = assemble_splitting_tuple(DIAGONAL, C1)
    shifted = shift_splitting_tuple(plain, [HALF_SQUARE] * 3)
    direct = assemble_splitting_tuple(DIAGONAL, C3)
    for u, v in zip(shifted.potentials, direct.potentials):
        assert u.points == v.points
        for a, b in zip(u.values, v.values):
            assert a == pytest.approx(b, abs=1e-12)
    cert = certify_splitting(shifted, DIAGONAL, C3, test_points=CUBE)
    assert cert.passed


def test_shift_rejects_closed_form_backed_potentials():
    tup = SplittingTuple.from_closed_forms([HALF_SQUARE, HALF_SQUARE])
    with pytest.raises(InputValidationError):
        shift_splitting_tuple(tup, [HALF_SQUARE, None])
    with pytest.raises(InputValidationError):
        shift_splitting_tuple(tup, [HALF_SQUARE])  # wrong arity


def test_translated_set_still_certifies():
    moved = DIAGONAL.translated(((0.5,), (-1.0,), (2.0,)))
    tup = assemble_splitting_tuple(moved, C1)
    cert = certify_splitting(tup, moved, C1, n_samples=200, seed=11)
    assert cert.passed
    assert cert.seed == 11


def test_zero_tuple_fails_with_exact_numbers():
    zero = QuadraticForm(((0.0,),))
    tup = SplittingTuple.from_closed_forms([zero, zero, zero])
    cert = certify_splitting(tup, DIAGONAL, C1, test_points=CUBE)
    assert not cert.passed
    assert cert.max_equality_residual_on_gamma == 3.0  # |c(1,1,1) - 0|
    assert cert.max_inequality_violation == 3.0
    assert tuple(x[0] for x in cert.worst_inequality_point) in {(-1.0,) * 3, (1.0,) * 3}


def test_sampler_is_deterministic_and_leads_with_the_set():
    a = sample_test_points(DIAGONAL, n_samples=100, seed=7)
    b = sample_test_points(DIAGONAL, n_samples=100, seed=7)
    assert np.array_equal(a, b)
    assert np.array_equal(a[: DIAGONAL.size], [[x[0] for x in p] for p in DIAGONAL.points])
    assert len(a) > 100  # lattice plus draws on top of the set
    c = sample_test_points(DIAGONAL, n_samples=100, seed=8)
    assert not np.array_equal(c, a)


def test_sampler_drops_lattice_points_already_in_the_set():
    g = gamma_1d([[-1.0] * 3, [-0.0] * 3, [1.0] * 3])  # all on the 5^3 lattice
    a = sample_test_points(g, n_samples=100, seed=7)
    assert len(a) == 3 + (5**3 - 3) + 100
    assert len({tuple(row) for row in a.tolist()}) == len(a)
    assert np.signbit(a[1]).all()  # the set's -0.0 is kept, the lattice's 0.0 dropped


def test_vacuous_points_are_counted_not_failed():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    pts = CUBE + [((5.0,), (0.0,), (0.0,))]
    assert sum_at(tup, ((5.0,), (0.0,), (0.0,))) == math.inf
    cert = certify_splitting(tup, DIAGONAL, C1, test_points=pts)
    assert cert.passed
    assert cert.n_vacuous == 1
    assert cert.n_test_points == 28


def test_misshapen_test_point_is_rejected_not_vacuous():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    for bad in (((0.0, 5.0), (0.0,), (0.0,)), ((0.0,), (0.0,))):
        with pytest.raises(DimensionMismatch):
            certify_splitting(tup, DIAGONAL, C1, test_points=CUBE + [bad])


def test_test_points_fail_with_the_one_point_checks_errors():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    for bad in (((0.0, 5.0), (0.0,), (0.0,)), ((0.0,), (0.0,), (0.0,), (0.0,)),
                ((0.0,), (1.0, 2.0), 0.0), ((math.nan,), (0.0,), (0.0,)),
                (0.0, -math.inf, 1.0), ((0.0,), (0.0,), (1.0, math.inf))):
        with pytest.raises(InputValidationError) as expected:
            C1.validate_point(as_point(bad))
        with pytest.raises(InputValidationError) as got:
            certify_splitting(tup, DIAGONAL, C1, test_points=CUBE + [bad])
        assert type(got.value) is type(expected.value)


def test_scalar_marginals_are_accepted_as_test_points():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    scalars = [tuple(x[0] for x in p) for p in CUBE]
    want = certify_splitting(tup, DIAGONAL, C1, test_points=CUBE)
    for pts in (scalars, scalars[:13] + CUBE[13:], np.array(scalars)):
        assert certify_splitting(tup, DIAGONAL, C1, test_points=pts) == want
    assert certify_splitting(tup, DIAGONAL, C1, test_points=[]).n_test_points == 0


def _assert_matches_scalar_loop(cert, tup, g, spec, pts):
    expected = scalar_certificate(tup, g, spec, pts)
    assert {key: getattr(cert, key) for key in expected} == expected


def _sampled_points(g, n_samples, seed):
    rows = sample_test_points(g, n_samples=n_samples, seed=seed).tolist()
    return [tuple((v,) for v in row) for row in rows]


@pytest.mark.parametrize("which", ["c1", "-c2", "c3"])
def test_certificate_matches_the_scalar_loop_on_tables(rng, which):
    spec = classical_cost(which.lstrip("-"), 3, 1)
    spec = spec.negated() if which.startswith("-") else spec
    for _ in range(3):
        g = make_comonotone_gamma(rng, size=6)
        tup = assemble_splitting_tuple(g, spec, eval_grids=[[0.0, -3.0]] * 3)
        # every table holds 0.0, so the -0.0 coordinates must find it
        pts = list(itertools.product(*(u.points for u in tup.potentials)))
        pts += [((-0.0,), (-0.0,), (-0.0,)), ((-0.0,), (9.0,), (0.0,))]
        cert = certify_splitting(tup, g, spec, test_points=pts)
        _assert_matches_scalar_loop(cert, tup, g, spec, pts)
        assert cert.n_vacuous == 1
        cert = certify_splitting(tup, g, spec, n_samples=300, seed=3)
        _assert_matches_scalar_loop(cert, tup, g, spec, _sampled_points(g, 300, 3))


def test_certificate_matches_the_scalar_loop_on_closed_forms():
    alphas = knott_smith_alphas()
    g = GammaSet.from_points([[a(t / 4) for a in alphas] for t in range(-4, 5)])
    forms, starred = knott_smith_forms()
    for tup, spec in ((SplittingTuple.from_closed_forms(forms), C1),
                      (SplittingTuple.from_closed_forms(starred), C3)):
        cert = certify_splitting(tup, g, spec, n_samples=400, seed=5)
        assert cert.n_vacuous == 0
        _assert_matches_scalar_loop(cert, tup, g, spec, _sampled_points(g, 400, 5))


def test_undefined_on_gamma_is_an_error():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    bigger = gamma_1d([[-1.0, -1.0, -1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(UndefinedOnGamma):
        certify_splitting(tup, bigger, C1, test_points=CUBE)


def test_base_point_must_belong_to_the_set():
    with pytest.raises(BasePointNotInGamma):
        assemble_splitting_tuple(DIAGONAL, C1, s=((5.0,), (5.0,), (5.0,)))


def test_eval_grids_extend_the_tables():
    tup = assemble_splitting_tuple(DIAGONAL, C1, eval_grids=[[-2.0], [-2.0], [-2.0]])
    for u in tup.potentials:
        assert (-2.0,) in u.points
        assert len(u.points) == 4
    cert = certify_splitting(tup, DIAGONAL, C1, test_points=CUBE)
    assert cert.passed
    with pytest.raises(InputValidationError):
        assemble_splitting_tuple(DIAGONAL, C1, eval_grids=[[-2.0]])


def test_non_monotone_projection_aborts_assembly():
    bad = gamma_1d([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ProjectionNotMonotone) as exc:
        assemble_splitting_tuple(bad, C1)
    assert exc.value.pair == (1, 3)
    assert exc.value.gain > 0
    assert exc.value.cycle is not None


def test_monotone_consistency_harness():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    verdict = splitting_implies_monotone_check(tup, DIAGONAL, C1, 3)
    assert verdict.holds
    bad = gamma_1d([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(InternalInconsistency):
        splitting_implies_monotone_check(tup, bad, C1, 2)


def test_exactness_budget_guard():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    with pytest.raises(BudgetExceeded):
        check_exactness_condition(DIAGONAL, tup, C1, budget=2)


def test_tuple_needs_two_potentials():
    with pytest.raises(InputValidationError):
        SplittingTuple.from_closed_forms([HALF_SQUARE])


def test_tuple_json_includes_provenance():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    doc = tup.to_json()
    assert doc["N"] == 3
    assert set(doc["pair_potentials"]) == {"1,2", "1,3", "2,3"}
    assert doc["base_point"] == [[-1.0], [-1.0], [-1.0]]
    assert len(doc["potentials"]) == 3
