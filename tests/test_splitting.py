"""Assembly, shifting, certification, and exactness of splitting tuples."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    check_exactness_condition,
    counterexample_domain_point,
    gamma_1d,
    gathered_certificate,
    make_comonotone_gamma,
    rounding_bound,
    sample_test_points_concatenated,
    scalar_certificate,
    shift_splitting_tuple,
    splitting_implies_monotone_check,
    sum_at,
    table_values_at,
    translated,
    validate_point,
)
from monosplit import core, monotone
from monosplit.antiderivative import Potential
from monosplit.core import (
    CostSpec,
    EvenPowerForm,
    GammaSet,
    IndicatorQuadraticForm,
    LinearForm,
    PairwiseCost,
    QuadraticForm,
    as_point,
    classical_cost,
    dumps_json,
    loads_json,
)
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
from monosplit.quadratic import (
    commuting_spd_gamma,
    counterexample_construct,
    quadratic_splitting,
    random_commuting_spds,
)
from monosplit.splitting import (
    DEFAULT_SEED,
    SplittingTuple,
    TableIdentity,
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
# Vacuous wherever a potential overflows or is off its table, and its c1 and
# c3 cost overflows to +inf: it must read -inf, never inf - inf = NaN.
HUGE = ((1e200,), (1e200,), (1e200,))


def _table(potential):
    return {p[0]: v for p, v in zip(potential.points, potential.values)}


def _bare(tup):
    """The tuple's potentials without their pair tables, so that they are
    certified on test points."""
    return SplittingTuple(tup.potentials, {}, {})


def test_diagonal_assembly_frozen_tables():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    assert tup.base_point == ((-1.0,), (-1.0,), (-1.0,))
    assert _table(tup.potentials[0]) == {-1.0: 0.0, 0.0: -2.0, 1.0: -2.0}
    assert _table(tup.potentials[1]) == {-1.0: 1.0, 0.0: 0.0, 1.0: 1.0}
    assert _table(tup.potentials[2]) == {-1.0: 2.0, 0.0: 2.0, 1.0: 4.0}


def test_diagonal_certificate_is_exact_on_the_cube():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    cert = certify_splitting(tup, DIAGONAL, C1)  # the product of the tables is the cube
    assert cert.passed
    assert cert.max_inequality_violation == 0.0  # every pair's brackets touch 0
    assert cert.max_equality_residual_on_gamma == 0.0
    assert cert.n_test_points == 27
    assert cert.n_gamma_points == 3
    assert cert.n_vacuous == 0
    assert (cert.seed, cert.worst_inequality_point) == (None, None)  # nothing was sampled


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
        assert u.points.tolist() == v.points.tolist()
        for a, b in zip(u.values, v.values):
            assert a == pytest.approx(b, abs=1e-12)
    cert = certify_splitting(shifted, DIAGONAL, C3)
    assert cert.passed


def test_shift_rejects_closed_form_backed_potentials():
    tup = SplittingTuple.from_closed_forms([HALF_SQUARE, HALF_SQUARE])
    with pytest.raises(InputValidationError):
        shift_splitting_tuple(tup, [HALF_SQUARE, None])
    with pytest.raises(InputValidationError):
        shift_splitting_tuple(tup, [HALF_SQUARE])  # wrong arity


def test_translated_set_still_certifies():
    moved = translated(DIAGONAL, ((0.5,), (-1.0,), (2.0,)))
    tup = assemble_splitting_tuple(moved, C1)
    cert = certify_splitting(tup, moved, C1)
    assert cert.passed
    assert cert.seed is None


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


# Sets for the sampler's oracle check, each with the lattice it should get and
# how many of its own rows lie on it: scalar and 2-D marginals, rows of the set
# on the lattice (so those lattice rows are dropped and the kept ones
# gathered), one point (always the lattice's centre), and sum(dims) = 15,
# where even 2 points per axis overflow LATTICE_CAP and the lattice is dropped.
SAMPLER_SETS = {
    "scalar": (gamma_1d([[0.3, -1.2, 2.0], [1.1, 0.4, 2.5], [-0.7, -2.0, 0.1]]), 5**3, 0),
    "plane": (GammaSet.from_points(np.random.default_rng(4).normal(size=(6, 3, 2)).tolist()),
              5**6, 0),
    "on the lattice": (gamma_1d([[-1.0] * 3, [-0.0] * 3, [1.0] * 3]), 5**3, 3),
    "one point": (gamma_1d([[0.5, -0.0, 2.0]]), 5**3, 1),
    "no lattice": (GammaSet.from_points(np.random.default_rng(5).normal(size=(3, 5, 3)).tolist()),
                   0, 0),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_SETS))
@pytest.mark.parametrize("n_samples", [0, 1, 250])
def test_the_one_buffer_sampler_equals_the_concatenated_one(name, n_samples):
    g, lattice, on_lattice = SAMPLER_SETS[name]
    for seed in (0, 7):
        got = sample_test_points(g, n_samples=n_samples, seed=seed)
        want = sample_test_points_concatenated(g, n_samples=n_samples, seed=seed)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.shares_memory(got, g.coords)
        assert len(got) == g.size + lattice + n_samples - on_lattice


def test_vacuous_points_are_counted_not_failed():
    tup = _bare(assemble_splitting_tuple(DIAGONAL, C1))
    pts = CUBE + [((5.0,), (0.0,), (0.0,))]
    assert sum_at(tup, ((5.0,), (0.0,), (0.0,))) == math.inf
    cert = certify_splitting(tup, DIAGONAL, C1, test_points=pts)
    assert cert.passed
    assert cert.n_vacuous == 1
    assert cert.n_test_points == 28


def test_misshapen_test_point_is_rejected_not_vacuous():
    tup = _bare(assemble_splitting_tuple(DIAGONAL, C1))
    for bad in (((0.0, 5.0), (0.0,), (0.0,)), ((0.0,), (0.0,))):
        with pytest.raises(DimensionMismatch):
            certify_splitting(tup, DIAGONAL, C1, test_points=CUBE + [bad])
    for bad in ([0.0, 1.0], np.zeros(3), 0.0):  # numbers, not a list of points
        with pytest.raises(DimensionMismatch):
            certify_splitting(tup, DIAGONAL, C1, test_points=bad)


def test_test_points_fail_with_the_one_point_checks_errors():
    tup = _bare(assemble_splitting_tuple(DIAGONAL, C1))
    for bad in (((0.0, 5.0), (0.0,), (0.0,)), ((0.0,), (0.0,), (0.0,), (0.0,)),
                ((0.0,), (1.0, 2.0), 0.0), ((math.nan,), (0.0,), (0.0,)),
                (0.0, -math.inf, 1.0), ((0.0,), (0.0,), (1.0, math.inf))):
        with pytest.raises(InputValidationError) as expected:
            validate_point(C1, as_point(bad))
        with pytest.raises(InputValidationError) as got:
            certify_splitting(tup, DIAGONAL, C1, test_points=CUBE + [bad])
        assert type(got.value) is type(expected.value)


def test_scalar_marginals_are_accepted_as_test_points():
    tup = _bare(assemble_splitting_tuple(DIAGONAL, C1))
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
        tup = _bare(assemble_splitting_tuple(g, spec, eval_grids=[[0.0, -3.0]] * 3))
        # every table holds 0.0, so the -0.0 coordinates must find it
        pts = list(itertools.product(*(u.points for u in tup.potentials)))
        pts += [((-0.0,), (-0.0,), (-0.0,)), ((-0.0,), (9.0,), (0.0,))]
        cert = certify_splitting(tup, g, spec, test_points=pts)
        _assert_matches_scalar_loop(cert, tup, g, spec, pts)
        assert cert.n_vacuous == 1
        cert = certify_splitting(tup, g, spec, test_points=sample_test_points(g, 300, 3))
        _assert_matches_scalar_loop(cert, tup, g, spec, _sampled_points(g, 300, 3))


def test_certificate_matches_the_scalar_loop_on_closed_forms():
    alphas = knott_smith_alphas()
    g = GammaSet.from_points([[a(t / 4) for a in alphas] for t in range(-4, 5)])
    forms, starred = knott_smith_forms()
    for tup, spec in ((SplittingTuple.from_closed_forms(forms), C1),
                      (SplittingTuple.from_closed_forms(starred), C3)):
        cert = certify_splitting(tup, g, spec, test_points=sample_test_points(g, 400, 5))
        assert cert.n_vacuous == 0
        _assert_matches_scalar_loop(cert, tup, g, spec, _sampled_points(g, 400, 5))


def test_undefined_on_gamma_is_an_error():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    bigger = gamma_1d([[-1.0, -1.0, -1.0], [2.0, 2.0, 2.0]])
    with pytest.raises(UndefinedOnGamma):
        certify_splitting(tup, bigger, C1)


def test_base_point_must_belong_to_the_set():
    with pytest.raises(BasePointNotInGamma):
        assemble_splitting_tuple(DIAGONAL, C1, s=((5.0,), (5.0,), (5.0,)))


def test_eval_grids_extend_the_tables():
    tup = assemble_splitting_tuple(DIAGONAL, C1, eval_grids=[[-2.0], [-2.0], [-2.0]])
    for u in tup.potentials:
        assert (-2.0,) in u.points
        assert len(u.points) == 4
    cert = certify_splitting(tup, DIAGONAL, C1)
    assert cert.passed
    assert (cert.n_test_points, cert.n_vacuous) == (4**3, 0)
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
    doc = loads_json(dumps_json(tup))
    assert doc["N"] == 3
    assert set(doc["pair_potentials"]) == {"1,2", "1,3", "2,3"}
    assert doc["base_point"] == [[-1.0], [-1.0], [-1.0]]
    assert len(doc["potentials"]) == 3


# ---------------------------------------------------------------------------
# The in-place sum against the gathering reference
# ---------------------------------------------------------------------------


def _assert_same_certificate(got, want):
    assert got == want
    assert dumps_json(got.to_json()) == dumps_json(want.to_json())  # signed zeros too


def _knott_smith_gamma():
    alphas = knott_smith_alphas()
    return GammaSet.from_points([[a(t / 4) for a in alphas] for t in range(-4, 5)])


def _quadratic_case(seed):
    mats = random_commuting_spds(3, 2, seed=seed)
    vs = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(12, 2))
    return quadratic_splitting(mats), commuting_spd_gamma(mats, vs)


def _counterexample_points(rng):
    """Domain points, and points leaving the domain of u_1 or of u_2 only,
    so that rows turn vacuous at the first potential and at the second."""
    ce = counterexample_construct()
    pts = []
    for a1, a2, a3, b3 in rng.uniform(-3.0, 3.0, size=(40, 4)).tolist():
        pts.append(counterexample_domain_point(a1, a2, a3, b3))
        pts.append(((a1, 0.5), (a2, a2), (a3, b3)))
        pts.append(((a1, 0.0), (a2, a2 + 1.0), (a3, b3)))
    return pts


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_closed_form_certificates_equal_the_gathering_reference():
    g = _knott_smith_gamma()
    forms, starred = knott_smith_forms()
    for tup, spec in ((SplittingTuple.from_closed_forms(forms), C1),
                      (SplittingTuple.from_closed_forms(starred), C3)):
        for points in (sample_test_points(g, 500, 2), CUBE, CUBE + [HUGE]):
            _assert_same_certificate(certify_splitting(tup, g, spec, test_points=points),
                                     gathered_certificate(tup, g, spec, test_points=points))
        assert certify_splitting(tup, g, spec, test_points=[HUGE] + CUBE).n_vacuous == 1
    for seed in (0, 7):
        qs, g = _quadratic_case(seed)
        for tup, which in ((qs.potentials(), "c1"), (qs.shifted_potentials(), "c3")):
            spec = classical_cost(which, 3, 2)
            pts = sample_test_points(g, 300, seed)
            for points in (pts, np.vstack([np.full((1, 6), 1e200), pts])):
                _assert_same_certificate(certify_splitting(tup, g, spec, test_points=points),
                                         gathered_certificate(tup, g, spec, test_points=points))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tabulated_certificates_equal_the_gathering_reference(rng):
    for which in ("c1", "c3"):
        spec = classical_cost(which, 3, 1)
        g = make_comonotone_gamma(rng, size=8)
        tup = _bare(assemble_splitting_tuple(g, spec, eval_grids=[[0.0, -3.0]] * 3))
        pts = list(itertools.product(*(u.points for u in tup.potentials)))
        pts += [((-0.0,), (-0.0,), (-0.0,)), ((-0.0,), (9.0,), (0.0,)), ((0.0,), (0.0,), (9.0,)),
                HUGE]
        for points in (sample_test_points(g, 400, 4), pts):
            cert = certify_splitting(tup, g, spec, test_points=points)
            assert cert.n_vacuous > 0
            _assert_same_certificate(cert, gathered_certificate(tup, g, spec, test_points=points))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_tables_with_a_closed_form_extension_equal_the_gathering_reference():
    g = _knott_smith_gamma()
    forms, _ = knott_smith_forms()
    marginals = [np.unique(g.coords[:, i])[:, None] for i in range(3)]
    # Two tables, +inf off them, beside a closed form defined everywhere.
    tables = [Potential(x, form.values(x)) for x, form in zip(marginals, forms[:2])]
    tup = SplittingTuple((*tables, Potential.from_closed_form(forms[2])), {}, {})
    off_tables = ((0.3,), (0.3,), (0.3,))
    for points in (sample_test_points(g, 300, 1), CUBE + [off_tables], [HUGE] + CUBE):
        cert = certify_splitting(tup, g, C1, test_points=points)
        assert 0 < cert.n_vacuous < cert.n_test_points
        _assert_same_certificate(cert, gathered_certificate(tup, g, C1, test_points=points))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_indicator_certificates_equal_the_gathering_reference(rng):
    ce = counterexample_construct()
    spec = ce.cost()
    g = GammaSet.from_points([ce.span_point(lam, mu) for lam, mu in
                              rng.uniform(-2.0, 2.0, size=(6, 2)).tolist()])
    pts = _counterexample_points(rng)
    huge = ((1e200, 0.0), (1e200, 1e200), (1e200, 1e200))  # off the domain of u_1
    for points in (sample_test_points(g, 300, 3), pts, [huge] + pts):
        cert = certify_splitting(ce.potentials(), g, spec, test_points=points)
        assert cert.n_vacuous > 0
        want = gathered_certificate(ce.potentials(), g, spec, test_points=points)
        _assert_same_certificate(cert, want)
    cert = certify_splitting(ce.potentials(), g, spec, test_points=pts)
    assert cert.n_vacuous == 80  # two thirds: one third at u_1, one at u_2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_empty_test_points_equal_the_gathering_reference():
    qs, g = _quadratic_case(3)
    tup, spec = qs.potentials(), classical_cost("c1", 3, 2)
    for pts in ([], np.empty((0, 6))):
        cert = certify_splitting(tup, g, spec, test_points=pts)
        assert (cert.n_test_points, cert.worst_inequality_point) == (0, None)
        _assert_same_certificate(cert, gathered_certificate(tup, g, spec, test_points=pts))
    # No row covered: the one test point is vacuous, and its cost overflows.
    cert = certify_splitting(tup, g, spec, test_points=np.full((1, 6), 1e200))
    assert (cert.n_vacuous, cert.max_inequality_violation, cert.worst_inequality_point) == (
        1, -math.inf, None)
    _assert_same_certificate(
        cert, gathered_certificate(tup, g, spec, test_points=np.full((1, 6), 1e200)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_worst_point_is_the_first_covered_row_when_every_violation_is_minus_inf():
    g = _knott_smith_gamma()
    table = Potential(np.unique(g.coords[:, 0])[:, None], np.zeros(len(np.unique(g.coords[:, 0]))))
    zero = Potential.from_closed_form(LinearForm((0.0,), 0.0))
    tup = SplittingTuple((table, zero, zero), {}, {})
    # Off u_1's table first, then two covered rows whose c1 cost is -inf.
    points = [((0.3,), (1e300,), (-1e300,)), ((1.0,), (1e300,), (-1e300,)),
              ((0.0,), (1e300,), (-1e300,))]
    cert = certify_splitting(tup, g, C1, test_points=points)
    assert (cert.n_vacuous, cert.max_inequality_violation) == (1, -math.inf)
    assert cert.worst_inequality_point == points[1]
    _assert_same_certificate(cert, gathered_certificate(tup, g, C1, test_points=points))


def test_vacuous_rows_off_a_tabulated_cost_grid_are_not_costed():
    g, spec, grids = _mixed_cost_case(0)
    tup = _bare(assemble_splitting_tuple(g, spec, eval_grids=grids))
    points = list(itertools.product(*(u.points for u in tup.potentials)))
    points.append(((0.25,), (0.25,), (0.25,)))  # off every table and off the cost's grids
    cert = certify_splitting(tup, g, spec, test_points=points)
    assert cert.n_vacuous == 1
    _assert_same_certificate(cert, gathered_certificate(tup, g, spec, test_points=points))


@pytest.mark.parametrize("form", [
    QuadraticForm(((2.0, 0.5), (0.5, 1.0))),
    LinearForm((1.5, -2.0), 0.25),
    IndicatorQuadraticForm("diagonal", ((1.0, 0.0), (0.0, 3.0))),
    EvenPowerForm(((0.75, 4.0 / 3.0), (0.5, 2.0))),
])
def test_closed_form_values_at_equals_the_table_path(rng, form):
    u = Potential.from_closed_form(form)
    rows = rng.uniform(-2.0, 2.0, size=(50, 1 if isinstance(form, EvenPowerForm) else 2))
    rows[::5, -1] = rows[::5, 0]  # on the diagonal, where the indicator is finite
    rows[1] = -0.0
    for xs in (rows, rows[:0], rows[::3]):
        got = u.values_at(xs)
        assert got.dtype == np.float64 and got.shape == (len(xs),)
        assert got.tobytes() == table_values_at(u, xs).tobytes()


def test_flattened_array_test_points_on_2d_marginals():
    qs, g = _quadratic_case(5)
    spec = classical_cost("c1", 3, 2)
    tup = qs.potentials()
    rows = sample_test_points(g, n_samples=200, seed=5)
    nested = [tuple(tuple(r[k:k + 2]) for k in (0, 2, 4)) for r in rows.tolist()]
    want = certify_splitting(tup, g, spec, test_points=nested)
    assert certify_splitting(tup, g, spec, test_points=rows) == want
    # With no test points, the default sample is drawn and its seed recorded.
    sampled = certify_splitting(tup, g, spec, test_points=sample_test_points(g))
    assert certify_splitting(tup, g, spec) == replace(sampled, seed=DEFAULT_SEED)
    for bad in (rows[:, :5], rows[:, :3], np.hstack([rows, rows[:, :1]]), rows.reshape(-1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            certify_splitting(tup, g, spec, test_points=bad)


# ---------------------------------------------------------------------------
# Pairwise Fenchel-Young brackets over the product of the tables
# ---------------------------------------------------------------------------


def _lowered(tup, i, x, by):
    """The tuple with u_i lowered by `by` at its grid point x, pair tables kept."""
    pots = list(tup.potentials)
    u = pots[i - 1]
    values = np.array(u.values)
    values[u.points[:, 0] == x] -= by
    pots[i - 1] = Potential(u.points, values)
    return SplittingTuple(tuple(pots), tup.pair_potentials, tup.pair_conjugates, tup.base_point)


def test_lowered_table_value_off_gamma_is_refused_by_name():
    rng = np.random.default_rng(7)
    coords = np.sort(rng.uniform(-1.5, 1.5, size=(120, 3)), axis=0)
    g = gamma_1d(coords.tolist())
    grid = [[-2.0 + 0.25 * k] for k in range(17)]
    tup = assemble_splitting_tuple(g, C1, eval_grids=[grid] * 3)
    assert certify_splitting(tup, g, C1).passed
    tampered = _lowered(tup, 2, 1.75, 1.0)  # 1.75 is off the set's projection
    # The sample misses it; the points with x_2 = 1.75 do not.
    assert gathered_certificate(tampered, g, C1).passed
    row = [(a, (1.75,), b) for a, b in itertools.product(tup.potentials[0].points.tolist(),
                                                         tup.potentials[2].points.tolist())]
    violation = gathered_certificate(tampered, g, C1, test_points=row).max_inequality_violation
    assert violation == pytest.approx(1.0, abs=1e-12)
    cert = certify_splitting(tampered, g, C1)
    assert not cert.passed
    assert cert.table_identity[1] == TableIdentity(2, 1.0, (1.75,))
    assert [t.max_residual for t in cert.table_identity] == [0.0, 1.0, 0.0]
    assert loads_json(dumps_json(cert))["table_identity"][1] == {
        "marginal": 2, "max_residual": 1.0, "worst_point": [1.75]}


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(),
       st.floats(1e-6, 10.0))
def test_any_lowered_value_off_gamma_is_refused_by_name(seed, i, right, by):
    g = make_comonotone_gamma(np.random.default_rng(seed), size=4)
    tup = assemble_splitting_tuple(g, C3, eval_grids=[[-5.0, 7.5]] * 3)
    x = 7.5 if right else -5.0
    cert = certify_splitting(_lowered(tup, i, x, by), g, C3)
    assert not cert.passed
    worst = max(cert.table_identity, key=lambda t: t.max_residual)
    assert (worst.marginal, worst.worst_point) == (i, (x,))
    assert worst.max_residual == pytest.approx(by, rel=1e-9, abs=1e-9)


def _mixed_cost_case(seed):
    """A scalar set under a cost mixing bilinear, tabulated and negated
    pairs with shifts; the tabulated pair's grids hold every grid point."""
    g = make_comonotone_gamma(np.random.default_rng(seed), size=5)
    extra = [[-3.0], [4.5]]
    xs = sorted({p[0][0] for p in g.points} | {-3.0, 4.5})
    ys = sorted({p[2][0] for p in g.points} | {-3.0, 4.5})
    spec = CostSpec((1, 1, 1), {
        (1, 2): PairwiseCost.bilinear([[2.0]]),
        (1, 3): PairwiseCost.tabulated(xs, ys, [[x * y + 0.5 * x for y in ys] for x in xs]),
        (2, 3): PairwiseCost.half_sq_dist(-1),
    }, ((LinearForm((1.0,), 0.5),), (), (QuadraticForm(((0.25,),)),)))
    return g, spec, [extra] * 3


def _oracle_cases():
    for seed in range(3):
        for which, n in (("c1", 3), ("-c2", 3), ("c3", 3), ("c1", 4), ("-c2", 4), ("c3", 4)):
            spec = classical_cost(which.lstrip("-"), n, 1)
            spec = spec.negated() if which.startswith("-") else spec
            g = make_comonotone_gamma(np.random.default_rng(seed), n_marginals=n, size=5)
            yield g, spec, [[[-3.0], [4.5]]] * n  # g_i <= 7
        mats = random_commuting_spds(3, 2, seed=seed)
        g = commuting_spd_gamma(mats, np.random.default_rng(seed).uniform(-2.0, 2.0, size=(8, 2)))
        for which in ("c1", "c3"):
            yield g, classical_cost(which, 3, 2), None
        yield _mixed_cost_case(seed)


def test_pairwise_bound_covers_the_enumerated_table_product():
    for g, spec, grids in _oracle_cases():
        tup = assemble_splitting_tuple(g, spec, eval_grids=grids)
        assert all(len(u.points) <= 8 for u in tup.potentials)
        cert = certify_splitting(tup, g, spec)
        product = list(itertools.product(*(u.points.tolist() for u in tup.potentials)))
        ref = gathered_certificate(tup, g, spec, test_points=product)
        assert ref.max_inequality_violation <= cert.max_inequality_violation + 1e-12
        assert cert.passed == ref.passed
        assert (cert.n_test_points, cert.n_vacuous) == (ref.n_test_points, ref.n_vacuous)
        for b in cert.pairs:  # each reduction against loops over its rows and cells
            f, fc = tup.pair_potentials[b.pair], tup.pair_conjugates[b.pair]
            cost = spec.pair_cost(*b.pair)
            xs, ys = f.points.tolist(), fc.points.tolist()
            rows = [f.value_at(x) - max(cost.value(x, y) - fc.value_at(y) for y in ys)
                    for x in xs if f.value_at(x) != math.inf]
            assert b.lowest_bracket == min(rows)  # f(x) - f^cc(x), the transform's formula
            cells = [(f.value_at(x) + fc.value_at(y)) - cost.value(x, y)
                     for x, y in itertools.product(xs, ys)]
            assert b.cells == len(cells)
            # The cells add the same terms in another order: within the rounding bound.
            bound = max(rounding_bound(f.value_at(x), fc.value_at(y), cost.value(x, y))
                        for x, y in itertools.product(xs, ys))
            assert abs(b.lowest_bracket - min(cells)) <= bound < math.inf


@pytest.mark.parametrize("cells", [1, 40, monotone.PAIR_BLOCK_CELLS])
def test_pair_reductions_keep_their_blocks_and_results(monkeypatch, cells):
    rng = np.random.default_rng(11)
    g = gamma_1d(np.sort(rng.uniform(-1.5, 1.5, size=(1000, 3)), axis=0).tolist())
    tup = assemble_splitting_tuple(g, C1)
    want = certify_splitting(tup, g, C1)
    sizes = [len(u.points) for u in tup.potentials]
    assert (want.n_test_points, want.n_vacuous) == (math.prod(sizes), 0)
    shapes = []

    def recorded(self, xs, ys, out, transposed=False, _block=PairwiseCost.block):
        shapes.append(out.shape)
        return _block(self, xs, ys, out, transposed)

    monkeypatch.setattr(monotone, "PAIR_BLOCK_CELLS", cells)
    monkeypatch.setattr(PairwiseCost, "block", recorded)
    built = assemble_splitting_tuple(g, C1)
    assert dumps_json(built.to_json()) == dumps_json(tup.to_json())  # signed zeros too
    # Every block is (queries, table), conjugation's too, so a block over the
    # cap is one query's row.
    assert shapes and all(r * c <= max(cells, r, c) for r, c in shapes)
    shapes.clear()
    got = certify_splitting(tup, g, C1)
    _assert_same_certificate(got, want)
    assert sum(r for r, _ in shapes) == sum(sizes[i - 1] for i, _ in C1.pairs)
    assert all(r * c <= max(cells, c) for r, c in shapes)


def test_pair_tables_must_match_the_grids_they_sum_into():
    tup = assemble_splitting_tuple(DIAGONAL, C1)
    f = tup.pair_potentials[(1, 3)]
    shuffled = Potential(f.points[::-1], f.values[::-1])
    for pots, conjs, message in (
        ({**tup.pair_potentials, (1, 3): shuffled}, tup.pair_conjugates,
         "a pair table of u_1 is not on the grid of u_1"),
        (tup.pair_potentials, {(1, 2): tup.pair_conjugates[(1, 2)]},
         "one pair table and conjugate per pair"),
    ):
        with pytest.raises(InputValidationError, match=message):
            certify_splitting(SplittingTuple(tup.potentials, pots, conjs), DIAGONAL, C1)
    with pytest.raises(InputValidationError, match="product of its tables"):
        certify_splitting(tup, DIAGONAL, C1, test_points=CUBE)


def test_vacuous_product_points_are_counted_from_the_tables():
    tup = assemble_splitting_tuple(DIAGONAL, C1, eval_grids=[[-2.0]] * 3)
    pots = list(tup.potentials)
    pair_pots = dict(tup.pair_potentials)
    for key in ((1, 2), (1, 3)):  # u_1 = +inf at -2.0, and so are its terms
        f = pair_pots[key]
        pair_pots[key] = Potential(f.points, np.where(f.points[:, 0] == -2.0, math.inf, f.values))
    pots[0] = Potential(pots[0].points, np.where(pots[0].points[:, 0] == -2.0, math.inf,
                                                 pots[0].values))
    cert = certify_splitting(SplittingTuple(tuple(pots), pair_pots, tup.pair_conjugates),
                             DIAGONAL, C1)
    assert cert.passed
    assert (cert.n_test_points, cert.n_vacuous) == (64, 16)
    assert [b.cells for b in cert.pairs] == [12, 12, 16]


def test_an_assembled_table_whose_values_come_out_nan_is_refused():
    # The shift of marginal 1 is inf + -inf = nan at 10.0: assembly takes
    # its grids as they are, and still checks every value it tabulates.
    shift = ((QuadraticForm([[1e308]]), QuadraticForm([[-1e308]])), (), ())
    g = gamma_1d([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InputValidationError, match=r"^potential values must be finite or \+inf$"):
        assemble_splitting_tuple(g, CostSpec(C1.dims, C1.pairs, shift))


def test_assembled_potentials_are_read_only():
    tup = assemble_splitting_tuple(DIAGONAL, C1, eval_grids=[[2.0], [], [-3.0, 0.0]])
    for u in (*tup.potentials, *tup.pair_potentials.values(), *tup.pair_conjugates.values()):
        for table in (u.points, u.values):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 5.0


def test_a_split_dedups_each_grid_and_projection_once(monkeypatch):
    g = make_comonotone_gamma(np.random.default_rng(8), 3, 40)
    grid = [[-2.0 + 0.25 * k] for k in range(17)]
    calls = []
    real = core.unique_rows

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    for module in [m for name, m in sys.modules.items() if name.startswith("monosplit")]:
        if getattr(module, "unique_rows", None) is real:
            monkeypatch.setattr(module, "unique_rows", counted)
    tup = assemble_splitting_tuple(g, C1, s=g.points[3], eval_grids=[grid] * 3)
    # three grids and three pair projections; the parent took 21
    assert len(calls) <= 6
    calls.clear()
    assert certify_splitting(tup, g, C1).passed
    assert calls == []
