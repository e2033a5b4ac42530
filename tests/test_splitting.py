"""Assembly, shifting, certification, and exactness of splitting tuples."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    check_exactness_condition,
    gamma_1d,
    gathered_certificate,
    make_comonotone_gamma,
    scalar_certificate,
    shift_splitting_tuple,
    splitting_implies_monotone_check,
    sum_at,
    table_values_at,
)
from monosplit.antiderivative import Potential
from monosplit.core import (
    EvenPowerForm,
    GammaSet,
    IndicatorQuadraticForm,
    LinearForm,
    QuadraticForm,
    as_point,
    classical_cost,
    dumps_json,
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
        assert u.points.tolist() == v.points.tolist()
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
    for bad in ([0.0, 1.0], np.zeros(3), 0.0):  # numbers, not a list of points
        with pytest.raises(DimensionMismatch):
            certify_splitting(tup, DIAGONAL, C1, test_points=bad)


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
        pts.append(ce.domain_point(a1, a2, a3, b3))
        pts.append(((a1, 0.5), (a2, a2), (a3, b3)))
        pts.append(((a1, 0.0), (a2, a2 + 1.0), (a3, b3)))
    return pts


def test_closed_form_certificates_equal_the_gathering_reference():
    g = _knott_smith_gamma()
    forms, starred = knott_smith_forms()
    for tup, spec in ((SplittingTuple.from_closed_forms(forms), C1),
                      (SplittingTuple.from_closed_forms(starred), C3)):
        for kwargs in ({"n_samples": 500, "seed": 2}, {"test_points": CUBE}):
            _assert_same_certificate(certify_splitting(tup, g, spec, **kwargs),
                                     gathered_certificate(tup, g, spec, **kwargs))
    for seed in (0, 7):
        qs, g = _quadratic_case(seed)
        for tup, which in ((qs.potentials(), "c1"), (qs.shifted_potentials(), "c3")):
            spec = classical_cost(which, 3, 2)
            _assert_same_certificate(certify_splitting(tup, g, spec, n_samples=300, seed=seed),
                                     gathered_certificate(tup, g, spec, n_samples=300, seed=seed))


def test_tabulated_certificates_equal_the_gathering_reference(rng):
    for which in ("c1", "c3"):
        spec = classical_cost(which, 3, 1)
        g = make_comonotone_gamma(rng, size=8)
        tup = assemble_splitting_tuple(g, spec, eval_grids=[[0.0, -3.0]] * 3)
        pts = list(itertools.product(*(u.points for u in tup.potentials)))
        pts += [((-0.0,), (-0.0,), (-0.0,)), ((-0.0,), (9.0,), (0.0,)), ((0.0,), (0.0,), (9.0,))]
        for kwargs in ({"n_samples": 400, "seed": 4}, {"test_points": pts}):
            cert = certify_splitting(tup, g, spec, **kwargs)
            assert cert.n_vacuous > 0
            _assert_same_certificate(cert, gathered_certificate(tup, g, spec, **kwargs))


def test_tables_with_a_closed_form_extension_equal_the_gathering_reference():
    g = _knott_smith_gamma()
    forms, _ = knott_smith_forms()
    marginals = [np.unique(g.coords[:, i])[:, None] for i in range(3)]
    extended = Potential(marginals[0], forms[0].values(marginals[0]), closed_form=forms[0])
    bare = Potential(marginals[1], forms[1].values(marginals[1]))  # +inf off its table
    tup = SplittingTuple((extended, bare, Potential.from_closed_form(forms[2])), {}, {})
    off_tables = ((0.3,), (0.3,), (0.3,))
    for kwargs in ({"n_samples": 300, "seed": 1}, {"test_points": CUBE + [off_tables]}):
        cert = certify_splitting(tup, g, C1, **kwargs)
        assert 0 < cert.n_vacuous < cert.n_test_points
        _assert_same_certificate(cert, gathered_certificate(tup, g, C1, **kwargs))


def test_indicator_certificates_equal_the_gathering_reference(rng):
    ce = counterexample_construct()
    spec = ce.cost()
    g = GammaSet.from_points([ce.span_point(lam, mu) for lam, mu in
                              rng.uniform(-2.0, 2.0, size=(6, 2)).tolist()])
    pts = _counterexample_points(rng)
    for kwargs in ({"n_samples": 300, "seed": 3}, {"test_points": pts}):
        cert = certify_splitting(ce.potentials(), g, spec, **kwargs)
        assert cert.n_vacuous > 0
        _assert_same_certificate(cert, gathered_certificate(ce.potentials(), g, spec, **kwargs))
    cert = certify_splitting(ce.potentials(), g, spec, test_points=pts)
    assert cert.n_vacuous == 80  # two thirds: one third at u_1, one at u_2


def test_empty_test_points_equal_the_gathering_reference():
    qs, g = _quadratic_case(3)
    tup, spec = qs.potentials(), classical_cost("c1", 3, 2)
    for pts in ([], np.empty((0, 6))):
        cert = certify_splitting(tup, g, spec, test_points=pts)
        assert (cert.n_test_points, cert.worst_inequality_point) == (0, None)
        _assert_same_certificate(cert, gathered_certificate(tup, g, spec, test_points=pts))


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
    assert certify_splitting(tup, g, spec, n_samples=200, seed=5) == replace(want, seed=5)
    for bad in (rows[:, :5], rows[:, :3], np.hstack([rows, rows[:, :1]]), rows.reshape(-1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            certify_splitting(tup, g, spec, test_points=bad)
