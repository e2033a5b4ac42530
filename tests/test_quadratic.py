"""Commuting-SPD splittings and the plane counterexample."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import counterexample_domain_point, counterexample_verify_recomputed
from monosplit import quadratic
from monosplit.antiderivative import Potential, c_conjugate
from monosplit.core import GammaSet, PairwiseCost, classical_cost, dumps_json
from monosplit.errors import (
    DimensionMismatch,
    InputValidationError,
    NotCommuting,
    NotPositiveDefinite,
    NotSymmetric,
)
from monosplit.monotone import check_projection_condition
from monosplit.quadratic import (
    SymMatrix,
    commuting_spd_gamma,
    counterexample_construct,
    counterexample_verify,
    psd_check,
    quadratic_splitting,
    random_commuting_spds,
)
from monosplit.splitting import certify_splitting, sample_test_points

INNER = PairwiseCost.inner_product()


# ---------------------------------------------------------------------------
# Symmetric matrices
# ---------------------------------------------------------------------------


def test_sym_matrix_validation_and_constructors():
    with pytest.raises(InputValidationError):
        SymMatrix(((1.0, 2.0),))  # not square
    with pytest.raises(NotSymmetric):
        SymMatrix(((1.0, 2.0), (3.0, 1.0)))
    m = SymMatrix.diagonal((3.0, 1.0))
    assert m.eigenvalues() == (1.0, 3.0)  # ascending
    assert SymMatrix.identity(2, scale=2.0).rows == ((2.0, 0.0), (0.0, 2.0))
    assert SymMatrix.from_array(np.eye(1)).dim == 1


def test_psd_check_tolerance_band():
    ok, mn = psd_check(SymMatrix.identity(3))
    assert ok and mn == 1.0
    assert psd_check(SymMatrix.diagonal((-5e-11, 1.0)))[0]  # inside the band
    assert not psd_check(SymMatrix.diagonal((-1e-3, 1.0)))[0]


# ---------------------------------------------------------------------------
# Commuting-SPD splittings
# ---------------------------------------------------------------------------


def test_scalar_splitting_oracle():
    spl = quadratic_splitting((SymMatrix.diagonal((1.0,)), SymMatrix.diagonal((2.0,))))
    assert spl.m[0].rows == ((2.0,),)
    assert spl.m[1].rows == ((0.5,),)
    assert spl.g[0].rows == ((3.0,),)
    assert spl.g[1].rows == ((1.5,),)


def test_identity_triple_splitting():
    spl = quadratic_splitting(tuple(SymMatrix.identity(2) for _ in range(3)))
    for mi, gi in zip(spl.m, spl.g):
        assert mi.rows == ((2.0, 0.0), (0.0, 2.0))
        assert gi.rows == ((3.0, 0.0), (0.0, 3.0))


def test_splitting_input_rejections():
    with pytest.raises(InputValidationError):
        quadratic_splitting((SymMatrix.identity(2),))
    with pytest.raises(DimensionMismatch):
        quadratic_splitting((SymMatrix.identity(2), SymMatrix.identity(3)))
    with pytest.raises(NotPositiveDefinite):
        quadratic_splitting((SymMatrix.diagonal((0.0, 1.0)), SymMatrix.identity(2)))
    rotated = SymMatrix(((1.5, 0.5), (0.5, 1.5)))
    with pytest.raises(NotCommuting):
        quadratic_splitting((SymMatrix.diagonal((1.0, 2.0)), rotated))


def test_random_instances_certify_both_costs():
    for seed in range(3):
        q = random_commuting_spds(3, 3, seed=seed)
        spl = quadratic_splitting(q)
        vs = np.random.default_rng(seed + 100).uniform(-2.0, 2.0, size=(6, 3))
        g = commuting_spd_gamma(q, [tuple(v) for v in vs])
        c1 = classical_cost("c1", 3, 3)
        c3 = classical_cost("c3", 3, 3)
        pts = sample_test_points(g, 200, 5)
        assert certify_splitting(spl.potentials(), g, c1, test_points=pts).passed
        assert certify_splitting(spl.shifted_potentials(), g, c3, test_points=pts).passed


def test_shifted_matrices_add_the_half_square(rng):
    q = random_commuting_spds(4, 2, seed=9)
    spl = quadratic_splitting(q)
    for mi, gi in zip(spl.m, spl.g):
        for _ in range(10):
            x = tuple(rng.uniform(-3.0, 3.0, size=2))
            half_sq = 0.5 * (x[0] ** 2 + x[1] ** 2)
            assert gi.form().value(x) == pytest.approx(
                half_sq + mi.form().value(x), abs=1e-12
            )


# ---------------------------------------------------------------------------
# The plane counterexample
# ---------------------------------------------------------------------------


def test_counterexample_constants():
    ce = counterexample_construct()
    assert ce.a1.rows == ((2.0, 0.0), (0.0, 0.0))
    assert ce.a2.rows == ((2.0, 0.0), (0.0, 2.0))
    assert ce.a3.rows == ((8.0 / 7.0, 3.0 / 7.0), (3.0 / 7.0, 2.0 / 7.0))
    assert ce.v1 == ((0.0, 0.0), (-1.0, -1.0), (1.0, -5.0))
    assert ce.v2 == ((1.0, 0.0), (2.0, 2.0), (0.0, 7.0))
    assert ce.m[0] == (1.0, -1.0, -1.0, 0.0)
    sym = ce.sym_m.as_array()
    for k in ce.kernel_basis:
        assert np.max(np.abs(sym @ np.array(k))) <= 1e-15


def test_counterexample_potentials_on_and_off_the_plane():
    ce = counterexample_construct()
    u1, u2, u3 = ce.forms()
    spec = ce.cost()
    total_v2 = u1.value(ce.v2[0]) + u2.value(ce.v2[1]) + u3.value(ce.v2[2])
    assert total_v2 == 16.0 == spec.total(ce.v2)
    total_v1 = u1.value(ce.v1[0]) + u2.value(ce.v1[1]) + u3.value(ce.v1[2])
    assert total_v1 == pytest.approx(4.0, abs=1e-12)
    assert spec.total(ce.v1) == 4.0
    assert u1.value((1.0, 1.0)) == float("inf")  # off the first axis
    assert u2.value((1.0, 2.0)) == float("inf")  # off the diagonal


def test_counterexample_projections_all_fail():
    ce = counterexample_construct()
    coeffs = ((0.0, 0.0), (3.0, 1.0), (-1.0, 1.0), (1.9, 1.0))
    g = GammaSet.from_points([ce.span_point(lam, mu) for lam, mu in coeffs])
    report = check_projection_condition(g, ce.cost())
    assert not report.all_hold
    assert all(not v.holds for v in report.verdicts.values())


def test_counterexample_report_numbers():
    rep = counterexample_verify(n_span=200, n_random=2000, seed=0)
    assert rep.passed
    assert rep.min_eigenvalue >= -1e-10
    assert rep.kernel_dim == 2
    assert rep.kernel_match_residual <= 1e-9
    assert rep.nonzero_eigen_sum == pytest.approx(26.0 / 7.0, abs=1e-12)
    assert rep.nonzero_eigen_product == pytest.approx(89.0 / 28.0, abs=1e-12)
    assert rep.equality_max_residual <= 1e-9
    assert rep.slack_min > 0.0
    assert rep.algebra_max_residual <= 1e-9
    assert rep.n_span_samples == 200
    assert rep.pair_witnesses[0] == ("1,2", 3.0, -1.0)
    assert rep.pair_witnesses[1] == ("1,3", -1.0, -1.0)
    assert rep.pair_witnesses[2] == ("2,3", 1.9, -0.06000000000000005)
    dumps_json(rep.to_json())  # serializable without non-finite leakage


@pytest.mark.parametrize("seed", [0, 1, 11, 2**40])
@pytest.mark.parametrize("n_span, n_random", [(1, 1), (3, 50), (200, 10_000)])
def test_counterexample_report_equals_the_recomputed_one(seed, n_span, n_random):
    got = counterexample_verify(n_span=n_span, n_random=n_random, seed=seed)
    want = counterexample_verify_recomputed(n_span=n_span, n_random=n_random, seed=seed)
    assert dumps_json(got.to_json()) == dumps_json(want.to_json())
    assert got == want


def test_the_fixed_claims_are_computed_once_per_process(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or eigh(a))
    monkeypatch.setattr(quadratic, "is_pair_monotone_classical",
                        lambda pairs, _f=quadratic.is_pair_monotone_classical:
                        calls.append("pair") or _f(pairs))
    quadratic._fixed_claims.cache_clear()
    try:
        reports = [counterexample_verify(n_span=5, n_random=40, seed=s) for s in range(3)]
        assert calls == ["eigh", "pair", "pair", "pair"]
        assert quadratic._fixed_claims() is quadratic._fixed_claims()
        assert quadratic._fixed_claims() == quadratic._fixed_claims.__wrapped__()
        assert quadratic._fixed_claims.cache_info().misses == 1
    finally:
        quadratic._fixed_claims.cache_clear()
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("n_span, n_random", [(0, 10), (10, 0), (0, 0), (-1, 10)])
def test_counterexample_refuses_to_test_no_points(n_span, n_random):
    # No sample of a claim would report it passed with slack_min "inf".
    with pytest.raises(InputValidationError, match="needs n_span >= 1 and n_random >= 1"):
        counterexample_verify(n_span=n_span, n_random=n_random)


def test_counterexample_certifies_with_explicit_points(rng):
    ce = counterexample_construct()
    spec = ce.cost()
    coeffs = [(float(a), float(b)) for a, b in rng.uniform(-2.0, 2.0, size=(5, 2))]
    g = GammaSet.from_points([ce.span_point(lam, mu) for lam, mu in coeffs])
    pts = [
        counterexample_domain_point(*(float(t) for t in row))
        for row in rng.uniform(-4.0, 4.0, size=(100, 4))
    ]
    pts.append(((1.0, 1.0), (0.0, 0.0), (0.0, 0.0)))  # off-domain, vacuous
    cert = certify_splitting(ce.potentials(), g, spec, test_points=pts)
    assert cert.passed
    assert cert.n_vacuous == 1
    assert cert.max_equality_residual_on_gamma <= 1e-9


# ---------------------------------------------------------------------------
# Conjugate duality for quadratics, numerically
# ---------------------------------------------------------------------------


def test_discrete_conjugate_approximates_inverse_matrix_form():
    # f = q_B with B = 2 on a fine grid; f^c should approach q_{B^{-1}}
    grid = [(round(-3.0 + 0.01 * k, 10),) for k in range(601)]
    f = Potential(tuple(grid), tuple(p[0] ** 2 for p in grid))
    conj = c_conjugate(f, INNER, [(-1.0,), (0.5,), (2.0,)])
    for y, v in zip(conj.points, conj.values):
        assert v == pytest.approx(y[0] ** 2 / 4.0, abs=1e-4)
