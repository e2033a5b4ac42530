"""Acceptance battery: eight end-to-end criteria, one verdict line each.

Every test gathers named boolean sub-checks, prints a single PASS/FAIL line
straight to the terminal (capture suspended), and then asserts the checks,
so a red run names the exact clause that broke.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from helpers import (
    COARSE_GRID,
    add_separable_shift,
    bruteforce_cycle_gain,
    chain_enumeration_oracle,
    is_two_marginal_cyclically_monotone,
    sum_at,
    translated,
)
from monosplit.antiderivative import rockafellar_potential
from monosplit.core import (
    GammaSet,
    LinearForm,
    PairwiseCost,
    QuadraticForm,
    classical_cost,
)
from monosplit.errors import NotCyclicallyMonotone
from monosplit.monotone import (
    check_projection_condition,
    is_n_c_monotone_bruteforce,
    sign_criterion_1d,
)
from monosplit.onedim import (
    MonotoneBijection,
    characterize_1d,
    curve_potentials,
    knott_smith_alphas,
    knott_smith_forms,
    knott_smith_potentials,
    young_check,
)
from monosplit.quadratic import (
    commuting_spd_gamma,
    counterexample_verify,
    psd_check,
    quadratic_splitting,
    random_commuting_spds,
)
from monosplit.splitting import (
    SplittingTuple,
    assemble_splitting_tuple,
    certify_splitting,
)

INNER = PairwiseCost.inner_product()


def _finish(num: int, label: str, checks: dict[str, bool], capfd) -> None:
    ok = all(checks.values())
    with capfd.disabled():
        print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"failed clauses: {[k for k, v in checks.items() if not v]}"


def _random_gamma_1d(rng: np.random.Generator, size: int) -> GammaSet:
    return GammaSet.from_points(
        [[float(rng.choice(COARSE_GRID)) for _ in range(3)] for _ in range(size)]
    )


def test_criterion_1_plane_counterexample(capfd):
    rep = counterexample_verify(n_span=200, n_random=10_000, seed=0)
    wit = {label: (lam, val) for label, lam, val in rep.pair_witnesses}
    checks = {
        "sym_m_psd": rep.min_eigenvalue >= -1e-10,
        "kernel_dim_2": rep.kernel_dim == 2,
        "kernel_matches_declared_span": rep.kernel_match_residual <= 1e-9,
        "equality_on_200_plane_points": rep.equality_max_residual <= 1e-9
        and rep.n_span_samples == 200,
        "slack_on_10000_domain_points": rep.slack_min >= -1e-9
        and rep.n_random_points == 10_000,
        "potential_algebra": rep.algebra_max_residual <= 1e-9,
        "witness_pair_12": wit["1,2"][0] == 3.0 and abs(wit["1,2"][1] + 1.0) <= 1e-12,
        "witness_pair_13": wit["1,3"][0] == -1.0 and abs(wit["1,3"][1] + 1.0) <= 1e-12,
        "witness_pair_23": wit["2,3"][0] == 1.9 and abs(wit["2,3"][1] + 0.06) <= 1e-12,
        "report_passed": rep.passed,
    }
    _finish(1, "plane counterexample", checks, capfd)


def test_criterion_2_curve_quadrature_and_certificates(capfd):
    alphas = knott_smith_alphas()
    forms, starred = knott_smith_forms()
    grid = [-1.5 + 0.1 * k for k in range(31)]

    cp = curve_potentials(alphas, grid)
    quad_dev = max(
        abs(pot.value_at(p) - form.value(p))
        for pot, form in zip(cp.potentials, forms)
        for p in pot.points
    )

    g = GammaSet.from_points([[a(t) for a in alphas] for t in grid])
    prod = [((a,), (b,), (c,)) for a, b, c in itertools.product(grid, repeat=3)]
    cert1 = certify_splitting(
        SplittingTuple.from_closed_forms(forms), g, classical_cost("c1", 3, 1),
        test_points=prod,
    )
    cert3 = certify_splitting(
        SplittingTuple.from_closed_forms(starred), g, classical_cost("c3", 3, 1),
        test_points=prod,
    )

    c1 = classical_cost("c1", 3, 1)
    eq_dev = 0.0
    for k in range(61):
        t = -1.5 + 0.05 * k
        p = tuple((a(t),) for a in alphas)
        total = sum(f.value(x) for f, x in zip(forms, p))
        eq_dev = max(eq_dev, abs(total - c1.total(p)))

    spot = knott_smith_potentials(1.0, 1.0, 1.0)
    checks = {
        "quadrature_within_1e-6": quad_dev <= 1e-6,
        "c1_certified_on_31^3_grid": cert1.passed and cert1.n_test_points == 29_791,
        "equality_on_61_curve_samples": eq_dev <= 1e-8,
        "spot_value_three": abs(sum(spot.u) - 3.0) <= 1e-12 and spot.c1_value == 3.0,
        "c3_certified_on_31^3_grid": cert3.passed,
    }
    _finish(2, "curve quadrature and certificates", checks, capfd)


def test_criterion_3_commuting_spd_families(capfd):
    worst_psd = math.inf
    all_pass = True
    min_slack = math.inf
    worst_algebra = 0.0
    for k in range(50):
        n = 2 + k % 3
        d = 1 + k % 5
        mats = random_commuting_spds(n, d, seed=k)
        spl = quadratic_splitting(mats)
        for mi in spl.m:
            worst_psd = min(worst_psd, psd_check(mi)[1])

        c1 = classical_cost("c1", n, d)
        tup = spl.potentials()
        rng = np.random.default_rng(10_000 + k)
        vs = [tuple(float(t) for t in row) for row in rng.uniform(-2.0, 2.0, (100, d))]
        g = commuting_spd_gamma(mats, vs)
        graph_pts = list(g.points)

        perturbed = []
        for j in range(100):
            p = list(graph_pts[j % len(graph_pts)])
            i = int(rng.integers(0, n))
            w = rng.uniform(0.5, 1.5, size=d) * rng.choice((-1.0, 1.0), size=d)
            p[i] = tuple(float(a + b) for a, b in zip(p[i], w))
            perturbed.append(tuple(p))
            min_slack = min(min_slack, sum_at(tup, tuple(p)) - c1.total(tuple(p)))

        cert = certify_splitting(tup, g, c1, test_points=graph_pts + perturbed)
        all_pass = all_pass and cert.passed and cert.max_equality_residual_on_gamma <= 1e-9

        for mi, gi in zip(spl.m, spl.g):
            for _ in range(5):
                x = tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=d))
                half = 0.5 * sum(t * t for t in x)
                worst_algebra = max(
                    worst_algebra, abs(gi.form().value(x) - (half + mi.form().value(x)))
                )
    checks = {
        "M_matrices_psd": worst_psd >= -1e-9,
        "all_50_certified_with_graph_equality": all_pass,
        "strictly_positive_slack_off_graph": min_slack > 0.0,
        "shifted_family_algebra_1e-12": worst_algebra <= 1e-12,
    }
    _finish(3, "commuting SPD families", checks, capfd)


def test_criterion_4_projection_condition_assembly(capfd):
    c1 = classical_cost("c1", 3, 1)
    rng = np.random.default_rng(424_242)
    accepted = 0
    attempts = 0
    certified = 0
    brute_confirmed = 0
    while accepted < 100 and attempts < 30_000:
        attempts += 1
        size = int(rng.integers(2, 6))
        g = _random_gamma_1d(rng, size)
        if not check_projection_condition(g, c1).all_hold:
            continue
        accepted += 1
        tup = assemble_splitting_tuple(g, c1)
        if certify_splitting(tup, g, c1).passed:  # on the product of the projections
            certified += 1
        if all(is_n_c_monotone_bruteforce(g, c1, n).holds for n in range(2, g.size + 1)):
            brute_confirmed += 1
    checks = {
        "found_100_passing_instances": accepted == 100,
        "all_assembled_and_certified": certified == accepted,
        "bruteforce_confirms_every_order": brute_confirmed == accepted,
    }
    _finish(4, "projection condition assembly", checks, capfd)


def test_criterion_5_cycles_chains_properness(capfd):
    rng = np.random.default_rng(51_000)
    scan_agree = 0
    proper_agree = 0
    chain_checked = 0
    chain_dev = 0.0

    def compare_chains(pairs):
        nonlocal chain_checked, chain_dev
        base = pairs[0][0]
        evals = [p[0] for p in pairs] + [(-2.5,), (2.5,)]
        r = rockafellar_potential(INNER, pairs, base, evals)
        chain_checked += 1
        for x in r.points:
            expect = chain_enumeration_oracle(INNER, pairs, base, x)
            chain_dev = max(chain_dev, abs(r.value_at(x) - expect))

    for k in range(200):
        m = 2 + k % 5
        pairs = [
            ((float(rng.choice(COARSE_GRID)),), (float(rng.choice(COARSE_GRID)),))
            for _ in range(m)
        ]
        gain = bruteforce_cycle_gain(INNER, pairs)
        verdict = is_two_marginal_cyclically_monotone(pairs, INNER)
        scan_agree += verdict.holds == (gain <= 1e-9)
        try:
            if chain_checked < 30 and verdict.holds:
                compare_chains(pairs)
            else:
                rockafellar_potential(INNER, pairs, pairs[0][0], [pairs[0][0]])
            raised = False
        except NotCyclicallyMonotone:
            raised = True
        proper_agree += raised == (not verdict.holds)

    for j in range(10):  # sorted draws reach the larger pair counts
        m = 4 + j % 3
        xs = sorted(float(rng.choice(COARSE_GRID)) for _ in range(m))
        ys = sorted(float(rng.choice(COARSE_GRID)) for _ in range(m))
        compare_chains([((x,), (y,)) for x, y in zip(xs, ys)])

    checks = {
        "cycle_scan_matches_bruteforce_200": scan_agree == 200,
        "properness_fails_iff_cycles": proper_agree == 200,
        "chain_enumeration_within_1e-9": chain_checked >= 30 and chain_dev <= 1e-9,
    }
    _finish(5, "cycle scan and chain enumeration", checks, capfd)


def test_criterion_6_invariance_laws(capfd):
    c1 = classical_cost("c1", 3, 1)
    minus_c2 = classical_cost("c2", 3, 1).negated()
    c3 = classical_cost("c3", 3, 1)
    rng = np.random.default_rng(66_000)
    discrepancies = 0

    def verdicts(g, spec):
        return tuple(is_n_c_monotone_bruteforce(g, spec, n).holds for n in (2, 3))

    for _ in range(100):
        g = _random_gamma_1d(rng, int(rng.integers(2, 5)))
        base = verdicts(g, c1)
        for _ in range(20):
            forms = []
            for _i in range(3):
                if rng.random() < 0.5:
                    forms.append(
                        LinearForm((float(rng.uniform(-2, 2)),), float(rng.uniform(-1, 1)))
                    )
                else:
                    forms.append(QuadraticForm(((float(rng.uniform(-2, 2)),),)))
            if verdicts(g, add_separable_shift(c1, forms)) != base:
                discrepancies += 1
        z = tuple((float(rng.choice(COARSE_GRID)),) for _ in range(3))
        if verdicts(translated(g, z), c1) != base:
            discrepancies += 1
        for spec in (minus_c2, c3):
            if verdicts(g, spec) != base:
                discrepancies += 1

    checks = {"zero_discrepancies_across_2300_comparisons": discrepancies == 0}
    _finish(6, "invariance laws", checks, capfd)


def test_criterion_7_one_dimensional_battery(capfd):
    rng = np.random.default_rng(77_000)
    consistent = 0
    for k in range(300):
        g = _random_gamma_1d(rng, int(rng.integers(2, 5)))
        which = ("c1", "c2", "c3")[k % 3]
        report = characterize_1d(g, which_cost=which, n_max=3)
        if len(set(report.items())) == 1 and report.verdict == sign_criterion_1d(g).holds:
            consistent += 1
    checks = {"all_300_instances_consistent": consistent == 300}
    _finish(7, "one-dimensional battery", checks, capfd)


def test_criterion_8_young_inequality(capfd):
    strict = young_check(MonotoneBijection.odd_power(3.0), 2.0, 1.0)
    rng = np.random.default_rng(88_000)
    equality_ok = True
    worst_gap = 0.0
    for _ in range(50):
        g = MonotoneBijection.odd_power(float(rng.uniform(1.0, 5.0)))
        a = float(rng.uniform(-2.0, 2.0))
        res = young_check(g, a, g(a))
        equality_ok = equality_ok and res.equality
        worst_gap = max(worst_gap, abs(res.gap))
    checks = {
        "strict_lhs_two": strict.lhs == 2.0,
        "strict_rhs_4.75": abs(strict.rhs - 4.75) <= 1e-9,
        "inequality_strict": strict.rhs > strict.lhs,
        "equality_within_1e-9_on_50_draws": equality_ok and worst_gap <= 1e-9,
    }
    _finish(8, "Young inequality", checks, capfd)
