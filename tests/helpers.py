"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: the chain
enumerator walks every simple chain explicitly, the coupling oracle
enumerates assignments without any library verifier, the scalar
certificate loops over points with the one-point evaluators, and the
generators build monotone structure by construction rather than by
checking it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from monosplit.core import CostSpec, GammaSet, PairwiseCost, Vec, as_vec
from monosplit.monotone import brute_force_optimal_coupling

COARSE_GRID = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def make_comonotone_gamma(rng: np.random.Generator, n_marginals: int = 3,
                          size: int = 4) -> GammaSet:
    """1-D set whose coordinates move together: x_i^(k) nondecreasing in k
    for every marginal, hence all pair projections are monotone."""
    rows = []
    current = rng.uniform(-2.0, 0.0, size=n_marginals)
    for _ in range(size):
        rows.append([float(v) for v in current])
        current = current + rng.uniform(0.0, 1.0, size=n_marginals)
    return GammaSet.from_points(rows)


def make_random_gamma(rng: np.random.Generator, n_marginals: int = 3,
                      size: int = 4) -> GammaSet:
    """1-D set with coordinates drawn from a coarse grid (ties are likely,
    which exercises the multiset and dedup paths)."""
    rows = [
        [float(rng.choice(COARSE_GRID)) for _ in range(n_marginals)]
        for _ in range(size)
    ]
    return GammaSet.from_points(rows)


def make_random_pairs(rng: np.random.Generator, m: int = 4,
                      monotone: bool = False) -> list[tuple[Vec, Vec]]:
    """Scalar (x, y) pairs; monotone=True sorts both coordinates so the
    relation is comonotone."""
    xs = [float(rng.choice(COARSE_GRID)) for _ in range(m)]
    ys = [float(rng.choice(COARSE_GRID)) for _ in range(m)]
    if monotone:
        xs.sort()
        ys.sort()
    return [(as_vec(x), as_vec(y)) for x, y in zip(xs, ys)]


def make_bilinear_pairs(rng: np.random.Generator,
                        m: int = 5) -> tuple[PairwiseCost, list[tuple[Vec, Vec]]]:
    """A random SPD bilinear coupling <x, A y> on R^2 and m pairs
    (x, A^-1 S x) with S symmetric positive definite, so that
    <x', A y> = <x', S x> and the pairs are cyclically monotone."""
    def spd():
        b = rng.normal(size=(2, 2))
        return b @ b.T + 0.5 * np.eye(2)

    a, s = spd(), spd()
    cost = PairwiseCost.bilinear(a.tolist())
    xs = rng.uniform(-2.0, 2.0, size=(m, 2))
    ys = np.linalg.solve(a, s @ xs.T).T
    return cost, [(as_vec(x), as_vec(y)) for x, y in zip(xs.tolist(), ys.tolist())]


def chain_enumeration_oracle(cost: PairwiseCost, pairs: list[tuple[Vec, Vec]],
                             base: Vec, x: Vec) -> float:
    """R(x) by brute enumeration of every simple chain from the base.

    Chains are ordered tuples of distinct pair indices whose first pair has
    first coordinate equal to the base; the value telescopes the gains and
    ends with the step to x.  With no positive cycles, restricting to simple
    chains loses nothing, so this equals the chain supremum.
    """
    m = len(pairs)
    sources = [k for k in range(m) if pairs[k][0] == base]
    if x == base:
        return 0.0
    best = -math.inf
    for k in range(1, m + 1):
        for chain in itertools.permutations(range(m), k):
            if chain[0] not in sources:
                continue
            total = 0.0
            for a, b in zip(chain, chain[1:]):
                total += cost.value(pairs[b][0], pairs[a][1]) - cost.value(
                    pairs[a][0], pairs[a][1]
                )
            last = chain[-1]
            total += cost.value(x, pairs[last][1]) - cost.value(
                pairs[last][0], pairs[last][1]
            )
            best = max(best, total)
    return best


def bruteforce_cycle_gain(cost: PairwiseCost, pairs: list[tuple[Vec, Vec]]) -> float:
    """Largest gain over all cycles through distinct pairs (>= 2 long);
    positive means the relation is not cyclically monotone."""
    m = len(pairs)
    best = -math.inf
    for k in range(2, m + 1):
        for cyc in itertools.permutations(range(m), k):
            if cyc[0] != min(cyc):
                continue
            total = 0.0
            loop = cyc + (cyc[0],)
            for a, b in zip(loop, loop[1:]):
                total += cost.value(pairs[b][0], pairs[a][1]) - cost.value(
                    pairs[a][0], pairs[a][1]
                )
            best = max(best, total)
    return best


def coupling_oracle_holds(g: GammaSet, spec: CostSpec, n: int,
                          tol: float = 1e-9) -> bool:
    """n-c-monotonicity from the assignment problem: g is n-c-monotone iff
    for every n points of g (repetition allowed) the diagonal assignment
    attains the brute-force coupling optimum."""
    for combo in itertools.combinations_with_replacement(g.points, n):
        columns = [[p[i] for p in combo] for i in range(g.n_marginals)]
        if not brute_force_optimal_coupling(columns, spec).diagonal_attains(tol):
            return False
    return True


def scalar_certificate(tup, g: GammaSet, spec: CostSpec, points, tol: float = 1e-9) -> dict:
    """The splitting certificate by a plain loop over points: sum_at and
    total one point at a time, the first strict maximum winning each max.
    Keys match the fields of SplittingCertificate."""
    max_resid, worst_eq = -math.inf, None
    for p in g.points:
        resid = abs(tup.sum_at(p) - spec.total(p))
        if resid > max_resid:
            max_resid, worst_eq = resid, p
    max_viol, worst_ineq, vacuous = -math.inf, None, 0
    for p in points:
        total = tup.sum_at(p)
        if total == math.inf:
            vacuous += 1
        elif spec.total(p) - total > max_viol:
            max_viol, worst_ineq = spec.total(p) - total, p
    return {
        "passed": max_viol <= tol and max_resid <= tol,
        "max_inequality_violation": max_viol,
        "max_equality_residual_on_gamma": max_resid,
        "worst_inequality_point": worst_ineq,
        "worst_equality_point": worst_eq,
        "n_test_points": len(points),
        "n_gamma_points": g.size,
        "n_vacuous": vacuous,
    }
