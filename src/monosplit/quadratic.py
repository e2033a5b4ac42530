"""Quadratic families: commuting-SPD splittings and the 2-D counterexample.

For pairwise commuting symmetric positive definite Q_1, ..., Q_N the set
{(Q_1 v, ..., Q_N v)} splits the inner-product cost with the closed-form
potentials q_{M_i}, M_i = (sum_{k != i} Q_k) Q_i^{-1}, and the shifted
family G_i = Id + M_i does the same for the half-squared-sum cost.  All
products of commuting SPDs are again SPD, which is checked numerically
rather than assumed.

The counterexample shows the projection condition is not necessary: a
plane in (R^2)^3 whose three pair projections are all non-monotone, yet
which is split by (u_1, u_2, u_3) built from indicator-plus-quadratic
potentials.  Off the indicator domains the splitting inequality is vacuous
(+inf); on the domain it reduces to a positive semidefinite quadratic form
in four variables whose kernel is exactly the plane.  Every claim about
this instance is recomputed from scratch here: eigenvalues, kernel,
equality on the plane, slack off it, and the three pair-monotonicity
violations with their witnesses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    CostSpec,
    GammaSet,
    IndicatorQuadraticForm,
    Point,
    QuadraticForm,
    as_vec,
    classical_cost,
)
from .errors import (
    DimensionMismatch,
    InputValidationError,
    NotCommuting,
    NotPositiveDefinite,
    NotSymmetric,
)
from .monotone import is_pair_monotone_classical
from .splitting import SplittingTuple

SYMMETRY_TOL = 1e-12
COMMUTE_TOL = 1e-9
PSD_TOL = 1e-10
KERNEL_TOL = 1e-9


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; symmetry is validated, PSD is not."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in r) for r in self.rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise InputValidationError("matrix must be square and nonempty")
        for i in range(d):
            for j in range(i + 1, d):
                if abs(rows[i][j] - rows[j][i]) > SYMMETRY_TOL:
                    raise NotSymmetric(
                        f"entries ({i},{j}) and ({j},{i}) differ: "
                        f"{rows[i][j]!r} vs {rows[j][i]!r}"
                    )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_array(cls, arr) -> "SymMatrix":
        a = np.asarray(arr, dtype=float)
        return cls(tuple(tuple(row) for row in a))

    @classmethod
    def identity(cls, d: int, scale: float = 1.0) -> "SymMatrix":
        return cls.from_array(scale * np.eye(d))

    @classmethod
    def diagonal(cls, values: Sequence[float]) -> "SymMatrix":
        return cls.from_array(np.diag(np.asarray(values, dtype=float)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(float(v) for v in np.linalg.eigvalsh(self.as_array()))

    def form(self) -> QuadraticForm:
        return QuadraticForm(self.rows)

    def to_json(self) -> dict:
        return {"matrix": self.rows}


def psd_check(a: SymMatrix) -> tuple[bool, float]:
    """(is_psd, min_eigenvalue); PSD means min eigenvalue >= -1e-10."""
    mn = min(a.eigenvalues())
    return mn >= -PSD_TOL, mn


@dataclass(frozen=True)
class QuadraticSplitting:
    """The matrices M_i (inner-product potentials q_{M_i}) and
    G_i = Id + M_i (half-squared-sum potentials q_{G_i})."""

    m: tuple[SymMatrix, ...]
    g: tuple[SymMatrix, ...]

    def potentials(self) -> SplittingTuple:
        return SplittingTuple.from_closed_forms([mi.form() for mi in self.m])

    def shifted_potentials(self) -> SplittingTuple:
        return SplittingTuple.from_closed_forms([gi.form() for gi in self.g])

    def to_json(self) -> dict:
        return {
            "M": self.m,
            "G": self.g,
        }


def quadratic_splitting(q: Sequence[SymMatrix]) -> QuadraticSplitting:
    """Build M_i = (sum_{k != i} Q_k) Q_i^{-1} and G_i = Id + M_i.

    Requires every Q_i positive definite and all pairs commuting within
    1e-9 in max-entry norm; each resulting M_i must come out symmetric
    PSD, exactly as the commuting-SPD algebra guarantees.
    """
    if len(q) < 2:
        raise InputValidationError("need at least two matrices")
    d = q[0].dim
    arrays = []
    for i, qi in enumerate(q, start=1):
        if qi.dim != d:
            raise DimensionMismatch("all matrices must share one dimension")
        mn = min(qi.eigenvalues())
        if mn <= PSD_TOL:
            raise NotPositiveDefinite(
                f"Q_{i} has minimum eigenvalue {mn:.3e}, not positive definite"
            )
        arrays.append(qi.as_array())
    n = len(arrays)
    for i in range(n):
        for j in range(i + 1, n):
            comm = arrays[i] @ arrays[j] - arrays[j] @ arrays[i]
            dev = float(np.max(np.abs(comm)))
            if dev > COMMUTE_TOL:
                raise NotCommuting(
                    f"Q_{i + 1} and Q_{j + 1} do not commute (deviation {dev:.3e})"
                )
    total = sum(arrays)
    ms = []
    gs = []
    for i in range(n):
        raw = (total - arrays[i]) @ np.linalg.inv(arrays[i])
        skew = float(np.max(np.abs(raw - raw.T)))
        if skew > COMMUTE_TOL:
            raise NotSymmetric(f"M_{i + 1} deviates from symmetry by {skew:.3e}")
        mi = 0.5 * (raw + raw.T)
        ok, mn = psd_check(SymMatrix.from_array(mi))
        if not ok:
            raise NotPositiveDefinite(
                f"M_{i + 1} has minimum eigenvalue {mn:.3e}, not PSD"
            )
        ms.append(SymMatrix.from_array(mi))
        gs.append(SymMatrix.from_array(np.eye(d) + mi))
    return QuadraticSplitting(tuple(ms), tuple(gs))


def commuting_spd_gamma(q: Sequence[SymMatrix], vs: Sequence) -> GammaSet:
    """Sample {(Q_1 v, ..., Q_N v)} at the given base vectors v."""
    arrays = [qi.as_array() for qi in q]
    return GammaSet.from_points([[a @ np.asarray(as_vec(v)) for a in arrays] for v in vs])


def random_commuting_spds(n: int, d: int, seed: int = 0) -> tuple[SymMatrix, ...]:
    """Simultaneously diagonalizable SPDs: one orthogonal basis, positive
    diagonals.  Deterministic in the seed; commuting by construction."""
    if d < 1:
        raise InputValidationError("matrix dimension must be at least 1")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(d, d))
    o, r = np.linalg.qr(raw)
    o = o * np.sign(np.diag(r))
    out = []
    for _ in range(n):
        diag = rng.uniform(0.5, 2.0, size=d)
        a = o @ np.diag(diag) @ o.T
        out.append(SymMatrix.from_array(0.5 * (a + a.T)))
    return tuple(out)


@dataclass(frozen=True)
class Counterexample:
    """The plane in (R^2)^3 with non-monotone projections, fully wired.

    potentials() yields the splitting tuple (u_1, u_2, u_3); slack at a
    domain point equals the quadratic form of sym_m in the reduced
    coordinates (a1, a2, a3, b3).
    """

    a1: SymMatrix
    a2: SymMatrix
    a3: SymMatrix
    v1: Point
    v2: Point
    m: tuple[tuple[float, ...], ...]
    sym_m: SymMatrix
    kernel_basis: tuple[tuple[float, ...], ...]

    def cost(self) -> CostSpec:
        return classical_cost("c1", 3, 2)

    def forms(self):
        u1 = IndicatorQuadraticForm("first_axis", self.a1.rows)
        u2 = IndicatorQuadraticForm("diagonal", self.a2.rows)
        u3 = QuadraticForm(self.a3.rows)
        return u1, u2, u3

    def potentials(self) -> SplittingTuple:
        return SplittingTuple.from_closed_forms(self.forms())

    def span_point(self, lam: float, mu: float) -> Point:
        """lam * v1 + mu * v2; coordinates are computed coordinatewise so
        the diagonal membership of the second marginal is float-exact."""
        return tuple(
            tuple(lam * a + mu * b for a, b in zip(x, y))
            for x, y in zip(self.v1, self.v2)
        )

    def reduced_slack(self, rows) -> np.ndarray:
        """The quadratic form of sym_m at each row (a1, a2, a3, b3) of a
        (k, 4) array of reduced coordinates."""
        x = np.asarray(rows, dtype=float)
        return np.einsum("ki,ij,kj->k", x, self.sym_m.as_array(), x)


def counterexample_construct() -> Counterexample:
    """Exact constants of the plane example."""
    a1 = SymMatrix(((2.0, 0.0), (0.0, 0.0)))
    a2 = SymMatrix(((2.0, 0.0), (0.0, 2.0)))
    a3 = SymMatrix(((8.0 / 7.0, 3.0 / 7.0), (3.0 / 7.0, 2.0 / 7.0)))
    v1: Point = ((0.0, 0.0), (-1.0, -1.0), (1.0, -5.0))
    v2: Point = ((1.0, 0.0), (2.0, 2.0), (0.0, 7.0))
    m = (
        (1.0, -1.0, -1.0, 0.0),
        (0.0, 2.0, -1.0, -1.0),
        (0.0, 0.0, 4.0 / 7.0, 3.0 / 7.0),
        (0.0, 0.0, 0.0, 1.0 / 7.0),
    )
    ma = np.array(m)
    sym_m = SymMatrix.from_array(0.5 * (ma + ma.T))
    kernel = ((0.0, -1.0, 1.0, -5.0), (1.0, 2.0, 0.0, 7.0))
    return Counterexample(a1, a2, a3, v1, v2, m, sym_m, kernel)


def _span_residual(vectors: np.ndarray, basis: np.ndarray) -> float:
    """Max relative distance of each vector from the span of the basis."""
    qb, _ = np.linalg.qr(basis.T)
    worst = 0.0
    for v in vectors:
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        resid = v - qb @ (qb.T @ v)
        worst = max(worst, float(np.linalg.norm(resid)) / norm)
    return worst


@dataclass(frozen=True)
class CounterexampleReport:
    """Recomputed evidence for the plane example's three claims."""

    passed: bool
    eigenvalues: tuple[float, ...]
    min_eigenvalue: float
    kernel_dim: int
    kernel_match_residual: float
    nonzero_eigen_sum: float
    nonzero_eigen_product: float
    equality_max_residual: float
    n_span_samples: int
    slack_min: float
    algebra_max_residual: float
    n_random_points: int
    seed: int
    pair_witnesses: tuple[tuple[str, float, float], ...]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "eigenvalues": self.eigenvalues,
            "min_eigenvalue": self.min_eigenvalue,
            "kernel_dim": self.kernel_dim,
            "kernel_match_residual": self.kernel_match_residual,
            "nonzero_eigen_sum": self.nonzero_eigen_sum,
            "nonzero_eigen_product": self.nonzero_eigen_product,
            "equality_max_residual": self.equality_max_residual,
            "n_span_samples": self.n_span_samples,
            "slack_min": self.slack_min,
            "algebra_max_residual": self.algebra_max_residual,
            "n_random_points": self.n_random_points,
            "seed": self.seed,
            "pair_witnesses": [
                {"pair": label, "lambda": lam, "value": value}
                for label, lam, value in self.pair_witnesses
            ],
        }


PAIR_WITNESS_LAMBDAS = (((1, 2), 3.0, -1.0), ((1, 3), -1.0, -1.0), ((2, 3), 1.9, -0.06))


def counterexample_verify(
    n_span: int = 200,
    n_random: int = 10_000,
    seed: int = 0,
) -> CounterexampleReport:
    """Recompute every numeric claim about the plane example.

    (a) sym(M) eigenvalues >= -1e-10 with exactly two in [-1e-10, 1e-10];
    (b) the numeric kernel and the declared basis span each other within
    1e-9; (c) splitting equality residual <= 1e-9 at n_span points
    lam v1 + mu v2 and inequality slack >= -1e-9 at n_random seeded domain
    points, with the honest slack agreeing with the reduced quadratic
    form; (d) each pair projection is non-monotone with the stated
    witness value at the stated lambda (against the origin, a point of
    the plane).
    """
    ce = counterexample_construct()
    u1, u2, u3 = ce.forms()
    spec = ce.cost()

    eigvals, eigvecs = np.linalg.eigh(ce.sym_m.as_array())
    eig = tuple(float(v) for v in eigvals)
    min_eig = eig[0]
    kernel_mask = np.abs(eigvals) <= PSD_TOL
    kernel_dim = int(kernel_mask.sum())
    computed_kernel = eigvecs[:, kernel_mask].T
    declared = np.array(ce.kernel_basis, dtype=float)
    if kernel_dim > 0:
        resid = max(
            _span_residual(declared, computed_kernel),
            _span_residual(computed_kernel, declared),
        )
    else:
        resid = math.inf
    nonzero = [v for v in eig if abs(v) > PSD_TOL]
    nz_sum = float(sum(nonzero))
    nz_prod = float(np.prod(nonzero)) if nonzero else 0.0

    coeffs = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(n_span, 2))
    # lam v1 + mu v2 marginal by marginal, coordinatewise as in span_point.
    lam, mu = coeffs[:, :1], coeffs[:, 1:]
    span = [lam * np.array(x) + mu * np.array(y) for x, y in zip(ce.v1, ce.v2)]
    total = u1.values(span[0]) + u2.values(span[1]) + u3.values(span[2])
    eq_max = float(np.abs(total - spec.total_many(np.hstack(span))).max(initial=0.0))

    draws = np.random.default_rng(seed + 1).uniform(-5.0, 5.0, size=(n_random, 4))
    a1, a2, a3, b3 = draws.T
    domain = [np.column_stack(c) for c in ((a1, np.zeros_like(a1)), (a2, a2), (a3, b3))]
    total = u1.values(domain[0]) + u2.values(domain[1]) + u3.values(domain[2])
    slack = total - spec.total_many(np.hstack(domain))
    slack_min = float(slack.min(initial=math.inf))
    algebra_max = float(np.abs(slack - ce.reduced_slack(draws)).max(initial=0.0))

    witnesses = []
    witness_ok = True
    origin: Point = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    for (i, j), lam, expected in PAIR_WITNESS_LAMBDAS:
        p = ce.span_point(lam, 1.0)
        pairs = [(p[i - 1], p[j - 1]), (origin[i - 1], origin[j - 1])]
        verdict = is_pair_monotone_classical(pairs)
        value = verdict.witness.value if verdict.witness is not None else math.inf
        witnesses.append((f"{i},{j}", lam, float(value)))
        if verdict.holds or abs(value - expected) > 1e-12:
            witness_ok = False

    passed = (
        min_eig >= -PSD_TOL
        and kernel_dim == 2
        and resid <= KERNEL_TOL
        and eq_max <= 1e-9
        and slack_min >= -1e-9
        and algebra_max <= 1e-9
        and witness_ok
    )
    return CounterexampleReport(
        passed=passed,
        eigenvalues=eig,
        min_eigenvalue=min_eig,
        kernel_dim=kernel_dim,
        kernel_match_residual=resid,
        nonzero_eigen_sum=nz_sum,
        nonzero_eigen_product=nz_prod,
        equality_max_residual=eq_max,
        n_span_samples=len(coeffs),
        slack_min=slack_min,
        algebra_max_residual=algebra_max,
        n_random_points=n_random,
        seed=seed,
        pair_witnesses=tuple(witnesses),
    )
