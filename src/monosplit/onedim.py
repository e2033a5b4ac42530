"""One-dimensional specialization: sign tests, curve potentials, Young.

On the real line with the inner-product cost (equivalently its negated
half-squared-distance and shifted variants), cyclic monotonicity of any
order collapses to plain comonotonicity, projection by projection.  The
battery in :func:`characterize_1d` evaluates six equivalent formulations
of this fact on a finite set and insists they agree; a disagreement is an
implementation bug, never a property of the input.

Curves (a_1(t), ..., a_N(t)) built from continuous, strictly increasing,
onto maps with a_i(0) = 0 are the canonical monotone sets.  Their
potentials

    u_i(x) = integral_0^x  sum_{k != i} a_k(a_i^{-1}(t)) dt

are tabulated by one cumulative sweep of composite Simpson pieces per
sign, graded geometrically into t = 0, where compositions like t^(1/3)
have unbounded derivatives.  Each integrand is increasing, so every
tabulated value carries a Riemann bracket |h| |f(b) - f(a)| summed over
its pieces; the bracket is rigorous but overstates the Simpson error by
many orders of magnitude.  Young's inequality is evaluated through the exact
complement-area identity

    integral_0^b g^{-1} = b g^{-1}(b) - integral_0^{g^{-1}(b)} g,

so the possibly singular inverse is never integrated numerically.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .antiderivative import Potential, _antiderivative_check
from .core import (
    CLASSICAL_COSTS,
    EvenPowerForm,
    GammaSet,
    PairwiseCost,
    classical_cost,
    fields_json,
    marginal_blocks,
    unique_pairs,
)
from .errors import (
    BudgetExceeded,
    InputValidationError,
    InternalInconsistency,
    InversionFailure,
    NotOneDimensional,
    ProjectionNotMonotone,
)
from .monotone import (
    DEFAULT_TOL,
    _bruteforce_verdicts,
    _classical_verdict,
    _cycle_verdict,
    sign_criterion_1d,
)
from .splitting import assemble_splitting_tuple, certify_splitting

PANELS_PER_UNIT = 1024  # 2**10 Simpson subintervals per unit length beyond GRADE_LIMIT
GRADE_PIECES = 48  # geometric halvings toward 0
GRADE_PANELS = 64  # Simpson panels per piece
GRADE_LIMIT = 1.0  # pieces grade geometrically up to it, sit on a fixed grid beyond
INVERSE_TOL = 1e-12
ZERO_TOL = 1e-12
BRACKET_GROWTH = 2.0
MAX_BRACKET_STEPS = 200
SWEEP_NODE_BUDGET = 1 << 22  # quadrature nodes one sign of a sweep may take


@dataclass(frozen=True)
class MonotoneBijection:
    """A declared strictly increasing bijection of the line with fn(0) = 0.

    fn and inverse_fn act elementwise: they receive NumPy arrays (0-d for a
    scalar query) and return arrays of the same shape.  The declaration is
    spot-checked on a probe grid at construction, one float at a time.  The
    inverse uses the analytic inverse_fn when one is supplied (the built-in
    constructors do) and otherwise bisection on a geometrically grown
    bracket.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "g"
    probe: tuple[float, ...] = (-8.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 8.0)
    inverse_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if abs(self.fn(0.0)) > ZERO_TOL:
            raise InputValidationError(
                f"{self.label}(0) = {self.fn(0.0)!r}, expected 0"
            )
        vals = [self.fn(t) for t in self.probe]
        for a, b in zip(vals, vals[1:]):
            if not b > a:
                raise InputValidationError(
                    f"{self.label} is not strictly increasing on the probe grid"
                )
        if self.inverse_fn is not None:
            for t in self.probe:
                if abs(self.inverse_fn(self.fn(t)) - t) > 1e-9 * max(1.0, abs(t)):
                    raise InputValidationError(
                        f"declared inverse of {self.label} fails at {t!r}"
                    )

    def __call__(self, t):
        return self.fn(t)

    @classmethod
    def identity(cls) -> "MonotoneBijection":
        return cls(lambda t: t, label="t", inverse_fn=lambda t: t)

    @classmethod
    def odd_power(cls, p: float) -> "MonotoneBijection":
        """t |-> sign(t) |t|^p, the odd-root convention for fractional p."""
        if p <= 0:
            raise InputValidationError("the exponent must be positive")
        return cls(
            lambda t: signed_power(t, p),
            label=f"t^{p:g}",
            inverse_fn=lambda t: signed_power(t, 1.0 / p),
        )

    def inverse(self, y, tol: float = INVERSE_TOL):
        """Solve fn(x) = y elementwise for a float or an array; analytic when
        declared, else bisection; exact 0 at y = 0."""
        y = np.asarray(y, dtype=float)
        x = self.inverse_fn(y) if self.inverse_fn is not None else self._bisect(y, tol)
        return _float_or_array(np.where(y == 0.0, 0.0, x))

    def _bisect(self, y: np.ndarray, tol: float) -> np.ndarray:
        """Grow [-1, 1] geometrically until it brackets each entry of y, then
        halve each bracket until it is within tol or stops shrinking."""
        lo, hi = np.full(y.shape, -1.0), np.full(y.shape, 1.0)
        # An entry grows its bracket either upward or downward, never both.
        for side in ("upper", "lower"):
            for step in range(MAX_BRACKET_STEPS + 1):
                grow = self.fn(hi) < y if side == "upper" else self.fn(lo) > y
                if not grow.any():
                    break
                if step == MAX_BRACKET_STEPS:
                    raise InversionFailure(
                        f"no {side} bracket for {self.label} = {float(y[grow][0])!r}"
                    )
                if side == "upper":
                    lo, hi = np.where(grow, hi, lo), np.where(grow, hi * BRACKET_GROWTH, hi)
                else:
                    lo, hi = np.where(grow, lo * BRACKET_GROWTH, lo), np.where(grow, lo, hi)
        while True:
            mid = 0.5 * (lo + hi)
            live = (hi - lo > tol) & (mid != lo) & (mid != hi)
            if not live.any():
                return 0.5 * (lo + hi)
            below = self.fn(mid) < y
            lo, hi = np.where(live & below, mid, lo), np.where(live & ~below, mid, hi)


def _float_or_array(out: np.ndarray):
    """A 0-d result as a Python float, any other as the array itself."""
    return float(out) if out.ndim == 0 else out


def signed_power(t, p: float):
    """Odd extension of the power map, sign(t) |t|^p, elementwise on arrays."""
    t = np.asarray(t, dtype=float)
    # float_power calls libm pow on each entry, as Python's float ** does.
    odd = np.copysign(np.float_power(np.abs(t), p), t)
    return _float_or_array(np.where(t == 0.0, 0.0, odd))


def _add_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis strictly left to right, as a float loop
    would; np.sum's pairwise summation rounds differently."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _simpson(f: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson on each row of f, the integrand on GRADE_PANELS + 1
    equally spaced nodes of signed spacing h[r].

    The second array holds the Riemann brackets |h| |f(b) - f(a)|: the gap
    between the left and right sums, which enclose both the Simpson value
    and the integral where f is monotone on [a, b].
    """
    fa, fb = f[:, 0], f[:, -1]
    weighted = np.where(np.arange(1, GRADE_PANELS) % 2, 4.0, 2.0) * f[:, 1:-1]
    total = _add_in_order(np.column_stack([fa + fb, weighted]))
    return total * h / 3.0, np.abs(h) * np.abs(fb - fa)


def _sweep_edges(ys: np.ndarray) -> np.ndarray:
    """Piece edges over sorted magnitudes 0 < y_1 < ... < y_K.

    Below lo = min(y_1, GRADE_LIMIT) the edges halve GRADE_PIECES times
    into 0.  Up to GRADE_LIMIT they double from each knot and stop at the
    next one; beyond it they sit on the grid GRADE_LIMIT + j GRADE_PANELS /
    PANELS_PER_UNIT.  Every knot is an edge, and every piece [a, b] has
    b <= 2a, so no panel is coarse next to its distance from 0, where
    compositions like t^(1/3) have unbounded derivatives.  Raises
    BudgetExceeded before allocating the grid when the pieces would take
    more than SWEEP_NODE_BUDGET nodes.
    """
    top = min(ys[-1], GRADE_LIMIT)
    stops = np.append(ys[ys < top], top)
    edges = list(np.ldexp(stops[0], -np.arange(GRADE_PIECES, 0, -1)))
    for s, t in zip(stops[:-1], stops[1:]):
        while s < t:
            edges.append(s)
            s *= 2.0
    edges.append(top)
    step = GRADE_PANELS / PANELS_PER_UNIT
    beyond = max(0.0, (float(ys[-1]) - GRADE_LIMIT) / step)  # grid pieces; inf on overflow
    nodes = (len(edges) + beyond + len(ys)) * (GRADE_PANELS + 1)  # an upper bound
    if nodes > SWEEP_NODE_BUDGET:
        raise BudgetExceeded(
            f"quadrature to {float(ys[-1])!r} needs about {nodes:.3g} nodes, "
            f"over the budget of {SWEEP_NODE_BUDGET}"
        )
    if beyond:
        grid = GRADE_LIMIT + step * np.arange(1, math.ceil(beyond))
        edges.extend(np.union1d(grid, ys[ys > GRADE_LIMIT]))
    return np.array(edges)


def _sweep(fn, knots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """integral_0^x fn and its Riemann bracket at every x in knots.

    One cumulative sweep per sign: the pieces of both signs (see
    _sweep_edges), GRADE_PANELS Simpson panels each, go through fn in one
    call together with 0, for the trapezoid over the sliver between 0 and
    the innermost edge.  A knot reads the in-order prefix sums of the piece
    values and brackets below it; a knot at 0 reads exactly 0.
    """
    if not np.isfinite(knots).all():
        raise InputValidationError("integration limits must be finite")
    values, brackets = np.zeros(knots.shape), np.zeros(knots.shape)
    sides = [(s, np.flatnonzero(s * knots > 0)) for s in (1.0, -1.0)]
    sides = [(s, idx, _sweep_edges(np.unique(s * knots[idx]))) for s, idx in sides if idx.size]
    if not sides:
        return values, brackets
    a = np.concatenate([s * edges[:-1] for s, _, edges in sides])
    b = np.concatenate([s * edges[1:] for s, _, edges in sides])
    h = (b - a) / GRADE_PANELS
    nodes = a[:, None] + np.arange(GRADE_PANELS + 1) * h[:, None]
    nodes[:, -1] = b  # a + n h can miss b in the last bit
    f = fn(np.append(nodes, 0.0))
    f0, f = f[-1], f[:-1].reshape(nodes.shape)
    v, e = _simpson(f, h)
    row = 0
    for s, idx, edges in sides:
        inner, fi, stop = s * edges[0], f[row, 0], row + len(edges) - 1
        sliver = [[0.0, 0.5 * inner * (f0 + fi)], [0.0, 0.5 * abs(inner) * abs(fi - f0)]]
        sums = np.cumsum(np.hstack([sliver, [v[row:stop], e[row:stop]]]), axis=1)
        values[idx], brackets[idx] = sums[:, np.searchsorted(edges, s * knots[idx]) + 1]
        row = stop
    return values, brackets


def integral_from_zero(fn, x: float) -> tuple[float, float]:
    """integral_0^x fn for fn continuous: the one-knot case of the sweep
    that tabulates curve potentials.

    fn is called at most once, on an array of nodes.  Returns (value, bracket);
    the bracket is the Riemann bracket summed over the pieces, rigorous
    when fn is monotone but many orders larger than the Simpson error.
    """
    v, e = _sweep(fn, np.array([float(x)]))
    return float(v[0]), float(e[0])


@dataclass(frozen=True)
class CurvePotentials:
    """Tabulated curve potentials; error_bounds[i] is the largest Riemann
    bracket of marginal i over the grid, a rigorous but loose bound (many
    orders above the Simpson error) since the integrands are increasing."""

    potentials: tuple[Potential, ...]
    error_bounds: tuple[float, ...]


def curve_potentials(
    alphas: Sequence[MonotoneBijection], grid: Sequence[float]
) -> CurvePotentials:
    """Tabulate u_i(x) = integral_0^x sum_{k != i} a_k(a_i^{-1}(t)) dt.

    Each marginal integrates all knots in one sweep per sign, piece by
    piece from 0 outward, and its integrand is called once; the piece rule
    b <= 2a keeps fractional-power behaviour at the origin off coarse
    panels however the knots cluster.  u_i(0) = 0 exactly.  The reported
    bound for each marginal is the largest Riemann bracket over the grid:
    rigorous, since the integrands are increasing, but it overstates the
    Simpson error by many orders of magnitude.
    """
    n = len(alphas)
    if n < 2:
        raise InputValidationError("need at least two curve components")
    knots = np.array(sorted({float(t) for t in grid}))
    if not knots.size:
        raise InputValidationError("the grid must be nonempty")

    pots = []
    bounds = []
    for i in range(n):
        others = [alphas[k] for k in range(n) if k != i]
        inv = alphas[i].inverse

        def integrand(t: np.ndarray, _others=others, _inv=inv) -> np.ndarray:
            s = _inv(t)
            return sum(a(s) for a in _others)

        values, brackets = _sweep(integrand, knots)
        pots.append(Potential(knots[:, None], values))
        bounds.append(float(brackets.max()))
    return CurvePotentials(tuple(pots), tuple(bounds))


@dataclass(frozen=True)
class YoungCheck:
    """lhs = ab, rhs = integral_0^a g + integral_0^b g^{-1}, gap = rhs - lhs,
    and whether the equality case b = g(a) holds within tolerance."""

    lhs: float
    rhs: float
    gap: float
    equality: bool
    quadrature_bound: float

    to_json = fields_json


def young_check(
    g: MonotoneBijection, a: float, b: float, tol: float = DEFAULT_TOL
) -> YoungCheck:
    """Evaluate ab <= integral_0^a g + integral_0^b g^{-1}.

    The inverse integral is rewritten as b g^{-1}(b) minus an integral of
    g itself, which is exact for increasing g with g(0) = 0 and keeps the
    quadrature on the smooth forward map.  The equality flag tests
    |b - g(a)| <= tol.
    """
    a = float(a)
    b = float(b)
    beta = g.inverse(b)
    i1, e1 = integral_from_zero(g, a)
    i2, e2 = integral_from_zero(g, beta)
    lhs, rhs = a * b, i1 + b * beta - i2
    return YoungCheck(
        lhs=lhs,
        rhs=rhs,
        gap=rhs - lhs,
        equality=abs(b - g(a)) <= tol,
        quadrature_bound=e1 + e2,
    )


def knott_smith_alphas() -> tuple[MonotoneBijection, ...]:
    """The curve components t, t^3, t^5."""
    return (
        MonotoneBijection.identity(),
        MonotoneBijection.odd_power(3.0),
        MonotoneBijection.odd_power(5.0),
    )


def knott_smith_forms() -> tuple[tuple[EvenPowerForm, ...], tuple[EvenPowerForm, ...]]:
    """Closed-form potentials for the curve (t, t^3, t^5) and their
    half-square shifts.

    u_1 = x^4/4 + x^6/6, u_2 = 3|x|^{4/3}/4 + 3|x|^{8/3}/8,
    u_3 = 5|x|^{6/5}/6 + 5|x|^{8/5}/8; the shifted family adds |x|^2/2 to
    each.  Fractional powers use the even |x|^p convention, which is the
    odd-root real branch integrated from 0.
    """
    u1 = EvenPowerForm(((0.25, 4.0), (1.0 / 6.0, 6.0)))
    u2 = EvenPowerForm(((0.75, 4.0 / 3.0), (0.375, 8.0 / 3.0)))
    u3 = EvenPowerForm(((5.0 / 6.0, 6.0 / 5.0), (0.625, 8.0 / 5.0)))
    shift = (0.5, 2.0)
    starred = tuple(
        EvenPowerForm((shift,) + u.terms) for u in (u1, u2, u3)
    )
    return (u1, u2, u3), starred


@dataclass(frozen=True)
class KnottSmithValues:
    """Closed-form evaluations at one product point, with both slacks."""

    u: tuple[float, float, float]
    starred: tuple[float, float, float]
    c1_value: float
    c3_value: float
    c1_slack: float
    c3_slack: float

    to_json = fields_json


def knott_smith_potentials(x1: float, x2: float, x3: float) -> KnottSmithValues:
    """Evaluate the closed forms and both splitting inequalities at a point.

    c1_slack = sum u_i - (x1 x2 + x1 x3 + x2 x3) and
    c3_slack = sum (u_i + q) - |x1 + x2 + x3|^2 / 2; both are nonnegative
    with equality exactly on the curve (t, t^3, t^5).
    """
    (u1f, u2f, u3f), (s1f, s2f, s3f) = knott_smith_forms()
    u = (u1f.value((x1,)), u2f.value((x2,)), u3f.value((x3,)))
    starred = (s1f.value((x1,)), s2f.value((x2,)), s3f.value((x3,)))
    c1v = x1 * x2 + x1 * x3 + x2 * x3
    c3v = 0.5 * (x1 + x2 + x3) ** 2
    return KnottSmithValues(
        u=u,
        starred=starred,
        c1_value=c1v,
        c3_value=c3v,
        c1_slack=sum(u) - c1v,
        c3_slack=sum(starred) - c3v,
    )


ITEM_NAMES = (
    "cyclic_bruteforce", "sign_criterion", "projections_cyclic",
    "projections_monotone", "splitting_certified", "antiderivatives_exist",
)


@dataclass(frozen=True)
class OneDimReport:
    """Verdicts of the six equivalent monotonicity formulations.

    items: (i) brute-force cyclic monotonicity up to n_max, (ii) the sign
    criterion, (iii) cyclic monotonicity of every pair projection,
    (iv) classical monotonicity of every pair projection, (v) an
    assembled tuple certifies on the product of its tables (the
    projections) by pairwise brackets, (vi) every projection admits a
    chain antiderivative.  Items (v) and (vi) read one tabulation: the
    pair antiderivatives of that assembly.
    """

    verdict: bool
    cyclic_bruteforce: bool
    sign_criterion: bool
    projections_cyclic: bool
    projections_monotone: bool
    splitting_certified: bool
    antiderivatives_exist: bool
    cost_label: str
    n_max: int
    witness: dict | None

    def items(self) -> tuple[bool, ...]:
        return tuple(getattr(self, name) for name in ITEM_NAMES)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "items": dict(zip(ITEM_NAMES, self.items())),
            "cost": self.cost_label,
            "n_max": self.n_max,
            "witness": self.witness,
        }


def characterize_1d(
    g: GammaSet,
    which_cost: str = "c1",
    n_max: int = 4,
    tol: float = DEFAULT_TOL,
) -> OneDimReport:
    """Run the six-way equivalence battery on a finite 1-D set.

    which_cost selects the inner-product cost, the negated
    half-squared-distance (the equivalence covers -c2, not c2 itself), or
    the shifted variant.  tol is the absolute tolerance of all six items.
    All six verdicts must agree; a disagreement raises
    InternalInconsistency because the six formulations are provably
    equivalent for these costs.
    """
    if any(d != 1 for d in g.dims):
        raise NotOneDimensional("the battery requires one-dimensional marginals")
    n = g.n_marginals
    if which_cost not in CLASSICAL_COSTS:
        raise InputValidationError(f"unknown cost selector {which_cost!r}")
    spec = classical_cost(which_cost, n, 1)
    if which_cost == "c2":
        spec, label = spec.negated(), "-c2"
    else:
        label = which_cost

    item_i = all(v.holds for v in _bruteforce_verdicts(g, spec, range(2, n_max + 1), tol=tol))
    sign_verdict = sign_criterion_1d(g, tol=tol)
    item_ii = sign_verdict.holds

    # Items iii, iv and vi read each pair projection once, as row arrays.
    inner = PairwiseCost.inner_product()
    blocks = marginal_blocks(g.coords, g.dims)
    projections = {
        (i, j): unique_pairs(blocks[i - 1], blocks[j - 1])
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    item_iii = all(_cycle_verdict(x, y, inner, tol).holds for x, y in projections.values())
    item_iv = all(_classical_verdict(x, y, tol).holds for x, y in projections.values())

    # Assembly's f_{i,j} is the antiderivative (vi) checks (same base, same
    # grid); a positive cycle refuses assembly and fails (v) and (vi) together.
    try:
        tup = assemble_splitting_tuple(g, spec, tol=tol)
    except ProjectionNotMonotone:
        item_v = item_vi = False
    else:
        item_v = certify_splitting(tup, g, spec, tol=tol).passed
        item_vi = all(
            _antiderivative_check(f, *projections[(i, j)], spec.pair_cost(i, j), tol).holds
            for (i, j), f in tup.pair_potentials.items()
        )

    items = (item_i, item_ii, item_iii, item_iv, item_v, item_vi)
    if len(set(items)) != 1:
        raise InternalInconsistency(
            "equivalence battery disagreed: "
            f"bruteforce={item_i} signs={item_ii} proj_cyclic={item_iii} "
            f"proj_mono={item_iv} splitting={item_v} antiderivatives={item_vi}"
        )
    return OneDimReport(  # the verdict, then the six items in field order
        items[0], *items, cost_label=label, n_max=n_max,
        witness=None if sign_verdict.holds else sign_verdict.witness.to_json(),
    )


def emit_curve_figure_data(ts: Sequence[float], points: np.ndarray) -> str:
    """CSV rows (t, curve point, pair projections) for external plotting.

    points[i][k] is coordinate i + 1 of the curve at ts[k]; the rows hold
    exactly these values, each written to round-trip.  Header: t, x1..xN, then
    pair_i_j_x, pair_i_j_y per projection in lexicographic (i, j) order.
    """
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = [f"x{i}" for i in range(1, n + 1)]
    cols += [f"pair_{i + 1}_{j + 1}_{axis}" for i, j in pairs for axis in "xy"]
    rows = np.column_stack([ts, *points, *(points[k] for pair in pairs for k in pair)])
    lines = ["t," + ",".join(cols)]
    lines += [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"
