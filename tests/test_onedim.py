"""Quadrature, monotone bijections, Young's inequality, and the 1-D battery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import curve_potentials_per_knot, gamma_1d, integral_per_knot
from monosplit import antiderivative, monotone, onedim, splitting
from monosplit.core import GammaSet, PairwiseCost
from monosplit.errors import (
    InputValidationError,
    InversionFailure,
    NotOneDimensional,
)
from monosplit.onedim import (
    GRADE_LIMIT,
    GRADE_PANELS,
    GRADE_PIECES,
    PANELS_PER_UNIT,
    MonotoneBijection,
    characterize_1d,
    curve_potentials,
    emit_curve_figure_data,
    integral_from_zero,
    knott_smith_alphas,
    knott_smith_forms,
    knott_smith_potentials,
    signed_power,
    young_check,
)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_integral_oracles():
    v, e = integral_from_zero(lambda t: signed_power(t, 1.0 / 3.0), 1.0)
    assert v == pytest.approx(0.75, abs=1e-9)  # cube-root antiderivative
    assert e >= 0.0
    assert type(v) is float and type(e) is float
    v, e = integral_from_zero(lambda t: t**3, 2.0)
    assert v == pytest.approx(4.0, abs=1e-12)  # Simpson is exact on cubics
    v, _ = integral_from_zero(lambda t: t * t, -1.0)
    assert v == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert integral_from_zero(lambda t: t, 0.0) == (0.0, 0.0)


def test_riemann_bracket_is_rigorous_for_monotone_integrands():
    for x, exact in ((0.5, (0.5) ** (4 / 3) * 0.75), (1.0, 0.75), (2.0, 2 ** (4 / 3) * 0.75)):
        v, e = integral_from_zero(lambda t: signed_power(t, 1.0 / 3.0), x)
        assert abs(v - exact) <= e


# Knot sets for the sweep: clustered near 0, straddling +-GRADE_LIMIT by a
# hair, one-signed, a lone knot on either side of GRADE_LIMIT, and {0}.
SWEEP_GRIDS = {
    "clustered": [1e-6, 1.5e-6, 2e-6, 1e-5, 1e-3, 1e-3 + 1e-6, 0.3, -1e-6, -2e-6, -0.2],
    "straddling": [
        -GRADE_LIMIT - 0.3, -GRADE_LIMIT - 1e-9, -GRADE_LIMIT, -GRADE_LIMIT + 1e-9, -0.5,
        GRADE_LIMIT - 1e-9, GRADE_LIMIT, GRADE_LIMIT + 1e-9, GRADE_LIMIT + 1 / 16, 3.7,
    ],
    "positive": [0.1, 0.25, 0.9, 1.7, 3.0],
    "negative": [-2.2, -1.0, -0.4, -0.01, 0.0],
    "lone": [0.7],
    "lone beyond the limit": [-2.5],
    "origin": [0.0],
}


def _assert_sweep_agrees_with_per_knot(alphas, grid):
    sweep = curve_potentials(alphas, grid)
    oracle = curve_potentials_per_knot(alphas, grid)
    for pot, ref, e_sweep, e_ref in zip(
        sweep.potentials, oracle.potentials, sweep.error_bounds, oracle.error_bounds
    ):
        assert pot.points.tolist() == ref.points.tolist()
        # Both values lie within their own bracket of the integral.
        assert np.abs(np.subtract(pot.values, ref.values)).max() <= e_sweep + e_ref
        if [0.0] in pot.points.tolist():
            assert pot.value_at((0.0,)) == 0.0


@pytest.mark.parametrize("grid", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS)
def test_sweep_agrees_with_per_knot_quadrature(grid):
    _assert_sweep_agrees_with_per_knot(knott_smith_alphas(), grid)


@given(st.lists(
    st.one_of(
        st.just(0.0),
        st.builds(lambda s, y: s * y, st.sampled_from([-1.0, 1.0]), st.floats(1e-8, 4.0)),
    ),
    min_size=1, max_size=12,
))
def test_sweep_agrees_with_per_knot_quadrature_on_random_knots(grid):
    _assert_sweep_agrees_with_per_knot(knott_smith_alphas(), grid)


INTEGRANDS = {
    "cube root": lambda t: signed_power(t, 1.0 / 3.0),
    "curve (t^1/3 + t^5/3)": lambda t: signed_power(t, 1.0 / 3.0) + signed_power(t, 5.0 / 3.0),
    "nonzero at 0": lambda t: t**3 + 1.0,
}


@given(st.floats(-GRADE_LIMIT, GRADE_LIMIT), st.sampled_from(sorted(INTEGRANDS)))
@example(GRADE_LIMIT, "cube root")
@example(-GRADE_LIMIT, "nonzero at 0")
@example(1e-7, "curve (t^1/3 + t^5/3)")
@example(0.0, "nonzero at 0")
def test_integral_from_zero_within_the_limit_equals_the_per_knot_rule_bitwise(x, name):
    assert integral_from_zero(INTEGRANDS[name], x) == integral_per_knot(INTEGRANDS[name], x)


class _NodeCounter:
    """Counts the calls of a wrapped function and the nodes it receives."""

    def __init__(self):
        self.calls = 0
        self.nodes = 0

    def wrap(self, fn):
        def counted(t):
            self.calls += 1
            self.nodes += np.size(t)
            return fn(t)

        return counted


def _counted_knott_smith():
    """The curve (t, t^3, t^5) with counted inverses: marginal i's integrand
    calls the inverse of component i exactly once per call."""
    alphas, counters = [], []
    for a in knott_smith_alphas():
        counter = _NodeCounter()
        alphas.append(MonotoneBijection(a.fn, a.label, inverse_fn=counter.wrap(a.inverse_fn)))
        counter.calls = counter.nodes = 0  # construction probes the inverse
        counters.append(counter)
    return alphas, counters


def _node_bound(ys: np.ndarray) -> float:
    """Nodes the sweep may spend on the magnitudes ys of one sign: a graded
    start, one piece per knot and per doubling, the grid beyond the limit."""
    span = max(0.0, ys.max() - GRADE_LIMIT)
    doublings = math.ceil(math.log2(ys.max() / ys.min()))
    pieces = GRADE_PIECES + len(ys) + doublings + PANELS_PER_UNIT / GRADE_PANELS * span + 2
    return pieces * (GRADE_PANELS + 1)


@pytest.mark.parametrize("k", [1, 4, 32, 256])
def test_curve_potentials_call_each_integrand_once_on_bounded_nodes(k):
    knots = np.concatenate([np.geomspace(1e-4, 3.0, k), -np.geomspace(1e-3, 1.5, k), [0.0]])
    alphas, counters = _counted_knott_smith()
    curve_potentials(alphas, knots)
    bound = _node_bound(knots[knots > 0]) + _node_bound(-knots[knots < 0])
    for counter in counters:
        assert counter.calls == 1
        assert counter.nodes <= bound


# ---------------------------------------------------------------------------
# Monotone bijections
# ---------------------------------------------------------------------------


def test_builtin_bijections_have_analytic_inverses():
    ident = MonotoneBijection.identity()
    cube = MonotoneBijection.odd_power(3.0)
    assert ident.inverse(0.7) == 0.7
    assert cube.inverse(0.0) == 0.0
    assert type(cube.inverse(2.0)) is float
    for x in (-1.7, -0.3, 0.4, 2.2):
        assert cube.inverse(cube(x)) == pytest.approx(x, abs=1e-12)
        assert cube(-x) == -cube(x)


def test_custom_bijection_falls_back_to_bisection():
    g = MonotoneBijection(lambda t: t + t**3, label="t+t^3")
    assert g.inverse(2.0) == pytest.approx(1.0, abs=1e-11)
    assert g.inverse(-10.0) == pytest.approx(-2.0, abs=1e-11)


def test_bounded_map_cannot_be_inverted_beyond_its_range():
    g = MonotoneBijection(math.tanh, label="tanh")
    with pytest.raises(InversionFailure):
        g.inverse(2.0)
    with pytest.raises(InversionFailure, match="lower bracket"):
        MonotoneBijection(np.tanh, label="tanh").inverse(np.array([0.5, 0.0, -2.0]))


def test_bijection_validation():
    with pytest.raises(InputValidationError):
        MonotoneBijection(lambda t: t + 1.0)  # fn(0) != 0
    with pytest.raises(InputValidationError):
        MonotoneBijection(lambda t: -t)  # decreasing
    with pytest.raises(InputValidationError):
        MonotoneBijection(lambda t: t, inverse_fn=lambda t: t + 0.1)
    with pytest.raises(InputValidationError):
        MonotoneBijection.odd_power(0.0)


def test_signed_power_conventions():
    assert signed_power(-8.0, 1.0 / 3.0) == pytest.approx(-2.0, abs=1e-15)
    assert signed_power(0.0, 0.5) == 0.0
    assert signed_power(-1.5, 2.0) == -2.25  # odd extension, not the square
    assert type(signed_power(2.0, 3.0)) is float
    ts = [-8.0, -0.0, 0.0, 0.3, 2.0]
    got = signed_power(np.array(ts), 1.0 / 3.0).tolist()
    assert got == [signed_power(t, 1.0 / 3.0) for t in ts]


# ---------------------------------------------------------------------------
# Young's inequality
# ---------------------------------------------------------------------------


def test_young_strict_case_for_the_cubic():
    res = young_check(MonotoneBijection.odd_power(3.0), 2.0, 1.0)
    assert res.lhs == 2.0
    assert res.rhs == pytest.approx(4.75, abs=1e-9)
    assert not res.equality
    assert res.gap == pytest.approx(2.75, abs=1e-9)


def test_young_equality_on_the_graph():
    g = MonotoneBijection.odd_power(3.0)
    res = young_check(g, 1.3, g(1.3))
    assert res.equality is True
    assert abs(res.gap) <= 1e-9


def test_young_negative_quadrants():
    ident = MonotoneBijection.identity()
    eq = young_check(ident, -1.0, -1.0)
    assert eq.equality and abs(eq.gap) <= 1e-12
    strict = young_check(ident, -2.0, 3.0)
    assert strict.lhs == -6.0
    assert strict.rhs == pytest.approx(6.5, abs=1e-9)


def test_young_random_equality_cases(rng):
    for _ in range(20):
        p = float(rng.choice((1.0, 3.0, 5.0)))
        g = MonotoneBijection.odd_power(p)
        a = float(rng.uniform(-2.0, 2.0))
        res = young_check(g, a, g(a))
        assert res.equality
        assert abs(res.gap) <= 1e-9


# ---------------------------------------------------------------------------
# The (t, t^3, t^5) curve
# ---------------------------------------------------------------------------


def test_closed_form_spot_values():
    vals = knott_smith_potentials(1.0, 1.0, 1.0)
    assert sum(vals.u) == pytest.approx(3.0, abs=1e-12)
    assert vals.c1_value == 3.0
    assert abs(vals.c1_slack) <= 1e-12
    assert sum(vals.starred) == pytest.approx(4.5, abs=1e-12)
    assert abs(vals.c3_slack) <= 1e-12


def test_closed_forms_vanish_exactly_on_the_curve():
    for t in (-1.2, -0.3, 0.0, 0.7):
        vals = knott_smith_potentials(t, t**3, t**5)
        assert abs(vals.c1_slack) <= 1e-12
        assert abs(vals.c3_slack) <= 1e-12


def test_closed_form_slack_is_nonnegative_off_the_curve(rng):
    off = knott_smith_potentials(1.0, 0.0, 0.0)
    assert off.c1_slack == pytest.approx(5.0 / 12.0, abs=1e-12)
    for _ in range(50):
        x1, x2, x3 = rng.uniform(-1.5, 1.5, size=3)
        vals = knott_smith_potentials(float(x1), float(x2), float(x3))
        assert vals.c1_slack >= -1e-12
        assert vals.c3_slack >= -1e-12


def test_shifted_forms_dominate_on_a_dense_cube():
    # 41^3 sweep of [-2,2]^3: the shifted sum must dominate half the squared
    # coordinate total everywhere, with equality exactly where the cube's
    # lattice meets the curve (t, t^3, t^5): the origin and (±1, ±1, ±1).
    _, starred = knott_smith_forms()
    axis = np.linspace(-2.0, 2.0, 41)
    lifted = [
        np.array([form.value((float(x),)) for x in axis]) for form in starred
    ]
    total = (
        lifted[0][:, None, None] + lifted[1][None, :, None] + lifted[2][None, None, :]
    )
    coord_sum = axis[:, None, None] + axis[None, :, None] + axis[None, None, :]
    slack = total - 0.5 * coord_sum**2
    assert slack.min() >= -1e-12
    equality = {
        (float(axis[i]), float(axis[j]), float(axis[k]))
        for i, j, k in np.argwhere(slack <= 1e-6)
    }
    assert equality == {(-1.0, -1.0, -1.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)}


def test_quadrature_matches_closed_forms_on_a_grid():
    alphas = knott_smith_alphas()
    grid = [-1.5 + 0.25 * k for k in range(13)]
    cp = curve_potentials(alphas, grid)
    forms, _ = knott_smith_forms()
    for pot, form in zip(cp.potentials, forms):
        assert pot.value_at((0.0,)) == 0.0
        for p in pot.points:
            assert pot.value_at(p) == pytest.approx(form.value(p), abs=1e-8)
    assert all(b >= 0.0 for b in cp.error_bounds)


def test_curve_potentials_invert_a_custom_bijection_by_bisection():
    # alpha = (t, g) with g(t) = t + t^3 and no declared inverse:
    # u_1 = x^2/2 + x^4/4, and by the complement-area identity
    # u_2 = x s - s^2/2 - s^4/4 with s = g^{-1}(x).
    g = MonotoneBijection(lambda t: t + t**3, label="t+t^3")
    grid = [-2.5, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0, 3.0]
    ys = np.array(grid + [1e6, -1e6])
    inv = g.inverse(ys)
    assert inv.tolist() == [g.inverse(y) for y in ys.tolist()]
    cp = curve_potentials((MonotoneBijection.identity(), g), grid)
    x, s = ys[:len(grid)], inv[:len(grid)]
    exact = (x**2 / 2 + x**4 / 4, x * s - s**2 / 2 - s**4 / 4)
    for pot, want, bound in zip(cp.potentials, exact, cp.error_bounds):
        got = np.array([pot.value_at((t,)) for t in grid])
        assert np.abs(got - want).max() <= bound + 1e-9


def test_curve_potentials_validation():
    with pytest.raises(InputValidationError):
        curve_potentials(knott_smith_alphas()[:1], [0.0, 1.0])
    with pytest.raises(InputValidationError):
        curve_potentials(knott_smith_alphas(), [])
    with pytest.raises(InputValidationError):
        curve_potentials(knott_smith_alphas(), [0.5, math.inf])
    with pytest.raises(InputValidationError):
        integral_from_zero(lambda t: t, math.nan)


# ---------------------------------------------------------------------------
# The 1-D equivalence battery
# ---------------------------------------------------------------------------


def test_battery_on_a_comonotone_set():
    g = gamma_1d([[-1.0, -2.0, 0.0], [0.0, 0.0, 0.5], [2.0, 1.0, 3.0]])
    for which, label in (("c1", "c1"), ("c2", "-c2"), ("c3", "c3")):
        report = characterize_1d(g, which_cost=which, n_max=3)
        assert report.verdict
        assert all(report.items())
        assert report.cost_label == label
        assert report.witness is None


def test_battery_on_a_violating_set():
    g = gamma_1d([[0.0, 0.0, 0.0], [1.0, -1.0, 2.0]])
    report = characterize_1d(g, which_cost="c1", n_max=3)
    assert not report.verdict
    assert not any(report.items())
    assert report.witness is not None
    assert report.witness["kind"] == "signs"


def test_battery_applies_tol_to_every_item():
    # Point 2 moves -1e-8 in marginal 2: monotone within 1e-6, not within 1e-9.
    g = gamma_1d([[0.0, 0.0, 0.0], [1.0, -1e-8, 1.0]])
    for which in ("c1", "c2", "c3"):
        loose = characterize_1d(g, which_cost=which, n_max=3, tol=1e-6)
        assert loose.verdict and all(loose.items())
        tight = characterize_1d(g, which_cost=which, n_max=3, tol=1e-9)
        assert not tight.verdict and not any(tight.items())


def test_battery_on_curve_samples():
    ts = [-1.0 + 0.5 * k for k in range(5)]
    g = gamma_1d([[t, t**3, t**5] for t in ts])
    for which in ("c1", "c2", "c3"):
        assert characterize_1d(g, which_cost=which, n_max=3).verdict


def test_one_scan_per_antiderivative_and_one_antiderivative_per_projection(monkeypatch):
    calls = {"scan": 0, "chain": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    scan = counting("scan", antiderivative.scan_gain_digraph)
    monkeypatch.setattr(antiderivative, "scan_gain_digraph", scan)
    antiderivative.rockafellar_potential(
        PairwiseCost.inner_product(), [((0.0,), (0.0,)), ((1.0,), (1.0,))], (0.0,), [(1.0,)]
    )
    assert calls["scan"] == 1

    # Assembly tabulates each projection through the array body of
    # rockafellar_potential.
    chain = counting("chain", antiderivative._chain_potential)
    monkeypatch.setattr(splitting, "_chain_potential", chain)
    g = gamma_1d([[-1.0, -2.0, 0.0], [0.0, 0.0, 0.5], [2.0, 1.0, 3.0]])
    assert characterize_1d(g, which_cost="c1", n_max=3).verdict
    assert calls["chain"] == 3  # one per projection (1,2), (1,3), (2,3)


def test_battery_builds_the_brute_force_tables_once(monkeypatch):
    # Orders 2-4 share one set of pair matrices.
    built = []
    full = monotone._full_pair_matrices
    monkeypatch.setattr(monotone, "_full_pair_matrices", lambda *args: built.append(1) or full(*args))
    g = gamma_1d([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.5], [3.0, 4.0, 4.5]])
    assert characterize_1d(g, which_cost="c3", n_max=4).verdict
    assert built == [1]


def test_battery_stops_testing_projections_once_their_item_fails(monkeypatch):
    calls = []
    # The battery reads its projections as arrays, through the array bodies
    # of the projection verdict and is_pair_monotone_classical.
    for name in ("_cycle_verdict", "_classical_verdict"):
        def counted(*args, _fn=getattr(onedim, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(onedim, name, counted)
    # Projection (1, 2) is antitone, so items (iii) and (iv) fail on it.
    report = characterize_1d(gamma_1d([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), n_max=2)
    assert not any(report.items())
    assert calls == ["_cycle_verdict", "_classical_verdict"]


def test_battery_input_validation():
    flat = GammaSet.from_points([[(0.0, 0.0), (0.0, 0.0)]])
    with pytest.raises(NotOneDimensional):
        characterize_1d(flat)
    with pytest.raises(InputValidationError):
        characterize_1d(gamma_1d([[0.0, 0.0]]), which_cost="c9")


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------


def test_figure_csv_layout():
    ts = [-1.0, -0.5, 0.0, 0.5, 1.0]
    points = np.array([a(np.asarray(ts)) for a in knott_smith_alphas()])
    text = emit_curve_figure_data(ts, points)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "t,x1,x2,x3,pair_1_2_x,pair_1_2_y,pair_1_3_x,pair_1_3_y,pair_2_3_x,pair_2_3_y"
    )
    assert len(lines) == 6
    assert text.endswith("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # the rows are the given grid and points, each pair its two coordinates
    assert rows[:, 0].tolist() == ts
    assert np.array_equal(rows[:, 1:4], points.T)
    assert np.array_equal(rows[:, 4:], points[[0, 1, 0, 2, 1, 2]].T)
    assert rows[2, 1] == 0.0 and rows[2, 2] == 0.0  # curve passes through the origin
    assert rows[-1, 2] == pytest.approx(rows[-1, 1] ** 3, abs=1e-15)
