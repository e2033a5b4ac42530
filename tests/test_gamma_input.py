"""GammaSet input handling: every way in refuses a bad point set with the
same exception, and the set keeps the distinct points first seen first.

The table holds one fault per input.  Each input goes through
``GammaSet.from_json``, through ``GammaSet.from_points`` with and without
its dims, and through ``monosplit verify``; ``None`` marks an input that
way accepts.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monosplit import errors
from monosplit.cli import main
from monosplit.core import GammaSet, as_point

NAN, INF = math.nan, math.inf
POINTS = [[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]]


def _with_second(point):
    return [POINTS[0], point]


IVE, DM, PE = errors.InputValidationError, errors.DimensionMismatch, errors.ParseError

# label: (N, dims, points, from_json, from_points, from_points with dims)
BAD_INPUTS = {
    "nan": (3, [2, 2, 2], _with_second([[NAN, 1.0], [2.0, 2.0], [3.0, 3.0]]), PE, IVE, IVE),
    "+inf": (3, [2, 2, 2], _with_second([[1.0, 1.0], [INF, 2.0], [3.0, 3.0]]), PE, IVE, IVE),
    "-inf": (3, [2, 2, 2], [[[0.0, 1.0], [2.0, 3.0], [4.0, -INF]], POINTS[1]], PE, IVE, IVE),
    "two marginals": (3, [2, 2, 2], _with_second([[1.0, 1.0], [2.0, 2.0]]), DM, DM, DM),
    "four marginals": (3, [2, 2, 2], _with_second([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]),
                       DM, DM, DM),
    "one marginal": (3, [2, 2, 2], _with_second([[1.0, 1.0]]), DM, IVE, IVE),
    "wrong dimension": (3, [2, 2, 2], _with_second([[1.0, 1.0], [2.0], [3.0, 3.0]]), DM, DM, DM),
    "dims differ across points": (3, [2, 2, 2], _with_second([[1.0], [2.0], [3.0]]), DM, DM, DM),
    "dims shorter than the points": (2, [2, 2], POINTS, DM, None, DM),
    "empty": (3, [2, 2, 2], [], IVE, IVE, IVE),
    "N != len(dims)": (2, [2, 2, 2], POINTS, PE, None, None),
    "string coordinate": (3, [2, 2, 2], _with_second([[1.0, "x"], [2.0, 2.0], [3.0, 3.0]]),
                          PE, ValueError, ValueError),
    "null coordinate": (3, [2, 2, 2], _with_second([[1.0, None], [2.0, 2.0], [3.0, 3.0]]),
                        PE, TypeError, TypeError),
    "nested coordinate": (3, [2, 2, 2], _with_second([[1.0, [1.0]], [2.0, 2.0], [3.0, 3.0]]),
                          PE, TypeError, TypeError),
    "scalar point": (3, [2, 2, 2], _with_second(5.0), PE, TypeError, TypeError),
    "0 in dims": (3, [0, 2, 2], POINTS, IVE, None, IVE),
    "0 in dims, empty marginal": (3, [0, 2, 2], [[[], [2.0, 3.0], [4.0, 5.0]]], PE, IVE, IVE),
    "one marginal set": (1, [2], [[[0.0, 1.0]], [[1.0, 1.0]]], IVE, IVE, IVE),
}


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    return None


@pytest.mark.parametrize("label", BAD_INPUTS)
def test_bad_inputs_raise_alike_on_every_way_in(label, tmp_path, capsys):
    n, dims, points, from_json, from_points, from_points_dims = BAD_INPUTS[label]
    doc = {"N": n, "dims": dims, "points": points}
    text = json.dumps(doc)  # NaN and Infinity go in as JSON's extended literals
    assert _raised(lambda: GammaSet.from_json(json.loads(text))) is from_json
    assert _raised(lambda: GammaSet.from_points(points)) is from_points
    assert _raised(lambda: GammaSet.from_points(points, dims)) is from_points_dims
    path = tmp_path / "gamma.json"
    path.write_text(text)
    code = main(["verify", str(path)])
    assert code == 2 and capsys.readouterr().err.startswith("error: ")


coordinate = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.5])


@st.composite
def point_lists(draw):
    """1-D and 2-D sets, scalar or sequence marginals, with repeated rows and
    zeros of both signs."""
    n = draw(st.integers(2, 3))
    dim = draw(st.integers(1, 2))
    marginal = st.lists(coordinate, min_size=dim, max_size=dim)
    if dim == 1:
        marginal = marginal | coordinate
    pts = draw(st.lists(st.lists(marginal, min_size=n, max_size=n), min_size=1, max_size=12))
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=6))
    return pts + [pts[k] for k in repeats]


@settings(max_examples=150, deadline=None)
@given(pts=point_lists(), probe=st.lists(coordinate, min_size=6, max_size=6))
def test_points_and_membership_follow_first_seen_tuples(pts, probe):
    g = GammaSet.from_points(pts)
    expected = dict.fromkeys(as_point(p) for p in pts)
    assert repr(g.points) == repr(tuple(expected))  # repr tells -0.0 from 0.0
    assert g.size == len(expected)
    assert all(p in g for p in expected)
    values = iter(probe)
    other = tuple(tuple(next(values) for _ in x) for x in next(iter(expected)))
    assert (other in g) == (other in expected)
    assert (other[:-1] in g) is False
