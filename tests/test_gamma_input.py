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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import point_rows_per_marginal
from monosplit import core, errors
from monosplit.cli import main
from monosplit.core import GammaSet, _point_rows, as_point

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


# (payload, dims) makers, fresh on each call (one is a generator): payloads
# that are rectangular, ragged or neither, of good and bad coordinates, and
# faults in more than one marginal, whose order decides the error.
PAYLOADS = {
    "scalars": (lambda: [[1, 2.5, -0.0], [0.0, True, 3]], (1, 1, 1)),
    "1-tuples": (lambda: [[(1.0,), (2.0,)], [(-0.0,), (4.0,)]], (1, 1)),
    "pairs": (lambda: [[[1.0, 2.0], [3.0, -0.0]]], (2, 2)),
    "mixed scalars and 1-tuples": (lambda: [[0.5, (1.0,)], [(2.0,), 3.0]], (1, 1)),
    "marginals of two dimensions": (lambda: [[1.0, [2.0, 3.0]]], (1, 2)),
    "numeric strings": (lambda: [["1", "2.5"], [b"3", 4]], (1, 1)),
    "strings as points": (lambda: ["12", "34"], (1, 1)),
    "flattened array": (lambda: np.array([[1.0, 2.0, 3.0]]), (1, 2)),
    "nested array": (lambda: np.array([[[1.0, 2.0], [3.0, 4.0]]]), (2, 2)),
    "flattened array with nan": (lambda: np.array([[1.0, np.nan]]), (1, 1)),
    "empty": (lambda: [], (1, 1)),
    "empty object array": (lambda: np.empty((0, 2), dtype=object), (1, 1)),
    "generator": (lambda: (p for p in [[1.0, 2.0]]), (1, 1)),
    "too few marginals": (lambda: [[1.0, 2.0]], (1, 1, 1)),
    "too many marginals": (lambda: [[1.0, 2.0, 3.0]], (1, 1)),
    "ragged marginal count": (lambda: [[1.0, 2.0], [3.0]], (1, 1)),
    "pairs for scalars": (lambda: [[[1.0, 2.0], [3.0, 4.0]]], (1, 1)),
    "scalars for pairs": (lambda: [[1.0, 2.0]], (2, 2)),
    "ragged pair": (lambda: [[[1.0, 2.0], [3.0]]], (2, 2)),
    "nan": (lambda: [[math.nan, 1.0]], (1, 1)),
    "-inf in a pair": (lambda: [[[1.0, 2.0], [-math.inf, 4.0]]], (2, 2)),
    "inf in marginal 1, nan in marginal 2": (lambda: [[1.0, math.nan], [math.inf, 2.0]], (1, 1)),
    "None": (lambda: [[None, 1.0]], (1, 1)),
    "complex": (lambda: [[1 + 2j, 1.0]], (1, 1)),
    "huge int": (lambda: [[10**400, 1.0]], (1, 1)),
    "word": (lambda: [["a", 1.0]], (1, 1)),
    "dict": (lambda: [[{}, 1.0]], (1, 1)),
    "flat numbers": (lambda: [1.0, 2.0], (1, 1)),
    "flat array": (lambda: np.array([1.0, 2.0]), (1, 1)),
}


def _outcome(call):
    """The rows as (shape, bytes), or the exception as (type, message)."""
    try:
        rows = call()
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc), str(exc)
    return rows.shape, rows.tobytes()


@pytest.mark.parametrize("label", PAYLOADS)
def test_point_rows_reads_every_payload_as_the_per_marginal_checks(label, monkeypatch):
    make, dims = PAYLOADS[label]
    want = _outcome(lambda: point_rows_per_marginal(make(), dims))
    assert _outcome(lambda: _point_rows(make(), dims)) == want
    # and so every way in that reads points through it
    got = _outcome(lambda: GammaSet.from_points(make(), dims).coords)
    monkeypatch.setattr(core, "_point_rows", point_rows_per_marginal)
    assert got == _outcome(lambda: GammaSet.from_points(make(), dims).coords)
