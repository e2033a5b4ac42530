"""End-to-end command-line behaviour: exit codes, reports, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monosplit
from helpers import gamma_1d
from monosplit import cli, onedim
from monosplit.antiderivative import Potential, rockafellar_potential
from monosplit.cli import build_parser, main
from monosplit.core import GammaSet, PairwiseCost, classical_cost, loads_json
from monosplit.errors import InputValidationError, ParseError
from monosplit.splitting import SplittingTuple, certify_splitting, sample_test_points

DIAGONAL_DOC = gamma_1d([[t, t, t] for t in (-1.0, 0.0, 1.0)]).to_json()
ANTITONE_DOC = gamma_1d([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]).to_json()
DATA = Path(__file__).parent / "data"


@pytest.fixture
def gamma_file(tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(DIAGONAL_DOC))
    return str(path)


@pytest.fixture
def bad_gamma_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(ANTITONE_DOC))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# A 2-D, N = 3 set whose projections (1, 3) and (2, 3) have positive cycles
# and which fails order 2 at the pair (0, 3) by swapping marginal 3.
FAILING_2D_POINTS = [
    [[-1.17, 0.52], [-0.87, 0.62], [-0.57, 0.32]],
    [[-0.81, 0.97], [-0.51, 1.07], [-0.21, 0.77]],
    [[-0.5, -1.64], [-0.2, -1.54], [0.1, -1.84]],
    [[0.64, 1.73], [0.94, 1.83], [-1.53, -1.24]],
    [[0.89, -1.13], [1.19, -1.03], [1.49, -1.33]],
]


def test_verify_failing_2d_report_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gamma.json").write_text(json.dumps(GammaSet.from_points(FAILING_2D_POINTS).to_json()))
    code, out, _ = _run(capsys, ["verify", "gamma.json", "--cost", "c3", "--brute", "3"])
    assert code == 1
    assert out == (DATA / "verify_failing_2d.json").read_text()


# A 1-D, N = 3 comonotone set but for marginal 3 of its last two points: every
# order first fails on a multiset holding both, well past the first multiset.
FAILING_1D_POINTS = [
    [-1.53, -1.27, -2.11], [-0.97, -0.71, -1.43], [-0.49, 0.07, -0.93],
    [0.13, 0.29, -0.41], [0.61, 1.03, 1.17], [1.31, 1.57, 0.59],
]

# Ten points, likewise comonotone but for marginal 3 of the last two: order 4
# first fails on multiset 54 of 715, several enumerator blocks in.
LATE_1D_POINTS = [
    [-2.13, -1.87, -2.41], [-1.71, -1.52, -1.96], [-1.26, -0.93, -1.38],
    [-0.82, -0.61, -0.77], [-0.35, -0.18, -0.29], [0.17, 0.26, 0.21],
    [0.58, 0.73, 0.66], [1.04, 1.19, 1.27], [1.49, 1.62, 2.35], [1.97, 2.11, 1.83],
]


@pytest.mark.parametrize("doc, argv, exit_code, pinned", [
    # 2-D, N = 3 commuting-SPD set: orders 2 and 3 hold.
    (json.loads((DATA / "verify_passing_2d_gamma.json").read_text()),
     ["--cost", "c3", "--brute", "3"], 0, "verify_passing_2d.json"),
    (gamma_1d(FAILING_1D_POINTS).to_json(),
     ["--brute", "4", "--sign-criterion"], 1, "verify_failing_1d.json"),
    (gamma_1d(LATE_1D_POINTS).to_json(),
     ["--cost", "c3", "--brute", "4"], 1, "verify_brute4_late_c3.json"),
])
def test_verify_brute_reports_are_pinned(capsys, tmp_path, monkeypatch, doc, argv,
                                         exit_code, pinned):
    monkeypatch.chdir(tmp_path)
    Path("gamma.json").write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["verify", "gamma.json", *argv])
    assert (code, err) == (exit_code, "")
    assert out == (DATA / pinned).read_text()


def test_verify_monotone_set(capsys, gamma_file):
    code, out, _ = _run(
        capsys, ["verify", gamma_file, "--cost", "c1", "--brute", "3", "--sign-criterion"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"]
    assert doc["config"] == {"command": "verify", "inputs": [gamma_file], "cost": "c1",
                             "brute": 3, "sign_criterion": True, "tol": 1e-9, "out": None}
    assert doc["n_points"] == 3
    assert doc["projection_condition"]["all_hold"]
    assert doc["bruteforce"]["2"]["holds"] and doc["bruteforce"]["3"]["holds"]
    assert doc["sign_criterion"]["holds"]


@pytest.mark.parametrize("order", ["1", "0", "-3"])
def test_verify_refuses_a_brute_order_below_two(capsys, gamma_file, order):
    code, out, err = _run(capsys, ["verify", gamma_file, "--brute", order])
    assert (code, out, err) == (2, "", "error: --brute needs an order N >= 2\n")


def test_verify_violation_carries_witness(capsys, bad_gamma_file):
    code, out, _ = _run(capsys, ["verify", bad_gamma_file])
    assert code == 1
    doc = json.loads(out)
    assert not doc["all_hold"]
    assert not doc["projection_condition"]["all_hold"]
    assert doc["pairwise_monotone"]["witness"] is not None


def test_verify_reports_are_byte_identical(capsys, gamma_file):
    _, first, _ = _run(capsys, ["verify", gamma_file, "--brute", "3"])
    _, second, _ = _run(capsys, ["verify", gamma_file, "--brute", "3"])
    assert first == second


def test_verify_accepts_a_cost_file(capsys, gamma_file, tmp_path):
    spec_path = tmp_path / "cost.json"
    spec_path.write_text(json.dumps(classical_cost("c1", 3, 1).to_json()))
    code, out, _ = _run(capsys, ["verify", gamma_file, "--cost", str(spec_path)])
    assert code == 0
    assert json.loads(out)["all_hold"]


def test_report_echoes_a_path_with_a_tab(capsys, tmp_path):
    path = tmp_path / "in\tdir" / "gamma.json"
    path.parent.mkdir()
    path.write_text(json.dumps(DIAGONAL_DOC))
    code, out, _ = _run(capsys, ["verify", str(path)])
    assert code == 0
    assert loads_json(out)["config"]["inputs"] == [str(path)]


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_stdout_document(capsys, gamma_file):
    code, out, _ = _run(capsys, ["split", gamma_file])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["potentials"]) == 3
    assert doc["certificate"]["passed"]
    assert doc["certificate"]["seed"] is None
    assert (doc["certificate"]["n_test_points"], doc["certificate"]["n_vacuous"]) == (27, 0)
    assert doc["certificate"]["max_equality_residual_on_gamma"] == 0.0


def test_split_outdir_roundtrip(capsys, gamma_file, tmp_path):
    out_dir = tmp_path / "result"
    code, _, _ = _run(
        capsys,
        ["split", gamma_file, "--out", str(out_dir)],
    )
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {
        "potential_1.json",
        "potential_2.json",
        "potential_3.json",
        "certificate.json",
        "report.json",
    }
    filed = json.loads((out_dir / "certificate.json").read_text())
    pots = tuple(
        Potential.from_json(json.loads((out_dir / f"potential_{i}.json").read_text()))
        for i in (1, 2, 3)
    )
    tup = SplittingTuple(pots, {}, {})
    g = gamma_1d([[t, t, t] for t in (-1.0, 0.0, 1.0)])
    cert = certify_splitting(tup, g, classical_cost("c1", 3, 1),
                             test_points=sample_test_points(g, 300, 0))
    assert cert.passed
    assert abs(cert.max_inequality_violation - filed["max_inequality_violation"]) <= 1e-12
    assert (
        abs(cert.max_equality_residual_on_gamma - filed["max_equality_residual_on_gamma"])
        <= 1e-12
    )


def test_split_grid_extends_tables(capsys, gamma_file):
    code, out, _ = _run(
        capsys, ["split", gamma_file, "--grid=-2:2:1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["potentials"][0]["points"]) == 5  # 3 from the set, 2 new
    assert doc["certificate"]["passed"]


# A 1-D, N = 3 comonotone set holding both -0.0 and 0.0 in marginals 1 and 3.
SIGNED_ZERO_1D = [[-1.0, -1.5, -0.5], [-0.0, -0.0, 0.0], [0.0, 0.5, -0.0], [1.0, 1.5, 0.75]]
# A cost mixing bilinear, tabulated and negated pairs with shifts; its
# y-grid holds -0.0 where the set holds 0.0.
TAB_GRID_X, TAB_GRID_Y = [-1.0, 0.0, 0.5, 1.0, 2.0], [-1.0, -0.0, 2.0, 2.5]
MIXED_COST = {
    "dims": [1, 1, 1],
    "pairs": {
        "1,2": {"kind": "bilinear", "matrix": [[2.0]]},
        "1,3": {"kind": "tabulated", "grid_x": [[x] for x in TAB_GRID_X],
                "grid_y": [[y] for y in TAB_GRID_Y],
                "table": [[x * y + 0.5 * x for y in TAB_GRID_Y] for x in TAB_GRID_X]},
        "2,3": {"kind": "half_sq_dist", "sign": -1},
    },
    "shift": [[{"form": "linear", "vector": [1.0], "constant": 0.5}], [],
              [{"form": "quadratic", "matrix": [[0.25]]}]],
}
TAB_GAMMA = [[-1.0, -2.0, -1.0], [0.0, 0.5, 0.0], [0.5, 1.0, 2.0], [1.0, 1.5, 2.5]]
# Pairs with a (-0.0, 0.0) and a (0.0, 0.0) that dedups onto it, and a
# tabulated pairwise cost whose x-grid holds 0.0.
SIGNED_PAIRS = {"pairs": [[-1.0, -2.0], [-0.0, 0.0], [0.5, 1.0], [1.0, 1.5], [0.0, 0.0]]}
TAB_PAIR_COST = {
    "kind": "tabulated",
    "grid_x": [[-1.0], [0.0], [0.5], [1.0]],
    "grid_y": [[-2.0], [0.0], [1.0], [1.5]],
    "table": [[x * y for y in (-2.0, 0.0, 1.0, 1.5)] for x in (-1.0, 0.0, 0.5, 1.0)],
}
PASSING_2D_DOC = json.loads((DATA / "verify_passing_2d_gamma.json").read_text())


@pytest.mark.parametrize("files, argv, exit_code, pinned", [
    ({"gamma.json": gamma_1d(SIGNED_ZERO_1D).to_json()},
     ["split", "gamma.json", "--grid=-2:2:0.25"], 0, "split_signed_zero_1d.json"),
    ({"gamma.json": PASSING_2D_DOC},
     ["split", "gamma.json", "--cost", "c3"], 0, "split_2d_c3.json"),
    ({"gamma.json": gamma_1d(TAB_GAMMA).to_json(), "cost.json": MIXED_COST},
     ["split", "gamma.json", "--cost", "cost.json"], 0,
     "split_mixed_cost.json"),
    ({"pairs.json": SIGNED_PAIRS},
     ["rockafellar", "pairs.json", "--grid=-1.5:1.5:0.5"], 0, "rockafellar_grid.json"),
    ({"pairs.json": SIGNED_PAIRS, "cost.json": TAB_PAIR_COST},
     ["rockafellar", "pairs.json", "--cost", "cost.json", "--base", "0"], 0,
     "rockafellar_tabulated.json"),
    # 15 931 distinct sample rows of width 6, the first columns tied almost
    # everywhere; 333 sample rows once 3 repeated ones are dropped.
    ({}, ["example", "quadratic", "--samples", "300"], 0, "example_quadratic.json"),
    ({}, ["example", "knott-smith", "--tmax", "0.5", "--samples", "200"], 0,
     "example_knott_smith.json"),
])
def test_construction_reports_are_pinned(capsys, tmp_path, monkeypatch, files, argv,
                                         exit_code, pinned):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        Path(name).write_text(json.dumps(doc))
    code, out, err = _run(capsys, argv)
    assert (code, err) == (exit_code, "")
    assert out == (DATA / pinned).read_text()


def test_off_grid_refusal_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gamma.json").write_text(json.dumps(gamma_1d(TAB_GAMMA + [[0.25, 0.75, 1.0]]).to_json()))
    Path("cost.json").write_text(json.dumps(MIXED_COST))
    code, out, err = _run(capsys, ["verify", "gamma.json", "--cost", "cost.json"])
    assert (code, out) == (1, "")
    assert err == "error: 'point (0.25,) not on the tabulated x-grid'\n"


def test_split_refuses_non_monotone_projection(capsys, bad_gamma_file):
    code, out, err = _run(capsys, ["split", bad_gamma_file])
    assert code == 1
    assert out == ""
    assert "projection (1, 3) is not cyclically monotone" in err
    assert "cycle" in err and "gain" in err


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def test_example_unknown_name(capsys):
    code, _, err = _run(capsys, ["example", "nosuch"])
    assert code == 2
    assert "argument name: invalid choice: 'nosuch'" in err


# The options each example reads, besides --out, in parser order.
EXAMPLE_OPTIONS = {
    "quadratic": ["--n", "--dim", "--samples", "--tol", "--seed"],
    "counterexample": ["--samples", "--seed"],
    "curves": ["--grid", "--format", "--tol", "--seed"],
    "knott-smith": ["--tmax", "--samples", "--format", "--tol", "--seed"],
    "young": ["--g", "--a", "--b", "--tol"],
}
FLAG_VALUES = {"--grid": "-1:1:0.5", "--format": "csv", "--g": "cube"}


@pytest.mark.parametrize("name, flag", [
    (name, flag)
    for name, own in EXAMPLE_OPTIONS.items()
    for flag in sorted({f for fs in EXAMPLE_OPTIONS.values() for f in fs} - set(own))
])
def test_an_example_refuses_the_options_of_the_others(capsys, name, flag):
    value = FLAG_VALUES.get(flag, "3")
    code, out, err = _run(capsys, ["example", name, flag, value])
    assert (code, out) == (2, "") and f"unrecognized arguments: {flag} {value}" in err


@pytest.mark.parametrize("argv, usage", [
    (["example", "young", "--samples", "3"], "usage: monosplit example young [-h] [--g G]"),
    (["example", "young", "--seed", "3"], "usage: monosplit example young [-h] [--g G]"),
    (["verify", "GAMMA", "--samples", "3"], "usage: monosplit verify [-h] [--cost COST]"),
], ids=["young-samples", "young-seed", "verify-samples"])
def test_an_unknown_option_shows_the_usage_of_its_subcommand(capsys, argv, usage):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(usage + " ") and f"error: unrecognized arguments: {argv[-2]} 3\n" in err


@pytest.mark.parametrize("argv, usage, unknown", [
    (["--zzz", "example", "young"], "usage: monosplit [-h] {verify", "--zzz"),
    (["--zzz", "example", "young", "--samples", "3"], "usage: monosplit [-h] {verify",
     "--zzz --samples 3"),
    (["example", "--zzz", "young"], "usage: monosplit example [-h] name", "--zzz"),
], ids=["top", "top-and-young", "example"])
def test_an_unknown_option_before_a_subcommand_shows_the_outer_usage(capsys, argv, usage, unknown):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(usage) and err.endswith(f"error: unrecognized arguments: {unknown}\n")


def test_example_young_strict_case(capsys):
    code, out, _ = _run(capsys, ["example", "young", "--g", "cube", "--a", "2", "--b", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["young"]["lhs"] == 2.0
    assert abs(doc["young"]["rhs"] - 4.75) <= 1e-9
    assert not doc["young"]["equality"]


def test_example_young_equality_case(capsys):
    code, out, _ = _run(
        capsys, ["example", "young", "--g", "cube", "--a", "1.1", "--b", str(1.1**3)]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["young"]["equality"]
    assert abs(doc["young"]["gap"]) <= 1e-9


def test_example_young_rejects_bad_maps(capsys):
    assert _run(capsys, ["example", "young", "--g", "power:zzz"])[0] == 2
    assert _run(capsys, ["example", "young", "--g", "power:-1"])[0] == 2
    assert _run(capsys, ["example", "young", "--g", "unknown"])[0] == 2


def test_example_counterexample(capsys):
    code, out, _ = _run(capsys, ["example", "counterexample", "--samples", "500"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"]
    assert doc["report"]["kernel_dim"] == 2
    assert len(doc["kernel_basis"]) == 2
    assert doc["report"]["n_random_points"] == 500


def test_example_quadratic(capsys):
    code, out, _ = _run(
        capsys, ["example", "quadratic", "--n", "3", "--dim", "2", "--samples", "300"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate_c1"]["passed"]
    assert doc["certificate_c3"]["passed"]
    assert len(doc["Q"]) == 3


def test_example_curves_json(capsys):
    code, out, _ = _run(capsys, ["example", "curves", "--grid=-1:1:0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_grid"] == 5
    assert doc["certificate"]["passed"]
    assert all(b >= 0.0 for b in doc["quadrature_bounds"])


def test_example_curves_csv(capsys):
    code, out, _ = _run(capsys, ["example", "curves", "--format", "csv", "--grid=-1:1:0.5"])
    assert code == 0
    assert out.startswith("t,x1,x2,x3,")
    assert len(out.strip().split("\n")) == 6


@pytest.mark.parametrize("argv, grid", [
    (["example", "curves", "--grid=-0.5:0.5:0.1"], "-0.5:0.5:0.1"),
    (["example", "curves", "--grid=0:0:1"], "0:0:1"),
    (["example", "knott-smith", "--tmax", "0.5"], "-0.5:0.5:0.1"),
])
def test_figure_csv_holds_the_grid_the_example_computed_on(capsys, argv, grid):
    code, out, _ = _run(capsys, [*argv, "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(row[0]) for row in rows] == list(cli._parse_grid(grid))


def test_example_knott_smith(capsys):
    code, out, _ = _run(
        capsys, ["example", "knott-smith", "--tmax", "0.5", "--samples", "200"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["quadrature_max_deviation"] <= 1e-6
    assert doc["certificate_c1"]["passed"]
    assert doc["certificate_c3"]["passed"]
    assert abs(sum(doc["spot_check"]["u"]) - 3.0) <= 1e-12
    assert doc["figure_csv"].startswith("t,x1,x2,x3,")


def test_example_knott_smith_quadrature_meets_the_closed_forms(capsys):
    code, out, _ = _run(
        capsys, ["example", "knott-smith", "--tmax", "1.0", "--samples", "50"]
    )
    assert code == 0
    assert json.loads(out)["quadrature_max_deviation"] <= 1e-10


@pytest.mark.parametrize("argv, certificates", [
    (["example", "quadratic", "--samples", "200"], 2),
    (["example", "knott-smith", "--tmax", "0.5", "--samples", "200"], 2),
])
def test_a_command_draws_one_sample_for_all_its_certificates(
    capsys, monkeypatch, argv, certificates
):
    calls = {"sample_test_points": [], "certify_splitting": []}
    for name in calls:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls[_name].append(result)
            return result

        monkeypatch.setattr(cli, name, counted)
    code, out, _ = _run(capsys, [*argv, "--seed", "4"])
    assert code == 0
    [sample] = calls["sample_test_points"]
    certs = calls["certify_splitting"]
    assert len(certs) == certificates
    assert all(c.n_test_points == len(sample) and c.seed is None for c in certs)
    reported = [v for k, v in json.loads(out).items() if k.startswith("certificate")]
    assert [c["seed"] for c in reported] == [4] * certificates


def test_example_determinism(capsys):
    argv = ["example", "counterexample", "--samples", "200"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


# ---------------------------------------------------------------------------
# rockafellar
# ---------------------------------------------------------------------------


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": [[-1, -1], [0, 0], [1, 1], [2, 2]]}))
    return str(path)


def test_rockafellar_frozen_values(capsys, pairs_file):
    code, out, _ = _run(capsys, ["rockafellar", pairs_file, "--base", "0"])
    assert code == 0
    doc = json.loads(out)
    table = {p[0]: v for p, v in zip(doc["potential"]["points"], doc["potential"]["values"])}
    assert table == {-1.0: 0.0, 0.0: 0.0, 1.0: 0.0, 2.0: 1.0}


def test_rockafellar_grid_eval(capsys, pairs_file):
    code, out, _ = _run(capsys, ["rockafellar", pairs_file, "--grid=-1:2:0.5"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["potential"]["points"]) == 7  # grid of 7, base -1 dedups


def test_rockafellar_refuses_cycles(capsys, tmp_path):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps({"pairs": [[0, 1], [1, 0]]}))
    code, out, err = _run(capsys, ["rockafellar", str(path)])
    assert code == 1
    assert out == ""
    assert "not cyclically monotone" in err and "gain" in err


def test_rockafellar_rejects_overflowing_costs(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"pairs": [[1e155, 1e155], [1, 2], [2, 1]]}))
    with pytest.warns(RuntimeWarning):
        code, out, err = _run(capsys, ["rockafellar", str(path)])
    assert code == 2
    assert out == ""
    assert "overflow" in err


def test_rockafellar_rejects_the_shifted_selector(capsys, pairs_file):
    code, _, err = _run(capsys, ["rockafellar", pairs_file, "--cost", "c3"])
    assert code == 2
    assert "chains use c1" in err


@pytest.mark.parametrize("flags", [[], ["--grid=-1:1:0.5"], ["--base", "0"]])
def test_rockafellar_rejects_an_empty_pair_list(capsys, tmp_path, flags):
    # The command reports the library's own error for an empty pair list.
    with pytest.raises(InputValidationError) as lib:
        rockafellar_potential(PairwiseCost.inner_product(), [], 0.0, [0.0])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"pairs": []}))
    code, out, err = _run(capsys, ["rockafellar", str(path), *flags])
    assert (code, out, err) == (2, "", f"error: {lib.value}\n")


# ---------------------------------------------------------------------------
# usage and parse failures
# ---------------------------------------------------------------------------


def test_usage_errors(capsys, gamma_file, pairs_file):
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["verify"])[0] == 2
    assert _run(capsys, ["--help"])[0] == 0
    # refused before any check runs, not at the JSON writer
    commands = (["verify", gamma_file], ["split", gamma_file],
                ["example", "young"], ["rockafellar", pairs_file])
    for argv in commands:
        for tol in ("-1", "nan", "inf"):
            code, out, err = _run(capsys, [*argv, "--tol", tol])
            assert (code, out) == (2, "")
            assert err == "error: tolerance must be finite and positive\n"
    code, out, err = _run(capsys, ["example", "quadratic", "--samples", "-1"])
    assert (code, out, err) == (2, "", "error: sample count must be nonnegative\n")
    # refused as input, with a message and no traceback
    for argv in (["--dim", "-1"], ["--dim", "0"], ["--n", "0"]):
        code, out, err = _run(capsys, ["example", "quadratic", *argv])
        assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("command, flag", [
    ("verify", "--seed"), ("verify", "--samples"), ("verify", "--format"),
    ("rockafellar", "--seed"), ("rockafellar", "--samples"), ("rockafellar", "--format"),
    ("split", "--format"), ("split", "--seed"), ("split", "--samples"),
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(
    capsys, gamma_file, pairs_file, command, flag
):
    value = "csv" if flag == "--format" else "1"
    path = pairs_file if command == "rockafellar" else gamma_file
    code, out, err = _run(capsys, [command, path, flag, value])
    assert (code, out) == (2, "") and f"unrecognized arguments: {flag} {value}" in err


def test_input_errors_come_before_the_tolerance_check(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = _run(capsys, ["verify", missing, "--tol", "nan"])
    assert (code, out) == (2, "") and err.startswith(f"error: cannot read {missing}: ")
    code, out, err = _run(capsys, ["example", "nosuch", "--tol", "nan"])
    assert (code, out) == (2, "") and "argument name: invalid choice: 'nosuch'" in err


# The config keys after command and inputs: each option the command parsed.
CONFIG_KEYS = {
    "verify": ["cost", "brute", "sign_criterion", "tol", "out"],
    "split": ["cost", "base", "grid", "tol", "out"],
    "rockafellar": ["cost", "base", "grid", "tol", "out"],
    "quadratic": ["example", "n", "dim", "samples", "tol", "seed", "out"],
    "counterexample": ["example", "samples", "seed", "out"],
    "curves": ["example", "grid", "format", "tol", "seed", "out"],
    "knott-smith": ["example", "tmax", "samples", "format", "tol", "seed", "out"],
    "young": ["example", "g", "a", "b", "tol", "out"],
}


@pytest.mark.parametrize("argv, inputs", [
    (["verify", "GAMMA"], ["GAMMA"]),
    (["split", "GAMMA"], ["GAMMA"]),
    (["rockafellar", "PAIRS"], ["PAIRS"]),
    (["example", "quadratic", "--samples", "100"], []),
    (["example", "counterexample", "--samples", "50"], []),
    (["example", "curves", "--grid=-1:1:0.5"], []),
    (["example", "knott-smith", "--tmax", "0.5", "--samples", "50"], []),
    (["example", "young"], []),
])
def test_every_report_opens_with_the_same_config_keys(capsys, gamma_file, pairs_file, argv, inputs):
    paths = {"GAMMA": gamma_file, "PAIRS": pairs_file}
    code, out, _ = _run(capsys, [paths.get(a, a) for a in argv])
    assert code == 0
    doc = json.loads(out)
    assert next(iter(doc)) == "config"
    config = doc["config"]
    name = argv[1] if argv[0] == "example" else argv[0]
    assert list(config) == ["command", "inputs", *CONFIG_KEYS[name]]
    assert config["command"] == argv[0]
    assert config["inputs"] == [paths.get(a, a) for a in inputs]


def test_config_records_the_values_of_the_options_parsed(capsys, gamma_file):
    argv = ["split", gamma_file, "--base", "1", "--grid=-2:2:1", "--tol", "1e-8"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config.items()) == [
        ("command", "split"), ("inputs", [gamma_file]), ("cost", "c1"), ("base", 1),
        ("grid", "-2:2:1"), ("tol", 1e-8), ("out", None),
    ]
    code, out, _ = _run(capsys, ["example", "young", "--a", "1.5", "--tol", "1e-8"])
    assert code == 0
    assert json.loads(out)["config"] == {
        "command": "example", "inputs": [], "example": "young", "g": "cube", "a": 1.5,
        "b": 1.0, "tol": 1e-8, "out": None,
    }


def test_grid_holds_no_point_past_hi():
    assert cli._parse_grid("0:1:0.6") == (0.0, 0.6)
    assert cli._parse_grid("0:1:0.55") == (0.0, 0.55)
    # hi is the last point when it is a whole number of steps from lo,
    # even where (hi - lo) / step rounds just under that number
    for text, n in (("0:0.3:0.1", 4), ("-1.5:1.5:0.2", 16), ("-1.5:1.5:0.1", 31),
                    ("-2:2:0.25", 17), ("-1:2:0.5", 7), ("-0.3:0:0.1", 4)):
        lo, _, step = map(float, text.split(":"))
        assert cli._parse_grid(text) == tuple(lo + k * step for k in range(n))


def test_grid_cap_counts_the_points_left_after_the_trim():
    # 0:99999.6:1 rounds to 100 001 points and drops the last, past hi
    for text in ("0:99999.6:1", "0:99999.4:1"):
        assert cli._parse_grid(text) == tuple(float(k) for k in range(cli.GRID_CAP))
    with pytest.raises(ParseError, match="would hold more than 100000 points"):
        cli._parse_grid("0:100000.4:1")


def test_parse_errors(capsys, tmp_path, gamma_file):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _run(capsys, ["verify", str(broken)])[0] == 2
    assert _run(capsys, ["verify", str(tmp_path / "missing.json")])[0] == 2
    assert _run(capsys, ["split", gamma_file, "--grid", "1:2"])[0] == 2
    # non-finite numbers and grids over GRID_CAP are refused before any is built
    for argv, reason in ((["example", "curves", "--grid=0:nan:1"], "numbers must be finite"),
                         (["example", "knott-smith", "--tmax", "nan"], "numbers must be finite"),
                         (["example", "curves", "--grid=0:1:inf"], "numbers must be finite"),
                         (["example", "curves", "--grid=-1e300:1e300:1e-300"], "would hold more"),
                         (["split", gamma_file, "--grid=0:1e9:1e-3"], "would hold more")):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "") and err.startswith("error: grid") and reason in err


@pytest.mark.parametrize("a", ["1e6", "1e300"])
def test_example_young_refuses_quadrature_over_the_node_budget(capsys, a):
    code, out, err = _run(capsys, ["example", "young", "--a", a])
    assert (code, out) == (1, "")
    assert err.startswith("budget exceeded: quadrature to ")


@pytest.mark.parametrize("argv", [
    ["example", "curves", "--grid=-1.5:1.5:0.2"],
    ["example", "curves", "--grid=-1:1:0.5"],
    ["example", "knott-smith", "--tmax", "1.0", "--samples", "50"],
    ["example", "knott-smith", "--tmax", "0.5", "--samples", "50"],
    ["example", "young"],
    ["example", "young", "--g", "cube", "--a", "1.1", "--b", str(1.1**3)],
])
def test_examples_at_their_test_and_benchmark_flags_keep_a_node_margin(capsys, monkeypatch, argv):
    monkeypatch.setattr(onedim, "SWEEP_NODE_BUDGET", onedim.SWEEP_NODE_BUDGET // 100)
    assert _run(capsys, argv)[0] == 0


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_the_cached_parser_serves_every_call_alike(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gamma.json").write_text(json.dumps(GammaSet.from_points(FAILING_2D_POINTS).to_json()))
    argv = ["verify", "gamma.json", "--cost", "c3", "--brute", "3"]
    first = _run(capsys, argv)
    assert first[0] == 1 and first[1] == (DATA / "verify_failing_2d.json").read_text()
    code, out, err = _run(capsys, ["verify", "gamma.json", "--brute", "three"])
    assert (code, out) == (2, "") and "invalid int value: 'three'" in err
    helps = [_run(capsys, ["--help"]) for _ in range(2)]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: monosplit")
    # options of another call do not leak into a later one
    assert json.loads(_run(capsys, ["verify", "gamma.json", "--tol", "0.5"])[1])["config"]["tol"] == 0.5
    assert _run(capsys, argv) == first


def test_module_entry_point_verify_equals_in_process_main(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("gamma.json").write_text(json.dumps(GammaSet.from_points(FAILING_2D_POINTS).to_json()))
    argv = ["verify", "gamma.json", "--cost", "c3", "--brute", "3"]
    src = str(Path(monosplit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "monosplit.cli", *argv],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    code, out, err = _run(capsys, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def test_module_entry_point_subprocess():
    # the child imports the same package as this process, installed or not
    src = str(Path(monosplit.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "monosplit.cli", "example", "young", "--a", "2", "--b", "1"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["young"]["rhs"] - 4.75) <= 1e-9
