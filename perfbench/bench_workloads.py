"""Seeded inputs, job lists and independent output checks for the benchmark.

A workload is a list of jobs that the measuring loop cycles through, and a
job is a tuple of steps.  Every step runs the program in-process
(``monosplit.cli.main`` with stdout captured, or
``monosplit.onedim.characterize_1d`` for the battery) and is then checked by
an oracle that shares no code with the verifier that produced the output.
Inputs depend only on the benchmark seed; the program sees only the written
files and the argument lists.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from monosplit import cli, onedim
from monosplit.core import GammaSet, classical_cost
from monosplit.monotone import Witness, recheck_witness
from monosplit.quadratic import commuting_spd_gamma, random_commuting_spds

TOL = 1e-9
PRODUCT_SAMPLE = 4096
# Distinct inputs per workload; jobs cycle through them.  Pools are large
# so that a run's percentiles sample many inputs, not the few slowest ones.
POOL = 32
BATTERY_POOL = 720

WHY = {
    "split-1d": "construction path: chain tabulation, the dense scan and table-backed certification all do real work",
    "verify-2d": "general-dimension check path: is_c_monotone through CostSpec.total with shifts; scan tuning should not move it",
    "examples": "the paper's constructions, one rotation per job: curve quadrature and closed-form certification; no scan, no tabulation",
    "battery-1d": "many tiny inputs: brute force, sign criterion, witness and refusal paths, where per-call overhead dominates",
}

# Sizes keep one split, verify or battery job well under a second, so that a
# run times enough jobs for a tail percentile with ten jobs beyond it.  The
# example flags keep a rotation near 4 s, so that a run never holds more
# than ten rotations and the tail of examples is always the slowest one.
SIZES = {
    "full": {"split_m": 120, "verify_m": 60, "battery_m": 10, "battery_n_max": 4,
             "examples": (
                 ("curves", ("--grid=-1.5:1.5:0.2",)),
                 ("knott-smith", ("--tmax", "1.0", "--samples", "2000")),
                 ("quadratic", ("--samples", "2000")),
                 ("counterexample", ()),
             )},
    "tiny": {"split_m": 12, "verify_m": 8, "battery_m": 5, "battery_n_max": 3,
             "examples": (
                 ("curves", ("--grid=-1:1:0.5",)),
                 ("knott-smith", ("--tmax", "0.5", "--samples", "50")),
                 ("quadratic", ("--samples", "50")),
                 ("counterexample", ("--samples", "50")),
             )},
}


class CheckFailed(Exception):
    """An output that the independent oracle rejects."""


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliJob:
    """One in-process ``monosplit`` command and the oracle for its report."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    expected_exit: int = 0

    def execute(self) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(self.argv))
        return code, out.getvalue()

    def verify(self, result: tuple[int, str]) -> bool:
        """Raise CheckFailed unless the run is correct; return whether the
        input was found not monotone (never, for the CLI workloads)."""
        code, text = result
        if code != self.expected_exit:
            raise CheckFailed(f"exit code {code}, expected {self.expected_exit}")
        self.check(parse_report(text))
        return False


@dataclass(frozen=True)
class BatteryJob:
    """``characterize_1d`` on one small scalar set, checked by difference signs."""

    kind: str
    gamma: GammaSet
    coords: np.ndarray  # size x N, the points of gamma
    cost: str
    n_max: int

    def execute(self):
        return onedim.characterize_1d(self.gamma, self.cost, n_max=self.n_max)

    def verify(self, report) -> bool:
        monotone = sign_oracle(self.coords)
        if report.verdict != monotone:
            raise CheckFailed(f"verdict {report.verdict}, sign oracle {monotone}")
        if not monotone:
            check_witness(report.witness, self.gamma)
        return not monotone


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[tuple, ...]  # each job is a tuple of steps
    period: int  # a run ends only after a whole number of periods


def parse_report(text: str) -> dict:
    """Strict JSON: NaN and Infinity literals are rejected."""

    def reject(token):
        raise CheckFailed(f"report holds the non-JSON literal {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed(f"report is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def c1_total(x: np.ndarray) -> np.ndarray:
    """Sum of pairwise products of the columns of x (rows are points)."""
    s = x.sum(axis=1)
    return 0.5 * (s * s - (x * x).sum(axis=1))


def _table(pot: dict) -> tuple[np.ndarray, np.ndarray]:
    xs = np.array([p[0] for p in pot["points"]], dtype=float)
    vals = np.array([math.inf if v == "inf" else v for v in pot["values"]], dtype=float)
    return xs, vals


def check_split(report: dict, gamma: np.ndarray, seed: int) -> None:
    """Recompute sum u_i from the reported tables: equal to c1 on every point
    of gamma, and at least c1 - TOL on a seeded sample of the tables' product."""
    if report["certificate"]["passed"] is not True:
        raise CheckFailed("certificate did not pass")
    tables = [_table(p) for p in report["potentials"]]
    if len(tables) != gamma.shape[1]:
        raise CheckFailed("wrong number of potentials")
    total = np.zeros(gamma.shape[0])
    for i, (xs, vals) in enumerate(tables):
        lookup = dict(zip(xs.tolist(), vals.tolist()))
        try:
            total += np.array([lookup[x] for x in gamma[:, i].tolist()])
        except KeyError as exc:
            raise CheckFailed(f"u_{i + 1} has no value at {exc}") from exc
    resid = np.abs(total - c1_total(gamma))
    if not np.all(resid <= TOL):
        raise CheckFailed(f"sum u_i differs from c on gamma by {np.nanmax(resid):.3g}")

    rng = np.random.default_rng(seed)
    picks = [rng.integers(len(xs), size=PRODUCT_SAMPLE) for xs, _ in tables]
    pts = np.column_stack([xs[k] for (xs, _), k in zip(tables, picks)])
    sums = np.sum([vals[k] for (_, vals), k in zip(tables, picks)], axis=0)
    finite = np.isfinite(sums)
    if not finite.any():
        raise CheckFailed("no finite point in the product sample")
    viol = c1_total(pts[finite]) - sums[finite]
    if viol.max() > TOL:
        raise CheckFailed(f"sum u_i falls below c by {viol.max():.3g} off gamma")


def check_all_hold(report: dict) -> None:
    if report.get("all_hold") is not True:
        raise CheckFailed("verify report does not hold")


def check_passed_flags(report: dict) -> None:
    flags = []

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "passed":
                    flags.append(value)
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(report)
    if not flags or any(f is not True for f in flags):
        raise CheckFailed(f"passed flags {flags}")


def sign_oracle(coords: np.ndarray) -> bool:
    """True when no two points have coordinate differences of mixed sign."""
    d = coords[:, None, :] - coords[None, :, :]
    mixed = (d > TOL).any(axis=2) & (d < -TOL).any(axis=2)
    return not mixed.any()


def check_witness(w: dict | None, gamma: GammaSet) -> None:
    """Rebuild the reported witness and recheck it through c1."""
    if w is None:
        raise CheckFailed("not monotone but no witness")
    witness = Witness(
        kind=w["kind"],
        points=tuple(tuple(tuple(x) for x in p) for p in w["points"]),
        permutations=tuple(tuple(s) for s in w["permutations"]),
        permuted_sum=w["permuted_sum"],
        diagonal_sum=w["diagonal_sum"],
        value=w["value"],
    )
    if any(p not in gamma for p in witness.points):
        raise CheckFailed("witness point outside the set")
    permuted, diagonal = recheck_witness(witness, classical_cost("c1", gamma.n_marginals, 1))
    if not permuted > diagonal + TOL:
        raise CheckFailed(f"witness gains {permuted - diagonal:.3g}, not a violation")
    if abs(permuted - witness.permuted_sum) > TOL or abs(diagonal - witness.diagonal_sum) > TOL:
        raise CheckFailed("witness sums disagree with the recheck")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def comonotone_coords(rng: np.random.Generator, m: int, n: int = 3) -> np.ndarray:
    """Scalar points whose coordinates all increase together."""
    return np.sort(rng.uniform(-1.5, 1.5, size=(m, n)), axis=0)


def coarse_grid_coords(rng: np.random.Generator, m: int, n: int = 3) -> np.ndarray:
    """Scalar points on a half-integer grid in [-1, 1]; ties are common and
    most such sets are not monotone."""
    return rng.integers(-2, 3, size=(m, n)) * 0.5


def commuting_spd_points(rng: np.random.Generator, m: int) -> GammaSet:
    """(Q_1 v, Q_2 v, Q_3 v) for commuting SPD Q_i in R^2: monotone by construction."""
    mats = random_commuting_spds(3, 2, seed=int(rng.integers(2**31)))
    return commuting_spd_gamma(mats, rng.uniform(-2.0, 2.0, size=(m, 2)))


def _write_gamma(path: Path, g: GammaSet) -> str:
    path.write_text(json.dumps(g.to_json()))
    return str(path)


def build(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Generate the inputs of one workload, writing input files under workdir."""
    rng = np.random.default_rng(seed)
    sz = SIZES[size]
    if name == "split-1d":
        jobs = []
        for k in range(POOL):
            coords = comonotone_coords(rng, sz["split_m"])
            g = GammaSet.from_points(coords[:, :, None].tolist())
            path = _write_gamma(workdir / f"split_{k}.json", g)
            check_seed = int(rng.integers(2**31))
            jobs.append((CliJob(
                "split",
                ("split", path, "--cost", "c1", "--grid=-2:2:0.25"),
                lambda rep, c=coords, s=check_seed: check_split(rep, c, s),
            ),))
        return Workload(name, tuple(jobs), 1)
    if name == "verify-2d":
        jobs = []
        for k in range(POOL):
            path = _write_gamma(workdir / f"verify_{k}.json",
                                commuting_spd_points(rng, sz["verify_m"]))
            jobs.append((CliJob("verify", ("verify", path, "--cost", "c3"), check_all_hold),))
        return Workload(name, tuple(jobs), 1)
    if name == "examples":
        # One job is a whole rotation: the four examples differ in cost by
        # up to 4x, and a median over single commands would fall between them.
        jobs = []
        for _ in range(8):
            s = str(int(rng.integers(2**31)))
            jobs.append(tuple(
                CliJob(example, ("example", example, *flags, "--seed", s), check_passed_flags)
                for example, flags in sz["examples"]
            ))
        return Workload(name, tuple(jobs), 1)
    if name == "battery-1d":
        # One comonotone set to two coarse-grid sets: the two families differ
        # in cost by about 30x, and with equal shares the median would sit in
        # the gap between them.  Costs cycle over each family: period 9.
        jobs = []
        for k in range(BATTERY_POOL):
            family = ("comonotone", "coarse", "coarse")[k % 3]
            gen = comonotone_coords if family == "comonotone" else coarse_grid_coords
            coords = gen(rng, sz["battery_m"])
            g = GammaSet.from_points(coords[:, :, None].tolist())
            cost = ("c1", "c2", "c3")[(k // 3) % 3]
            uniq = np.array([[x[0] for x in p] for p in g.points])
            jobs.append((BatteryJob(f"{family}-{cost}", g, uniq, cost, sz["battery_n_max"]),))
        return Workload(name, tuple(jobs), 9)
    raise ValueError(f"unknown workload {name!r}")
