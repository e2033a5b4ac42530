"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import run

run.import_program()

import bench_workloads as bw  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class TamperedJob:
    """Runs a real job, then hands the checker an altered output."""

    job: object
    tamper: object
    kind: str = "tampered"

    def execute(self):
        return self.tamper(self.job.execute())

    def verify(self, result):
        return self.job.verify(result)


def lower_potential_on_gamma(result):
    """Lower u_1 by 1e-3 at the first coordinate of the first point of the
    input set, so that sum u_i = c fails there."""
    code, text = result
    report = json.loads(text)
    argv = report["config"]["inputs"][0]
    x0 = json.loads(Path(argv).read_text())["points"][0][0]
    pot = report["potentials"][0]
    k = pot["points"].index(x0)
    pot["values"][k] -= 1e-3
    return code, json.dumps(report)


def test_corrupted_split_report_counts_as_failed(tmp_path):
    workload = bw.build("split-1d", 7, tmp_path, size="tiny")
    (job,) = workload.jobs[0]
    job.verify(job.execute())  # the genuine report passes

    bad = bw.Workload("split-1d", ((TamperedJob(job, lower_potential_on_gamma),),), 1)
    records = run.measure(bad, seconds=0.0)
    assert len(records) == 1 and not records[0].ok
    metrics = run.end_to_end(records, setup_s=1.0, context={})
    assert metrics["ok_ratio"]["value"] == 0.0
    assert metrics["jobs_per_s"]["value"] == 0.0


def test_split_report_below_cost_off_gamma_is_rejected(tmp_path):
    workload = bw.build("split-1d", 8, tmp_path, size="tiny")
    (job,) = workload.jobs[0]
    code, text = job.execute()
    report = json.loads(text)
    # lowering every value of u_3 breaks the inequality on the whole product
    report["potentials"][2]["values"] = [v - 1.0 for v in report["potentials"][2]["values"]]
    with pytest.raises(bw.CheckFailed):
        job.verify((code, json.dumps(report)))


def test_invalid_json_and_wrong_exit_code_are_rejected(tmp_path):
    (job,) = bw.build("verify-2d", 1, tmp_path, size="tiny").jobs[0]
    code, text = job.execute()
    with pytest.raises(bw.CheckFailed):
        job.verify((code, text.replace("true", "NaN", 1)))
    with pytest.raises(bw.CheckFailed):
        job.verify((1, text))


def test_battery_witness_is_rechecked(tmp_path):
    workload = bw.build("battery-1d", 3, tmp_path, size="tiny")
    report, job = next(
        (r, j) for (j,) in workload.jobs for r in [j.execute()] if not r.verdict
    )
    assert job.verify(report) is True
    swapped = dict(report.witness, permuted_sum=report.witness["diagonal_sum"])
    with pytest.raises(bw.CheckFailed):
        bw.check_witness(swapped, job.gamma)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
