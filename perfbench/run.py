"""Benchmark of the monosplit package.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload split-1d --seed 1 --seconds 25 --trace 0

Workloads (see ``bench_workloads.WHY`` for why each exists): ``split-1d``,
``verify-2d``, ``examples``, ``battery-1d``.  Each run sets up (imports in a
fresh interpreter, inputs, one warm-up job) three times and reports the
median as ``setup_s``, then runs the workload as a closed loop with one
client in this process for ``--seconds`` seconds, checking every job's
output outside the timed region.

Times are reported in reference seconds: the unit ``ref_s``, and also
``setup_s``, whose unit string the benchmark format fixes to ``s``.  The
speed of a shared machine drifts by tens of percent within a minute, so a
fixed calibration workload (``reference_work``: Python and NumPy, no code
of the program) is timed between steps, at most ``CAL_INTERVAL_S`` apart,
and each step's wall time is multiplied by ``REF_S`` over the slower of the
calibrations just before and just after it (a slowdown during a step
usually reaches one of them).  A step that takes as long as the
calibration counts ``REF_S`` reference seconds, about a wall second on the
machine the benchmark was tuned on.  Wall-clock figures are printed beside
the metrics.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end ones.  With ``--trace 1`` the run is split in half: an
untraced half, then a half with spans around the public functions of every
module, and the metrics are the per-layer ones (self time, calls and counts
per job, plus the tracing overhead).  Spans of a traced run are written to
``perfbench/out/``.

The run exits with a nonzero code and no result when the package cannot be
imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP before NumPy is imported, here and in child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("split-1d", "verify-2d", "examples", "battery-1d")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile has at least this many jobs above it
REF_S = 0.0065  # typical duration of reference_work() on a 2-core Xeon VM; defines ref_s
CAL_INTERVAL_S = 0.1

END_TO_END = {
    "jobs_per_s": "1/ref_s",
    "job_s_p50": "ref_s",
    "job_s_tail": "ref_s",
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "monotone.scan_gain_digraph.self_s": "ref_s/job",
    "monotone.scan_gain_digraph.calls": "count/job",
    "monotone.scan_gain_digraph.cells": "computed/job",
    "monotone.check_projection_condition.self_s": "ref_s/job",
    "monotone.is_c_monotone.self_s": "ref_s/job",
    "monotone.is_c_monotone.checked": "count/job",
    "monotone.is_n_c_monotone_bruteforce.self_s": "ref_s/job",
    "monotone.is_n_c_monotone_bruteforce.checked": "count/job",
    "monotone.sign_criterion_1d.self_s": "ref_s/job",
    "monotone.not_monotone_share": "ratio",
    "antiderivative.rockafellar_potential.self_s": "ref_s/job",
    "antiderivative.rockafellar_potential.cost_evals": "computed/job",
    "antiderivative.c_conjugate.self_s": "ref_s/job",
    "antiderivative.c_conjugate.cost_evals": "computed/job",
    "antiderivative.verify_antiderivative.self_s": "ref_s/job",
    "splitting.assemble_splitting_tuple.self_s": "ref_s/job",
    "splitting.assemble_splitting_tuple.refused": "count/job",
    "splitting.certify_splitting.self_s": "ref_s/job",
    "splitting.certify_splitting.points": "count/job",
    "splitting.certify_splitting.vacuous": "count/job",
    "splitting.certify_splitting.coverage": "ratio",
    "splitting.sample_test_points.self_s": "ref_s/job",
    "onedim.curve_potentials.self_s": "ref_s/job",
    "onedim.curve_potentials.knots": "count/job",
    "onedim.characterize_1d.self_s": "ref_s/job",
    "quadratic.counterexample_verify.self_s": "ref_s/job",
    "core.dumps_json.self_s": "ref_s/job",
    "core.dumps_json.bytes": "B/job",
    "cli.main.self_s": "ref_s/job",
    "trace.jobs": "count",
    "trace.job_s_p50": "ref_s",
    "trace.untraced_job_s_p50": "ref_s",
    "trace.overhead_s": "ref_s",
    "trace.accounted_share": "ratio",
    "trace.peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class JobRecord:
    seconds: float  # reference seconds
    wall: float  # wall-clock seconds
    ok: bool
    not_monotone: bool

    @property
    def scale(self) -> float:
        return self.seconds / self.wall


class _Pair:
    def __init__(self, weight: float):
        self.weight = weight

    def value(self, x: tuple, y: tuple) -> float:
        return self.weight * sum(p * q for p, q in zip(x, y))


def reference_work() -> float:
    """Fixed calibration work: method calls, tuples, dict stores, float math
    and small NumPy operations, the mix the program's jobs spend time on."""
    table = {}
    pair = _Pair(0.5)
    acc = 0.0
    for i in range(3000):
        x, y = (i * 0.5,), ((i % 13) * 0.25,)
        table[x] = pair.value(x, y)
        acc += math.sqrt(abs(table[x]) + 1.0)
    a = np.arange(2048.0)
    for _ in range(15):
        a = np.sqrt(a * 1.0001 + 1.0)
        acc += float(a.max())
    return acc


def reference_time(after: float = 0.0) -> float:
    """Time reference_work(); after a long step, the median of up to five
    timings (one per quarter second of the step), which damps the jitter of
    a single short timing at a cost of about 3 % of the step."""
    times = []
    for _ in range(min(5, max(1, round(after / 0.25)))):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_program() -> None:
    """Import monosplit from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import monosplit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if Path(monosplit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: monosplit was imported from {monosplit.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def set_up(bw, name: str, seed: int, size: str, workdir: Path):
    """Import in a fresh interpreter, generate and write the inputs, and run
    one warm-up job; repeated, each time scaled like a job by the slower of
    the calibrations around it.  Returns the median scaled time, the median
    wall time and the workload."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, walls = [], []
    workload = None
    for rep in range(SETUP_REPEATS):
        cal_before = reference_time()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, monosplit"],
                       env=env, check=True)
        inputs = workdir / f"inputs{rep}"
        inputs.mkdir()
        workload = bw.build(name, seed, inputs, size)
        try:
            for step in workload.jobs[0]:
                step.execute()
        except Exception:  # a failing job is counted in the timed loop
            pass
        wall = time.perf_counter() - start
        walls.append(wall)
        scaled.append(wall * REF_S / max(cal_before, reference_time(after=wall)))
    return statistics.median(scaled), statistics.median(walls), workload


def measure(workload, seconds: float, tracer=None, failures=None) -> list[JobRecord]:
    """Closed loop, one client: run jobs until the deadline has passed and a
    whole number of periods (at least one) is done.  Only the steps' execute()
    calls are timed; a calibration runs after a step whenever CAL_INTERVAL_S
    has passed since the last one, and each step's time is scaled by the
    slower calibration on either side of it."""
    raw = []  # per job: ([(wall seconds, calibration index before)], ok, not_monotone)
    cals = [reference_time()]
    last_cal = time.perf_counter()
    deadline = last_cal + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline or k % workload.period:
        if tracer is not None:
            tracer.job = len(raw)
        parts = []
        error = None
        not_monotone = False
        for step in workload.jobs[k % len(workload.jobs)]:
            before = len(cals) - 1
            start = time.perf_counter()
            try:
                out = step.execute()
            except Exception as exc:  # any escaping exception fails the job
                error = exc
            parts.append((time.perf_counter() - start, before))
            if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
                cals.append(reference_time(after=parts[-1][0]))
                last_cal = time.perf_counter()
            if error is None:
                try:
                    not_monotone |= step.verify(out)
                except Exception as exc:
                    error = exc
            if error is not None:
                if failures is not None:
                    failures.append(f"job {k} ({step.kind}): {type(error).__name__}: {error}")
                break
        raw.append((parts, error is None, not_monotone))
        k += 1
    if raw[-1][0][-1][1] == len(cals) - 1:
        cals.append(reference_time(after=raw[-1][0][-1][0]))
    return [
        JobRecord(
            sum(wall * REF_S / max(cals[b], cals[b + 1]) for wall, b in parts),
            sum(wall for wall, _ in parts), ok, nm,
        )
        for parts, ok, nm in raw
    ]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND jobs beyond it, as
    (value, percentile); the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records: list[JobRecord], setup_s: float, context: dict) -> dict:
    times = [r.seconds for r in records]
    ok = sum(r.ok for r in records)
    tail_s, pct = tail(times)
    walls = [r.wall for r in records]
    context.update(jobs=len(records), tail_percentile=pct,
                   wall_jobs_per_s=ok / sum(walls), wall_job_s_p50=statistics.median(walls),
                   wall_job_s_tail=tail(walls)[0])
    values = {
        "jobs_per_s": ok / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "setup_s": setup_s,
        "ok_ratio": ok / len(records),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, traced: list[JobRecord], untraced: list[JobRecord], context: dict) -> dict:
    n = len(traced)
    self_times = tracer.self_times([r.scale for r in traced])
    counts = tracer.counts
    job_total = sum(r.seconds for r in traced)
    traced_p50 = statistics.median(r.seconds for r in traced)
    untraced_p50 = statistics.median(r.seconds for r in untraced)
    points = counts["splitting.certify_splitting.points"]
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = self_times.get(layer, 0.0) / n
        elif layer != "trace" and field not in ("coverage", "not_monotone_share"):
            values[name] = counts[name] / n
    values.update({
        "monotone.not_monotone_share": sum(r.not_monotone for r in traced) / n,
        "splitting.certify_splitting.coverage":
            (points - counts["splitting.certify_splitting.vacuous"]) / points if points else 0.0,
        "trace.jobs": n,
        "trace.job_s_p50": traced_p50,
        "trace.untraced_job_s_p50": untraced_p50,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.accounted_share": sum(self_times.values()) / job_total,
        "trace.peak_rss_mb": peak_rss_mb(),
    })
    context.update(jobs=len(untraced) + n, traced_jobs=n, spans=len(tracer.spans),
                   wall_traced_job_s_p50=statistics.median(r.wall for r in traced),
                   wall_untraced_job_s_p50=statistics.median(r.wall for r in untraced))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def run(args) -> dict:
    import bench_trace as bt
    import bench_workloads as bw

    context = environment(args)
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    failures: list[str] = []
    try:
        setup_s, context["wall_setup_s"], workload = set_up(
            bw, args.workload, args.seed, args.size, workdir)
        context["why"] = bw.WHY[args.workload]
        if args.trace:
            untraced = measure(workload, args.seconds / 2, failures=failures)
            tracer = bt.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, tracer, failures)
            finally:
                tracer.uninstall()
            records = untraced + traced
            metrics = per_layer(tracer, traced, untraced, context)
            out = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(out)
            context["spans_file"] = str(out.relative_to(BENCH_DIR.parent))
        else:
            records = measure(workload, args.seconds, failures=failures)
            metrics = end_to_end(records, setup_s, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for line in failures[:5]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    failed = sum(not r.ok for r in records)
    print("# " + json.dumps(context))
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": metrics}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of the monosplit package.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
