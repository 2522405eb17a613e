#!/usr/bin/env python3
"""Benchmark of ncinvert: run one workload in this process and print metrics.

    python3 perfbench/run.py --workload q-engines --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Inversion jobs go through ``ncinvert.cli.main`` in
process, identity jobs through ``suite.run_identity_suite``, one job at a
time in a closed loop.  Every output is checked (see ``benchjobs``).

With ``--trace 0`` the run starts the control (``control.py``), a frozen
reference copy of the package in a second process, and makes whole passes
over the workload's pool until ``--seconds`` have gone by; each job is run by
the control right before or right after the program.  The shared host's
speed drifts by up to 1.4x over tens of seconds, so every timing metric is
normalised by the control: it is the program's ratio to the control in the
same run (``timed_run``), times the control's figure on the reference host
(``reference.json``, ``control``).  Read a timing metric as "what this
program takes for these jobs on the reference host"; the raw figures of both
sides are on the context line.  Both processes are pinned to one CPU, so
they share the same slice of the host.  ``peak_rss_mb`` is the program's own
process.  With ``--trace 1`` the per-layer trace of
``layertrace`` is installed, the pool runs twice whatever ``--seconds`` says,
and the per-layer metrics of the first pass are printed; a count that differs
between the two passes is listed as varying.  The first pass's spans go to
``perfbench/out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (seed, Python, CPUs, tail percentile, digest, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

import benchjobs  # noqa: E402
import control  # noqa: E402
import layertrace  # noqa: E402

SETUP_ROUNDS = 9
#: the timing metrics that are normalised by the control
TIMINGS = ("setup_s", "jobs_per_s", "job_ms_p50", "job_ms_tail")


def setup(name, spec, seed, workdir, reference=None):
    """Import plus input generation, repeated; returns the last round's
    modules and pool, the program's seconds of every round and, with a
    ``reference`` control, the control's seconds of every round (its inputs
    go to ``workdir/reference``)."""
    program_dir = workdir / "program"
    program_dir.mkdir()
    if reference is not None:
        (workdir / "reference").mkdir()
    seconds, reference_seconds = [], []
    for _ in range(SETUP_ROUNDS):
        for stale in program_dir.iterdir():
            stale.unlink()
        start = time.perf_counter()
        mods = benchjobs.import_package(SRC)
        pool = benchjobs.build_pool(name, spec, seed, mods, program_dir)
        seconds.append(time.perf_counter() - start)
        if reference is not None:
            reference_seconds.append(reference.setup(name, spec, seed, workdir / "reference"))
    return mods, pool, seconds, reference_seconds


def tail(millis):
    """The highest percentile with at least 10 jobs beyond it: the 11th
    slowest job, as (value, percentile, jobs)."""
    ordered = sorted(millis)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def figures(millis, ok_jobs):
    """jobs_per_s, job_ms_p50 and job_ms_tail of one side of a run."""
    return {
        "jobs_per_s": ok_jobs / (sum(millis) / 1000.0),
        "job_ms_p50": statistics.median(millis),
        "job_ms_tail": tail(millis)[0],
    }


def slowest(millis):
    """The tail job and the ten beyond it."""
    return sorted(millis)[-11:]


def timed_run(pool, mods, seconds, reference):
    """Paired passes; the metrics are the program's figures, and
    ``info["ratio"]`` holds how each compares with the control's:
    jobs_per_s by total time, job_ms_p50 as the median of the jobs' paired
    ratios, job_ms_tail by the mean of the tail job and the ten beyond it on
    each side (single ranks jump between jobs of a skewed pool)."""
    result = benchjobs.run_passes(pool, mods, seconds, control=reference)
    millis = [o.millis for o in result.outcomes]
    control_millis = [o.control_millis for o in result.outcomes]
    _, tail_pct, tail_n = tail(millis)
    program = figures(millis, sum(1 for o in result.outcomes if o.ok))
    control_side = figures(control_millis, len(millis))
    ratio = {
        "jobs_per_s": program["jobs_per_s"] / control_side["jobs_per_s"],
        "job_ms_p50": statistics.median(p / c for p, c in zip(millis, control_millis)),
        "job_ms_tail": statistics.mean(slowest(millis)) / statistics.mean(slowest(control_millis)),
    }
    info = {
        "passes": len(result.pass_seconds),
        "tail_percentile": tail_pct,
        "tail_jobs": tail_n,
        "program": program,
        "control": control_side,
        "ratio": ratio,
    }
    metrics = {k: (v, "ms") for k, v in program.items()}
    metrics["jobs_per_s"] = (program["jobs_per_s"], "1/s")
    metrics["peak_rss_mb"] = (result.first_pass_rss_mb, "MB")
    return result, metrics, info


def traced_run(pool, mods, spans_path):
    """Two traced passes; metrics of the first, counts compared with the
    second."""
    tracer = layertrace.Tracer()

    def next_job():
        tracer.job += 1

    tracer.install()
    try:
        first = benchjobs.run_passes(pool, mods, passes=1, on_job=next_job)
        metrics = tracer.metrics()
        span_count = tracer.span_count()
        tracer.write_spans(spans_path)
        tracer.reset()
        second = benchjobs.run_passes(pool, mods, passes=1, on_job=next_job)
        again = tracer.metrics()
    finally:
        tracer.uninstall()
    varying = sorted(
        name for name, (value, unit) in metrics.items()
        if unit != "s" and again[name][0] != value
    )
    metrics["trace.jobs_per_s"] = (first.pass_ok[0] / first.pass_seconds[0], "1/s")
    info = {
        "varying_counts": {n: [metrics[n][0], again[n][0]] for n in varying},
        "spans": span_count,
        "spans_file": spans_path.name,
        "second_pass_failed": second.failed,
    }
    return first, metrics, info


def normalise(metrics, info, reference_figures):
    """Timing metrics as the program's ratio to the control times the
    control's figure on the reference host."""
    for name in TIMINGS:
        metrics[name] = (info["ratio"][name] * reference_figures[name], metrics[name][1])


def pin_to_one_cpu():
    """Keep this process and the control on one CPU, so both see the same
    share of the host."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])


def measure(name, spec, seed, seconds, trace, out_dir):
    """Set up and run one workload; returns (result, metrics, context)."""
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{name}-", dir=out_dir))
    try:
        with contextlib.ExitStack() as stack:
            reference = None
            if not trace:
                pin_to_one_cpu()
                reference = stack.enter_context(control.Control())
            mods, pool, setup_rounds, reference_rounds = setup(
                name, spec, seed, workdir, reference
            )
            if trace:
                spans_path = out_dir / f"spans-{name}.tsv"
                result, metrics, info = traced_run(pool, mods, spans_path)
            else:
                result, metrics, info = timed_run(pool, mods, seconds, reference)
                metrics["setup_s"] = (statistics.median(setup_rounds), "s")
                info["program"]["setup_s"] = metrics["setup_s"][0]
                info["control"]["setup_s"] = statistics.median(reference_rounds)
                info["ratio"]["setup_s"] = statistics.median(
                    p / c for p, c in zip(setup_rounds, reference_rounds)
                )
                normalise(metrics, info, reference_figures(name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["setup_rounds_s"] = setup_rounds
    if reference_rounds:
        info["reference_setup_rounds_s"] = reference_rounds
    return result, metrics, info


def reference_figures(name):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return ref["control"][name]


def expected_digest(name, seed):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if seed != ref["default_seed"]:
        return None
    return ref["digests"].get(name)


def score(result, expected):
    """(attempted, failed): a digest other than the expected one fails
    every job of the run."""
    attempted = len(result.outcomes)
    if expected is not None and result.digest != expected:
        return attempted, attempted
    return attempted, result.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchjobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    name = args.workload
    nproc = len(os.sched_getaffinity(0))  # before the run pins itself to one CPU
    OUT.mkdir(exist_ok=True)
    try:
        result, metrics, info = measure(
            name, benchjobs.WORKLOADS[name], args.seed, args.seconds, args.trace, OUT
        )
    except (benchjobs.SetupError, control.ControlError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    expected = expected_digest(name, args.seed)
    attempted, failed = score(result, expected)
    context = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "failed_frac": failed / attempted,
        "first_failures": [o.why for o in result.outcomes if not o.ok][:5],
        "digest": result.digest,
        "digest_expected": expected,
        **info,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
