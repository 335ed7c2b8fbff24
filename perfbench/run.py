"""Benchmark of `dq evaluate` and `dq improve`, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan|rowexpr|registry \\
        --seed N --seconds S --trace 0|1

It generates the workload's inputs from the seed, then, with `--trace 0`,
runs the `dq` CLI from the checkout's `src/` as child processes for S
seconds, each after the host reference task, and reports the end-to-end
metrics; with `--trace 1` it runs the traced in-process pass for S
seconds and reports the per-layer metrics.
Every operation's output is checked. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Details
(samples, spans, input sizes, per-kind timings) go to
perfbench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPEATS = 3        # setup_s is the median of at least this many
SETUP_MIN_S = 3.0        # generations, and of enough to fill this time
BURN_N = 4_000_000       # host calibration loop length

# Each operation's mean wall time over the run, divided by the mean wall time
# of the host reference task run before every operation (reference_task.py).
# The shared host's speed drifts by a fifth or more over minutes; the ratio
# follows the program. Means, not medians: the time of one process also
# swings between fast and slow phases of seconds, and a median of ten such
# samples jumps between them. The wall seconds, with medians and tails, are
# printed and saved next to the ratios.
TIMED = ("evaluate_s", "evaluate_jobs2_s", "improve_s")
END_TO_END_UNITS = {"evaluate_rel": "x", "evaluate_jobs2_rel": "x", "improve_rel": "x",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "rules.parse_s": "s", "rules.validate_s": "s",
    "dataset.load_s": "s", "dataset.load_mb_per_s": "MB/s",
    "dataset.load_cells_per_s": "cells/s", "dataset.load_rss_mb": "MB",
    "dataset.dedup_overflow_cols": "count", "dataset.write_s": "s",
    "canonical.fingerprint_s": "s",
    "engine.eval_s": "s", "engine.eval_jobs2_s": "s", "engine.jobs2_speedup": "x",
    "engine.slowest_rule_s": "s", "engine.failing_total": "count",
    "engine.gc_s": "s",
    "expr.rows": "count", "expr.rows_per_s": "rows/s",
    "scoring.score_s": "s",
    "reporting.build_s": "s", "reporting.serialize_report_s": "s",
    "reporting.serialize_measures_s": "s", "reporting.measures_mb": "MB",
    "reporting.report_mb": "MB", "reporting.build_improvement_s": "s",
    "reporting.write_improvement_s": "s", "reporting.manifest_mb": "MB",
    "synthkit.generate_s": "s", "cli.startup_s": "s",
    "host.nproc": "count", "host.two_proc_scaling": "x",
    "trace.overhead_s": "s",
}


def host_nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _burn(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def host_two_proc_scaling(n: int = BURN_N) -> float:
    """Aggregate speedup of two CPU-bound processes over one, with criterion
    8's burn: the ceiling any `--jobs 2` result is read against."""
    started = time.perf_counter()
    _burn(n)
    solo = time.perf_counter() - started
    started = time.perf_counter()
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            try:
                _burn(n)
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    duo = time.perf_counter() - started
    return 2 * solo / duo


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"n={n}, too few samples for a tail percentile"
    pct = 100 * (n - 10) // n
    value = sorted(samples)[max(0, -(-n * pct // 100) - 1)]
    return f"n={n}, p{pct}={value:.4f}"


def setup_inputs(workload: str, seed: int, work: Path, repeats: int, scale: float,
                 min_seconds: float = 0.0):
    """Generate the inputs at least `repeats` times and for at least
    `min_seconds`; returns (inputs, seconds per generation)."""
    import workloads
    times = []
    while len(times) < repeats or sum(times) < min_seconds:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        # Start from a collected heap, as a fresh `dq synth` process does;
        # otherwise the last generation's garbage is collected on this clock.
        gc.collect()
        started = time.perf_counter()
        inputs = workloads.setup(workload, seed, work / "inputs", scale)
        times.append(time.perf_counter() - started)
    return inputs, times


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, work: Path | None = None) -> dict:
    """One benchmark run; returns the result object plus the details."""
    import e2e  # these import dqeval, so only once src/ is on sys.path
    import traced
    work = work or WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    nproc = host_nproc()
    jobs2 = min(2, nproc)
    scaling = host_two_proc_scaling()
    host = {"host.nproc": nproc, "host.two_proc_scaling": scaling}
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "jobs2": jobs2, "host": host}

    if trace:
        inputs, _ = setup_inputs(workload, seed, work, 1, scale)
        out = traced.Run(workload, seed, inputs, work, SRC, jobs2, scale).run(seconds)
        tally = out.pop("tally")
        metrics = dict(out.pop("metrics"), **host)
        spans = out.pop("spans")
        (work / "trace.json").write_text(json.dumps(spans, indent=1), encoding="utf-8")
        details.update(out)
        units = PER_LAYER_UNITS
    else:
        inputs, setup_times = setup_inputs(workload, seed, work, SETUP_REPEATS, scale,
                                           SETUP_MIN_S)
        tally = e2e.run(inputs, work, SRC, jobs2, seconds)
        samples = {"evaluate_s": tally.evaluate_s,
                   "evaluate_jobs2_s": tally.evaluate_jobs2_s,
                   "improve_s": tally.improve_s,
                   "reference_s": tally.reference_s,
                   "peak_rss_mb": tally.peak_rss_mb,
                   "setup_s": setup_times}
        wall = {k: statistics.fmean(samples[k]) for k in TIMED + ("reference_s",)}
        metrics = {f"{k[:-len('_s')]}_rel": wall[k] / wall["reference_s"] for k in TIMED}
        metrics["peak_rss_mb"] = statistics.median(tally.peak_rss_mb)
        metrics["setup_s"] = statistics.median(setup_times)
        details["samples"] = samples
        details["wall_s"] = wall
        details["tails"] = {k: f"median={statistics.median(v):.4f}, {tail(v)}"
                            for k, v in samples.items()}
        units = END_TO_END_UNITS
    details["problems"] = tally.problems
    details["failed_share"] = tally.failed / tally.attempted
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    details["result"] = result
    (work / "result.json").write_text(json.dumps(details, indent=1, default=str),
                                      encoding="utf-8")
    return details


def report(details: dict) -> None:
    """Human-readable lines; the JSON result is printed after them."""
    print(f"workload {details['workload']} seed {details['seed']} "
          f"trace {int(details['trace'])}: jobs2={details['jobs2']}, "
          + ", ".join(f"{k}={v:.3g}" for k, v in details["host"].items()))
    tails = details.get("tails", {})
    for name, m in details["result"]["metrics"].items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}  {tails.get(name, '')}".rstrip())
    for name, value in details.get("wall_s", {}).items():
        print(f"  {name}: {value:.6g} s (mean)  {tails[name]}")
    for name, value in details.get("per_kind", {}).items():
        print(f"  {name}: {value:.6g}")
    result = details["result"]
    print(f"  failed_share: {details['failed_share']:.6g} share "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in details["problems"]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "rowexpr", "registry"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; a claimed "
                             f"gain must also hold on {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dqeval" / "__init__.py").is_file():
        print(f"error: no dqeval sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(details)
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
