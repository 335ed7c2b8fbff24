"""End-to-end loop: the real `dq` CLI as child processes, checked every time.

A closed loop with one client: each cycle runs `dq evaluate --jobs 1`,
`dq evaluate --jobs 2` (capped at the host's usable CPUs) and `dq improve`
twice over the first evaluate's outputs, one process at a time. Every
process is an operation. It fails when it exits non-zero, when its outputs
differ in bytes from the first cycle's (across `--jobs` and repetitions),
or when an evaluate's (A, B) differ from the synth oracle in
`expected_measures.json`. Before every operation the host reference task
runs (see reference_task.py); it is not an operation of the program.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from dqeval import synthkit
from dqeval.engine import MeasureSet
from dqeval.reporting import parse_measures
from dqeval.rules import parse_ruleset

from workloads import Inputs

IMPROVES_PER_CYCLE = 2  # improve is the shortest operation on most workloads
OPS_PER_CYCLE = 2 + IMPROVES_PER_CYCLE
CHILD_TIMEOUT_S = 90
REFERENCE_TASK = Path(__file__).resolve().parent / "reference_task.py"


@dataclass
class Tally:
    """Operations attempted and failed, with the first failures described."""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


@dataclass
class Samples(Tally):
    """Per-operation samples and the correctness tally of one run."""
    evaluate_s: list = field(default_factory=list)
    evaluate_jobs2_s: list = field(default_factory=list)
    improve_s: list = field(default_factory=list)
    peak_rss_mb: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB).

    A child still running after CHILD_TIMEOUT_S is killed (and fails), so a
    hung evaluate cannot keep the benchmark from finishing.
    """
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024  # Linux: KiB


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def digest(paths) -> str | None:
    h = hashlib.sha256()
    for p in paths:
        try:
            h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
        except OSError:
            return None
    return h.hexdigest()


def oracle_discrepancies(expected: synthkit.ExpectedMeasures,
                         ms: MeasureSet) -> list:
    """synthkit's cross-check over the rules the oracle covers.

    Rules added after generation (with `where` filters or conditions) are
    not in the oracle; every other measured rule must match it exactly.
    """
    ids = {rid for rid, _, _ in expected.measures}
    covered = MeasureSet({rid: m for rid, m in ms.measures.items() if rid in ids},
                         ms.ruleset_fingerprint, ms.snapshot_fingerprint)
    return synthkit.expected_vs_actual(expected, covered)


class Loop:
    """The CLI operations of one workload and their checks."""

    def __init__(self, inputs: Inputs, work: Path, src: Path, jobs2: int):
        self.inputs = inputs
        self.work = work
        self.env = child_env(src)
        self.log = work / "children.log"
        self.dq = [sys.executable, "-m", "dqeval.cli"]
        self.jobs2 = jobs2
        self.expected = synthkit.parse_expected(
            inputs.expected.read_text(encoding="utf-8"))
        self.n_rules = len(parse_ruleset(
            inputs.rules.read_text(encoding="utf-8")).rules)
        self.reference = None      # (report, measures) digest of the first evaluate
        self.improve_reference = None
        self.oracle_ok: dict[str, bool] = {}  # measures digest -> oracle verdict

    def _evaluate(self, jobs: int, out: Path) -> tuple[float, float, bool, str]:
        argv = self.dq + ["evaluate", "--rules", str(self.inputs.rules),
                          "--schema", str(self.inputs.schema),
                          "--data", str(self.inputs.data), "--out", str(out),
                          "--jobs", str(jobs)]
        for name in ("report.json", "measures.json"):
            (out / name).unlink(missing_ok=True)
        elapsed, code, rss = spawn(argv, self.env, self.log)
        if code != 0:
            return elapsed, rss, False, f"evaluate --jobs {jobs} exited {code}"
        pair = (digest([out / "report.json"]), digest([out / "measures.json"]))
        if None in pair:
            return elapsed, rss, False, f"evaluate --jobs {jobs} wrote no outputs"
        if self.reference is None:
            self.reference = pair
        elif pair != self.reference:
            return elapsed, rss, False, (f"evaluate --jobs {jobs}: outputs differ "
                                         "from the first evaluate's bytes")
        if pair[1] not in self.oracle_ok:
            self.oracle_ok[pair[1]] = self._oracle_check(out / "measures.json")
        if not self.oracle_ok[pair[1]]:
            return elapsed, rss, False, f"evaluate --jobs {jobs}: (A, B) != oracle"
        return elapsed, rss, True, ""

    def _oracle_check(self, measures: Path) -> bool:
        ms = parse_measures(measures.read_text(encoding="utf-8"))
        return (len(ms.measures) == self.n_rules
                and not oracle_discrepancies(self.expected, ms))

    def _improve(self, source: Path, out: Path) -> tuple[float, bool, str]:
        shutil.rmtree(out, ignore_errors=True)
        argv = self.dq + ["improve", "--report", str(source / "report.json"),
                          "--measures", str(source / "measures.json"),
                          "--out", str(out)]
        elapsed, code, _ = spawn(argv, self.env, self.log)
        if code != 0:
            return elapsed, False, f"improve exited {code}"
        files = digest(sorted(out.iterdir())) if out.is_dir() else None
        if files is None:
            return elapsed, False, "improve wrote no manifests"
        if self.improve_reference is None:
            self.improve_reference = files
        elif files != self.improve_reference:
            return elapsed, False, "improve: manifests differ across repetitions"
        return elapsed, True, ""

    def warm_up(self, samples: Samples) -> None:
        """`dq --version` imports every module, so later children find bytecode."""
        _, code, _ = spawn(self.dq + ["--version"], self.env, self.log)
        samples.record(code == 0, f"dq --version exited {code}")

    def time_reference(self, samples: Samples) -> None:
        """Time one run of the host reference task; a failure stops the run,
        since the ratios would have no base."""
        elapsed, code, _ = spawn([sys.executable, str(REFERENCE_TASK)], self.env,
                                 self.log)
        if code != 0:
            raise RuntimeError(f"the host reference task exited {code}")
        samples.reference_s.append(elapsed)

    def operations(self, samples: Samples):
        """The closed loop, one operation per step, cycle after cycle. A
        cycle runs evaluate --jobs 1, evaluate --jobs 2, then improve
        IMPROVES_PER_CYCLE times over the first evaluate's outputs."""
        j1, j2, imp = self.work / "out_j1", self.work / "out_j2", self.work / "improve"
        j1.mkdir(parents=True, exist_ok=True)
        j2.mkdir(parents=True, exist_ok=True)
        while True:
            elapsed, rss, ok, problem = self._evaluate(1, j1)
            samples.record(ok, problem)
            samples.evaluate_s.append(elapsed)
            samples.peak_rss_mb.append(rss)
            yield
            elapsed, _, ok, problem = self._evaluate(self.jobs2, j2)
            samples.record(ok, problem)
            samples.evaluate_jobs2_s.append(elapsed)
            yield
            for _ in range(IMPROVES_PER_CYCLE):
                elapsed, ok, problem = self._improve(j1, imp)
                samples.record(ok, problem)
                samples.improve_s.append(elapsed)
                yield


def run(inputs: Inputs, work: Path, src: Path, jobs2: int, seconds: float) -> Samples:
    """Warm up, run one whole cycle, then go on until `seconds` have passed.

    The host reference task runs before every operation. The deadline is
    checked before each pair, so a run overshoots it by at most one.
    """
    loop = Loop(inputs, work, src, jobs2)
    samples = Samples()
    loop.warm_up(samples)
    deadline = time.perf_counter() + seconds
    steps = loop.operations(samples)
    for _ in range(OPS_PER_CYCLE):
        loop.time_reference(samples)
        next(steps)
    while time.perf_counter() < deadline:
        loop.time_reference(samples)
        next(steps)
    steps.close()
    return samples
