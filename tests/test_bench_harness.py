"""The benchmark harness in perfbench/ imports about twenty names from
dqeval, and this suite does not collect perfbench/. Importing its modules,
and making its in-process calls, here makes a rename or a signature change
in src/ fail the suite instead of every benchmark run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _harness_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))


def test_benchmark_modules_import():
    env = _harness_env()
    code = ("import run, e2e, traced, workloads\n"
            "for m in (run, e2e, traced, workloads):\n"
            "    print(m.__file__)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [Path(line).parent for line in proc.stdout.splitlines()] == \
        [ROOT / "perfbench"] * 4


# The calls traced.Run.repetition and e2e make into dqeval, with their
# argument shapes, on the registry workload at seed 1.
_HARNESS_CALLS = """
import sys
from pathlib import Path
import e2e, traced, workloads
from dqeval import synthkit
from dqeval.engine import eval_all, eval_rule
from dqeval.reporting import (build_improvement, parse_measures,
                              serialize_measures, write_improvement)

tmp = Path(sys.argv[1])
inputs = workloads.setup("registry", 1, tmp / "registry")
rs, repo, ms, report, report_text, measures_text = traced.core(inputs, None)
assert serialize_measures(eval_all(rs, repo, jobs=2)) == measures_text
assert all(eval_rule(r, repo, rs) == ms.measures[r.id] for r in rs.rules)
write_improvement(build_improvement(report, ms), report, tmp / "improve")
(tmp / "measures.json").write_text(measures_text, encoding="utf-8")
parsed = parse_measures((tmp / "measures.json").read_text(encoding="utf-8"))
expected = synthkit.parse_expected(inputs.expected.read_text(encoding="utf-8"))
assert e2e.oracle_discrepancies(expected, parsed) == []
print(len(rs.rules), sum(m.failing_total for m in ms),
      len(list((tmp / "improve").iterdir())))
"""


def test_benchmark_in_process_calls(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _HARNESS_CALLS, str(tmp_path)],
                          cwd=ROOT, env=_harness_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rules, failing, files = map(int, proc.stdout.split())
    assert rules == 813 and failing > 40_000 and files > 400
