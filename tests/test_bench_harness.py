"""The benchmark harness in perfbench/ imports about twenty names from
dqeval, and this suite does not collect perfbench/. Importing its modules
here makes a rename in src/ fail the suite instead of every benchmark run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_modules_import():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    code = ("import run, e2e, traced, workloads\n"
            "for m in (run, e2e, traced, workloads):\n"
            "    print(m.__file__)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [Path(line).parent for line in proc.stdout.splitlines()] == \
        [ROOT / "perfbench"] * 4
