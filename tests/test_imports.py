"""Every module of the package imports on its own, as the first of the
package's modules a fresh interpreter loads: the commands import their
layers lazily, so a cycle between modules would show only in some import
orders."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "dqeval").glob("*.py") if p.stem != "__init__")


def test_every_module_is_listed():
    assert {"cli", "engine", "host", "reporting", "rules"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    script = (
        "import sys\n"
        f"import dqeval.{module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('dqeval.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert f"'dqeval.{module}'" in proc.stdout


def test_scoring_imports_no_evaluation_layer():
    """Scoring reads (property, A, B) items, so a document command can score
    without loading the rule, expression, snapshot or engine layers."""
    script = ("import sys\n"
              "import dqeval.scoring\n"
              "print(*sorted(m for m in sys.modules if m.startswith('dqeval.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dqeval.scoring" in loaded
    assert loaded & {"dqeval.rules", "dqeval.expr", "dqeval.dataset",
                     "dqeval.engine"} == set()
