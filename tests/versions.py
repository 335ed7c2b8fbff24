"""Run `dq` under several Python interpreters and diff what each produces.

Usage, from the root of a checkout:

    python3 tests/versions.py [PYTHON ...]

The interpreter running this script is the baseline. It is compared with
each PYTHON named, or by default with every
$PYENV_ROOT/versions/*/bin/python3 (PYENV_ROOT defaults to ~/.pyenv).
Interpreters older than 3.10, which dqeval does not support, are skipped
with a note. Each runs the CLI from this checkout's src/, under its own
PYTHONHASHSEED: synth of travel-v1, registry-v1 and school-v1, then on each
evaluate at --jobs 1 and --jobs 2, improve and certify. Every output file
and each command's stdout, stderr and exit status is compared with the
baseline's; each difference is named on a line of its own. Exits 1 if
there is any difference, else 0. pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCENARIOS = ("travel-v1", "registry-v1", "school-v1")
OLDEST = (3, 10)


def commands(scenario: str) -> list[list[str]]:
    s = scenario
    inputs = ["--rules", f"{s}/rules.json", "--schema", f"{s}/schema.json",
              "--data", f"{s}/snapshot"]
    return [
        ["synth", "--scenario", s, "--out", s],
        ["evaluate", *inputs, "--out", f"{s}/jobs1", "--jobs", "1"],
        ["evaluate", *inputs, "--out", f"{s}/jobs2", "--jobs", "2"],
        ["improve", "--report", f"{s}/jobs1/report.json",
         "--measures", f"{s}/jobs1/measures.json", "--out", f"{s}/improve"],
        ["certify", f"{s}/jobs1/report.json"],
    ]


def version(python: str) -> tuple[int, ...]:
    out = subprocess.run([python, "-c", "import sys; print(*sys.version_info[:3])"],
                         capture_output=True, text=True, check=True).stdout
    return tuple(map(int, out.split()))


def run_all(python: str, seed: int, work: Path) -> dict[str, bytes]:
    """Every command's stdout, stderr and exit status, and every file the
    commands wrote, by name."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed),
               PYTHONDONTWRITEBYTECODE="1")
    seen = {}
    for scenario in SCENARIOS:
        for argv in commands(scenario):
            proc = subprocess.run([python, "-m", "dqeval.cli", *argv], cwd=work,
                                  env=env, capture_output=True, timeout=600)
            command = "dq " + " ".join(argv)
            seen[f"stdout of {command}"] = proc.stdout
            seen[f"stderr of {command}"] = proc.stderr
            seen[f"exit status of {command}"] = b"%d" % proc.returncode
    for path in sorted(work.rglob("*")):
        if path.is_file():
            seen[f"file {path.relative_to(work).as_posix()}"] = path.read_bytes()
    return seen


def differences(baseline: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    return ([f"{name}: differs" for name in baseline
             if name in other and baseline[name] != other[name]]
            + [f"{name}: baseline only" for name in baseline if name not in other]
            + [f"{name}: not in baseline" for name in other if name not in baseline])


def candidates() -> list[str]:
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    return sorted(map(str, root.glob("versions/*/bin/python3")))


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    found = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp, "baseline")
        base_dir.mkdir()
        label = ".".join(map(str, sys.version_info[:3]))
        baseline = run_all(sys.executable, 1, base_dir)
        print(f"baseline: Python {label} ({sys.executable}), PYTHONHASHSEED=1, "
              f"{len(baseline)} outputs")
        for seed, python in enumerate(argv or candidates(), start=2):
            have = version(python)
            label = ".".join(map(str, have))
            if have[:2] < OLDEST:
                print(f"skipped: Python {label} ({python}), older than 3.10")
                continue
            work = Path(tmp, str(seed))
            work.mkdir()
            diffs = differences(baseline, run_all(python, seed, work))
            found += len(diffs)
            print(f"Python {label} ({python}), PYTHONHASHSEED={seed}: "
                  f"{len(diffs) or 'no'} difference(s)")
            for line in diffs:
                print(f"  {line}")
    print(f"{found} difference(s) in {time.perf_counter() - start:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
