"""Run `dq` under several Python interpreters and diff what each produces.

Usage, from the root of a checkout:

    python3 tests/versions.py [PYTHON ...]

The interpreter running this script is the baseline. It is compared with
each PYTHON named, or by default with every
$PYENV_ROOT/versions/*/bin/python3 (PYENV_ROOT defaults to ~/.pyenv).
Interpreters older than 3.10, which dqeval does not support, are skipped
with a note. Each runs the CLI from this checkout's src/, under its own
PYTHONHASHSEED: synth of travel-v1, registry-v1, school-v1 and of two
specs, one whose 50,000-row file is above the size from which `--jobs 2`
loads and evaluates it in row ranges, one whose rules are estimated above
the work from which `--jobs 2` runs them in forked workers, then on each
evaluate at --jobs 1 and --jobs 2, improve and certify. Every output file
and each command's stdout, stderr and exit status is compared with the
baseline's; each difference is named on a line of its own. Exits 1 if
there is any difference, else 0. pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RANGED = "ranged"  # the synthesized snapshots, not bundled scenarios
POOLED = "pooled"
SCENARIOS = ("travel-v1", "registry-v1", "school-v1", RANGED, POOLED)
OLDEST = (3, 10)

# The documents `dq synth` generates RANGED from: about 2.1 MB in one file,
# above engine.RANGE_BREAK_EVEN_BYTES, with per-value rules, a predicate and
# min_count, the kinds that run in ranges, and failures to merge.
_COLOURS = ["RED", "GREEN", "BLUE"]
RANGED_DOCS = {
    "schema.json": {"entities": [{"name": "big", "key": ["pk"], "columns": [
        {"name": "pk", "datatype": "text"}, {"name": "ip", "datatype": "text"},
        {"name": "colour", "datatype": "text"}, {"name": "n", "datatype": "integer"},
        {"name": "note", "datatype": "text", "nullable": True}]}]},
    "rules.json": {"name": "ranged", "version": "1",
                   "reference_time": "2024-06-01T00:00:00Z", "rules": [
        {"id": "ip", "entity": "big", "columns": ["ip"], "property": "EXAC_SINT",
         "kind": "syntax", "params": {"pattern": "^10\\.[0-9]+\\.[0-9]+$"}},
        {"id": "colour", "entity": "big", "columns": ["colour"],
         "property": "EXAC_SEMAN", "kind": "domain", "params": {"allowed": _COLOURS}},
        {"id": "n", "entity": "big", "columns": ["n"], "property": "RAN_EXAC",
         "kind": "range", "params": {"min": 0, "max": 999}},
        {"id": "note", "entity": "big", "columns": ["note"], "property": "COMP_REG",
         "kind": "not_null", "params": {}},
        {"id": "rows", "entity": "big", "columns": [], "property": "COMP_FICH",
         "kind": "min_count", "params": {"threshold": 1000}}]},
    "spec.json": {"seed": 7, "entities": {"big": {"rows": 50_000, "columns": {
        "pk": {"generator": "serial", "format": "PK{n:07d}"},
        "ip": {"generator": "choice",
               "values": [f"10.{i}.{i * 7 % 256}" for i in range(200)]},
        "colour": {"generator": "choice", "values": _COLOURS},
        "n": {"generator": "int_uniform", "min": 0, "max": 999},
        "note": {"generator": "choice",
                 "values": ["a, \"quoted\"\nnote", "plain"]}}}},
        "violations": [{"rule": "ip", "rate": 0.01, "violating": ["10.x"]},
                       {"rule": "colour", "rate": 0.01},
                       {"rule": "n", "rate": 0.01}, {"rule": "note", "rate": 0.01}]},
}

# The documents `dq synth` generates POOLED from: 30,000 rows (0.51 MB) kept
# whole by a unique key, under rules whose estimated serial work
# (engine._serial_costs_ns, 182 ms) is above engine.POOL_BREAK_EVEN_NS, so
# that `--jobs 2` runs them in a forked worker and the parent, with failures
# of each rule.
POOLED_DOCS = {
    "schema.json": {"entities": [{"name": "keyed", "key": ["pk"], "columns": [
        {"name": "pk", "datatype": "text"}, {"name": "n", "datatype": "integer"},
        {"name": "colour", "datatype": "text"}]}]},
    "rules.json": {"name": "pooled", "version": "1",
                   "reference_time": "2024-06-01T00:00:00Z", "rules": [
        {"id": "key", "entity": "keyed", "columns": [], "property": "FAL_COMP_FICH",
         "kind": "unique", "params": {"key": ["pk"]}},
        {"id": "band", "entity": "keyed", "columns": [], "property": "CONS_SEMAN",
         "kind": "predicate",
         "params": {"expr": "n >= 0 and n <= 999 and abs(n - 500) <= 500"
                            " and n % 1000 = n"}},
        {"id": "colour", "entity": "keyed", "columns": ["colour"],
         "property": "EXAC_SEMAN", "kind": "domain", "params": {"allowed": _COLOURS}}]},
    "spec.json": {"seed": 11, "entities": {"keyed": {"rows": 30_000, "columns": {
        "pk": {"generator": "serial", "format": "K{n:06d}"},
        "n": {"generator": "int_uniform", "min": 0, "max": 999},
        "colour": {"generator": "choice", "values": _COLOURS}}}},
        "violations": [{"rule": "key", "rate": 0.01},
                       {"rule": "band", "rate": 0.01, "violating": {"n": 1500}},
                       {"rule": "colour", "rate": 0.01}]},
}
SYNTHESIZED = {RANGED: RANGED_DOCS, POOLED: POOLED_DOCS}


def commands(scenario: str) -> list[list[str]]:
    s = scenario
    inputs = ["--rules", f"{s}/rules.json", "--schema", f"{s}/schema.json",
              "--data", f"{s}/snapshot"]
    synth = (["synth", "--spec", f"{s}/spec.json", "--schema", f"{s}/schema.json",
              "--rules", f"{s}/rules.json", "--out", f"{s}/snapshot"]
             if s in SYNTHESIZED else ["synth", "--scenario", s, "--out", s])
    return [
        synth,
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
    for scenario, docs in SYNTHESIZED.items():
        (work / scenario).mkdir()
        for name, doc in docs.items():
            (work / scenario / name).write_text(json.dumps(doc), encoding="utf-8")
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
