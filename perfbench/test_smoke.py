"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every run emits exactly the metric names BENCHMARK.json
declares, that a workload's per-kind timings name only the kinds it has,
and that a planted oracle mismatch is counted as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import e2e  # noqa: E402
import run as bench  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = 0.02
KINDS = {"scan": {"syntax", "range", "domain"},
         "rowexpr": {"predicate", "freshness", "unique", "foreign_key"},
         "registry": {"syntax", "range", "domain", "not_null", "no_default",
                      "unique", "min_count", "foreign_key", "format_class",
                      "predicate", "freshness", "frequency"}}


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_declared_names_match_the_harness():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert _declared("end_to_end") == bench.END_TO_END_UNITS
    assert _declared("per_layer") == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    details = bench.run(workload, 3, 0.1, trace, scale=SCALE, work=tmp_path)
    result = details["result"]
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _declared(section)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    if trace:
        kinds = {name[len("engine.kind."):-len("_s")] for name in details["per_kind"]
                 if not name.endswith("_rows_per_s")}
        assert kinds == KINDS[workload]
        assert (tmp_path / "trace.json").is_file()


def _plant_mismatch(inputs: workloads.Inputs) -> None:
    doc = json.loads(inputs.expected.read_text(encoding="utf-8"))
    first = next(iter(doc["rules"].values()))
    first["a"] -= 1
    inputs.expected.write_text(json.dumps(doc), encoding="utf-8")


def test_planted_mismatch_counts_as_failed(tmp_path):
    inputs = workloads.setup("scan", 3, tmp_path / "inputs", SCALE)
    _plant_mismatch(inputs)
    tally = e2e.run(inputs, tmp_path, bench.SRC, 1, 0.1)
    assert tally.failed > 0 and tally.failed / tally.attempted > 0
    assert any("oracle" in p for p in tally.problems)

    out = traced.Run("scan", 3, inputs, tmp_path, bench.SRC, 1, SCALE).run(0.1)
    assert out["tally"].failed > 0
