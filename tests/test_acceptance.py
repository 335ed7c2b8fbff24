"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its elapsed time. Every tolerance is pinned here; the
timing budgets are upper bounds, not targets.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from dqeval.cli import main
from dqeval.dataset import (ColumnSchema, Entity, EntitySchema, Repository,
                            SchemaCatalog, load_snapshot)
from dqeval.engine import eval_all
from dqeval.reporting import build_report, serialize_report
from dqeval.rules import parse_ruleset
from dqeval.scenarios import write_scenario
from dqeval.scoring import (default_config, default_profiling_table,
                            default_thresholds, make_profile, profile_to_level,
                            property_value, score_all, value_to_level)
from dqeval.synthkit import (ColumnGen, EntityPlan, SynthSpec, ViolationPlan,
                             expected_vs_actual, generate, round_half_up)
from dqeval import __version__, canonical

PASS_LINE = "ACCEPTANCE {n} PASS ({elapsed:.2f}s): {what}"


def _finish(n: int, what: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(PASS_LINE.format(n=n, elapsed=elapsed, what=what))


# --------------------------------------------------------------------------
# 1. Worked profile example

def test_criterion_1_worked_profile_example():
    started = time.perf_counter()
    profile = make_profile([4, 4, 3])
    assert profile == (0, 0, 1, 2, 0)
    level = profile_to_level(profile, default_profiling_table(3))
    assert level == 3
    _finish(1, "property levels (4,4,3) -> profile <0,0,1,2,0> -> level 3",
            started, budget=1.0)


# --------------------------------------------------------------------------
# 2. Threshold mapping

def test_criterion_2_threshold_bands():
    started = time.perf_counter()
    probes = [0, Decimal("19.99"), 20, Decimal("39.99"), 40, Decimal("69.99"),
              70, Decimal("84.99"), 85, 100]
    levels = [value_to_level(v, default_thresholds()) for v in probes]
    assert levels == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    _finish(2, "default thresholds reproduce the published bands at all "
               "10 probe values", started, budget=1.0)


# --------------------------------------------------------------------------
# 3. Oracle equivalence (every kind, 100 seeds)

def _oracle_fixture(seed: int):
    """Catalog + 12-kind ruleset + synth spec with randomized rows/rates."""
    rng = random.Random(seed)
    n = rng.randint(20, 1000)
    lookup_rows = rng.randint(10, 200)

    def rate(grid=(0, 0, 10, 20, 50)) -> Decimal:
        return Decimal(rng.choice(grid)) / 100

    unique_rate = rate()
    while round_half_up(unique_rate, n) == 1:
        unique_rate = rate()

    catalog = SchemaCatalog((
        EntitySchema("lookup", (ColumnSchema("code", "text"),
                                ColumnSchema("label", "text")), ("code",)),
        EntitySchema("fact", (
            ColumnSchema("pk", "text"),
            ColumnSchema("syn", "text"),
            ColumnSchema("rng_c", "integer"),
            ColumnSchema("dom", "text"),
            ColumnSchema("nn", "text", nullable=True),
            ColumnSchema("nd", "text"),
            ColumnSchema("unq", "text"),
            ColumnSchema("fk", "text"),
            ColumnSchema("fc", "text"),
            ColumnSchema("prd", "integer"),
            ColumnSchema("fresh", "timestamp"),
            ColumnSchema("freq", "timestamp"),
        ), ("pk",)),
    ))

    rules_doc = {
        "name": "oracle", "version": "1",
        "reference_time": "2024-06-01T00:00:00Z",
        "format_classes": {"fc": "^F[0-9]{4}$"},
        "rules": [
            {"id": "syn", "entity": "fact", "columns": ["syn"],
             "property": "EXAC_SINT", "kind": "syntax",
             "params": {"pattern": "^S[0-9]{4}$"}},
            {"id": "rng", "entity": "fact", "columns": ["rng_c"],
             "property": "RAN_EXAC", "kind": "range",
             "params": {"min": 0, "max": 100}},
            {"id": "dom", "entity": "fact", "columns": ["dom"],
             "property": "EXAC_SEMAN", "kind": "domain",
             "params": {"allowed": ["A", "B", "C"]}},
            {"id": "nn", "entity": "fact", "columns": ["nn"],
             "property": "COMP_REG", "kind": "not_null", "params": {}},
            {"id": "nd", "entity": "fact", "columns": ["nd"],
             "property": "COMP_VAL_ESP", "kind": "no_default",
             "params": {"placeholders": ["N/A"]}},
            {"id": "unq", "entity": "fact", "columns": [],
             "property": "FAL_COMP_FICH", "kind": "unique",
             "params": {"key": ["unq"]}},
            {"id": "mc", "entity": "fact", "columns": [],
             "property": "COMP_FICH", "kind": "min_count",
             "params": {"threshold": rng.randint(1, 1200)}},
            {"id": "fk", "entity": "fact", "columns": ["fk"],
             "property": "INT_REF", "kind": "foreign_key",
             "params": {"referenced": "lookup.code"}},
            {"id": "fc", "entity": "fact", "columns": ["fc"],
             "property": "CONS_FORM", "kind": "format_class",
             "params": {"class": "fc",
                        "extra_targets": [["lookup", "label"]]}},
            {"id": "prd", "entity": "fact", "columns": [],
             "property": "CONS_SEMAN", "kind": "predicate",
             "params": {"expr": "prd >= 0 and prd < 500"}},
            {"id": "fresh", "entity": "fact", "columns": [],
             "property": "CONV_ACT", "kind": "freshness",
             "params": {"timestamp_column": "fresh", "max_age": "45d"}},
            {"id": "freq", "entity": "fact", "columns": [],
             "property": "FREC_ACT", "kind": "frequency",
             "params": {"timestamp_column": "freq", "max_gap": "2d"}},
        ],
    }
    rs = parse_ruleset(json.dumps(rules_doc))

    fk_pool = tuple(f"L{i:04d}" for i in range(min(lookup_rows, 50)))
    spec = SynthSpec(seed, (
        ("lookup", EntityPlan(lookup_rows, (
            ("code", ColumnGen("serial", (("format", "L{n:04d}"),))),
            ("label", ColumnGen("serial", (("format", "F{n:04d}"),))),
        ))),
        ("fact", EntityPlan(n, (
            ("pk", ColumnGen("serial", (("format", "P{n:06d}"),))),
            ("syn", ColumnGen("serial", (("format", "S{n:04d}"),))),
            ("rng_c", ColumnGen("int_uniform", (("max", 100), ("min", 0)))),
            ("dom", ColumnGen("choice", (("values", ("A", "B", "C")),))),
            ("nn", ColumnGen("choice", (("values", ("x", "y")),))),
            ("nd", ColumnGen("choice", (("values", ("real",)),))),
            ("unq", ColumnGen("serial", (("format", "U{n:06d}"),))),
            ("fk", ColumnGen("choice", (("values", fk_pool),))),
            ("fc", ColumnGen("serial", (("format", "F{n:04d}"),))),
            ("prd", ColumnGen("int_uniform", (("max", 499), ("min", 0)))),
            ("fresh", ColumnGen("timestamp_uniform",
                                (("end", "2024-05-31T00:00:00Z"),
                                 ("start", "2024-05-01T00:00:00Z")))),
            ("freq", ColumnGen("timestamp_spaced",
                               (("start", "2024-05-01T00:00:00Z"),
                                ("step", "20m")))),
        ))),
    ), (
        ViolationPlan("syn", rate(), ("*bad*",)),
        ViolationPlan("rng", rate()),
        ViolationPlan("dom", rate()),
        ViolationPlan("nn", rate()),
        ViolationPlan("nd", rate()),
        ViolationPlan("unq", unique_rate),
        ViolationPlan("fk", rate()),
        ViolationPlan("fc", rate(), ("nope",)),
        ViolationPlan("prd", rate(), (("prd", 9999),)),
        ViolationPlan("fresh", rate()),
        ViolationPlan("freq", Decimal(rng.choice((0, 1)))),
    ))
    return catalog, rs, spec


def test_criterion_3_oracle_equivalence(tmp_path: Path):
    started = time.perf_counter()
    for seed in range(100):
        catalog, rs, spec = _oracle_fixture(seed)
        out = tmp_path / f"f{seed}"
        expected = generate(spec, catalog, rs, out)
        repo = load_snapshot(out, catalog)
        ms = eval_all(rs, repo)
        assert expected_vs_actual(expected, ms) == [], f"seed {seed}"
        # micro property values equal 100*sum(A)/sum(B) within 1e-9
        by_prop: dict = {}
        for r in rs.rules:
            by_prop.setdefault(r.property, []).append(ms.measures[r.id])
        for measures in by_prop.values():
            value = property_value([(m.a, m.b) for m in measures], "micro")
            applicable = [m for m in measures if m.b > 0]
            if not applicable:
                assert value is None
                continue
            direct = Fraction(100 * sum(m.a for m in applicable),
                              sum(m.b for m in applicable))
            assert abs(value - direct) <= Fraction(1, 10**9)
    _finish(3, "engine (A,B) equals the by-construction oracle for every "
               "kind across 100 seeded fixtures", started, budget=60.0)


# --------------------------------------------------------------------------
# 4. Repair monotonicity

_REPAIRABLE = ("syn", "rng", "dom", "nn", "nd", "fk")
_RULE_COLUMN = {"syn": "syn", "rng": "rng_c", "dom": "dom", "nn": "nn",
                "nd": "nd", "fk": "fk"}


def _scores_snapshot(result):
    """Property values as rendered (rounding to four places never reverses
    their order), property levels and characteristic levels."""
    prop_values = {p["property"]: p["value"] for p in result["properties"]}
    prop_levels = {p["property"]: p["level"] for p in result["properties"]}
    char_levels = {c["characteristic"]: c["level"] for c in result["characteristics"]}
    return prop_values, prop_levels, char_levels


def test_criterion_4_repair_monotonicity(tmp_path: Path):
    started = time.perf_counter()
    catalog, rs, spec = _oracle_fixture(424242)
    out = tmp_path / "repair"
    generate(spec, catalog, rs, out)
    repo = load_snapshot(out, catalog)
    columns = {name: {c: list(repo.entities[name].column(c))
                      for c in repo.entities[name].schema.column_names()}
               for name in repo.entities}

    def rebuild() -> Repository:
        entities = {name: Entity(repo.entities[name].schema,
                                 {c: list(v) for c, v in cols.items()})
                    for name, cols in columns.items()}
        return Repository(catalog, entities, "repair-fp")

    config = default_config()
    current = rebuild()
    ms = eval_all(rs, current)
    before = _scores_snapshot(score_all(ms, rs, config))
    rng = random.Random(7042)

    repairs = 0
    while repairs < 100:
        candidates = [(rid, row) for rid in _REPAIRABLE
                      for _, row in ms.measures[rid].failing]
        if not candidates:
            break
        rid, row = candidates[rng.randrange(len(candidates))]
        column = _RULE_COLUMN[rid]
        col = columns["fact"][column]
        passing_rows = [i for i in range(len(col))
                        if i not in {r for _, r in ms.measures[rid].failing}]
        assert passing_rows, f"rule {rid} has no compliant row to copy from"
        col[row] = col[passing_rows[0]]

        current = rebuild()
        ms = eval_all(rs, current)
        after = _scores_snapshot(score_all(ms, rs, config))
        for prop, value in before[0].items():
            if value is not None:
                assert after[0][prop] >= value, f"value dropped for {prop}"
        for prop, level in before[1].items():
            if level is not None:
                assert after[1][prop] >= level, f"level dropped for {prop}"
        for char, level in before[2].items():
            if level is not None:
                assert after[2][char] >= level, f"level dropped for {char}"
        before = after
        repairs += 1

    assert repairs == 100, f"fixture ran out of repairable failures at {repairs}"
    _finish(4, "100 single-cell repairs never lowered a property value, "
               "property level, or characteristic level", started, budget=60.0)


# --------------------------------------------------------------------------
# 5. Scenario replay: travel (Org 1 pattern)

def _report_levels(report: dict) -> dict[str, int]:
    return {c["characteristic"]: c["level"] for c in report["characteristics"]}


def test_criterion_5_travel_replay(tmp_path: Path):
    started = time.perf_counter()
    reports = {}
    for version in ("v1", "v2"):
        base = tmp_path / f"travel-{version}"
        write_scenario(f"travel-{version}", base)
        assert main(["evaluate",
                     "--rules", str(base / "rules.json"),
                     "--schema", str(base / "schema.json"),
                     "--data", str(base / "snapshot"),
                     "--out", str(base / "out")]) == 0
        reports[version] = json.loads((base / "out" / "report.json").read_text())

    rs = parse_ruleset((tmp_path / "travel-v1" / "rules.json").read_text())
    counts = reports["v1"]["scope"]["rule_counts"]
    assert counts == {"Accuracy": 89, "Completeness": 78, "Consistency": 91,
                      "Credibility": 54, "Currentness": 63}
    assert len(rs.rules) == 375
    assert sum(reports["v1"]["scope"]["row_counts"].values()) <= 100_000

    v1, v2 = _report_levels(reports["v1"]), _report_levels(reports["v2"])
    assert (v1["Accuracy"], v2["Accuracy"]) == (1, 5)
    assert (v1["Completeness"], v2["Completeness"]) == (2, 4)
    assert v2["Consistency"] == 3
    assert v2["Currentness"] == 5

    assert main(["certify",
                 str(tmp_path / "travel-v1" / "out" / "report.json")]) == 2
    assert main(["certify",
                 str(tmp_path / "travel-v2" / "out" / "report.json")]) == 0
    _finish(5, "travel fixtures: Accuracy 1->5, Completeness 2->4, "
               "Consistency 3 and Currentness 5 in v2; certify 2 then 0",
            started, budget=120.0)


# --------------------------------------------------------------------------
# 6. Scenario replay: registry (Org 2 pattern)

def test_criterion_6_registry_replay(tmp_path: Path):
    started = time.perf_counter()
    levels = {}
    for version in ("v1", "v2"):
        base = tmp_path / f"registry-{version}"
        write_scenario(f"registry-{version}", base)
        assert main(["evaluate",
                     "--rules", str(base / "rules.json"),
                     "--schema", str(base / "schema.json"),
                     "--data", str(base / "snapshot"),
                     "--out", str(base / "out")]) == 0
        levels[version] = _report_levels(
            json.loads((base / "out" / "report.json").read_text()))

    assert levels["v1"]["Accuracy"] == 1
    assert levels["v1"]["Consistency"] == 1
    assert levels["v1"]["Completeness"] == 5
    assert levels["v1"]["Credibility"] == 5
    assert levels["v2"]["Accuracy"] == 5
    assert levels["v2"]["Consistency"] == 3
    assert levels["v2"]["Currentness"] == 5
    assert levels["v2"]["Completeness"] == 5
    assert levels["v2"]["Credibility"] == 5
    _finish(6, "registry fixtures: v1 Accuracy/Consistency at 1 with "
               "Completeness/Credibility at 5; v2 reaches 5/3/5/5/5",
            started, budget=120.0)


# --------------------------------------------------------------------------
# 7. Determinism

def test_criterion_7_determinism(tmp_path: Path):
    started = time.perf_counter()
    for run in ("one", "two"):
        base = tmp_path / run
        write_scenario("travel-v1", base)
        assert main(["evaluate",
                     "--rules", str(base / "rules.json"),
                     "--schema", str(base / "schema.json"),
                     "--data", str(base / "snapshot"),
                     "--out", str(base / "out")]) == 0
    one, two = tmp_path / "one", tmp_path / "two"
    assert (one / "out" / "report.json").read_bytes() == \
        (two / "out" / "report.json").read_bytes()
    assert (one / "out" / "measures.json").read_bytes() == \
        (two / "out" / "measures.json").read_bytes()
    assert canonical.snapshot_fingerprint(one / "snapshot") == \
        canonical.snapshot_fingerprint(two / "snapshot")
    _finish(7, "evaluate twice -> byte-identical reports; synth twice -> "
               "byte-identical snapshots", started, budget=60.0)


# --------------------------------------------------------------------------
# 8. Performance sanity (1M rows x 10 rules, parallel speedup)

def _perf_fixture(tmp_path: Path):
    n = 1_000_000
    # four-octet address check, each octet constrained to 0..255
    octet = "(25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)"
    syntax_pattern = f"^{octet}(\\.{octet}){{3}}$"
    ip_pool = tuple(f"10.{i // 256 % 256}.{i % 256}.{i * 7 % 256}"
                    for i in range(1000))
    catalog_cols = [ColumnSchema("pk", "text")]
    gens = {"pk": ColumnGen("serial", (("format", "PK{n:07d}"),))}
    rules = []
    plans = []
    for i in range(4):
        col = f"syn{i}"
        catalog_cols.append(ColumnSchema(col, "text"))
        gens[col] = ColumnGen("choice", (("values", ip_pool),))
        rules.append({"id": col, "entity": "big", "columns": [col],
                      "property": "EXAC_SINT", "kind": "syntax",
                      "params": {"pattern": syntax_pattern}})
        plans.append(ViolationPlan(col, Decimal("0.002"),
                                   ("999.999.999.999",)))
    for i in range(3):
        col = f"rng{i}"
        catalog_cols.append(ColumnSchema(col, "integer"))
        gens[col] = ColumnGen("int_uniform", (("max", 255), ("min", 0)))
        rules.append({"id": col, "entity": "big", "columns": [col],
                      "property": "RAN_EXAC", "kind": "range",
                      "params": {"min": 0, "max": 255}})
        plans.append(ViolationPlan(col, Decimal("0.002")))
    for i in range(3):
        col = f"dom{i}"
        catalog_cols.append(ColumnSchema(col, "text"))
        gens[col] = ColumnGen("choice", (("values", ("RED", "GREEN", "BLUE")),))
        rules.append({"id": col, "entity": "big", "columns": [col],
                      "property": "EXAC_SEMAN", "kind": "domain",
                      "params": {"allowed": ["RED", "GREEN", "BLUE"]}})
        plans.append(ViolationPlan(col, Decimal("0.002")))

    catalog = SchemaCatalog((EntitySchema("big", tuple(catalog_cols), ("pk",)),))
    rs = parse_ruleset(json.dumps({
        "name": "perf", "version": "1",
        "reference_time": "2024-06-01T00:00:00Z",
        "rules": rules}))
    spec = SynthSpec(77, (("big", EntityPlan(n, tuple(gens.items()))),),
                     tuple(plans))
    generate(spec, catalog, rs, tmp_path)
    return catalog, rs


def _burn(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


def _host_cpu_scaling() -> float:
    """Raw aggregate speedup of two CPU-bound processes on this host.

    Calibration only: on shared or SMT-paired vCPUs this ceiling can sit
    well below 2.0, which bounds any parallel evaluator from above.
    """
    import multiprocessing
    n = 12_000_000
    t0 = time.perf_counter()
    _burn(n)
    solo = time.perf_counter() - t0
    ctx = multiprocessing.get_context("fork")
    t0 = time.perf_counter()
    with ctx.Pool(2) as pool:
        pool.map(_burn, [n, n])
    duo = time.perf_counter() - t0
    return 2 * solo / duo


# SHA-256 over the fixture's files (name, NUL, bytes, NUL, in name order)
_PERF_FIXTURE_DIGEST = \
    "5cc1bca45f9b355f325b9d9901faf17bc00684a0ea3695d830cb0293b2816ee0"


def test_criterion_8_performance_and_speedup(tmp_path: Path):
    started = time.perf_counter()
    catalog, rs = _perf_fixture(tmp_path)
    digest = hashlib.sha256()
    for name in ("big.csv", "expected_measures.json"):
        digest.update(name.encode() + b"\0" + (tmp_path / name).read_bytes() + b"\0")
    assert digest.hexdigest() == _PERF_FIXTURE_DIGEST
    repo = load_snapshot(tmp_path, catalog)
    config = default_config()

    def run(jobs: int) -> tuple[float, str]:
        t0 = time.perf_counter()
        ms = eval_all(rs, repo, jobs=jobs)
        elapsed = time.perf_counter() - t0
        report = serialize_report(build_report(
            rs, repo, ms, score_all(ms, rs, config), config, __version__))
        return elapsed, report

    # interleaved best-of-3 per mode: wall time on shared hosts swings with
    # neighbor load, and best-of-N is the standard way to compare configs
    singles, parallels = [], []
    reports = set()
    for _ in range(3):
        elapsed, report = run(jobs=1)
        singles.append(elapsed)
        reports.add(report)
        elapsed, report = run(jobs=4)
        parallels.append(elapsed)
        reports.add(report)
    assert len(reports) == 1, "outputs differ between runs or job counts"

    single = min(singles)
    parallel = min(parallels)
    assert single < 120.0, f"single-threaded evaluation took {single:.1f}s"

    speedup = single / parallel
    ceiling = _host_cpu_scaling()
    assert speedup >= 1.5, (
        f"jobs=4 speedup {speedup:.3f}x (best of 3: {single * 1000:.1f} ms -> "
        f"{parallel * 1000:.1f} ms); note: this host's raw two-process CPU scaling "
        f"measured {ceiling:.2f}x just now - when that ceiling sits below "
        f"1.5x (shared/SMT vCPUs), no parallel evaluator can reach it")
    elapsed = time.perf_counter() - started
    print(PASS_LINE.format(
        n=8, elapsed=elapsed,
        what=f"1M rows x 10 rules: single {single:.1f}s, jobs=4 "
             f"{parallel:.1f}s ({speedup:.2f}x, host ceiling {ceiling:.2f}x), "
             f"identical bytes"))
