from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import make_ruleset, rule
from dqeval import engine
from dqeval.dataset import (ColumnSchema, Entity, EntitySchema, Repository,
                            SchemaCatalog, load_snapshot)
from dqeval.engine import eval_all, eval_rule
from dqeval.errors import EvalError
from dqeval.reporting import RuleMeasure, serialize_measures
from dqeval.rules import KIND_NAMES, KINDS, parse_ruleset
from dqeval.scenarios import SCENARIOS, build_scenario
from engine_reference import reference_counts
from oracle import naive_measure


def _single(rs):
    return rs.rules[0]


def _written(rs, repo) -> list[list[dict]]:
    """Each rule's failing records as measures.json writes them."""
    doc = json.loads(serialize_measures(eval_all(rs, repo)))
    return [m["failing"] for m in doc["measures"]]


def _measure(document: str, repo, rule_index: int = 0):
    rs = parse_ruleset(document)
    return eval_rule(rs.rules[rule_index], repo, rs), rs


# --------------------------------------------------------------------------
# worked examples

def test_syntax_over_person_ids(person_snapshot, table3_ruleset):
    m = eval_rule(table3_ruleset.rules[0], person_snapshot, table3_ruleset)
    assert (m.a, m.b) == (3, 4)
    assert m.failing == [("person", 2)]
    assert _written(table3_ruleset, person_snapshot)[0] == [
        {"entity": "person", "row": 2, "key": {"id": "1234"}}]


def test_domain_over_warning_types(person_snapshot, table3_ruleset):
    m = eval_rule(table3_ruleset.rules[1], person_snapshot, table3_ruleset)
    assert (m.a, m.b) == (4, 5)
    assert m.failing == [("warning", 4)]


def test_empty_entity_not_applicable(person_catalog, tmp_path: Path):
    snap = tmp_path / "s"
    snap.mkdir()
    (snap / "person.csv").write_text(
        "id,ipaddress,age,balance,active,updated\n")
    (snap / "warning.csv").write_text("wid,type,person_id\n")
    repo = load_snapshot(snap, person_catalog)
    for kind, cols, prop, params in [
        ("syntax", ["id"], "EXAC_SINT", {"pattern": "x"}),
        ("min_count", [], "COMP_FICH", {"threshold": 1}),
        ("frequency", [], "FREC_ACT",
         {"timestamp_column": "updated", "max_gap": 1}),
    ]:
        m, _ = _measure(make_ruleset([rule("r", "person", cols, prop, kind,
                                           params)]), repo)
        assert (m.a, m.b) == (0, 0)


# --------------------------------------------------------------------------
# per-kind semantics

def test_null_counts_in_b_never_in_a(person_snapshot):
    # null id: with skip_null=false it stays applicable and fails
    snap_cols = dict(person_snapshot.entities["person"]._columns)
    snap_cols["id"] = ["12345678A", None, "1234", "11111111B"]
    entity = Entity(person_snapshot.entities["person"].schema, snap_cols)
    repo = Repository(person_snapshot.catalog,
                      dict(person_snapshot.entities, person=entity), "fp")
    doc = make_ruleset([rule("r", "person", ["id"], "EXAC_SINT", "syntax",
                             {"pattern": "^[0-9]{8}[A-Z]$"})])
    m, _ = _measure(doc, repo)
    assert (m.a, m.b) == (2, 4)
    doc = make_ruleset([rule("r", "person", ["id"], "EXAC_SINT", "syntax",
                             {"pattern": "^[0-9]{8}[A-Z]$"}, skip_null=True)])
    m, _ = _measure(doc, repo)
    assert (m.a, m.b) == (2, 3)


def test_range_with_exclusive_bounds(person_snapshot):
    doc = make_ruleset([rule("r", "person", ["age"], "RAN_EXAC", "range",
                             {"min": 17, "max": 51, "min_inclusive": False,
                              "max_inclusive": True})])
    m, _ = _measure(doc, person_snapshot)  # ages 34, 51, 17, 28
    assert (m.a, m.b) == (3, 4)


def test_range_on_decimal_is_boundary_exact(person_snapshot):
    doc = make_ruleset([rule("r", "person", ["balance"], "RAN_EXAC", "range",
                             {"min": 0, "max": 99.99})])
    m, _ = _measure(doc, person_snapshot)  # 10.50, 0.00, 99.99, 5.25
    assert (m.a, m.b) == (4, 4)


def test_not_null_and_no_default(person_snapshot):
    cols = dict(person_snapshot.entities["person"]._columns)
    cols["ipaddress"] = ["1.1.1.1", None, "N/A", "2.2.2.2"]
    entity = Entity(person_snapshot.entities["person"].schema, cols)
    repo = Repository(person_snapshot.catalog,
                      dict(person_snapshot.entities, person=entity), "fp")
    m, _ = _measure(make_ruleset([
        rule("r", "person", ["ipaddress"], "COMP_REG", "not_null", {})]), repo)
    assert (m.a, m.b) == (3, 4)
    m, _ = _measure(make_ruleset([
        rule("r", "person", ["ipaddress"], "COMP_VAL_ESP", "no_default",
             {"placeholders": ["N/A"]})]), repo)
    assert (m.a, m.b) == (2, 4)


def test_unique_flags_every_group_member(person_snapshot):
    cols = dict(person_snapshot.entities["warning"]._columns)
    cols["type"] = ["HR", "HR", "IT", "HR", "OPS"]
    entity = Entity(person_snapshot.entities["warning"].schema, cols)
    repo = Repository(person_snapshot.catalog,
                      dict(person_snapshot.entities, warning=entity), "fp")
    m, _ = _measure(make_ruleset([
        rule("r", "warning", [], "RIES_INCO", "unique", {"key": ["type"]})]), repo)
    assert (m.a, m.b) == (2, 5)
    assert m.failing == [("warning", 0), ("warning", 1), ("warning", 3)]
    assert m.failing_total == 3


def test_foreign_key_nulls_fail_unless_skipped(person_snapshot):
    doc = make_ruleset([rule("r", "warning", ["person_id"], "INT_REF",
                             "foreign_key", {"referenced": "person.id"})])
    m, _ = _measure(doc, person_snapshot)
    # person ids: 12345678A, 87654321Z, 1234, 11111111B; w4 references 99999999X
    assert (m.a, m.b) == (4, 5)


def test_domain_by_reference(person_snapshot):
    doc = make_ruleset([rule("r", "warning", ["person_id"], "EXAC_SEMAN",
                             "domain", {"reference": "person.id"})])
    m, _ = _measure(doc, person_snapshot)
    assert (m.a, m.b) == (4, 5)


def test_min_count(person_snapshot):
    m, _ = _measure(make_ruleset([
        rule("r", "person", [], "COMP_FICH", "min_count", {"threshold": 4})]),
        person_snapshot)
    assert (m.a, m.b) == (1, 1) and not m.failing
    m, rs = _measure(make_ruleset([
        rule("r", "person", [], "COMP_FICH", "min_count", {"threshold": 5})]),
        person_snapshot)
    assert (m.a, m.b) == (0, 1)
    assert m.failing == [("person", None)]
    assert _written(rs, person_snapshot) == [
        [{"entity": "person", "row": None, "key": {}}]]


def test_freshness_and_frequency(person_snapshot):
    # reference_time 2024-06-01; updated values span 2024-03-01 .. 2024-05-30
    m, _ = _measure(make_ruleset([
        rule("r", "person", [], "CONV_ACT", "freshness",
             {"timestamp_column": "updated", "max_age": "40d"})]),
        person_snapshot)
    assert (m.a, m.b) == (3, 4)
    m, _ = _measure(make_ruleset([
        rule("r", "person", [], "FREC_ACT", "frequency",
             {"timestamp_column": "updated", "max_gap": "61d"})]),
        person_snapshot)
    assert (m.a, m.b) == (1, 1)
    m, _ = _measure(make_ruleset([
        rule("r", "person", [], "FREC_ACT", "frequency",
             {"timestamp_column": "updated", "max_gap": "10d"})]),
        person_snapshot)
    assert (m.a, m.b) == (0, 1)


def test_freshness_condition_filters_applicability(person_snapshot):
    m, _ = _measure(make_ruleset([
        rule("r", "person", [], "CONV_ACT", "freshness",
             {"timestamp_column": "updated", "max_age": "40d",
              "condition": "age >= 30"})]), person_snapshot)
    assert m.b == 2  # ages 34 and 51


def test_predicate_null_operand_fails(person_snapshot):
    cols = dict(person_snapshot.entities["person"]._columns)
    cols["age"] = [30, None, 40, 50]
    entity = Entity(person_snapshot.entities["person"].schema, cols)
    repo = Repository(person_snapshot.catalog,
                      dict(person_snapshot.entities, person=entity), "fp")
    m, _ = _measure(make_ruleset([
        rule("r", "person", [], "CONS_SEMAN", "predicate",
             {"expr": "age >= 18"})]), repo)
    assert (m.a, m.b) == (3, 4)


def test_where_filter_limits_b(person_snapshot):
    doc = make_ruleset([rule("r", "person", ["id"], "EXAC_SINT", "syntax",
                             {"pattern": "^[0-9]{8}[A-Z]$"},
                             where="age >= 28")])
    m, _ = _measure(doc, person_snapshot)  # ages 34, 51, 28 pass the filter
    assert (m.a, m.b) == (3, 3)


def test_format_class_sums_targets(person_snapshot):
    doc = make_ruleset(
        [rule("r", "person", ["id"], "CONS_FORM", "format_class",
              {"class": "alnum", "extra_targets": [["warning", "wid"]]})],
        format_classes={"alnum": "^[0-9A-Za-z]+$"})
    m, _ = _measure(doc, person_snapshot)
    assert m.b == 9  # 4 person rows + 5 warning rows
    assert m.a == 9


@pytest.mark.parametrize("columns, extra", [(["t"], [["a", "t"]]), (["t", "u"], [])],
                         ids=["two-entities", "two-columns"])
def test_multi_target_pairs_in_entity_ordinal_order(columns, extra):
    """A format_class over targets scanned one after the other lists its
    pairs in (entity, ordinal) order, as the per-row reference gives them
    once sorted: entity z's own column before a's, or column t's failures
    before u's."""
    text = lambda name: ColumnSchema(name, "text", True)  # noqa: E731
    z = Entity(EntitySchema("z", (text("t"), text("u"))),
               {"t": ["1", "x", "2", "y"], "u": ["x", "3", "y", "4"]})
    a = Entity(EntitySchema("a", (text("t"),)), {"t": ["x", "5", "y"]})
    repo = Repository(SchemaCatalog((z.schema, a.schema)), {"z": z, "a": a}, "fp")
    rs = parse_ruleset(make_ruleset(
        [rule("r", "z", columns, "CONS_FORM", "format_class",
              {"class": "digits", "extra_targets": extra})],
        format_classes={"digits": "^[0-9]+$"}))
    _, b, raw = reference_counts(rs.rules[0], repo, rs)
    ordered = sorted(raw, key=lambda pair: (pair[0], pair[1]))
    assert raw != ordered  # scanned target by target, out of order
    assert eval_rule(rs.rules[0], repo, rs) == RuleMeasure("r", b - len(raw), b,
                                                          ordered, len(raw))


def test_failing_cap_keeps_true_total(person_snapshot, table3_ruleset, monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_FAILING_CAP", 0)
    m = eval_rule(table3_ruleset.rules[1], person_snapshot, table3_ruleset)
    assert m.failing == []
    assert m.failing_total == 1


def test_eval_error_for_missing_entity(person_snapshot):
    rs = parse_ruleset(make_ruleset([
        rule("r", "ghost", ["id"], "EXAC_SINT", "syntax", {"pattern": "x"})]))
    with pytest.raises(EvalError):
        eval_rule(rs.rules[0], person_snapshot, rs)


def test_eval_error_for_missing_column(person_snapshot):
    rs = parse_ruleset(make_ruleset([
        rule("r", "person", ["ghost"], "EXAC_SINT", "syntax", {"pattern": "x"})]))
    with pytest.raises(EvalError, match="rule r: person has no column 'ghost'"):
        eval_rule(rs.rules[0], person_snapshot, rs)


# --------------------------------------------------------------------------
# eval_all

def test_eval_all_covers_every_rule(person_snapshot, table3_ruleset):
    ms = eval_all(table3_ruleset, person_snapshot)
    assert list(ms.measures) == ["r1", "r3"]
    assert ms.snapshot_fingerprint == person_snapshot.fingerprint


def test_eval_all_single_rule_equals_eval_rule(person_snapshot, table3_ruleset):
    ms = eval_all(table3_ruleset, person_snapshot)
    assert ms.measures["r1"] == eval_rule(table3_ruleset.rules[0],
                                          person_snapshot, table3_ruleset)


def test_eval_all_deterministic(person_snapshot, table3_ruleset):
    assert eval_all(table3_ruleset, person_snapshot) == \
        eval_all(table3_ruleset, person_snapshot)


def test_eval_all_parallel_equals_sequential(person_snapshot, table3_ruleset,
                                            monkeypatch):
    monkeypatch.setattr(engine, "POOL_BREAK_EVEN_NS", 0)  # fork even for tiny work
    assert eval_all(table3_ruleset, person_snapshot, jobs=4) == \
        eval_all(table3_ruleset, person_snapshot)


# --------------------------------------------------------------------------
# oracle equivalence on randomized fixtures

def _random_repo(seed: int, person_catalog, tmp_path: Path):
    rng = random.Random(seed)
    n = rng.randint(0, 300)
    ids = [f"{rng.randint(0, 99999999):08d}{rng.choice('ABZ')}"
           if rng.random() > 0.2 else rng.choice(["1234", "", "x"])
           for _ in range(n)]
    lines = ["id,ipaddress,age,balance,active,updated"]
    for i in range(n):
        ip = rng.choice(["1.2.3.4", "10.0.0.1", "N/A", ""])
        age = rng.choice(["", str(rng.randint(0, 99))])
        balance = rng.choice(["", f"{rng.randint(0, 9999)}.{rng.randint(0, 99):02d}"])
        active = rng.choice(["true", "false", ""])
        updated = rng.choice(
            ["", f"2024-0{rng.randint(1, 5)}-1{rng.randint(0, 9)}T06:00:00Z"])
        quoted = '"' + ids[i] + '"' if ids[i] else ""
        lines.append(f"{quoted},{ip},{age},{balance},{active},{updated}")
    snap = tmp_path / f"snap{seed}"
    snap.mkdir()
    (snap / "person.csv").write_text("\n".join(lines) + "\n")
    (snap / "warning.csv").write_text(
        "wid,type,person_id\n" + "".join(
            f"w{i},{rng.choice(['HR', 'IT GENERAL', 'HR2'])},{rng.choice(ids) if ids else ''}\n"
            for i in range(rng.randint(0, 50))))
    return load_snapshot(snap, person_catalog)


ORACLE_RULES = [
    rule("syn", "person", ["id"], "EXAC_SINT", "syntax",
         {"pattern": "^[0-9]{8}[A-Z]$"}),
    rule("syn_skip", "person", ["id"], "EXAC_SINT", "syntax",
         {"pattern": "^[0-9]{8}[A-Z]$"}, skip_null=True),
    rule("rng", "person", ["age"], "RAN_EXAC", "range", {"min": 18, "max": 65}),
    rule("dom", "warning", ["type"], "EXAC_SEMAN", "domain",
         {"allowed": ["HR", "IT GENERAL"]}),
    rule("domref", "warning", ["person_id"], "EXAC_SEMAN", "domain",
         {"reference": "person.id"}),
    rule("nn", "person", ["ipaddress"], "COMP_REG", "not_null", {}),
    rule("nd", "person", ["ipaddress"], "COMP_VAL_ESP", "no_default",
         {"placeholders": ["N/A"]}),
    rule("unq", "person", [], "FAL_COMP_FICH", "unique", {"key": ["id"]}),
    rule("mc", "person", [], "COMP_FICH", "min_count", {"threshold": 100}),
    rule("fk", "warning", ["person_id"], "INT_REF", "foreign_key",
         {"referenced": "person.id"}),
    rule("fc", "person", ["id"], "CONS_FORM", "format_class",
         {"class": "alnum", "extra_targets": [["warning", "wid"]]}),
    rule("prd", "person", [], "CONS_SEMAN", "predicate",
         {"expr": "age >= 18 and len(id) = 9"}),
    rule("prd_where", "person", [], "CONS_SEMAN", "predicate",
         {"expr": "balance >= 0.00"}, where="active = true"),
    rule("fresh", "person", [], "CONV_ACT", "freshness",
         {"timestamp_column": "updated", "max_age": "45d"}),
    rule("freq", "person", [], "FREC_ACT", "frequency",
         {"timestamp_column": "updated", "max_gap": "15d"}),
]


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_naive_oracle(seed, person_catalog, tmp_path):
    repo = _random_repo(seed, person_catalog, tmp_path)
    rs = parse_ruleset(make_ruleset(ORACLE_RULES,
                                    format_classes={"alnum": "^[0-9A-Za-z]+$"}))
    ms = eval_all(rs, repo)
    for r in rs.rules:
        assert (ms.measures[r.id].a, ms.measures[r.id].b) == \
            naive_measure(r, repo, rs), f"rule {r.id} (seed {seed})"


# --------------------------------------------------------------------------
# repair monotonicity

def test_repair_increases_a_by_one(person_snapshot, table3_ruleset):
    syntax_rule = table3_ruleset.rules[0]
    before = eval_rule(syntax_rule, person_snapshot, table3_ruleset)
    cols = dict(person_snapshot.entities["person"]._columns)
    ids = list(cols["id"])
    [(_, row)] = before.failing
    ids[row] = "22222222C"  # compliant replacement
    cols["id"] = ids
    entity = Entity(person_snapshot.entities["person"].schema, cols)
    repo = Repository(person_snapshot.catalog,
                      dict(person_snapshot.entities, person=entity), "fp2")
    after = eval_rule(syntax_rule, repo, table3_ruleset)
    assert after.a == before.a + 1
    assert after.b == before.b


# --------------------------------------------------------------------------
# dispatch table and the distinct-value path against the per-row reference

def test_every_kind_has_a_dispatch_entry():
    assert sorted(kind.name for kind in engine._EVALUATORS) == sorted(KIND_NAMES)
    assert len(engine._EVALUATORS) == len(KIND_NAMES)


_UTC = timezone.utc
_PLUS2 = timezone(timedelta(hours=2))
# equal values as distinct objects: Decimals at different scales, one
# instant at two offsets
_TEXTS = ["a", "aa", "ab", "1", "12", "", "N/A", None]
_DECIMALS = [Decimal("1.0"), Decimal("1.00"), Decimal("1"), Decimal("2.5"),
             Decimal("2.50"), Decimal("-0"), Decimal("0.00"), Decimal("99.99"),
             None]
_INTS = [0, 1, 2, 3, 17, None]
_MAY1 = datetime(2024, 5, 1, tzinfo=_UTC)
_MAY1_PLUS2 = datetime(2024, 5, 1, 2, tzinfo=_PLUS2)
_MAR1 = datetime(2024, 3, 1, 6, 30, tzinfo=_UTC)
_STAMPS = [_MAY1, _MAY1_PLUS2, datetime(2024, 5, 1, tzinfo=_UTC), _MAR1, None]
_COLUMNS = (("t", "text"), ("d", "decimal"), ("i", "integer"),
            ("b", "boolean"), ("at", "timestamp"))
_ROW = st.tuples(st.sampled_from(_TEXTS), st.sampled_from(_DECIMALS),
                 st.sampled_from(_INTS), st.sampled_from([True, False, None]),
                 st.sampled_from(_STAMPS))
_WHERES = st.sampled_from([None, "i >= 2", "b = true", "d > 1", "t = 'a'",
                           "at < ts'2024-04-01T00:00:00Z'"])
# Row expressions for predicate and freshness condition: null operands,
# division and modulo by zero, three-valued logic, functions.
_ROW_EXPRS = ["i >= 2", "d / i > 1", "i % 2 = 0", "t = 'a' or i > 1",
              "not (b = true)", "len(t) >= 1 and d >= 1.0",
              "age_days(at) > 40", "in_set(t, 'a', 'aa')"]
# reference_time 2024-06-01T00:00:00Z: "31d" and "132090m" put the freshness
# cutoff exactly on the stamps 2024-05-01T00:00Z and 2024-03-01T06:30Z
_AGES = ["31d", "132090m", "1d", 45, 0]


def _entity(name: str, rows: list[tuple]) -> Entity:
    schema = EntitySchema(name, tuple(ColumnSchema(c, dtype, True)
                                      for c, dtype in _COLUMNS))
    return Entity(schema, {c: [row[j] for row in rows]
                           for j, (c, _) in enumerate(_COLUMNS)})


@st.composite
def _any_rule(draw, kind: str) -> dict:
    params: dict = {}
    column = draw(st.sampled_from([c for c, _ in _COLUMNS]))
    if kind in ("syntax", "format_class"):
        column = "t"
        pattern = draw(st.sampled_from(["^a+$", "^[0-9]+$", "^$", "^.*$"]))
        if kind == "syntax":
            params["pattern"] = pattern
        else:
            params["class"] = "c"
            if draw(st.booleans()):
                params["extra_targets"] = [["r", "t"]]
    elif kind == "range":
        column = draw(st.sampled_from(["d", "i", "at"]))
        pool = {"d": [0, 1, 1.0, 2.5, 17, 99.99], "i": [0, 1, 2, 17],
                "at": ["2024-03-01T06:30:00Z", "2024-05-01T00:00:00Z",
                       "2024-05-01T02:00:00+02:00"]}[column]
        lo, hi = sorted(draw(st.lists(st.sampled_from(pool), min_size=2,
                                      max_size=2)),
                        key=lambda v: str(v) if column == "at" else Decimal(str(v)))
        keep = draw(st.sampled_from(["min", "max", "both"]))
        if keep != "max":
            params["min"] = lo
        if keep != "min":
            params["max"] = hi
        params.update(min_inclusive=draw(st.booleans()),
                      max_inclusive=draw(st.booleans()))
    elif kind == "domain":
        column = draw(st.sampled_from(["t", "d"]))
        if draw(st.booleans()):
            params["reference"] = f"r.{column}"
        elif column == "t":
            params["allowed"] = draw(st.lists(st.sampled_from(_TEXTS[:-1]),
                                              min_size=1, max_size=4))
        else:
            params["allowed"] = draw(st.lists(st.sampled_from([1, 2.5, 0, 99.99]), min_size=1,
                                              max_size=3))
    elif kind == "no_default":
        column = draw(st.sampled_from(["t", "i"]))
        pool = ["N/A", "", "a"] if column == "t" else [0, 17]
        params["placeholders"] = draw(st.lists(st.sampled_from(pool), min_size=1,
                                               max_size=2))
    elif kind == "foreign_key":
        column = draw(st.sampled_from(["t", "d", "i", "at"]))
        params["referenced"] = f"r.{column}"
    elif kind == "unique":
        params["key"] = draw(st.lists(st.sampled_from([c for c, _ in _COLUMNS]),
                                      min_size=1, max_size=2, unique=True))
    elif kind == "predicate":
        params["expr"] = draw(st.sampled_from(_ROW_EXPRS))
    elif kind == "freshness":
        params.update(timestamp_column="at", max_age=draw(st.sampled_from(_AGES)))
        condition = draw(st.sampled_from([None] + _ROW_EXPRS))
        if condition is not None:
            params["condition"] = condition
    elif kind == "min_count":
        params["threshold"] = draw(st.sampled_from([0, 1, 3, 31]))
    elif kind == "frequency":
        params.update(timestamp_column="at",
                      max_gap=draw(st.sampled_from(["0d", "1d", "60d", 100])))
    extra = {}
    where = draw(_WHERES)
    if where is not None:
        extra["where"] = where
    columns = [] if KINDS[kind].arity == "none" else [column]
    return rule("x", "m", columns, KINDS[kind].properties[0].name, kind, params,
                skip_null=kind not in ("not_null", "no_default") and draw(st.booleans()),
                **extra)


def _row(t=None, d=None, i=None, b=None, at=None) -> tuple:
    return t, d, i, b, at


# Pinned cases run on every test run, ahead of the random ones.
@example(rule("x", "m", [], "CONV_ACT", "freshness",
              {"timestamp_column": "at", "max_age": "31d"}),
         "^a+$", [_row(at=_MAY1), _row(at=_MAY1_PLUS2), _row(at=_MAR1), _row()],
         [], 10**6)
@example(rule("x", "m", [], "CONV_ACT", "freshness",
              {"timestamp_column": "at", "max_age": "132090m",
               "condition": "i >= 2"}, where="b = true", skip_null=True),
         "^a+$", [_row(i=2, b=True, at=_MAR1), _row(i=3, b=True, at=None),
                  _row(i=None, b=True, at=_MAR1), _row(i=3, b=False, at=_MAY1),
                  _row(i=17, b=True, at=datetime(2024, 3, 1, 6, 29, tzinfo=_UTC)),
                  _row(i=0, b=True, at=_MAR1)],
         [], 3)
@example(rule("x", "m", [], "CONV_ACT", "freshness",
              {"timestamp_column": "at", "max_age": "31d",
               "condition": "t = 'a'"}),
         "^a+$", [_row(t="a", at=None), _row(t=None, at=_MAY1),
                  _row(t="a", at=_MAY1_PLUS2), _row(t="aa", at=_MAR1)],
         [], 10**6)
@example(rule("x", "m", [], "RIES_INCO", "unique", {"key": ["t"]}),
         "^a+$", [_row(t="a"), _row(t="aa"), _row(t="a"), _row(t=None),
                  _row(t="ab"), _row(t="a"), _row(t=None), _row(t="aa")],
         [], 10**6)
@example(rule("x", "m", [], "RIES_INCO", "unique", {"key": ["d", "at"]},
              skip_null=True),
         "^a+$", [_row(d=Decimal("1.0"), at=_MAY1), _row(d=Decimal("1.00"), at=_MAY1_PLUS2),
                  _row(d=Decimal("1"), at=_MAY1), _row(d=None, at=_MAY1),
                  _row(d=Decimal("2.5"), at=None), _row(d=Decimal("2.50"), at=_MAR1),
                  _row(d=Decimal("2.5"), at=_MAR1), _row(d=Decimal("1.0"), at=_MAR1)],
         [], 2)
@example(rule("x", "m", [], "CONS_SEMAN", "predicate", {"expr": "d / i > 1"}),
         "^a+$", [_row(d=Decimal("2.5"), i=0), _row(d=None, i=1), _row(d=Decimal("2.5"), i=None),
                  _row(d=Decimal("2.5"), i=2), _row(d=Decimal("2.5"), i=1)],
         [], 10**6)
@example(rule("x", "m", [], "CONS_SEMAN", "predicate", {"expr": "i % 2 = 0"},
              skip_null=True),
         "^a+$", [_row(i=0), _row(i=None), _row(i=2), _row(i=3)], [], 10**6)
@example(rule("x", "m", [], "COMP_FICH", "min_count", {"threshold": 0}),
         "^a+$", [], [], 10**6)
@example(rule("x", "m", [], "FREC_ACT", "frequency",
              {"timestamp_column": "at", "max_gap": "0d"}),
         "^a+$", [], [], 10**6)
@settings(max_examples=105, deadline=None)
@given(body=st.sampled_from(KIND_NAMES).flatmap(_any_rule),
       pattern=st.sampled_from(["^a+$", "^[0-9]*$"]),
       main=st.lists(_ROW, max_size=30), ref=st.lists(_ROW, max_size=10),
       cap=st.sampled_from([0, 1, 3, 10**6]))
def test_distinct_value_path_matches_per_row_reference(body, pattern, main, ref, cap):
    """Every kind's measure matches the per-row reference, its failing pairs
    in (entity, ordinal) order and capped."""
    rs = parse_ruleset(make_ruleset([body], format_classes={"c": pattern}))
    entities = {"m": _entity("m", main), "r": _entity("r", ref)}
    repo = Repository(SchemaCatalog(tuple(e.schema for e in entities.values())),
                      entities, "fp")
    r = rs.rules[0]
    with mock.patch.object(engine, "DEFAULT_FAILING_CAP", cap):
        measure = eval_rule(r, repo, rs)
    a, b, failing = reference_counts(r, repo, rs)
    failing.sort(key=lambda pair: (pair[0], -1 if pair[1] is None else pair[1]))
    assert measure == RuleMeasure(r.id, a, b, failing[:cap], len(failing))


# --------------------------------------------------------------------------
# parallel failure modes

def _die(*args):
    os._exit(1)


def _timed_out(signum, frame):
    raise TimeoutError("eval_all did not return within 10 s")


def test_dead_worker_raises_eval_error(person_snapshot, table3_ruleset,
                                       monkeypatch):
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "POOL_BREAK_EVEN_NS", 0)
    monkeypatch.setattr(engine, "eval_rule", _die)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, 10)
    started = time.monotonic()
    try:
        with pytest.raises(EvalError, match="worker process died .*r1"):
            eval_all(table3_ruleset, person_snapshot, jobs=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 10


def test_worker_eval_error_propagates(person_snapshot, monkeypatch):
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "POOL_BREAK_EVEN_NS", 0)
    rs = parse_ruleset(make_ruleset([
        rule("ok", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "x"}),
        rule("bad", "person", ["id"], "EXAC_SEMAN", "domain",
             {"reference": "ghost.id"})]))
    with pytest.raises(EvalError, match="ghost"):
        eval_all(rs, person_snapshot, jobs=2)


def test_parallel_batches_equal_sequential(person_snapshot, monkeypatch):
    # more rules than 4 x workers, so each task carries several rules
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "POOL_BREAK_EVEN_NS", 0)
    rs = parse_ruleset(make_ruleset(
        [rule(f"r{i}", "person", ["id"], "EXAC_SINT", "syntax",
              {"pattern": "^[0-9]{8}[A-Z]$" if i % 2 else "^1.*$"})
         for i in range(20)]))
    assert eval_all(rs, person_snapshot, jobs=2) == eval_all(rs, person_snapshot)


def test_workers_capped_at_usable_cpus(person_snapshot, table3_ruleset,
                                       monkeypatch):
    def no_fork(*args):
        raise AssertionError("workers forked although one CPU is usable")

    monkeypatch.setattr(engine, "usable_cpus", lambda: 1)
    monkeypatch.setattr(engine, "_eval_parallel", no_fork)
    assert eval_all(table3_ruleset, person_snapshot, jobs=4) == \
        eval_all(table3_ruleset, person_snapshot)


# --------------------------------------------------------------------------
# the pool decision and the longest-first schedule

def _sized_repository(catalog, rows: dict[str, int]) -> Repository:
    """Entities of the given row counts whose cells are all null: the cost
    estimate reads sizes only, so no data needs generating."""
    entities = {s.name: Entity(s, {c.name: [None] * rows[s.name] for c in s.columns})
                for s in catalog.entities}
    return Repository(catalog, entities, "fp")


def test_criterion_8_shape_estimates_above_break_even():
    """Criterion 8's shape, 1M rows under 4 syntax, 3 range and 3 domain
    rules, is worth a pool."""
    columns = [ColumnSchema("pk", "text", False)]
    columns += [ColumnSchema(f"ip{i}", "text", True) for i in range(4)]
    columns += [ColumnSchema(f"n{i}", "integer", True) for i in range(3)]
    columns += [ColumnSchema(f"c{i}", "text", True) for i in range(3)]
    catalog = SchemaCatalog((EntitySchema("big", tuple(columns), ("pk",)),))
    rs = parse_ruleset(make_ruleset(
        [rule(f"s{i}", "big", [f"ip{i}"], "EXAC_SINT", "syntax",
              {"pattern": "^[0-9.]+$"}) for i in range(4)]
        + [rule(f"r{i}", "big", [f"n{i}"], "RAN_EXAC", "range",
                {"min": 0, "max": 255}) for i in range(3)]
        + [rule(f"d{i}", "big", [f"c{i}"], "EXAC_SEMAN", "domain",
                {"allowed": ["RED", "GREEN", "BLUE"]}) for i in range(3)]))
    repo = _sized_repository(catalog, {"big": 1_000_000})
    assert sum(engine._serial_costs_ns(rs, repo)) >= engine.POOL_BREAK_EVEN_NS


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenarios_estimate_below_break_even(name):
    bundle = build_scenario(name)
    repo = _sized_repository(bundle.catalog,
                             {n: plan.rows for n, plan in bundle.spec.entities})
    assert sum(engine._serial_costs_ns(bundle.ruleset, repo)) < \
        engine.POOL_BREAK_EVEN_NS


def test_cost_estimate_independent_of_hash_seed():
    script = (
        "from dqeval import engine\n"
        "from dqeval.dataset import Entity, Repository\n"
        "from dqeval.scenarios import build_scenario\n"
        "b = build_scenario('registry-v1')\n"
        "rows = dict((n, p.rows) for n, p in b.spec.entities)\n"
        "repo = Repository(b.catalog, {s.name: Entity(s, {c.name: [None] * rows[s.name]"
        " for c in s.columns}) for s in b.catalog.entities}, 'fp')\n"
        "costs = engine._serial_costs_ns(b.ruleset, repo)\n"
        "print(costs, engine._longest_first(costs, 2))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for seed in ("0", "1", "4242"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src),
                                       PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@settings(max_examples=200, deadline=None)
@given(costs=st.lists(st.integers(0, 10**12), min_size=1, max_size=60),
       workers=st.integers(2, 4))
def test_longest_first_batches_cover_every_rule_once(costs, workers):
    batches = engine._longest_first(costs, workers)
    assert all(batches)
    assert sorted(i for batch in batches for i in batch) == list(range(len(costs)))
    order = [i for batch in batches for i in batch]
    assert [costs[i] for i in order] == sorted(costs, reverse=True)
    share = sum(costs) / (4 * workers)
    assert all(sum(costs[i] for i in batch) <= share
               for batch in batches if len(batch) > 1)


def test_longest_first_keeps_equal_rules_apart():
    """Criterion 8's ten equal rules on two workers: one rule per task, so no
    worker idles while the other runs a last batch of two."""
    assert engine._longest_first([65] * 10, 2) == [[i] for i in range(10)]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(len(ORACLE_RULES))), workers=st.integers(2, 4))
def test_pool_path_equals_serial_on_shuffled_rulesets(person_snapshot, order,
                                                      workers):
    rs = parse_ruleset(make_ruleset([ORACLE_RULES[i] for i in order],
                                    format_classes={"alnum": "^[0-9A-Za-z]+$"}))
    serial = eval_all(rs, person_snapshot)
    with mock.patch.object(engine, "usable_cpus", lambda: workers), \
            mock.patch.object(engine, "POOL_BREAK_EVEN_NS", 0):
        pooled = eval_all(rs, person_snapshot, jobs=workers)
    assert pooled == serial
    assert list(pooled.measures) == list(serial.measures)
