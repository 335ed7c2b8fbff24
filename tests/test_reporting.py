from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dumps, make_ruleset, rule
from dqeval import __version__
from dqeval.dataset import (ColumnSchema, Entity, EntitySchema, Repository, RowView,
                            SchemaCatalog)
from dqeval.engine import eval_all
from dqeval.errors import FingerprintMismatch, ScopeMismatch
from dqeval.expr import evaluate, parse_expr, typecheck
from dqeval.reporting import (build_improvement, build_report, compare,
                              parse_measures, parse_report, render_text,
                              serialize_comparison, serialize_measures,
                              serialize_report, write_improvement)
from dqeval.rules import parse_ruleset, validate_ruleset
from dqeval.scoring import default_config, score_all
from dqeval.taxonomy import Characteristic, Property


@pytest.fixture
def table3_report(person_snapshot, table3_ruleset):
    ms = eval_all(table3_ruleset, person_snapshot)
    result = score_all(ms, table3_ruleset, default_config())
    report = build_report(table3_ruleset, person_snapshot, ms, result,
                          default_config(), __version__)
    return report, ms


def test_report_carries_fingerprints_and_scope(table3_report, person_snapshot):
    report, ms = table3_report
    assert report.metadata.snapshot_fingerprint == person_snapshot.fingerprint
    assert report.metadata.ruleset_fingerprint == ms.ruleset_fingerprint
    assert dict(report.entity_rows) == {"person": 4, "warning": 5}
    assert dict(report.rule_counts)[Characteristic.ACCURACY] == 2


def test_report_measures_render_ratio_4dp(table3_report):
    report, _ = table3_report
    by_id = {m.rule_id: m for m in report.measures}
    assert by_id["r1"].ratio == Decimal("0.7500")
    assert by_id["r3"].ratio == Decimal("0.8000")


def test_report_roundtrip(table3_report):
    report, _ = table3_report
    assert parse_report(serialize_report(report)) == report


def test_canonical_serialization_is_stable(person_snapshot, table3_ruleset):
    def build():
        ms = eval_all(table3_ruleset, person_snapshot)
        result = score_all(ms, table3_ruleset, default_config())
        report = build_report(table3_ruleset, person_snapshot, ms, result,
                              default_config(), __version__)
        return serialize_report(report)
    assert build() == build()


def test_selector_expressions(table3_report):
    report, _ = table3_report
    by_id = {m.rule_id: m for m in report.measures}
    assert by_id["r1"].selector == "not regex_match(id, '^[0-9]{8}[A-Z]$')"
    assert by_id["r3"].selector == \
        "not in_set(type, 'IT GENERAL', 'SUPERCOMPUTATION', 'HR')"


def test_selector_null_for_cross_row_kinds(person_snapshot):
    rs = parse_ruleset(make_ruleset([
        rule("u", "person", [], "FAL_COMP_FICH", "unique", {"key": ["id"]}),
        rule("n", "person", ["ipaddress"], "COMP_REG", "not_null", {}),
    ]))
    ms = eval_all(rs, person_snapshot)
    report = build_report(rs, person_snapshot, ms, score_all(ms, rs),
                          default_config(), __version__)
    assert all(m.selector is None for m in report.measures)


def test_measures_document_roundtrip(table3_report):
    _, ms = table3_report
    parsed = parse_measures(serialize_measures(ms))
    assert list(parsed.measures) == list(ms.measures)
    assert parsed.measures["r1"].failing_total == 1
    assert parsed.measures["r1"].failing[0].row == 2


# --------------------------------------------------------------------------
# improvement manifests

def test_single_failure_manifest(table3_report, tmp_path: Path):
    report, ms = table3_report
    manifests = build_improvement(report, ms)
    assert [(m.entity, m.property) for m in manifests] == [
        ("person", Property.EXAC_SINT), ("warning", Property.EXAC_SEMAN)]
    person_manifest = manifests[0]
    assert person_manifest.rules[0].records[0].row == 2
    assert dict(person_manifest.rules[0].records[0].key) == {"id": "1234"}

    paths = write_improvement(manifests, report, tmp_path / "out")
    assert paths == ["person.EXAC_SINT.manifest.json",
                     "warning.EXAC_SEMAN.manifest.json"]
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert len(index["manifests"]) == 2
    doc = json.loads((tmp_path / "out" / paths[0]).read_text())
    assert doc["rules"][0]["records"] == [{"row": 2, "key": {"id": "1234"}}]


def test_zero_failures_empty_manifest_set(person_snapshot, tmp_path: Path):
    rs = parse_ruleset(make_ruleset([
        rule("ok", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": ".*"})]))
    ms = eval_all(rs, person_snapshot)
    report = build_report(rs, person_snapshot, ms, score_all(ms, rs),
                          default_config(), __version__)
    manifests = build_improvement(report, ms)
    assert manifests == []
    write_improvement(manifests, report, tmp_path / "out")
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert index["manifests"] == []


def test_two_entities_same_property_two_manifests(person_snapshot):
    rs = parse_ruleset(make_ruleset([
        rule("a", "person", ["id"], "EXAC_SINT", "syntax",
             {"pattern": "^[0-9]{8}[A-Z]$"}),
        rule("b", "warning", ["type"], "EXAC_SINT", "syntax",
             {"pattern": "^[A-Z ]+$"}),
    ]))
    ms = eval_all(rs, person_snapshot)
    report = build_report(rs, person_snapshot, ms, score_all(ms, rs),
                          default_config(), __version__)
    manifests = build_improvement(report, ms)
    assert [(m.entity, m.property.value) for m in manifests] == [
        ("person", "EXAC_SINT"), ("warning", "EXAC_SINT")]


def _selected_rows(selector: str, entity, rs) -> set[int]:
    expr = parse_expr(selector)
    return {i for i in range(entity.n_rows)
            if evaluate(expr, RowView(entity, i), rs.reference_time) is True}


@pytest.mark.parametrize("extra, selectors", [
    ([["person", "ipaddress"]],
     {"person": "not regex_match(id, '^[0-9]{8}[A-Z]$') or "
                "not regex_match(ipaddress, '^[0-9]{8}[A-Z]$')"}),
    ([["warning", "wid"]],
     {"person": "not regex_match(id, '^[0-9]{8}[A-Z]$')", "warning": None}),
], ids=["own-entity", "other-entity"])
def test_format_class_manifest_selectors(person_snapshot, extra, selectors):
    """A format_class selector tests every target column of the rule's entity
    once and selects exactly the rows that entity's manifest lists; the
    manifests of other entities carry no selector."""
    rs = parse_ruleset(make_ruleset(
        [rule("fc", "person", ["id"], "CONS_FORM", "format_class",
              {"class": "ids", "extra_targets": extra})],
        format_classes={"ids": "^[0-9]{8}[A-Z]$"}))
    ms = eval_all(rs, person_snapshot)
    report = build_report(rs, person_snapshot, ms, score_all(ms, rs),
                          default_config(), __version__)
    manifests = build_improvement(report, ms)
    assert {m.entity: m.rules[0].selector for m in manifests} == selectors
    for m in manifests:
        if m.rules[0].selector is not None:
            entity = person_snapshot.entities[m.entity]
            assert _selected_rows(m.rules[0].selector, entity, rs) == \
                {ref.row for ref in m.rules[0].records}


# --------------------------------------------------------------------------
# selectors of literal-carrying rules: literals typed for the column, then
# written as expression text

def _ts(hour: int, minute: int = 0) -> datetime:
    return datetime(2024, 1, 1, hour, minute, tzinfo=timezone.utc)


_CELLS = {  # column: (datatype, cells)
    "i": ("integer", [None, -3, 0, 5, 10, 150]),
    "x": ("decimal", [None, Decimal("0.0000001"), Decimal("0.5"), Decimal("9.0"),
                      Decimal("10.50"), Decimal("150"), Decimal("-2")]),
    "t": ("timestamp", [None, _ts(0) - timedelta(hours=1), _ts(0), _ts(1, 30), _ts(3)]),
    "s": ("text", [None, "", "N/A", "a", "b", "it's"]),
}
_ROWS = max(len(cells) for _, cells in _CELLS.values())
_SCHEMA = EntitySchema("m", tuple(ColumnSchema(c, t, True) for c, (t, _) in _CELLS.items()))
_REPO = Repository(
    SchemaCatalog((_SCHEMA,)),
    {"m": Entity(_SCHEMA, {c: (cells * _ROWS)[:_ROWS] for c, (_, cells) in _CELLS.items()})},
    "fingerprint")


def _parsed(body: dict):
    """A ruleset of one rule, its literals kept exact: a JSON `1e-7` stays
    Decimal('1E-7'), as the document loader reads it."""
    return parse_ruleset(dumps(dict(json.loads(make_ruleset([])), rules=[body])))


_PROPERTY = {"range": "RAN_EXAC", "domain": "EXAC_SEMAN", "no_default": "COMP_VAL_ESP",
             "freshness": "CONV_ACT"}


def _selector_and_measure(rs):
    ms = eval_all(rs, _REPO)
    report = build_report(rs, _REPO, ms, score_all(ms, rs), default_config(), __version__)
    return report.measures[0].selector, ms.measures[rs.rules[0].id]


@pytest.mark.parametrize("column, kind, params, selector", [
    ("x", "range", {"min": "0.5", "max": "10.5"}, "not (x >= 0.5 and x <= 10.5)"),
    ("x", "range", {"min": Decimal("1e-7")}, "not (x >= 0.0000001)"),
    ("x", "range", {"max": Decimal("1.5E+2")}, "not (x <= 150)"),
    ("i", "range", {"max": Decimal("5.0")}, "not (i <= 5)"),
    ("t", "range", {"min": "2024-01-01T01:00:00+01:00"},
     "not (t >= ts'2024-01-01T00:00:00Z')"),
    ("x", "domain", {"allowed": ["9.0", 5, None]}, "not in_set(x, 9.0, 5, null)"),
    ("x", "no_default", {"placeholders": [Decimal("-2.00")]}, "in_set(x, -2.00)"),
    (None, "freshness", {"timestamp_column": "t", "max_age": Decimal("1e-8")},
     "age_days(t) > 0.00000001"),
    (None, "freshness", {"timestamp_column": "t", "max_age": Decimal("30.0")},
     "age_days(t) > 30.0"),
    (None, "freshness", {"timestamp_column": "t", "max_age": "12h"}, "age_days(t) > 0.5"),
], ids=["decimal-strings", "small-json-decimal", "exponent-json-decimal",
        "integral-decimal-on-integer", "timestamp-offset", "domain", "no-default",
        "small-max-age", "max-age-trailing-zero", "max-age-hours"])
def test_literal_selectors_exact(column, kind, params, selector):
    body = rule("r", "m", [column] if column else [], _PROPERTY[kind], kind, params)
    assert _selector_and_measure(_parsed(body))[0] == selector


def _offset_texts(dt: datetime):
    """RFC 3339 texts of one instant: Z, and at non-UTC offsets."""
    return st.sampled_from([-330, -120, 60, 345, 840]).map(
        lambda minutes: dt.astimezone(timezone(timedelta(minutes=minutes))).isoformat()
    ) | st.just(dt.strftime("%Y-%m-%dT%H:%M:%SZ"))


_LITERALS = {  # every form the documents accept for a column of each datatype
    "integer": st.integers(-5, 200) | st.sampled_from(
        ["5.0", "1e1", "1.5E+2", "0.0", "-3.00", "1E+2"]).map(Decimal),  # JSON numbers
    "decimal": st.integers(-5, 200)
    | st.sampled_from(["1e-7", "1E-8", "0.5", "10.50", "9.0", "1.5e2", "150.000",
                       "-2.0", "0.00000010", "2E-1"]).map(Decimal)
    | st.sampled_from(["0.0000001", "0.5", "10.5", "9.0", "150", "-2", "10.50",
                       "0.000000000001"]),
    "timestamp": st.sampled_from(_CELLS["t"][1][1:] + [_ts(2, 15)]).flatmap(_offset_texts),
    "text": st.sampled_from(["", "N/A", "a", "b", "ab", "it's"]),
}


@st.composite
def literal_rules(draw):
    column = draw(st.sampled_from(sorted(_CELLS)))
    literal = _LITERALS[_CELLS[column][0]]
    kind = draw(st.sampled_from(["range", "domain", "no_default"]))
    if kind == "range":
        bounds = draw(st.sampled_from([("min",), ("max",), ("min", "max")]))
        params = {b: draw(literal) for b in bounds}
        params.update({f"{b}_inclusive": draw(st.booleans()) for b in bounds})
    else:
        members = draw(st.lists(literal | st.none(), min_size=1, max_size=4))
        params = {"allowed" if kind == "domain" else "placeholders": members}
    return rule("r", "m", [column], _PROPERTY[kind], kind, params)


@settings(max_examples=300, deadline=None)
@given(literal_rules())
def test_selector_selects_failing_non_null_rows(body):
    """Whatever form a literal is written in, the selector parses, typechecks to
    boolean against its entity, and selects exactly the failing rows whose
    tested value is not null (null cells fail but no comparison selects them)."""
    rs = _parsed(body)
    assert [str(d) for d in validate_ruleset(rs, _REPO.catalog)
            if d.message != "range min must not exceed max"] == []
    selector, measure = _selector_and_measure(rs)
    expr = parse_expr(selector)
    assert typecheck(expr, {c: t for c, (t, _) in _CELLS.items()}) == "boolean"
    cells = _REPO.entities["m"].column(body["columns"][0])
    assert _selected_rows(selector, _REPO.entities["m"], rs) == \
        {ref.row for ref in measure.failing if cells[ref.row] is not None}


def test_fingerprint_mismatch_rejected(table3_report):
    report, ms = table3_report
    tampered = dataclasses.replace(ms, snapshot_fingerprint="deadbeef")
    with pytest.raises(FingerprintMismatch):
        build_improvement(report, tampered)


def test_manifest_ref_totals_match_measures(table3_report):
    report, ms = table3_report
    manifests = build_improvement(report, ms)
    listed = sum(len(r.records) for m in manifests for r in m.rules)
    expected = sum(m.b - m.a for m in ms if m.b > 0)
    assert listed == expected


# --------------------------------------------------------------------------
# comparison

def _report_with_levels(person_snapshot, table3_ruleset, version: str,
                        degrade: bool):
    ms = eval_all(table3_ruleset, person_snapshot)
    if degrade:
        measures = {rid: dataclasses.replace(m, a=m.a // 4)
                    for rid, m in ms.measures.items()}
        ms = dataclasses.replace(ms, measures=measures)
    rs = dataclasses.replace(table3_ruleset, version=version)
    result = score_all(ms, rs, default_config())
    return build_report(rs, person_snapshot, ms, result, default_config(),
                        __version__)


def test_compare_reports_deltas(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    cmp_result = compare(first, second)
    d = {p.property: p for p in cmp_result.properties}
    assert d[Property.EXAC_SINT].value_delta == Decimal("75.0000")  # 0 -> 75
    assert d[Property.EXAC_SINT].level_delta == 4 - 1
    assert not cmp_result.regression
    assert cmp_result.verdict_first is False and cmp_result.verdict_second is True


def test_compare_to_itself_is_all_zero(table3_report):
    report, _ = table3_report
    cmp_result = compare(report, report)
    assert all(p.value_delta == 0 and p.level_delta == 0
               for p in cmp_result.properties)
    assert all(c.level_delta == 0 for c in cmp_result.characteristics)
    assert not cmp_result.regression


def test_compare_antisymmetry(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    forward = compare(first, second)
    backward = compare(second, first)
    for f, b in zip(forward.properties, backward.properties):
        assert f.value_delta == -b.value_delta
        assert f.level_delta == -b.level_delta
    assert backward.regression  # degradation direction flags regression


def test_compare_missing_property_listed_removed(person_snapshot, table3_ruleset):
    full = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=False)
    rs_one = dataclasses.replace(table3_ruleset, rules=table3_ruleset.rules[:1],
                                 version="2")
    ms = eval_all(rs_one, person_snapshot)
    narrow = build_report(rs_one, person_snapshot, ms, score_all(ms, rs_one),
                          default_config(), __version__)
    cmp_result = compare(full, narrow)
    assert cmp_result.removed_properties == (Property.EXAC_SEMAN,)
    assert [p.property for p in cmp_result.properties] == [Property.EXAC_SINT]


def test_compare_different_rulesets_rejected(table3_report, person_snapshot):
    report, _ = table3_report
    other = dataclasses.replace(
        report, metadata=dataclasses.replace(report.metadata,
                                             ruleset_name="other-rules"))
    with pytest.raises(ScopeMismatch):
        compare(report, other)


def test_comparison_serialization_stable(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    assert serialize_comparison(compare(first, second)) == \
        serialize_comparison(compare(first, second))


# --------------------------------------------------------------------------
# text rendering

def test_eligible_verdict_line(table3_report):
    report, _ = table3_report
    text = render_text(report)
    assert "VERDICT: ELIGIBLE (min level 3 rule)" in text


def test_not_eligible_lists_characteristics(person_snapshot, table3_ruleset):
    report = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    text = render_text(report)
    assert "VERDICT: NOT ELIGIBLE (min level 3 rule)" in text
    assert "below threshold: Accuracy at level 2" in text


def test_comparison_renders_before_after(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    text = render_text(compare(first, second))
    assert "before" in text and "after" in text
    assert "NOT ELIGIBLE -> ELIGIBLE" in text
