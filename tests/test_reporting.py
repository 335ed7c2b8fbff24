from __future__ import annotations

import dataclasses
import json
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import make_ruleset, rule
from dqeval import __version__
from dqeval.dataset import RowView
from dqeval.engine import eval_all
from dqeval.errors import FingerprintMismatch, ScopeMismatch
from dqeval.expr import evaluate, parse_expr
from dqeval.reporting import (build_improvement, build_report, compare,
                              parse_measures, parse_report, render_text,
                              serialize_comparison, serialize_measures,
                              serialize_report, write_improvement)
from dqeval.rules import parse_ruleset
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
