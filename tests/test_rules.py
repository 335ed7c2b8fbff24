from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import make_ruleset, rule
from dqeval.errors import ParseError
from dqeval.rules import (KIND_PROPERTIES, parse_ruleset, rules_by_property,
                          serialize_ruleset, validate_ruleset)
from dqeval.taxonomy import Characteristic, Property


def test_parse_table3_style_rule():
    rs = parse_ruleset(make_ruleset([
        rule("1", "person", ["id"], "EXAC_SINT", "syntax",
             {"pattern": "^[0-9]{8}[A-Z]$"})]))
    assert len(rs.rules) == 1
    assert rs.rules[0].kind.pattern == "^[0-9]{8}[A-Z]$"
    assert rs.rules[0].property is Property.EXAC_SINT


def test_empty_rules_rejected():
    with pytest.raises(ParseError, match="at least one rule"):
        parse_ruleset(make_ruleset([]))


def test_unknown_property_acronym_named():
    with pytest.raises(ParseError, match="XXXX"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["id"], "XXXX", "syntax", {"pattern": "a"})]))


def test_duplicate_rule_ids_rejected():
    with pytest.raises(ParseError, match="duplicate rule id"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "a"}),
            rule("1", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "b"})]))


def test_kind_property_incompatibility_rejected():
    with pytest.raises(ParseError, match="cannot be categorized"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["id"], "COMP_REG", "syntax", {"pattern": "a"})]))


def test_undefined_format_class_rejected():
    with pytest.raises(ParseError, match="undefined format class"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["id"], "CONS_FORM", "format_class",
                 {"class": "nope"})]))


def test_format_class_resolves_pattern():
    rs = parse_ruleset(make_ruleset(
        [rule("1", "person", ["id"], "CONS_FORM", "format_class",
              {"class": "code"})],
        format_classes={"code": "^[A-Z]+$"}))
    assert rs.rules[0].kind.pattern == "^[A-Z]+$"


def test_malformed_json_has_location():
    with pytest.raises(ParseError) as exc:
        parse_ruleset("{\n  broken")
    assert exc.value.line == 2


def test_range_requires_a_bound():
    with pytest.raises(ParseError, match="at least one of min/max"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["age"], "RAN_EXAC", "range", {})]))


def test_range_min_above_max_rejected():
    with pytest.raises(ParseError, match="min must not exceed max"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["age"], "RAN_EXAC", "range",
                 {"min": 10, "max": 5})]))


def test_unique_key_duplicates_rejected():
    with pytest.raises(ParseError, match="duplicate column"):
        parse_ruleset(make_ruleset([
            rule("1", "person", [], "FAL_COMP_FICH", "unique",
                 {"key": ["a", "a"]})]))


def test_skip_null_rejected_for_null_kinds():
    with pytest.raises(ParseError, match="skip_null"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["id"], "COMP_REG", "not_null", {},
                 skip_null=True)]))


def test_reference_time_is_mandatory():
    doc = json.loads(make_ruleset([
        rule("1", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "a"})]))
    del doc["reference_time"]
    with pytest.raises(ParseError, match="reference_time"):
        parse_ruleset(json.dumps(doc))


def test_bad_expression_where_reports_context():
    with pytest.raises(ParseError) as exc:
        parse_ruleset(make_ruleset([
            rule("1", "person", ["id"], "EXAC_SINT", "syntax",
                 {"pattern": "a"}, where="age >")]))
    assert "where" in str(exc.value)


# --------------------------------------------------------------------------
# validation against a catalog

def test_missing_column_is_one_error(person_catalog):
    rs = parse_ruleset(make_ruleset([
        rule("r", "person", ["foo"], "EXAC_SINT", "syntax", {"pattern": "a"})]))
    diags = validate_ruleset(rs, person_catalog)
    assert [d.level for d in diags] == ["ERROR"]
    assert "person.foo" in diags[0].message
    assert str(diags[0]).startswith("ERROR r: ")


def test_missing_foreign_entity_is_error(person_catalog):
    rs = parse_ruleset(make_ruleset([
        rule("r", "warning", ["person_id"], "INT_REF", "foreign_key",
             {"referenced": "nobody.id"})]))
    diags = validate_ruleset(rs, person_catalog)
    assert len(diags) == 1 and diags[0].level == "ERROR"


def test_fully_resolvable_ruleset_is_clean(person_catalog, table3_ruleset):
    assert validate_ruleset(table3_ruleset, person_catalog) == []


def test_expression_type_errors_are_diagnosed(person_catalog):
    rs = parse_ruleset(make_ruleset([
        rule("r", "person", [], "CONS_SEMAN", "predicate",
             {"expr": "id < age"})]))
    diags = validate_ruleset(rs, person_catalog)
    assert diags and diags[0].level == "ERROR"


def test_unused_format_class_is_warning(person_catalog, table3_ruleset):
    rs = parse_ruleset(make_ruleset(
        [rule("r", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "a"})],
        format_classes={"lonely": "^x$"}))
    diags = validate_ruleset(rs, person_catalog)
    assert [d.level for d in diags] == ["WARNING"]


def test_pattern_rules_need_text_columns(person_catalog):
    rs = parse_ruleset(make_ruleset([
        rule("r", "person", ["age"], "EXAC_SINT", "syntax", {"pattern": "1"})]))
    diags = validate_ruleset(rs, person_catalog)
    assert diags and "text" in diags[0].message


def test_freshness_needs_timestamp_column(person_catalog):
    rs = parse_ruleset(make_ruleset([
        rule("r", "person", [], "CONV_ACT", "freshness",
             {"timestamp_column": "age", "max_age": "30d"})]))
    diags = validate_ruleset(rs, person_catalog)
    assert diags and "timestamp" in diags[0].message


# --------------------------------------------------------------------------
# partitioning

def test_single_rule_partition(table3_ruleset):
    by_prop = rules_by_property(table3_ruleset)
    assert set(by_prop) == {Property.EXAC_SINT, Property.EXAC_SEMAN}


def test_document_order_preserved():
    rs = parse_ruleset(make_ruleset([
        rule("b", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "x"}),
        rule("a", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "y"})]))
    assert [r.id for r in rules_by_property(rs)[Property.EXAC_SINT]] == ["b", "a"]


def test_characteristic_rule_counts_match_published_split():
    # 89 Accuracy / 78 Completeness / 91 Consistency / 54 Credibility /
    # 63 Currentness rules, 375 total
    from dqeval.scenarios import build_scenario
    rs = build_scenario("travel-v1").ruleset
    counts = Counter(r.characteristic for r in rs.rules)
    assert counts == {
        Characteristic.ACCURACY: 89,
        Characteristic.COMPLETENESS: 78,
        Characteristic.CONSISTENCY: 91,
        Characteristic.CREDIBILITY: 54,
        Characteristic.CURRENTNESS: 63,
    }
    assert len(rs.rules) == 375


# --------------------------------------------------------------------------
# round trip + partition properties

_KIND_BUILDERS = {
    "syntax": lambda i: ("syntax", ["col_a"], {"pattern": "^[0-9]{4}$"}),
    "range": lambda i: ("range", ["col_n"], {"min": i, "max": i + 10,
                                             "min_inclusive": i % 2 == 0,
                                             "max_inclusive": True}),
    "domain": lambda i: ("domain", ["col_a"], {"allowed": ["x", "y", f"v{i}"]}),
    "not_null": lambda i: ("not_null", ["col_a"], {}),
    "no_default": lambda i: ("no_default", ["col_a"], {"placeholders": ["N/A"]}),
    "unique": lambda i: ("unique", [], {"key": ["col_a", "col_n"]}),
    "min_count": lambda i: ("min_count", [], {"threshold": i}),
    "foreign_key": lambda i: ("foreign_key", ["col_a"], {"referenced": "parent.code"}),
    "format_class": lambda i: ("format_class", ["col_a"],
                               {"class": "fc", "extra_targets": [["other", "t"]]}),
    "predicate": lambda i: ("predicate", [], {"expr": f"col_n > {i} and len(col_a) < 9"}),
    "freshness": lambda i: ("freshness", [], {"timestamp_column": "col_t",
                                              "max_age": "30d"}),
    "frequency": lambda i: ("frequency", [], {"timestamp_column": "col_t",
                                              "max_gap": 7}),
}


@st.composite
def rulesets(draw):
    n = draw(st.integers(1, 12))
    rules = []
    for i in range(n):
        kind = draw(st.sampled_from(sorted(_KIND_BUILDERS)))
        prop = draw(st.sampled_from(KIND_PROPERTIES[kind])).value
        kind_name, columns, params = _KIND_BUILDERS[kind](i)
        body = rule(f"r{i}", draw(st.sampled_from(["alpha", "beta"])), columns,
                    prop, kind_name, params)
        if draw(st.booleans()) and kind not in ("not_null", "no_default"):
            body["skip_null"] = True
        if draw(st.booleans()):
            body["where"] = "col_n >= 0"
        if draw(st.booleans()):
            body["description"] = f"rule number {i}"
        rules.append(body)
    return make_ruleset(rules, format_classes={"fc": "^[A-Z]+$"})


@given(rulesets())
def test_parse_serialize_identity(document):
    rs = parse_ruleset(document)
    assert parse_ruleset(serialize_ruleset(rs)) == rs


@given(rulesets())
def test_rules_by_property_is_a_partition(document):
    rs = parse_ruleset(document)
    by_prop = rules_by_property(rs)
    flattened = [r for rules in by_prop.values() for r in rules]
    assert sorted(r.id for r in flattened) == sorted(r.id for r in rs.rules)
    assert len(flattened) == len(rs.rules)
    for prop, bucket in by_prop.items():
        assert all(r.property is prop for r in bucket)
