from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rules_reference
from conftest import make_ruleset, rule
from dqeval.errors import ParseError
from dqeval.rules import (_PARAMS, KINDS, parse_ruleset, serialize_ruleset,
                          validate_ruleset)
from dqeval.scenarios import build_scenario, scenario_names
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


@pytest.mark.parametrize("threshold", [True, False])
def test_min_count_boolean_threshold_rejected(threshold):
    with pytest.raises(ParseError, match="key 'threshold' has the wrong type"):
        parse_ruleset(make_ruleset([
            rule("1", "person", [], "COMP_REG", "min_count",
                 {"threshold": threshold})]))


def test_format_class_resolves_pattern():
    rs = parse_ruleset(make_ruleset(
        [rule("1", "person", ["id"], "CONS_FORM", "format_class",
              {"class": "code"})],
        format_classes={"code": "^[A-Z]+$"}))
    assert rs.rules[0].kind.pattern == "^[A-Z]+$"


@pytest.mark.parametrize("columns, extra, message", [
    (["id", "id"], [],
     "format_class target 'person.id' is repeated (rules[0] (id 'fc').columns)"),
    (["id", "ipaddress"], [["warning", "wid"], ["person", "ipaddress"]],
     "format_class target 'person.ipaddress' is repeated "
     "(rules[0] (id 'fc').params.extra_targets)"),
    (["id"], [["warning", "wid"], ["warning", "wid"]],
     "format_class target 'warning.wid' is repeated "
     "(rules[0] (id 'fc').params.extra_targets)"),
], ids=["columns", "own-extra-target", "other-extra-target"])
def test_format_class_repeated_target_rejected(columns, extra, message):
    # as with a unique key: a cell tested twice would be counted twice in B
    with pytest.raises(ParseError) as exc:
        parse_ruleset(make_ruleset([
            rule("fc", "person", columns, "CONS_FORM", "format_class",
                 {"class": "code", "extra_targets": extra})],
            format_classes={"code": "^[A-Z]+$"}))
    assert str(exc.value) == message


def test_malformed_json_has_location():
    with pytest.raises(ParseError) as exc:
        parse_ruleset("{\n  broken")
    assert exc.value.line == 2


def test_range_requires_a_bound():
    with pytest.raises(ParseError, match="at least one of min/max"):
        parse_ruleset(make_ruleset([
            rule("1", "person", ["age"], "RAN_EXAC", "range", {})]))


def test_range_min_above_max_rejected(person_catalog):
    rs = parse_ruleset(make_ruleset([
        rule("1", "person", ["age"], "RAN_EXAC", "range", {"min": 10, "max": 5})]))
    assert [str(d) for d in validate_ruleset(rs, person_catalog)] == \
        ["ERROR 1: range min must not exceed max"]


@pytest.mark.parametrize("column, bounds, expected", [
    ("balance", {"min": "9.0", "max": "10.5"}, []),
    ("balance", {"min": 5, "max": "10.5"}, []),
    ("balance", {"min": "10.5", "max": "9.0"}, ["ERROR r: range min must not exceed max"]),
    ("updated", {"min": "2024-01-01T01:00:00-02:00", "max": "2024-01-01T02:00:00Z"},
     ["ERROR r: range min must not exceed max"]),
    ("id", {"min": "b", "max": "a"}, ["ERROR r: range min must not exceed max"]),
], ids=["decimal-strings", "int-and-decimal-string", "decimal-strings-inverted",
        "timestamps-across-offsets", "text"])
def test_range_bounds_compare_as_typed_values(person_catalog, column, bounds, expected):
    """Bounds are compared after they take the column's type, not as written."""
    rs = parse_ruleset(make_ruleset([rule("r", "person", [column], "RAN_EXAC",
                                          "range", bounds)]))
    assert [str(d) for d in validate_ruleset(rs, person_catalog)] == expected


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
# rule counts

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
# round-trip properties

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
        prop = draw(st.sampled_from(KINDS[kind].properties)).value
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


@pytest.mark.parametrize("where", ["balance > 0.0000001", "balance * 0.50 >= 10.000",
                                   "balance % 0.000000000001 = 0"])
def test_small_decimal_literals_round_trip(where):
    rs = parse_ruleset(make_ruleset([
        rule("r", "person", ["balance"], "COMP_REG", "not_null", {}, where=where)]))
    assert parse_ruleset(serialize_ruleset(rs)) == rs
    assert json.loads(serialize_ruleset(rs))["rules"][0]["where"] == where


# --------------------------------------------------------------------------
# exact parse errors: message and context

_ARITY = {"syntax": "one", "range": "one", "domain": "one", "not_null": "one",
          "no_default": "one", "foreign_key": "one", "unique": "none",
          "min_count": "none", "predicate": "none", "freshness": "none",
          "frequency": "none", "format_class": "some"}

_ALLOWED_PROPERTIES = {
    "syntax": "EXAC_SINT, CONS_FORM",
    "range": "RAN_EXAC",
    "domain": "EXAC_SEMAN, CRED_VAL_DAT",
    "not_null": "COMP_REG, COMP_VAL_ESP",
    "no_default": "COMP_VAL_ESP",
    "unique": "FAL_COMP_FICH, RIES_INCO",
    "min_count": "COMP_FICH",
    "foreign_key": "INT_REF",
    "format_class": "CONS_FORM",
    "predicate": "CONS_SEMAN, CRED_VAL_DAT, CRED_FUEN, RIES_INCO, EXAC_SEMAN",
    "freshness": "CONV_ACT",
    "frequency": "FREC_ACT",
}


def _parse_error(kind: str, columns: list, params: dict, prop: str | None = None,
                 **extra) -> ParseError:
    prop = prop or KINDS[kind].properties[0].value
    with pytest.raises(ParseError) as exc:
        parse_ruleset(make_ruleset(
            [rule("r", "alpha", columns, prop, kind, params, **extra)],
            format_classes={"fc": "^[A-Z]+$"}))
    return exc.value


def test_unknown_kind_lists_every_kind():
    err = _parse_error("bogus", ["a"], {}, "EXAC_SINT")
    assert err.message == (
        "unknown rule kind 'bogus'; expected one of syntax, range, domain, "
        "not_null, no_default, unique, min_count, foreign_key, format_class, "
        "predicate, freshness, frequency")
    assert err.context == "rules[0] (id 'r').kind"


@pytest.mark.parametrize("kind", sorted(_ARITY))
def test_stray_param_names_kind(kind):
    _, columns, params = _KIND_BUILDERS[kind](1)
    err = _parse_error(kind, columns, {**params, "bogus": 1})
    assert err.message == f"unknown params for kind {kind!r}: bogus"
    assert err.context == "rules[0] (id 'r').params"


@pytest.mark.parametrize("kind, params, stray", [
    ("format_class", {"class": "fc", "pattern": "^x$"}, "pattern"),
    ("freshness", {"timestamp_column": "t", "max_age_days": 3}, "max_age_days"),
    ("frequency", {"timestamp_column": "t", "max_gap_days": 3}, "max_gap_days"),
    ("range", {"min": 1, "zeta": 0, "alpha": 0}, "alpha, zeta"),
    ("not_null", {"pattern": "x"}, "pattern"),
])
def test_field_names_are_not_params(kind, params, stray):
    columns = _KIND_BUILDERS[kind](1)[1]
    err = _parse_error(kind, columns, params)
    assert err.message == f"unknown params for kind {kind!r}: {stray}"
    assert err.context == "rules[0] (id 'r').params"


@pytest.mark.parametrize("kind", sorted(_ARITY))
def test_arity_errors(kind):
    _, columns, params = _KIND_BUILDERS[kind](1)
    arity = _ARITY[kind]
    cases = {"one": [[], ["a", "b"]], "none": [["a"]], "some": [[]]}[arity]
    expected = {
        "one": f"kind {kind!r} requires exactly one column",
        "none": f"kind {kind!r} takes no columns (targets come from params)",
        "some": f"{kind} requires at least one column",
    }[arity]
    for wrong in cases:
        err = _parse_error(kind, wrong, params)
        assert err.message == expected
        assert err.context == "rules[0] (id 'r').columns"


@pytest.mark.parametrize("kind", sorted(_ARITY))
def test_wrong_property_lists_allowed(kind):
    _, columns, params = _KIND_BUILDERS[kind](1)
    allowed = _ALLOWED_PROPERTIES[kind]
    prop = "COMP_FICH" if kind != "min_count" else "COMP_REG"
    err = _parse_error(kind, columns, params, prop)
    assert err.message == (f"kind {kind!r} cannot be categorized under property "
                           f"{prop}; allowed: {allowed}")
    assert err.context == "rules[0] (id 'r').property"
    assert ", ".join(p.value for p in KINDS[kind].properties) == allowed


@pytest.mark.parametrize("where, params, label", [
    ("age >", None, "where"),
    (None, {"expr": "a >"}, "params.expr"),
    (None, {"timestamp_column": "t", "max_age": 1, "condition": "a >"},
     "params.condition"),
])
def test_expression_errors_keep_position_and_context(where, params, label):
    kind = "syntax" if params is None else (
        "predicate" if "expr" in params else "freshness")
    columns = ["a"] if kind == "syntax" else []
    extra = {"where": where} if where else {}
    err = _parse_error(kind, columns, params or {"pattern": "a"}, **extra)
    assert err.context == f"rules[0] (id 'r').{label}"
    text = where or "a >"
    assert (err.line, err.column) == (None, len(text) + 1)
    assert err.message == f"unexpected end of expression in expression {text!r}"


# --------------------------------------------------------------------------
# exact validation diagnostics

_UNUSED_FC = "WARNING -: format class 'fc' is defined but never used"


@pytest.mark.parametrize("body, expected", [
    (rule("r", "person", ["id"], "EXAC_SEMAN", "domain", {"reference": "nobody.id"}),
     ["ERROR r: entity 'nobody' does not exist", _UNUSED_FC]),
    (rule("r", "person", ["id"], "EXAC_SEMAN", "domain", {"reference": "warning.nope"}),
     ["ERROR r: column warning.nope does not exist", _UNUSED_FC]),
    (rule("r", "person", ["age"], "EXAC_SEMAN", "domain", {"reference": "warning.wid"}),
     ["ERROR r: domain reference warning.wid has type text, not comparable with "
      "integer", _UNUSED_FC]),
    (rule("r", "person", ["age"], "INT_REF", "foreign_key", {"referenced": "nobody.id"}),
     ["ERROR r: entity 'nobody' does not exist", _UNUSED_FC]),
    (rule("r", "person", ["age"], "INT_REF", "foreign_key", {"referenced": "warning.x"}),
     ["ERROR r: column warning.x does not exist", _UNUSED_FC]),
    (rule("r", "person", ["age"], "INT_REF", "foreign_key", {"referenced": "warning.wid"}),
     ["ERROR r: foreign key targets text column, not comparable with integer",
      _UNUSED_FC]),
    (rule("r", "person", ["balance"], "INT_REF", "foreign_key",
          {"referenced": "person.age"}),
     [_UNUSED_FC]),
    (rule("r", "person", ["age"], "RAN_EXAC", "range", {"min": "x", "max": "y"}),
     ["ERROR r: range min: literal 'x' does not fit datatype integer",
      "ERROR r: range max: literal 'y' does not fit datatype integer", _UNUSED_FC]),
    (rule("r", "person", ["age"], "RAN_EXAC", "range", {"max": True}),
     ["ERROR r: range max: boolean literal True is not an integer", _UNUSED_FC]),
    (rule("r", "person", ["active"], "RAN_EXAC", "range", {"min": 1}),
     ["ERROR r: range rules cannot target boolean columns", _UNUSED_FC]),
    (rule("r", "person", ["age"], "EXAC_SEMAN", "domain",
          {"allowed": [1, "x", True, None]}),
     ["ERROR r: domain literal: literal 'x' does not fit datatype integer",
      "ERROR r: domain literal: boolean literal True is not an integer", _UNUSED_FC]),
    (rule("r", "person", ["age"], "COMP_VAL_ESP", "no_default",
          {"placeholders": ["N/A", 0, "n"]}),
     ["ERROR r: placeholder: literal 'N/A' does not fit datatype integer",
      "ERROR r: placeholder: literal 'n' does not fit datatype integer", _UNUSED_FC]),
    (rule("r", "person", ["id"], "CONS_FORM", "format_class",
          {"class": "fc", "extra_targets": [["nobody", "x"], ["warning", "nope"],
                                            ["person", "age"], ["warning", "type"]]},
          where="age > 1"),
     ["ERROR r: entity 'nobody' does not exist",
      "ERROR r: column warning.nope does not exist",
      "ERROR r: where (target warning): unknown column 'age'",
      "ERROR r: pattern rules require text columns; person.age is integer"]),
    (rule("r", "person", ["id"], "CONS_FORM", "format_class",
          {"class": "fc", "extra_targets": [["person", "ipaddress"], ["warning", "wid"],
                                            ["warning", "type"]]},
          where="nope > 1"),
     ["ERROR r: where: unknown column 'nope'",
      "ERROR r: where (target warning): unknown column 'nope'"]),
])
def test_validation_diagnostics_exact(person_catalog, body, expected):
    rs = parse_ruleset(make_ruleset([body], format_classes={"fc": "^[A-Z]+$"}))
    assert [str(d) for d in validate_ruleset(rs, person_catalog)] == expected


# --------------------------------------------------------------------------
# serialization equals the reference serializer

_VARIANTS = [
    ("syntax", ["col_a"], lambda i: {"pattern": "^[0-9]{4}$"}),
    ("range", ["col_n"], lambda i: {"min": i, "max": i + 10,
                                    "min_inclusive": i % 2 == 0}),
    ("range", ["col_n"], lambda i: {"max": i, "max_inclusive": False}),
    ("range", ["col_d"], lambda i: {"min": 1.5}),
    ("range", ["col_t"], lambda i: {"min": "2024-01-01T00:00:00Z"}),
    ("domain", ["col_a"], lambda i: {"allowed": ["x", None, i, True, 2.5]}),
    ("domain", ["col_a"], lambda i: {"reference": "parent.code"}),
    ("not_null", ["col_a"], lambda i: {}),
    ("no_default", ["col_a"], lambda i: {"placeholders": ["N/A", "", i]}),
    ("unique", [], lambda i: {"key": ["col_a"]}),
    ("unique", [], lambda i: {"key": ["col_a", "col_n"]}),
    ("min_count", [], lambda i: {"threshold": i}),
    ("foreign_key", ["col_a"], lambda i: {"referenced": "parent.code"}),
    ("format_class", ["col_a"], lambda i: {"class": "fc"}),
    ("format_class", ["col_a"], lambda i: {"class": "fc", "extra_targets": []}),
    ("format_class", ["col_a", "col_b"],
     lambda i: {"class": "fc", "extra_targets": [["other", "t"], ["x", "y"]]}),
    ("predicate", [], lambda i: {"expr": f"col_n > {i} and len(col_a) < 9"}),
    ("freshness", [], lambda i: {"timestamp_column": "col_t", "max_age": "36h"}),
    ("freshness", [], lambda i: {"timestamp_column": "col_t", "max_age": i,
                                 "condition": "col_n > 0 or col_a = 'x'"}),
    ("freshness", [], lambda i: {"timestamp_column": "col_t", "max_age": 2.5,
                                 "condition": None}),
    ("frequency", [], lambda i: {"timestamp_column": "col_t", "max_gap": "90m"}),
    ("frequency", [], lambda i: {"timestamp_column": "col_t", "max_gap": 7}),
]


@st.composite
def varied_rulesets(draw):
    rules = []
    for i in range(draw(st.integers(1, 12))):
        kind, columns, params = draw(st.sampled_from(_VARIANTS))
        body = rule(f"r{i}", draw(st.sampled_from(["alpha", "beta"])), columns,
                    draw(st.sampled_from(KINDS[kind].properties)).value, kind,
                    params(i))
        if draw(st.booleans()) and kind not in ("not_null", "no_default"):
            body["skip_null"] = True
        if draw(st.booleans()):
            body["where"] = "col_n >= 0"
        rules.append(body)
    return parse_ruleset(make_ruleset(rules, format_classes={"fc": "^[A-Z]+$"}))


@given(varied_rulesets())
def test_serialize_matches_reference(rs):
    assert serialize_ruleset(rs) == rules_reference.serialize_ruleset(rs)
    assert parse_ruleset(serialize_ruleset(rs)) == rs


def test_every_variant_kind_covered():
    assert {kind for kind, _, _ in _VARIANTS} == set(KINDS)


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_rulesets_serialize_like_reference(name):
    rs = build_scenario(name).ruleset
    assert serialize_ruleset(rs) == rules_reference.serialize_ruleset(rs)


def test_docs_kind_table_matches_kinds():
    text = (Path(__file__).resolve().parent.parent / "docs" / "file-formats.md"
            ).read_text(encoding="utf-8")
    table = text.split("### Kind parameters\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    arity = {"one": "exactly one", "none": "none", "some": "at least one"}
    assert [row[0] for row in rows] == [f"`{name}`" for name in KINDS]
    for (_, props, columns, params), kind in zip(rows, KINDS.values()):
        assert props == ", ".join(p.value for p in kind.properties)
        assert columns == arity[kind.arity]
        # the backticked names outside parenthesized explanations, in order
        documented = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", params))
        assert documented == [param for _, param, _ in _PARAMS[kind]]


# --------------------------------------------------------------------------
# the cells a rule tests and the column a membership check reads

_TARGET_CASES = [
    ("syntax", ["a"], {"pattern": "^x$"}, [("alpha", "a")], None),
    ("range", ["n"], {"min": 0}, [("alpha", "n")], None),
    ("domain", ["a"], {"allowed": ["x"]}, [("alpha", "a")], None),
    ("domain", ["a"], {"reference": "beta.code"}, [("alpha", "a")],
     ("beta", "code")),
    ("not_null", ["a"], {}, [("alpha", "a")], None),
    ("no_default", ["a"], {"placeholders": ["N/A"]}, [("alpha", "a")], None),
    ("unique", [], {"key": ["z", "a", "m"]},
     [("alpha", "z"), ("alpha", "a"), ("alpha", "m")], None),
    ("min_count", [], {"threshold": 3}, [], None),
    ("foreign_key", ["a"], {"referenced": "beta.code"}, [("alpha", "a")],
     ("beta", "code")),
    ("format_class", ["b", "a"],
     {"class": "fc", "extra_targets": [["beta", "t"], ["alpha", "c"]]},
     [("alpha", "b"), ("alpha", "a"), ("beta", "t"), ("alpha", "c")], None),
    ("predicate", [], {"expr": "z > 0 and len(a) < 9 or m = z"},
     [("alpha", "a"), ("alpha", "m"), ("alpha", "z")], None),
    ("freshness", [], {"timestamp_column": "t", "max_age": 1, "condition": "n > 0"},
     [("alpha", "t")], None),
    ("frequency", [], {"timestamp_column": "t", "max_gap": 1}, [("alpha", "t")],
     None),
]


@pytest.mark.parametrize("kind, columns, params, targets, reference", _TARGET_CASES,
                         ids=[c[0] + ("-reference" if c[4] and c[0] == "domain" else "")
                              for c in _TARGET_CASES])
def test_rule_targets_and_reference(kind, columns, params, targets, reference):
    """Targets keep the key's order, sort the predicate's columns, leave out
    `where` and freshness `condition`, and follow format_class's own columns
    with its extra targets."""
    rs = parse_ruleset(make_ruleset(
        [rule("r", "alpha", columns, KINDS[kind].properties[0].value, kind, params,
              where="w > 0")],
        format_classes={"fc": "^[A-Z]+$"}))
    assert rs.rules[0].targets == tuple(targets)
    assert rs.rules[0].reference == reference


def test_rule_target_cases_cover_every_kind():
    assert {case[0] for case in _TARGET_CASES} == set(KINDS)


def test_params_table():
    """Each kind's params, in the field order that serialize_ruleset writes
    them in, and so the ruleset fingerprint follows."""
    assert {k.name: v for k, v in _PARAMS.items()} == {
        "syntax": (("pattern", "pattern", False),),
        "range": (("min", "min", False), ("max", "max", False),
                  ("min_inclusive", "min_inclusive", False),
                  ("max_inclusive", "max_inclusive", False)),
        "domain": (("allowed", "allowed", False), ("reference", "reference", True)),
        "not_null": (),
        "no_default": (("placeholders", "placeholders", False),),
        "unique": (("key", "key", False),),
        "min_count": (("threshold", "threshold", False),),
        "foreign_key": (("referenced", "referenced", True),),
        "format_class": (("class_name", "class", False),
                         ("extra_targets", "extra_targets", False)),
        "predicate": (("expr", "expr", False),),
        "freshness": (("timestamp_column", "timestamp_column", False),
                      ("max_age_days", "max_age", False),
                      ("condition", "condition", False)),
        "frequency": (("timestamp_column", "timestamp_column", False),
                      ("max_gap_days", "max_gap", False)),
    }
