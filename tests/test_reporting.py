from __future__ import annotations

import json
import re
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import canonical_reference as reference
from conftest import dumps, make_ruleset, reference_record_writer, rule
from dqeval import __version__, canonical, engine
from dqeval.dataset import (ColumnSchema, Entity, EntitySchema, Repository, RowView,
                            SchemaCatalog, load_snapshot)
from dqeval.engine import eval_all
from dqeval.errors import FingerprintMismatch, ParseError, ScopeMismatch
from dqeval.expr import evaluate, parse_expr, typecheck
from dqeval.host import write_atomic
from dqeval.reporting import (build_improvement, build_report, compare,
                              parse_measures, parse_report, record_writer,
                              render_comparison, render_report,
                              serialize_measures, serialize_report,
                              write_improvement)
from dqeval.rules import parse_ruleset, validate_ruleset
from dqeval.scenarios import build_scenario
from dqeval.scoring import default_config, score_all
from dqeval.synthkit import generate
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
    assert report["metadata"]["snapshot_fingerprint"] == person_snapshot.fingerprint
    assert report["metadata"]["ruleset_fingerprint"] == ms.ruleset_fingerprint
    assert report["scope"]["row_counts"] == {"person": 4, "warning": 5}
    assert report["scope"]["rule_counts"]["Accuracy"] == 2


def test_report_measures_render_ratio_4dp(table3_report):
    report, _ = table3_report
    by_id = {m["rule_id"]: m for m in report["measures"]}
    assert by_id["r1"]["ratio"] == Decimal("0.7500")
    assert by_id["r3"]["ratio"] == Decimal("0.8000")


def test_report_roundtrip(table3_report):
    report, _ = table3_report
    assert parse_report(serialize_report(report)) == report


@pytest.fixture(scope="module")
def travel_report(tmp_path_factory) -> tuple[str, dict]:
    """travel-v1's report text and its decoded document: not eligible, with
    strengths, weaknesses and reasons, so every kind of derived figure is in it."""
    bundle = build_scenario("travel-v1")
    out = tmp_path_factory.mktemp("travel")
    generate(bundle.spec, bundle.catalog, bundle.ruleset, out)
    repo = load_snapshot(out, bundle.catalog)
    ms = eval_all(bundle.ruleset, repo, jobs=1)
    text = serialize_report(build_report(bundle.ruleset, repo, ms,
                                         score_all(ms, bundle.ruleset),
                                         default_config(), __version__))
    assert serialize_report(parse_report(text)) == text
    return text, canonical.loads(text)


def _derived_paths(doc: dict) -> list[tuple]:
    """The path of every figure a report derives from its measures: each
    ratio, every scope member but the row counts, and everything under
    properties, characteristics and verdict, containers included."""
    paths = [("measures", i, "ratio") for i in range(len(doc["measures"]))]

    def walk(node, path):
        paths.append(path)
        members = (node.items() if type(node) is dict
                   else enumerate(node) if type(node) is list else ())
        for key, child in members:
            walk(child, path + (key,))
    for key in ("entity_count", "rule_counts", "total_rules"):
        walk(doc["scope"][key], ("scope", key))
    for key in ("properties", "characteristics", "verdict"):
        walk(doc[key], (key,))
    return paths


def _near(value) -> list:
    """Values that equal `value` in Python but not as JSON text, or sit next
    to it: a bool beside its int, an int beside its Decimal, another
    exponent of one Decimal."""
    if type(value) is bool:
        return [not value, int(value), None]
    if type(value) is int:
        return [value + 1, value - 1, Decimal(value), Decimal(value).quantize(
            Decimal("0.0001")), bool(value), str(value)]
    if type(value) is Decimal:
        return [value + Decimal("0.0001"), value.normalize(), value.quantize(
            Decimal("0.01")), int(value), str(value)]
    return [None]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.decimals(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
    | st.sampled_from([p.value for p in Property] + [c.value for c in Characteristic]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_changed_derived_figure_is_refused(travel_report, data):
    """Replace any one derived figure of a valid report with another JSON
    value, and parse_report refuses the document: a report is believed only
    for what its measures give."""
    text, doc = travel_report
    path = data.draw(st.sampled_from(_derived_paths(doc)), label="path")
    place = doc
    for step in path[:-1]:
        place = place[step]
    old = place[path[-1]]
    new = data.draw(st.one_of(st.sampled_from(_near(old)), _JSON_VALUES).filter(
        lambda v: canonical.dumps(v) != canonical.dumps(old)), label="new")
    place[path[-1]] = new
    try:
        forged = canonical.dumps(doc)
    finally:
        place[path[-1]] = old
    with pytest.raises(ParseError, match="^invalid report document: "):
        parse_report(forged)


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
    by_id = {m["rule_id"]: m for m in report["measures"]}
    assert by_id["r1"]["selector"] == "not regex_match(id, '^[0-9]{8}[A-Z]$')"
    assert by_id["r3"]["selector"] == \
        "not in_set(type, 'IT GENERAL', 'SUPERCOMPUTATION', 'HR')"


def test_selector_null_for_cross_row_kinds(person_snapshot):
    rs = parse_ruleset(make_ruleset([
        rule("u", "person", [], "FAL_COMP_FICH", "unique", {"key": ["id"]}),
        rule("n", "person", ["ipaddress"], "COMP_REG", "not_null", {}),
    ]))
    ms = eval_all(rs, person_snapshot)
    report = build_report(rs, person_snapshot, ms, score_all(ms, rs),
                          default_config(), __version__)
    assert all(m["selector"] is None for m in report["measures"])


def test_measures_document_roundtrip(table3_report):
    _, ms = table3_report
    parsed = parse_measures(serialize_measures(ms))
    assert list(parsed.measures) == list(ms.measures)
    assert parsed.measures["r1"].failing_total == 1
    assert parsed.measures["r1"].failing == [("person", 2)]
    assert parsed.record_key("person", 2) == {"id": "1234"}


# --------------------------------------------------------------------------
# failing records: the record writer against the reference emitter

_KEY_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é", "日本語",
             "\U0001f600", 'say "hi"', "tab\there", ""]
_KEY_VALUES = st.one_of(
    st.text(), st.sampled_from(_KEY_TEXT),
    st.integers(), st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.sampled_from([Decimal("1E+2"), Decimal("-1.5E-7"), Decimal("0E-7"),
                     Decimal("-0"), Decimal("1.50")]),
    st.datetimes(min_value=datetime(1900, 1, 2), max_value=datetime(9998, 12, 30),
                 timezones=st.sampled_from([
                     timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                     timezone(timedelta(hours=-8))])),
    st.booleans(), st.none())


@st.composite
def _failing_lists(draw):
    """(record_key, failing list): rows of a few entities with keys of every
    value type, some rows repeated, entity-level records mixed in."""
    entities = draw(st.lists(st.sampled_from(["a", "é\"q", "\u2028"]),
                             min_size=1, max_size=3, unique=True))
    names = {e: draw(st.lists(st.sampled_from(["id", "k\"2", "ñ", "x"]),
                              max_size=3, unique=True)) for e in entities}
    pairs = draw(st.lists(st.tuples(st.sampled_from(entities), st.one_of(
        st.none(), st.integers(0, 2 ** 40))), max_size=25))
    keys = {(e, row): {n: draw(_KEY_VALUES) for n in names[e]}
            for e, row in pairs if row is not None}
    return (lambda entity, row: keys[entity, row]), pairs


@settings(max_examples=300, deadline=None)
@given(_failing_lists(), st.integers(0, 5), st.booleans())
def test_record_writer_matches_reference_emitter(failing, level, with_entity):
    record_key, pairs = failing
    write = record_writer(record_key, level, with_entity)
    old_shape = reference_record_writer(record_key, level, with_entity)
    ours, theirs = write(pairs), old_shape(pairs)
    for _ in range(level):  # the emitter then writes the list at `level`
        ours, theirs = [ours], [theirs]
    assert canonical.dumps(ours) == reference.dumps(theirs)
    if level == 0:
        assert write(pairs) == reference.dumps(old_shape(pairs))[:-1]


_KEYED = EntitySchema("k", (
    ColumnSchema("t", "text", True), ColumnSchema("i", "integer", True),
    ColumnSchema("d", "decimal", True), ColumnSchema("b", "boolean", True),
    ColumnSchema("at", "timestamp", True), ColumnSchema("v", "integer", True)),
    key=("t", "i", "d", "b", "at"))
_KEYED_ROWS = st.lists(st.fixed_dictionaries({
    "t": st.one_of(st.none(), st.text(max_size=4), st.sampled_from(_KEY_TEXT)),
    "i": st.one_of(st.none(), st.integers(-(10 ** 30), 10 ** 30)),
    "d": st.one_of(st.none(), st.decimals(allow_nan=False, allow_infinity=False)),
    "b": st.one_of(st.none(), st.booleans()),
    "at": st.one_of(st.none(), st.datetimes(
        min_value=datetime(1900, 1, 2), max_value=datetime(9998, 12, 30),
        timezones=st.just(timezone.utc))),
    "v": st.one_of(st.none(), st.integers(0, 3))}), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_KEYED_ROWS, st.sampled_from([0, 1, 2, 5, 10 ** 6]))
def test_measures_document_matches_reference_emitter(rows, cap):
    """measures.json of an evaluated set, with DEFAULT_FAILING_CAP patched
    small, is the reference emitter's text of the old dict shape with keys
    read from the rows; parsing it and writing it again gives the same text."""
    entity = Entity(_KEYED, {c.name: [r[c.name] for r in rows]
                             for c in _KEYED.columns})
    repo = Repository(SchemaCatalog((_KEYED,)), {"k": entity}, "fp")
    rs = parse_ruleset(make_ruleset([
        rule("nn", "k", ["v"], "COMP_REG", "not_null"),
        rule("rg", "k", ["v"], "RAN_EXAC", "range", {"min": 2}),
        rule("mc", "k", [], "COMP_FICH", "min_count", {"threshold": 5}),
        rule("ok", "k", ["v"], "RAN_EXAC", "range", {"min": 0}, skip_null=True)]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "DEFAULT_FAILING_CAP", cap)
        ms = eval_all(rs, repo)
    text = serialize_measures(ms)
    write = reference_record_writer(
        lambda e, row: {c: entity.column(c)[row] for c in _KEYED.key}, 3, True)
    assert text == reference.dumps({
        "ruleset_fingerprint": ms.ruleset_fingerprint,
        "snapshot_fingerprint": ms.snapshot_fingerprint,
        "measures": [{"rule_id": m.rule_id, "a": m.a, "b": m.b,
                      "failing_total": m.failing_total,
                      "failing": write(m.failing)} for m in ms]})
    assert all(len(m.failing) == min(m.failing_total, cap) for m in ms)
    assert serialize_measures(parse_measures(text)) == text


def _measures_text(*records: str) -> str:
    """A measures document whose one rule of B = 9 lists `records`, each JSON
    text, as all of its failures."""
    return ('{"ruleset_fingerprint": "r", "snapshot_fingerprint": "s", "measures": '
            '[{"rule_id": "x", "a": %d, "b": 9, "failing_total": %d, "failing": [%s]}]}'
            % (9 - len(records), len(records), ", ".join(records)))


def _record(row: str, key: str, entity: str = '"e"') -> str:
    return f'{{"entity": {entity}, "row": {row}, "key": {key}}}'


@pytest.mark.parametrize("records, message", [
    ([_record("1", '{"id": "a"}'), _record("1", '{"id": "b"}')],
     "e row 1 has two keys, {'id': 'a'} and {'id': 'b'}"),
    ([_record("1", '{"id": 1}'), _record("1", '{"id": true}')],
     "e row 1 has two keys, {'id': 1} and {'id': True}"),
    ([_record("1", '{"id": 1}'), _record("1", '{"id": 1.0}')],
     "e row 1 has two keys, {'id': 1} and {'id': Decimal('1.0')}"),
    ([_record("1", '{"id": 1.0}'), _record("1", '{"id": 1.00}')],
     "e row 1 has two keys, {'id': Decimal('1.0')} and {'id': Decimal('1.00')}"),
    ([_record("1", '{"i": 1, "j": 2}'), _record("1", '{"j": 2, "i": 1}')],
     "e row 1 has two keys, {'i': 1, 'j': 2} and {'j': 2, 'i': 1}"),
    ([_record("null", "{}"), _record("null", '{"id": "a"}')],
     "e row None has two keys, {} and {'id': 'a'}"),
    ([_record("null", '{"id": "a"}')], "invalid failing record"),
    ([_record('"1"', '{"id": "a"}')], "invalid failing record"),
    ([_record("1.5", '{"id": "a"}')], "invalid failing record"),
    ([_record("true", '{"id": "a"}')], "invalid failing record"),
    ([_record("1", '{"id": ["a"]}')], "invalid failing record"),
    ([_record("1", '{"id": {"a": 1}}')], "invalid failing record"),
    ([_record("1", '{"id": NaN}')], "invalid failing record"),
    ([_record("1", '["id", "a"]')], "invalid failing record"),
    ([_record("1", '{"id": "a"}', entity="7")], "invalid failing record"),
    ([_record("[1]", '{"id": "a"}')], "unhashable type"),
    ([_record("1", '{"id": "a"}'), _record("1", '{"id": "a"}', entity='"../x"')],
     "entity name '../x' is not a plain file name"),
    ([_record("null", "{}", entity='".."')], "entity name '..' is not a plain file name"),
    ([_record("1", '{"id": "a"}', entity='"a\\\\b"')],
     "entity name 'a\\\\b' is not a plain file name"),
    ([_record("1", '{"id": "a"}', entity='"a\\u0000b"')],
     "entity name 'a\\x00b' is not a plain file name"),
], ids=["text", "int-bool", "int-decimal", "decimal-exponent", "member-order",
        "entity-level", "entity-level-key", "text-row", "decimal-row", "bool-row",
        "array-value", "object-value", "nan-value", "array-key", "numeric-entity",
        "array-row", "parent-entity", "dot-dot-entity", "backslash-entity",
        "nul-entity"])
def test_parse_measures_refuses_records_it_cannot_write(records, message):
    """parse_measures accepts only what the record writer writes back as it
    was read: one key per (entity, row), written alike wherever it repeats."""
    with pytest.raises(ParseError, match="invalid measures document: "
                       + re.escape(message)):
        parse_measures(_measures_text(*records))


def test_parse_measures_accepts_a_key_repeated_alike():
    key = '{"id": "a", "n": 1, "d": 1.50, "b": true, "z": null}'
    ms = parse_measures(_measures_text(_record("1", key), _record("1", key)))
    assert ms.measures["x"].failing == [("e", 1), ("e", 1)]
    assert ms.record_key("e", 1) == {"id": "a", "n": 1, "d": Decimal("1.50"),
                                     "b": True, "z": None}


def test_parsed_keys_come_from_the_records(table3_report):
    _, ms = table3_report
    text = serialize_measures(ms)
    parsed = parse_measures(text)
    assert parsed.record_key("person", 2) == {"id": "1234"}
    assert parsed.record_key("warning", 4) == {"wid": "w5"}
    assert serialize_measures(parsed) == text


# --------------------------------------------------------------------------
# improvement manifests

def test_single_failure_manifest(table3_report, tmp_path: Path):
    report, ms = table3_report
    manifests = build_improvement(report, ms)
    assert [(m["entity"], m["property"]) for m in manifests] == [
        ("person", "EXAC_SINT"), ("warning", "EXAC_SEMAN")]
    assert canonical.loads(manifests[0]["rules"][0]["records"]) == \
        [{"row": 2, "key": {"id": "1234"}}]

    paths = write_improvement(manifests, report, tmp_path / "out")
    written = json.loads((tmp_path / "out" / paths[0]).read_text())
    assert written["rules"][0]["records"] == [{"row": 2, "key": {"id": "1234"}}]
    assert paths == ["person.EXAC_SINT.manifest.json",
                     "warning.EXAC_SEMAN.manifest.json"]
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert len(index["manifests"]) == 2
    doc = json.loads((tmp_path / "out" / paths[0]).read_text())
    assert doc["rules"][0]["records"] == [{"row": 2, "key": {"id": "1234"}}]


def test_write_that_fails_partway_keeps_the_old_files(table3_report, tmp_path: Path,
                                                      monkeypatch):
    """A manifest whose write fails leaves every file as it was, and no
    temporary file beside them."""
    report, ms = table3_report
    manifests = build_improvement(report, ms)
    out = tmp_path / "out"
    write_improvement(manifests, report, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real, calls = canonical.dumps, []

    def second_cannot_be_encoded(doc):  # past its first 100,000 characters
        calls.append(doc)
        text = real(doc)
        return text[:1] + "x" * 100_000 + "\ud800" if len(calls) == 2 else text
    monkeypatch.setattr(canonical, "dumps", second_cannot_be_encoded)
    with pytest.raises(UnicodeEncodeError):
        write_improvement(manifests, report, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_write_atomic_replaces_whole_or_not_at_all(tmp_path: Path):
    target = tmp_path / "report.json"
    write_atomic(target, "old")
    write_atomic(target, "new €")
    assert target.read_bytes() == "new €".encode()
    blocker = tmp_path / "dir"
    (blocker / "inside").mkdir(parents=True)
    with pytest.raises(OSError):  # os.replace cannot put a file over a directory
        write_atomic(blocker, "text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "report.json"]


@pytest.mark.parametrize("where, error", [
    ("dir", IsADirectoryError), ("file/report.json", NotADirectoryError),
    ("absent/report.json", FileNotFoundError)])
def test_write_atomic_error_names_the_target(tmp_path: Path, where, error):
    """A failed write raises an OSError naming the file asked for, not the
    temporary file, and leaves nothing behind."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    with pytest.raises(error) as exc:
        write_atomic(tmp_path / where, "text")
    assert exc.value.filename == str(tmp_path / where)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


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
    assert [(m["entity"], m["property"]) for m in manifests] == [
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
    assert {m["entity"]: m["rules"][0]["selector"] for m in manifests} == selectors
    for m in manifests:
        if m["rules"][0]["selector"] is not None:
            entity = person_snapshot.entities[m["entity"]]
            assert _selected_rows(m["rules"][0]["selector"], entity, rs) == \
                {r["row"] for r in canonical.loads(m["rules"][0]["records"])}


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
    return report["measures"][0]["selector"], ms.measures[rs.rules[0].id]


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
        {row for _, row in measure.failing if cells[row] is not None}


def test_fingerprint_mismatch_rejected(table3_report):
    report, ms = table3_report
    tampered = ms.replace(snapshot_fingerprint="deadbeef")
    with pytest.raises(FingerprintMismatch):
        build_improvement(report, tampered)


def test_manifest_ref_totals_match_measures(table3_report):
    report, ms = table3_report
    manifests = build_improvement(report, ms)
    listed = sum(r["failing_listed"] for m in manifests for r in m["rules"])
    expected = sum(m.b - m.a for m in ms if m.b > 0)
    assert listed == expected


# --------------------------------------------------------------------------
# comparison

def _report_with_levels(person_snapshot, table3_ruleset, version: str,
                        degrade: bool):
    ms = eval_all(table3_ruleset, person_snapshot)
    if degrade:
        measures = {rid: m.replace(a=m.a // 4) for rid, m in ms.measures.items()}
        ms = ms.replace(measures=measures)
    rs = table3_ruleset.replace(version=version)
    result = score_all(ms, rs, default_config())
    return build_report(rs, person_snapshot, ms, result, default_config(),
                        __version__)


def test_compare_reports_deltas(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    cmp_result = compare(first, second)
    d = {p["property"]: p for p in cmp_result["properties"]}
    assert d["EXAC_SINT"]["value_delta"] == Decimal("75.0000")  # 0 -> 75
    assert d["EXAC_SINT"]["level_delta"] == 4 - 1
    assert not cmp_result["regression"]
    assert cmp_result["verdict_transition"] == {"first": False, "second": True}


def test_compare_to_itself_is_all_zero(table3_report):
    report, _ = table3_report
    cmp_result = compare(report, report)
    assert all(p["value_delta"] == 0 and p["level_delta"] == 0
               for p in cmp_result["properties"])
    assert all(c["level_delta"] == 0 for c in cmp_result["characteristics"])
    assert not cmp_result["regression"]


def test_compare_antisymmetry(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    forward = compare(first, second)
    backward = compare(second, first)
    for f, b in zip(forward["properties"], backward["properties"]):
        assert f["value_delta"] == -b["value_delta"]
        assert f["level_delta"] == -b["level_delta"]
    assert backward["regression"]  # degradation direction flags regression


def test_compare_missing_property_listed_removed(person_snapshot, table3_ruleset):
    full = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=False)
    rs_one = table3_ruleset.replace(rules=table3_ruleset.rules[:1], version="2")
    ms = eval_all(rs_one, person_snapshot)
    narrow = build_report(rs_one, person_snapshot, ms, score_all(ms, rs_one),
                          default_config(), __version__)
    cmp_result = compare(full, narrow)
    assert cmp_result["removed_properties"] == ["EXAC_SEMAN"]
    assert [p["property"] for p in cmp_result["properties"]] == ["EXAC_SINT"]


def test_compare_different_rulesets_rejected(table3_report, person_snapshot):
    report, _ = table3_report
    other = dict(report, metadata=dict(report["metadata"], ruleset_name="other-rules"))
    with pytest.raises(ScopeMismatch):
        compare(report, other)


def test_comparison_serialization_stable(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    assert canonical.dumps(compare(first, second)) == \
        canonical.dumps(compare(first, second))


# --------------------------------------------------------------------------
# text rendering

def test_eligible_verdict_line(table3_report):
    report, _ = table3_report
    text = render_report(report)
    assert "VERDICT: ELIGIBLE (min level 3 rule)" in text


def test_not_eligible_lists_characteristics(person_snapshot, table3_ruleset):
    report = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    text = render_report(report)
    assert "VERDICT: NOT ELIGIBLE (min level 3 rule)" in text
    assert "below threshold: Accuracy at level 2" in text


def test_comparison_renders_before_after(person_snapshot, table3_ruleset):
    first = _report_with_levels(person_snapshot, table3_ruleset, "1", degrade=True)
    second = _report_with_levels(person_snapshot, table3_ruleset, "2", degrade=False)
    text = render_comparison(compare(first, second))
    assert "before" in text and "after" in text
    assert "NOT ELIGIBLE -> ELIGIBLE" in text
