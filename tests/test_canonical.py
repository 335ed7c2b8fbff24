"""canonical.dumps against the reference emitter kept in canonical_reference."""

from __future__ import annotations

import enum
from collections import OrderedDict
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import canonical_reference as reference
from conftest import reference_record_writer
from dqeval import canonical, cli, reporting, scenarios
from dqeval.dataset import load_catalog, serialize_catalog
from dqeval.errors import ParseError
from dqeval.rules import parse_ruleset, serialize_ruleset
from dqeval.synthkit import serialize_expected


class Colour(str, enum.Enum):
    RED = "réd"
    QUOTE = 'say "hi"\\'


class Rank(enum.IntEnum):
    LOW = 1
    NEGATIVE = -7


_SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é",
                 "日本語", "\U0001f600", "\ud800", "tab\there", "line\nbreak", ""]
_SPECIAL_DECIMALS = [Decimal("1E+2"), Decimal("-0"), Decimal("0E-7"),
                     Decimal("-1.50"), Decimal("0.0001"), Decimal("1E-30"),
                     Decimal("123456789012345678901234567890.000001")]

texts = st.one_of(st.text(), st.sampled_from(_SPECIAL_TEXT))
keys = st.one_of(texts, st.sampled_from(list(Colour)))
leaves = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.booleans(),
    st.none(),
    st.decimals(allow_nan=False, allow_infinity=False),
    st.sampled_from(_SPECIAL_DECIMALS),
    st.datetimes(min_value=datetime(1900, 1, 2), max_value=datetime(9998, 12, 30),
                 timezones=st.sampled_from([timezone.utc,
                                            timezone(timedelta(hours=5, minutes=30))])),
    st.sampled_from(list(Colour) + list(Rank)),
)


def _documents(leaf):
    return st.recursive(leaf, lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_documents(leaves))
def test_dumps_matches_reference(doc):
    assert canonical.dumps(doc) == reference.dumps(doc)


class _Items(list):
    pass


class _Stamp(datetime):
    pass


def _raw(value, level: int) -> canonical.Raw:
    """value's reference text, laid out for a member at depth `level`."""
    return canonical.Raw(reference.dumps(value)[:-1].replace("\n", "\n" + "  " * level))


_STAMP = _Stamp(2024, 1, 2, 3, 4, 5, 60, tzinfo=timezone(timedelta(hours=-3)))
_NESTED = {"k": [1, {"é": Decimal("1.50"), "t": None}], "s": "x", "e": []}


@pytest.mark.parametrize("ours, theirs", [
    (OrderedDict([("b", 1), ("a", OrderedDict(c=[True]))]), None),
    (_Items([1, _Items(["x", _Items()]), {"l": _Items([None])}]), None),
    (_STAMP, None),
    ([_STAMP, {"at": _STAMP}], None),
    ([1, True, 0, False, -1, [False, 2]], None),
    (_raw(_NESTED, 0), _NESTED),
    ({"a": [_raw(_NESTED, 2), _raw("q", 2)], "n": canonical.Raw("true")},
     {"a": [_NESTED, "q"], "n": True}),
], ids=["ordered-dict", "list-subclass", "datetime-subclass", "datetime-subclass-nested",
        "bools-among-ints", "raw", "raw-nested"])
def test_types_the_strategy_does_not_draw_match_reference(ours, theirs):
    """A subclass of a listed type is written as that type; Raw is written as
    it is, where the reference writes the value it stands for."""
    assert canonical.dumps(ours) == reference.dumps(ours if theirs is None else theirs)


_BAD = [1.5, float("nan"), Decimal("NaN"), Decimal("sNaN"), Decimal("Infinity"),
        Decimal("-Infinity"), {"x"}, frozenset(), b"bytes", bytearray(b"x"), object()]
_BAD_KEYS = [1, None, True, Decimal("1"), ("a",), b"k"]


def _bad_id(value):
    # repr(object()) holds a memory address, which differs from run to run
    return "object()" if type(value) is object else repr(value)


def _outcome(dumps, doc):
    try:
        return "ok", dumps(doc)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("bad", _BAD, ids=_bad_id)
def test_refusals_match_reference(bad):
    for doc in (bad, [bad], ("ok", bad), {"k": bad}, {"a": {"b": [1, bad]}}):
        ours = _outcome(canonical.dumps, doc)
        assert ours[0] in (TypeError, ValueError)
        assert ours == _outcome(reference.dumps, doc)


@pytest.mark.parametrize("key", _BAD_KEYS, ids=repr)
def test_non_string_keys_refused_like_reference(key):
    for doc in ({key: 1}, [{"a": 1, key: 2}], {"a": {key: []}}):
        ours = _outcome(canonical.dumps, doc)
        assert ours[0] is TypeError
        assert ours == _outcome(reference.dumps, doc)


@settings(max_examples=200, deadline=None)
@given(_documents(st.one_of(leaves, leaves, st.sampled_from(_BAD))))
def test_first_refusal_matches_reference(doc):
    # with refused leaves anywhere, the same one is reported first
    assert _outcome(canonical.dumps, doc) == _outcome(reference.dumps, doc)


def test_layout():
    doc = {"é": [1, Decimal("1E+2"), None, True, {}, []], "q": '"\u2028'}
    assert canonical.dumps(doc) == (
        '{\n  "é": [\n    1,\n    1E+2,\n    null,\n    true,\n    {},\n    []\n  ],\n'
        '  "q": "\\"\u2028"\n}\n')
    assert canonical.dumps("x") == '"x"\n'


@pytest.mark.parametrize("name", scenarios.scenario_names())
def test_scenario_documents_match_reference(name, tmp_path: Path, monkeypatch):
    source = tmp_path / "in"
    expected = scenarios.write_scenario(name, source)
    rules, schema = source / "rules.json", source / "schema.json"
    ruleset = parse_ruleset(rules.read_text(encoding="utf-8"))
    catalog = load_catalog(schema.read_text(encoding="utf-8"))

    def documents(out: Path) -> dict[str, bytes]:
        assert cli.main(["evaluate", "--rules", str(rules), "--schema", str(schema),
                         "--data", str(source / "snapshot"), "--out", str(out),
                         "--jobs", "1"]) == 0
        assert cli.main(["improve", "--report", str(out / "report.json"),
                         "--measures", str(out / "measures.json"),
                         "--out", str(out / "improve")]) == 0
        docs = {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*.json"))}
        docs["rules.json"] = serialize_ruleset(ruleset).encode("utf-8")
        docs["schema.json"] = serialize_catalog(catalog).encode("utf-8")
        docs["expected_measures.json"] = serialize_expected(expected).encode("utf-8")
        return docs

    ours = documents(tmp_path / "canonical")
    monkeypatch.setattr(canonical, "dumps", reference.dumps)
    # failing records go to the reference emitter as the dicts they stand for
    monkeypatch.setattr(reporting, "record_writer", reference_record_writer)
    theirs = documents(tmp_path / "reference")
    assert {"report.json", "measures.json", "improve/index.json"} <= ours.keys()
    assert any(k.endswith(".manifest.json") for k in ours)
    assert ours.keys() == theirs.keys()
    for doc in ours:
        assert ours[doc] == theirs[doc], doc


@pytest.mark.parametrize("literal, value", [
    ("9" * 1000, int("9" * 1000)), ("-" + "9" * 1000, -int("9" * 1000)),
    ("-0", 0), ("1.50", Decimal("1.50")), ("1e999", Decimal("1E+999")),
    ("9" * 1000 + "." + "9" * 1000, Decimal("9" * 1000 + "." + "9" * 1000)),
    ("0." + "0" * 999 + "1", Decimal("1E-1000")), ("1e-1000", Decimal("1E-1000")),
    ("1E+0000000000000001", Decimal("1E+1")), ("0e0", Decimal("0")),
], ids=["1000-digits", "negative-1000-digits", "minus-zero", "decimal",
        "exponent-999", "1000-and-1000-digits", "1000-fraction-digits",
        "exponent-minus-1000", "padded-exponent", "zero"])
def test_document_numbers_in_range(literal, value):
    [parsed] = canonical.load_document(f"[{literal}]")
    assert parsed == value and type(parsed) is type(value)
    assert str(parsed) == str(value)


@pytest.mark.parametrize("literal", [
    "9" * 1001, "-" + "9" * 1001, "1e1000", "1e999999", "1" * 1001 + ".5",
    "1e-1001", "0e-1001", "0." + "0" * 1000 + "1", "1" + "0" * 1000 + "e-1001",
    "1e99999999999999999999", "1e-99999999999999999999"],
    ids=["1001-digits", "negative-1001-digits", "exponent-1000", "exponent-999999",
         "1001-integer-digits", "exponent-minus-1001", "zero-exponent-minus-1001",
         "1001-fraction-digits", "1001-digits-exponent-minus-1001",
         "exponent-20-digits", "exponent-minus-20-digits"])
def test_document_numbers_out_of_range(literal):
    shown = literal if len(literal) <= 24 else literal[:20] + "..."
    with pytest.raises(ParseError) as caught:
        canonical.load_document('{"a": [1, {"b": %s}]}' % literal)
    assert str(caught.value) == (f"number {shown} is out of range: at most 1000 "
                                 "digits before and after the decimal point")
