from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import synthkit_reference as reference
from conftest import make_ruleset, rule
from dqeval import synthkit
from dqeval.dataset import (ColumnSchema, EntitySchema, SchemaCatalog,
                            load_catalog, load_snapshot)
from dqeval.engine import eval_all
from dqeval.errors import ConflictingPlan, SynthError
from dqeval.rules import KINDS, parse_ruleset
from dqeval.synthkit import (ColumnGen, EntityPlan, SynthSpec, ViolationPlan,
                             expected_vs_actual, generate, parse_expected,
                             parse_synthspec, round_half_up, serialize_expected)

SCHEMA = {
    "entities": [
        {"name": "item", "columns": [
            {"name": "code", "datatype": "text", "nullable": False},
            {"name": "qty", "datatype": "integer", "nullable": False},
            {"name": "tag", "datatype": "text", "nullable": True},
        ], "key": ["code"]},
    ]
}

RULES = make_ruleset([
    rule("syn", "item", ["code"], "EXAC_SINT", "syntax",
         {"pattern": "^C[0-9]{5}$"}),
    rule("rng", "item", ["qty"], "RAN_EXAC", "range", {"min": 0, "max": 50}),
    rule("nn", "item", ["tag"], "COMP_REG", "not_null", {}),
])


def _spec(seed: int = 7, rows: int = 1000, violations=()) -> SynthSpec:
    return SynthSpec(seed, (
        ("item", EntityPlan(rows, (
            ("code", ColumnGen("serial", (("format", "C{n:05d}"),))),
            ("qty", ColumnGen("int_uniform", (("max", 50), ("min", 0)))),
            ("tag", ColumnGen("choice", (("values", ("a", "b")),))),
        ))),
    ), tuple(violations))


@pytest.fixture
def inputs():
    return load_catalog(json.dumps(SCHEMA)), None


def test_quarter_rate_gives_exact_counts(tmp_path: Path):
    catalog = load_catalog(json.dumps(SCHEMA))
    rs_doc = RULES
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(rs_doc)
    spec = _spec(violations=[ViolationPlan("syn", Decimal("0.25"), ("*no*",))])
    expected = generate(spec, catalog, rs, tmp_path)
    assert expected.measures == (("syn", 750, 1000), ("rng", 1000, 1000),
                                 ("nn", 1000, 1000))
    repo = load_snapshot(tmp_path, catalog)
    ms = eval_all(rs, repo)
    assert expected_vs_actual(expected, ms) == []


def test_format_class_counts_every_target_when_own_entity_is_empty(tmp_path: Path):
    """B counts the rows of every target, so violations planted in an extra
    target are expected even when the rule's own entity has no rows."""
    catalog = SchemaCatalog(tuple(
        EntitySchema(name, (ColumnSchema("t", "text", False),)) for name in ("m", "r")))
    rs = parse_ruleset(make_ruleset(
        [rule("fc", "m", ["t"], "CONS_FORM", "format_class",
              {"class": "c", "extra_targets": [["r", "t"]]})],
        format_classes={"c": "^C[0-9]+$"}))
    column = (("t", ColumnGen("serial", (("format", "C{n}"),))),)
    spec = SynthSpec(1, (("m", EntityPlan(0, column)), ("r", EntityPlan(4, column))),
                     (ViolationPlan("fc", Decimal("0.5"), ("bad",)),))
    expected = generate(spec, catalog, rs, tmp_path)
    assert expected.measures == (("fc", 2, 4),)
    assert expected_vs_actual(expected, eval_all(rs, load_snapshot(tmp_path, catalog))) == []


def test_rate_zero_is_fully_compliant(tmp_path: Path):
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(RULES)
    expected = generate(_spec(), catalog, rs, tmp_path)
    assert all(a == b for _, a, b in expected.measures)


def test_same_seed_twice_is_byte_identical(tmp_path: Path):
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(RULES)
    spec = _spec(violations=[ViolationPlan("nn", Decimal("0.1"))])
    generate(spec, catalog, rs, tmp_path / "one")
    generate(spec, catalog, rs, tmp_path / "two")
    for name in ("item.csv", "expected_measures.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


def test_write_that_fails_partway_keeps_the_old_snapshot(tmp_path: Path, monkeypatch):
    """A snapshot file whose write fails partway leaves every file as it was,
    and no temporary file beside them."""
    from dqeval import dataset
    catalog, rs = load_catalog(json.dumps(SCHEMA)), parse_ruleset(RULES)
    generate(_spec(seed=7), catalog, rs, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real = dataset.serialize_entity
    monkeypatch.setattr(dataset, "serialize_entity",  # past 100,000 characters
                        lambda entity: real(entity)[:1] + "x" * 100_000 + "\ud800")
    with pytest.raises(UnicodeEncodeError):
        generate(_spec(seed=8), catalog, rs, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_different_seed_differs(tmp_path: Path):
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(RULES)
    generate(_spec(seed=1), catalog, rs, tmp_path / "one")
    generate(_spec(seed=2), catalog, rs, tmp_path / "two")
    assert (tmp_path / "one" / "item.csv").read_bytes() != \
        (tmp_path / "two" / "item.csv").read_bytes()


def test_conflicting_plans_rejected():
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    # two rules over the same column, both planned
    rs = parse_ruleset(make_ruleset([
        rule("a", "item", ["code"], "EXAC_SINT", "syntax", {"pattern": "^C[0-9]{5}$"}),
        rule("b", "item", ["code"], "CONS_FORM", "syntax", {"pattern": "^C[0-9]+$"}),
    ]))
    spec = _spec(violations=[ViolationPlan("a", Decimal("0.1"), ("*",)),
                             ViolationPlan("b", Decimal("0.1"), ("*",))])
    with pytest.raises(ConflictingPlan):
        generate(spec, catalog, rs, None)


_READERS_SCHEMA = {"entities": [
    {"name": "item", "columns": [
        {"name": "code", "datatype": "text", "nullable": False},
        {"name": "qty", "datatype": "integer", "nullable": False},
        {"name": "at", "datatype": "timestamp", "nullable": False}]},
    {"name": "other", "columns": [
        {"name": "t", "datatype": "text", "nullable": False}]},
]}


@pytest.mark.parametrize("written, reader", [
    ("code", rule("b", "item", [], "FAL_COMP_FICH", "unique",
                  {"key": ["qty", "code"]})),
    ("qty", rule("b", "item", [], "CONS_SEMAN", "predicate",
                 {"expr": "qty >= 0 or len(code) > 1"})),
    ("at", rule("b", "item", [], "CONV_ACT", "freshness",
                {"timestamp_column": "at", "max_age": 30})),
    ("at", rule("b", "item", [], "FREC_ACT", "frequency",
                {"timestamp_column": "at", "max_gap": 30})),
    ("t", rule("b", "item", ["code"], "CONS_FORM", "format_class",
               {"class": "c", "extra_targets": [["other", "t"]]})),
    ("t", rule("b", "item", ["code"], "EXAC_SEMAN", "domain",
               {"reference": "other.t"})),
    ("t", rule("b", "item", ["code"], "INT_REF", "foreign_key",
               {"referenced": "other.t"})),
    ("qty", rule("b", "item", ["code"], "EXAC_SINT", "syntax",
                 {"pattern": "^C[0-9]{5}$"}, where="qty > 0")),
], ids=["unique-key", "predicate", "freshness", "frequency",
        "format-class-extra-target", "domain-reference", "foreign-key", "where"])
def test_plan_writing_column_read_elsewhere_rejected(written, reader):
    catalog = load_catalog(json.dumps(_READERS_SCHEMA))
    entity = "other" if written == "t" else "item"
    rs = parse_ruleset(make_ruleset(
        [rule("a", entity, [written], "COMP_REG", "not_null"), reader],
        format_classes={"c": "^[A-Z]+$"}))
    spec = SynthSpec(1, (
        ("item", EntityPlan(10, (
            ("code", ColumnGen("serial", (("format", "C{n:05d}"),))),
            ("qty", ColumnGen("const", (("value", 1),))),
            ("at", ColumnGen("timestamp_spaced", (("start", "2024-01-01T00:00:00Z"),
                                                  ("step", "1d"))))))),
        ("other", EntityPlan(10, (("t", ColumnGen("const", (("value", "C"),))),))),
    ), (ViolationPlan("a", Decimal("0.1")),))
    with pytest.raises(ConflictingPlan) as exc:
        generate(spec, catalog, rs, None)
    assert str(exc.value) == (f"plan for rule 'a' writes {entity}.{written}, "
                              "which rules ['b'] also read")


def test_where_rules_rejected():
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(make_ruleset([
        rule("a", "item", ["code"], "EXAC_SINT", "syntax",
             {"pattern": "^C[0-9]{5}$"}, where="qty > 0")]))
    with pytest.raises(SynthError, match="where"):
        generate(_spec(), catalog, rs, None)


def test_unique_single_violation_rejected():
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(make_ruleset([
        rule("u", "item", [], "FAL_COMP_FICH", "unique", {"key": ["code"]})]))
    spec = _spec(rows=10, violations=[ViolationPlan("u", Decimal("0.1"))])
    with pytest.raises(SynthError, match="single row"):
        generate(spec, catalog, rs, None)


def test_min_count_plans_rejected():
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(make_ruleset([
        rule("m", "item", [], "COMP_FICH", "min_count", {"threshold": 5})]))
    spec = _spec(violations=[ViolationPlan("m", Decimal("1"))])
    with pytest.raises(SynthError, match="min_count"):
        generate(spec, catalog, rs, None)


def test_violating_value_that_passes_rejected():
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(make_ruleset([
        rule("syn", "item", ["code"], "EXAC_SINT", "syntax",
             {"pattern": "^C[0-9]{5}$"})]))
    spec = _spec(violations=[ViolationPlan("syn", Decimal("0.1"), ("C00000",))])
    with pytest.raises(SynthError, match="passes the check"):
        generate(spec, catalog, rs, None)


def test_predicate_verification_calls_the_reference_evaluator(tmp_path: Path,
                                                              monkeypatch):
    """Synth checks each generated row of a predicate rule through
    expr.evaluate, the reference semantics, and never through the compiled
    closures the engine runs: an oracle sharing the engine's code would
    check nothing."""
    from dqeval import expr
    calls = []

    def counted(e, row, reference_time):
        calls.append(e)
        return expr.evaluate(e, row, reference_time)

    monkeypatch.setattr(synthkit, "evaluate", counted)
    monkeypatch.setattr(expr, "compiled", None)
    rs = parse_ruleset(make_ruleset([rule("p", "item", [], "CONS_SEMAN", "predicate",
                                          {"expr": "qty <= 50"})]))
    spec = _spec(rows=40, violations=[ViolationPlan("p", Decimal("0.25"),
                                                    (("qty", 99),))])
    expected = generate(spec, load_catalog(json.dumps(SCHEMA)), rs, tmp_path)
    assert expected.measures == (("p", 30, 40),)
    assert calls == [rs.rules[0].kind.expr] * 40


def test_expected_roundtrip_and_discrepancies(tmp_path: Path):
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(RULES)
    expected = generate(_spec(), catalog, rs, tmp_path)
    assert parse_expected(serialize_expected(expected)) == expected

    repo = load_snapshot(tmp_path, catalog)
    ms = eval_all(rs, repo)
    assert expected_vs_actual(expected, ms) == []

    # hand-corrupt one count
    bad = ms.measures["syn"].replace(a=ms.measures["syn"].a - 1)
    corrupted = ms.replace(measures=dict(ms.measures, syn=bad))
    disc = expected_vs_actual(expected, corrupted)
    assert len(disc) == 1 and disc[0].rule_id == "syn"


def test_disjoint_rule_ids_all_reported():
    from dqeval.synthkit import ExpectedMeasures
    from dqeval.engine import MeasureSet, RuleMeasure
    expected = ExpectedMeasures((("x", 1, 1),))
    ms = MeasureSet({"y": RuleMeasure("y", 1, 1, (), 0)}, "rf", "sf")
    disc = expected_vs_actual(expected, ms)
    assert {d.rule_id for d in disc} == {"x", "y"}


def test_round_half_up():
    assert round_half_up(Decimal("0.25"), 1000) == 250
    assert round_half_up(Decimal("0.5"), 1) == 1
    assert round_half_up(Decimal("0.005"), 100) == 1  # half rounds up
    assert round_half_up(Decimal(0), 100) == 0


# pool lengths 1, 2**j - 1, 2**j and 2**j + 1 up to j = 40, past the 32 bits
# one Mersenne Twister word gives, and any length in between
_POOL_SIZES = (st.just(1)
               | st.integers(1, 40).flatmap(
                   lambda j: st.sampled_from([2**j - 1, 2**j, 2**j + 1]))
               | st.integers(1, 2**41))


@st.composite
def _pools(draw):
    size = draw(_POOL_SIZES)
    if size <= 1000 and draw(st.booleans()):
        return [f"v{i}" for i in range(size)]
    start = draw(st.integers(-2**45, 2**45))
    return range(start, start + size)


@example(seed=0, pool=["a"], n=2000)
@example(seed=1, pool=range(-7, 2**32 - 6), n=2000)
@example(seed=2, pool=range(-2**40, 1), n=2000)
@example(seed=3, pool=["a", "b", "c"], n=0)
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), pool=_pools(), n=st.integers(0, 2000))
def test_draws_match_the_choice_loop(seed, pool, n):
    """_draws gives the values of n Random.choice calls and leaves the
    generator where they leave it."""
    rng, by_choice = random.Random(seed), random.Random(seed)
    assert synthkit._draws(rng, pool, n) == [by_choice.choice(pool) for _ in range(n)]
    assert rng.getstate() == by_choice.getstate()


def test_parse_synthspec_document():
    spec = parse_synthspec(json.dumps({
        "seed": 42,
        "entities": {"item": {"rows": 10, "columns": {
            "code": {"generator": "serial", "format": "C{n:05d}"},
            "qty": {"generator": "int_uniform", "min": 0, "max": 50},
            "tag": {"generator": "choice", "values": ["a"], "null_rate": 0.5},
        }}},
        "violations": [{"rule": "syn", "rate": 0.25, "violating": ["*"]}],
    }))
    assert spec.seed == 42
    assert spec.entity("item").rows == 10
    assert spec.violations[0].rate == Decimal("0.25")


def test_nullable_generator_on_rule_column_rejected():
    catalog = load_catalog(json.dumps(SCHEMA))
    from dqeval.rules import parse_ruleset
    rs = parse_ruleset(RULES)
    spec = SynthSpec(1, (
        ("item", EntityPlan(10, (
            ("code", ColumnGen("serial", (("format", "C{n:05d}"),))),
            ("qty", ColumnGen("int_uniform", (("max", 50), ("min", 0)))),
            ("tag", ColumnGen("choice", (("values", ("a",)),), Decimal("0.5"))),
        ))),
    ), ())
    with pytest.raises(SynthError, match="null_rate"):
        generate(spec, catalog, rs, None)


# --------------------------------------------------------------------------
# per-distinct-value verification against the per-cell reference

_UTC = timezone.utc
_PLUS2 = timezone(timedelta(hours=2))
# equal values as distinct objects: Decimals at different scales, one
# instant at two offsets
_VALUES = {
    "t": ["a", "aa", "ab", "1", "12", "", "N/A", None],
    "d": [Decimal("1.0"), Decimal("1.00"), Decimal("1"), Decimal("2.5"),
          Decimal("-0"), Decimal("0.00"), Decimal("99.99"), None],
    "i": [0, 1, 2, 3, 17, None],
    "b": [True, False, None],
    "at": [datetime(2024, 5, 1, tzinfo=_UTC), datetime(2024, 5, 1, 2, tzinfo=_PLUS2),
           datetime(2024, 3, 1, 6, 30, tzinfo=_UTC),
           datetime(2024, 3, 1, 6, 29, tzinfo=_UTC), None],
}
_TYPES = {"t": "text", "d": "decimal", "i": "integer", "b": "boolean",
          "at": "timestamp"}
_CATALOG = SchemaCatalog(tuple(
    EntitySchema(name, tuple(ColumnSchema(c, dtype, True) for c, dtype in _TYPES.items()))
    for name in ("m", "r")))
# unanchored patterns too: the check is a full match
_PATTERNS = ["a+", "^a+$", "[0-9]", "[0-9]+", "a|aa", "^$", ".*"]
_PER_VALUE_KINDS = ["syntax", "format_class", "range", "domain", "not_null",
                    "no_default", "foreign_key", "freshness"]


@st.composite
def _per_value_rule(draw, kind: str) -> tuple[dict, str]:
    """A rule document of one per-value kind over entity m, and its column."""
    params: dict = {}
    column = draw(st.sampled_from(sorted(_TYPES)))
    if kind in ("syntax", "format_class"):
        column = "t"
        if kind == "syntax":
            params["pattern"] = draw(st.sampled_from(_PATTERNS))
        else:
            params["class"] = "c"
            params["extra_targets"] = draw(st.sampled_from([[], [["r", "t"]]]))
    elif kind == "range":
        column = draw(st.sampled_from(["d", "i", "at"]))
        pool = {"d": [0, 1, 1.0, 2.5, 17, 99.99], "i": [0, 1, 2, 17],
                "at": ["2024-03-01T06:30:00Z", "2024-05-01T00:00:00Z",
                       "2024-05-01T02:00:00+02:00"]}[column]
        lo, hi = sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2)),
                        key=lambda v: str(v) if column == "at" else Decimal(str(v)))
        keep = draw(st.sampled_from(["min", "max", "both"]))
        if keep != "max":
            params["min"] = lo
        if keep != "min":
            params["max"] = hi
        params.update(min_inclusive=draw(st.booleans()),
                      max_inclusive=draw(st.booleans()))
    elif kind == "domain":
        column = draw(st.sampled_from(["t", "d", "b"]))
        if draw(st.booleans()):
            params["reference"] = f"r.{column}"
        else:
            pool = {"t": _VALUES["t"][:-1], "d": [1, 2.5, 0, 99.99],
                    "b": [True, False]}[column]
            params["allowed"] = draw(st.lists(st.sampled_from(pool), min_size=1,
                                              max_size=3))
    elif kind == "no_default":
        column = draw(st.sampled_from(["t", "i"]))
        pool = ["N/A", "", "a"] if column == "t" else [0, 17]
        params["placeholders"] = draw(st.lists(st.sampled_from(pool), min_size=1,
                                               max_size=2))
    elif kind == "foreign_key":
        params["referenced"] = f"r.{column}"
    elif kind == "freshness":
        # reference_time 2024-06-01T00:00:00Z: "31d" and "132090m" put the
        # cutoff exactly on the stamps 2024-05-01T00:00Z and 2024-03-01T06:30Z
        column = "at"
        params.update(timestamp_column="at",
                      max_age=draw(st.sampled_from(["31d", "132090m", "1d", 45, 0])))
    columns = [] if kind == "freshness" else [column]
    return rule("x", "m", columns, KINDS[kind].properties[0].name, kind, params), column


def _outcome(verify, *args) -> str | None:
    try:
        verify(*args)
    except SynthError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_PER_VALUE_KINDS).flatmap(_per_value_rule),
       pattern=st.sampled_from(_PATTERNS), data=st.data())
def test_bound_checks_match_per_cell_reference(case, pattern, data):
    """The per-distinct checks reject the reference's rows, and verification
    raises the reference's SynthError for the same first offending slot."""
    body, column = case
    rs = parse_ruleset(make_ruleset([body], format_classes={"c": pattern}))
    r = rs.rules[0]
    schema = _CATALOG.get("m")
    cells = st.lists(st.sampled_from(_VALUES[column]), max_size=30)
    tables = {"m": {column: data.draw(cells)}, "r": {column: data.draw(cells)}}
    parents = data.draw(st.none() | st.sets(st.sampled_from(_VALUES[column][:-1])))
    flips = data.draw(st.lists(st.integers(0, 10**6), max_size=2))

    col = tables["m"][column]
    passes = synthkit._CHECKS[type(r.kind)](r, schema, rs, parents)
    assert synthkit._failing_rows(passes, col) == [
        i for i, v in enumerate(col)
        if not reference.value_passes(r, v, schema, rs, parents)]
    slots = [(e, c, i) for e, c in r.targets for i in range(len(tables[e][c]))]
    failing = {s for s in slots
               if not reference.value_passes(r, tables[s[0]][s[1]][s[2]],
                                             schema, rs, parents)}
    chosen = sorted(failing.symmetric_difference(slots[i % len(slots)] for i in flips)
                    if slots else set())
    assert _outcome(synthkit._verify, r, tables, chosen, schema, rs, parents) == \
        _outcome(reference.verify, r, tables, slots, chosen, schema, rs, parents)


def test_every_per_value_kind_has_a_bound_check():
    assert sorted(kind.name for kind in synthkit._CHECKS) == sorted(_PER_VALUE_KINDS)


_PINNED = parse_ruleset(make_ruleset([
    rule("syn", "item", ["code"], "EXAC_SINT", "syntax", {"pattern": "^C[0-9]{5}$"}),
    rule("fc", "m", ["t"], "CONS_FORM", "format_class",
         {"class": "c", "extra_targets": [["r", "t"]]}),
], format_classes={"c": "^C[0-9]+$"}))
_PINNED_SCHEMAS = {"item": load_catalog(json.dumps(SCHEMA)).get("item"),
                   "m": _CATALOG.get("m")}


# the two messages a planned rule's verification can raise, pinned exactly;
# slots run target by target, then row by row
@pytest.mark.parametrize("rule_id, tables, chosen, message", [
    ("syn", {"item": {"code": ["C00001", "C00002", "C00003"]}}, [("item", "code", 1)],
     "rule 'syn': planned violating value 'C00002' at item.code[1] passes the check"),
    ("syn", {"item": {"code": ["C00001", "*", "C0003", "*"]}},
     [("item", "code", 1), ("item", "code", 3)],
     "rule 'syn': baseline value 'C0003' at item.code[2] fails the check"),
    ("syn", {"item": {"code": ["*", "C00002", "x", "C00004"]}}, [("item", "code", 0)],
     "rule 'syn': baseline value 'x' at item.code[2] fails the check"),
    ("syn", {"item": {"code": ["C00001", "*", "C00003"]}}, [("item", "code", 1)], None),
    ("fc", {"m": {"t": ["C1", "x", "C3"]}, "r": {"t": ["y", "C2"]}}, [],
     "rule 'fc': baseline value 'x' at m.t[1] fails the check"),
    ("fc", {"m": {"t": ["C1", "x", "C3"]}, "r": {"t": ["y", "C2"]}},
     [("m", "t", 1), ("r", "t", 1)],
     "rule 'fc': baseline value 'y' at r.t[0] fails the check"),
    ("fc", {"m": {"t": ["C1", "x", "C3"]}, "r": {"t": ["C2", "C2"]}}, [("r", "t", 1)],
     "rule 'fc': baseline value 'x' at m.t[1] fails the check"),
    ("fc", {"m": {"t": ["C1", "C3"]}, "r": {"t": ["y", "C2"]}},
     [("r", "t", 0), ("r", "t", 1)],
     "rule 'fc': planned violating value 'C2' at r.t[1] passes the check"),
    ("fc", {"m": {"t": ["C1", "x"]}, "r": {"t": ["y"]}}, [("m", "t", 1), ("r", "t", 0)],
     None),
], ids=["planned-passes", "baseline-fails", "first-baseline-fails", "ok",
        "two-targets-own-baseline-fails", "two-targets-extra-baseline-fails",
        "two-targets-own-before-extra", "two-targets-planned-passes", "two-targets-ok"])
def test_verification_messages(rule_id, tables, chosen, message):
    r = {x.id: x for x in _PINNED.rules}[rule_id]
    schema = _PINNED_SCHEMAS[r.entity]
    slots = [(e, c, i) for e, c in r.targets for i in range(len(tables[e][c]))]
    assert _outcome(synthkit._verify, r, tables, chosen, schema, _PINNED, None) == message
    assert _outcome(reference.verify, r, tables, slots, chosen, schema, _PINNED,
                    None) == message
