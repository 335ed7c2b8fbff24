"""`host.Record` against the frozen dataclass each record class was: for
every record class of the package, a dataclass with the same fields
and defaults, built by `dataclasses.make_dataclass`, is the reference for
construction, `==`, `hash`, `repr`, immutability, `replace` and pickling."""

from __future__ import annotations

import dataclasses
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dqeval import dataset, expr, reporting, rules, scenarios, scoring, synthkit
from dqeval.expr import And, Column, Literal, Or
from dqeval.host import Record
from dqeval.reporting import MeasureSet, RuleMeasure
from dqeval.scoring import LevelThresholds, ProfilingTable

# Each record class, its fields in constructor order, and its defaults: the
# constructors that every caller, the benchmark's included, relies on.
SIGNATURES = [
    (expr.Literal, "value", {}),
    (expr.Column, "name", {}),
    (expr.Compare, "op left right", {}),
    (expr.And, "left right", {}),
    (expr.Or, "left right", {}),
    (expr.Not, "operand", {}),
    (expr.Arith, "op left right", {}),
    (expr.Neg, "operand", {}),
    (expr.Call, "func args", {}),
    (expr._Func, "lo hi params result impl", {}),
    (expr._Token, "kind text pos", {}),
    (rules.Syntax, "pattern", {}),
    (rules.Range, "min max min_inclusive max_inclusive",
     {"min": None, "max": None, "min_inclusive": True, "max_inclusive": True}),
    (rules.Domain, "allowed reference", {"allowed": (), "reference": None}),
    (rules.NotNull, "", {}),
    (rules.NoDefault, "placeholders", {"placeholders": ()}),
    (rules.Unique, "key", {"key": ()}),
    (rules.MinCount, "threshold", {"threshold": 0}),
    (rules.ForeignKey, "referenced", {"referenced": ("", "")}),
    (rules.FormatClass, "class_name pattern extra_targets",
     {"class_name": "", "pattern": "", "extra_targets": ()}),
    (rules.Predicate, "expr", {"expr": None}),
    (rules.Freshness, "timestamp_column max_age_days condition",
     {"timestamp_column": "", "max_age_days": Decimal(0), "condition": None}),
    (rules.Frequency, "timestamp_column max_gap_days",
     {"timestamp_column": "", "max_gap_days": Decimal(0)}),
    (rules.Rule, "id entity columns property kind where skip_null description",
     {"where": None, "skip_null": False, "description": ""}),
    (rules.RuleSet, "name version reference_time rules format_classes",
     {"format_classes": ()}),
    (rules.Diagnostic, "level rule_id message", {}),
    (dataset.ColumnSchema, "name datatype nullable", {"nullable": False}),
    (dataset.EntitySchema, "name columns key", {"key": ()}),
    (dataset.SchemaCatalog, "entities", {}),
    (dataset.Repository, "catalog entities fingerprint", {}),
    (reporting.RuleMeasure, "rule_id a b failing failing_total elapsed",
     {"elapsed": 0.0}),
    (reporting.MeasureSet, "measures ruleset_fingerprint snapshot_fingerprint record_key",
     {"record_key": reporting._no_keys}),
    (scoring.LevelThresholds, "boundaries", {}),
    (scoring.ProfilingTable, "caps", {}),
    (scoring.ScoringConfig, "thresholds profiles aggregation",
     {"profiles": (), "aggregation": "micro"}),
    (synthkit.ColumnGen, "kind params null_rate", {"null_rate": Decimal(0)}),
    (synthkit.EntityPlan, "rows columns", {}),
    (synthkit.ViolationPlan, "rule_id rate violating", {"violating": ()}),
    (synthkit.SynthSpec, "seed entities violations", {}),
    (synthkit.ExpectedMeasures, "measures", {}),
    (synthkit.Discrepancy, "rule_id expected actual", {}),
    (scenarios.PropertyPlan, "property kinds rates fail_counts", {"fail_counts": None}),
    (scenarios.OrgProfile, "org fact_entities rows plans", {}),
    (scenarios.ScenarioBundle, "name catalog ruleset spec", {}),
]
UNCOMPARED = {(RuleMeasure, "elapsed"), (MeasureSet, "record_key")}
UNSHOWN = {(MeasureSet, "record_key")}


def _reference(cls, names: str, defaults: dict):
    """The frozen dataclass that cls was."""
    fields = []
    for name in names.split():
        options = {"compare": (cls, name) not in UNCOMPARED,
                   "repr": (cls, name) not in UNSHOWN}
        if name in defaults:
            options["default"] = defaults[name]
        fields.append((name, object, dataclasses.field(**options)))
    namespace = ({"__post_init__": cls.__post_init__}
                 if "__post_init__" in vars(cls) else {})
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace=namespace)


REFERENCES = {cls: _reference(cls, names, defaults)
              for cls, names, defaults in SIGNATURES}


def test_every_record_class_is_listed():
    """The table covers each Record subclass of the package."""
    found = {obj for module in (dataset, expr, reporting, rules, scenarios, scoring,
                                synthkit)
             for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, Record)
             and obj.__module__ == module.__name__}
    assert found - {expr.Expr} == {cls for cls, _, _ in SIGNATURES}
    assert len(SIGNATURES) == 44


@pytest.mark.parametrize("cls, names, defaults", SIGNATURES,
                         ids=[cls.__name__ for cls, _, _ in SIGNATURES])
def test_fields_and_defaults(cls, names, defaults):
    assert cls._fields == tuple(names.split())
    assert cls._defaults == defaults
    assert not dataclasses.is_dataclass(cls)


_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text("ab'", max_size=2),
    st.decimals(-10, 10, places=1), st.floats(allow_nan=False, width=16),
    st.tuples(st.integers(0, 2)), st.lists(st.integers(0, 2), max_size=2),
    st.sampled_from([Column("x"), Literal("x"), Fraction(1, 3)]))


def _outcome(call):
    """What a call gives: its value, or the type of what it raised, with the
    message for the refusals whose wording callers see."""
    try:
        return "value", call()
    except AttributeError as exc:  # the dataclass's FrozenInstanceError is one
        return "AttributeError", str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)
    except TypeError:
        return "TypeError", None


@st.composite
def calls(draw):
    """A record class, the arguments of one call to it (positional, keyword
    or left to the default), and the field values of a second instance."""
    cls, names, defaults = draw(st.sampled_from(SIGNATURES))
    names = names.split()
    values = draw(st.lists(_VALUES, min_size=len(names), max_size=len(names)))
    n = draw(st.integers(0, len(names)))
    kwargs = {f: v for f, v in zip(names[n:], values[n:])
              if f not in defaults or draw(st.booleans())}
    other = draw(st.just(values) | st.lists(_VALUES, min_size=len(names),
                                             max_size=len(names)))
    return cls, tuple(values[:n]), kwargs, other


def _built(cls, args, kwargs):
    return _outcome(lambda: cls(*args, **kwargs))


@settings(max_examples=500, deadline=None)
@given(calls(), st.data())
def test_record_behaves_as_its_dataclass(call, data):
    cls, args, kwargs, other = call
    ref = REFERENCES[cls]
    built, made = _built(cls, args, kwargs), _built(ref, args, kwargs)
    assert built[0] == made[0]
    if built[0] != "value":
        assert built == made
        return
    record, instance = built[1], made[1]
    assert repr(record) == repr(instance)
    assert not hasattr(record, "__dict__")
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(instance))

    second, second_ref = _built(cls, other, {}), _built(ref, other, {})
    if second[0] == "value":
        assert (record == second[1]) == (instance == second_ref[1])
        assert (record != second[1]) == (instance != second_ref[1])
    assert record != instance and record != tuple(other)

    for name in (*cls._fields[:1], "not_a_field"):
        assert _outcome(lambda: setattr(record, name, 1)) == \
            _outcome(lambda: setattr(instance, name, 1))
        assert _outcome(lambda: delattr(record, name)) == \
            _outcome(lambda: delattr(instance, name))

    if cls._fields:
        name = data.draw(st.sampled_from(cls._fields))
        value = data.draw(_VALUES)
        replaced = _outcome(lambda: record.replace(**{name: value}))
        expected = _outcome(lambda: dataclasses.replace(instance, **{name: value}))
        assert replaced[0] == expected[0]
        if replaced[0] == "value":
            assert repr(replaced[1]) == repr(expected[1])
            assert replaced[1] == record.replace(**{name: value})

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and repr(copy) == repr(record) and copy == record


def test_records_of_different_classes_are_unequal():
    a, b = Column("a"), Column("b")
    assert Column("x") != Literal("x") and not Column("x") == Literal("x")
    assert And(a, b) != Or(a, b)
    assert len({Column("x"), Literal("x"), And(a, b), Or(a, b)}) == 4


def test_uncompared_fields_are_left_out_of_equality():
    fast = RuleMeasure("r", 1, 2, (("e", 0),), 1, 0.25)
    slow = RuleMeasure("r", 1, 2, (("e", 0),), 1, 9.5)
    assert fast == slow and hash(fast) == hash(slow)
    assert repr(fast) == "RuleMeasure(rule_id='r', a=1, b=2, failing=(('e', 0),), " \
                         "failing_total=1, elapsed=0.25)"
    keyed = MeasureSet({"r": fast}, "rf", "sf", lambda entity, row: {"id": row})
    assert keyed == MeasureSet({"r": slow}, "rf", "sf")
    assert repr(keyed) == f"MeasureSet(measures={{'r': {fast!r}}}, " \
                          "ruleset_fingerprint='rf', snapshot_fingerprint='sf')"


@pytest.mark.parametrize("build, message", [
    (lambda: LevelThresholds.of(20, 40, 70), "thresholds need exactly four boundaries"),
    (lambda: LevelThresholds.of(0, 40, 70, 85), "thresholds must lie strictly inside (0, 100)"),
    (lambda: LevelThresholds.of(20, 20, 70, 85), "thresholds must be strictly increasing"),
    (lambda: LevelThresholds.of(20, 40, 70, 85).replace(boundaries=(1, 2)),
     "thresholds need exactly four boundaries"),
    (lambda: ProfilingTable(((None,) * 4,) * 5), "profiling table must be 6 ranges x 4 levels"),
    (lambda: ProfilingTable(((1,) * 4,) * 6), "range 0 is unconditional; its caps must be null"),
    (lambda: ProfilingTable(((None,) * 4, (-1,) * 4) + ((0,) * 4,) * 4),
     "caps must be non-negative"),
    (lambda: ProfilingTable(((None,) * 4, (0,) * 4, (1,) * 4) + ((0,) * 4,) * 3),
     "caps must be non-increasing as the range grows"),
])
def test_checked_records_refuse_with_their_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
