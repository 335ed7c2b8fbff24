from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import make_ruleset, rule
from dqeval.errors import NothingEvaluated, OutOfRange, ParseError
from dqeval.reporting import MeasureSet, RuleMeasure
from dqeval.rules import parse_ruleset
from dqeval.scoring import (LevelThresholds, ProfilingTable,
                            certification_eligibility, default_config,
                            default_profiling_table, default_thresholds,
                            load_config, make_profile, profile_to_level,
                            property_value, score_all, value_to_level)
from dqeval.taxonomy import Characteristic


def _m(rule_id: str, a: int, b: int) -> RuleMeasure:
    return RuleMeasure(rule_id, a, b, (), max(b - a, 0))


# --------------------------------------------------------------------------
# property_value

def test_micro_average():
    assert property_value([(3, 4), (9, 16)], "micro") == Fraction(60)


def test_macro_average():
    # mean(0.75, 0.5625) * 100
    assert property_value([(3, 4), (9, 16)], "macro") == Fraction(100) * Fraction(21, 32)


def test_fully_compliant_rule_scores_100():
    assert property_value([(7, 7)]) == Fraction(100)


def test_all_not_applicable_is_not_evaluated():
    assert property_value([(0, 0)]) is None


def test_not_applicable_measures_excluded_first():
    assert property_value([(3, 4), (0, 0)]) == Fraction(75)


# --------------------------------------------------------------------------
# value_to_level

def test_published_band_probes():
    t = default_thresholds()
    probes = [0, Decimal("19.99"), 20, Decimal("39.99"), 40, Decimal("69.99"),
              70, Decimal("84.99"), 85, 100]
    assert [value_to_level(v, t) for v in probes] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_value_90_is_level_5():
    assert value_to_level(90, default_thresholds()) == 5


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange):
        value_to_level(101, default_thresholds())
    with pytest.raises(OutOfRange):
        value_to_level(-1, default_thresholds())


def test_thresholds_must_increase():
    with pytest.raises(ValueError):
        LevelThresholds.of(20, 20, 70, 85)
    with pytest.raises(ValueError):
        LevelThresholds.of(0, 40, 70, 85)


@given(st.integers(0, 10000), st.integers(0, 10000))
def test_value_to_level_monotone(a, b):
    t = default_thresholds()
    va, vb = Fraction(a, 100), Fraction(b, 100)
    if va <= vb:
        assert value_to_level(va, t) <= value_to_level(vb, t)


# --------------------------------------------------------------------------
# profiles

def test_worked_accuracy_profile():
    assert make_profile([4, 4, 3]) == (0, 0, 1, 2, 0)


def test_all_fives():
    assert make_profile([5, 5, 5]) == (0, 0, 0, 0, 3)


def test_empty_profile():
    assert make_profile([]) == (0, 0, 0, 0, 0)


def test_profile_order_independent():
    assert make_profile([3, 4, 4]) == make_profile([4, 3, 4])


def test_worked_profile_reaches_level_3():
    table = default_profiling_table(3)
    assert profile_to_level(make_profile([4, 4, 3]), table) == 3


def test_all_fives_reach_level_5():
    table = default_profiling_table(3)
    assert profile_to_level(make_profile([5, 5, 5]), table) == 5


def test_mixed_profile_lands_at_2():
    table = default_profiling_table(3)
    assert profile_to_level((1, 0, 0, 0, 2), table) == 2


def test_three_ones_land_at_1():
    table = default_profiling_table(3)
    assert profile_to_level((3, 0, 0, 0, 0), table) == 1


def test_level_zero_when_nothing_satisfied():
    # all caps zero outside range 0: any occupied profile falls through
    table = ProfilingTable((
        (None, None, None, None),
        (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    assert profile_to_level((1, 0, 0, 0, 0), table) == 0


def test_table_invariants_enforced():
    with pytest.raises(ValueError, match="non-increasing"):
        ProfilingTable((
            (None, None, None, None),
            (1, 1, 1, 1), (2, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="unconditional"):
        ProfilingTable((
            (1, 1, 1, 1),
            (1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))


@given(st.lists(st.integers(1, 5), min_size=1, max_size=6), st.integers(0, 5))
def test_profile_improvement_never_lowers_level(levels, which):
    table = default_profiling_table(len(levels))
    before = profile_to_level(make_profile(levels), table)
    improved = list(levels)
    index = which % len(levels)
    if improved[index] < 5:
        improved[index] += 1
    after = profile_to_level(make_profile(improved), table)
    assert after >= before


# --------------------------------------------------------------------------
# verdict

def _char(c: Characteristic, level: int | None) -> dict:
    """A report's characteristics member, as certification_eligibility reads it."""
    return {"characteristic": c.value, "profile": [0, 0, 0, 0, 0], "level": level,
            "strengths": [], "weaknesses": []}


def test_two_characteristics_below_threshold():
    results = [
        _char(Characteristic.ACCURACY, 1),
        _char(Characteristic.COMPLETENESS, 5),
        _char(Characteristic.CONSISTENCY, 1),
        _char(Characteristic.CREDIBILITY, 5),
        _char(Characteristic.CURRENTNESS, 5),
    ]
    assert certification_eligibility(results) == {"eligible": False, "reasons": [
        {"characteristic": "Accuracy", "level": 1},
        {"characteristic": "Consistency", "level": 1}]}


def test_all_fives_eligible():
    assert certification_eligibility([_char(c, 5) for c in Characteristic]) == \
        {"eligible": True, "reasons": []}


def test_all_threes_eligible():
    assert certification_eligibility([_char(c, 3) for c in Characteristic])["eligible"]


def test_not_evaluated_excluded():
    assert certification_eligibility([
        _char(Characteristic.ACCURACY, 3),
        _char(Characteristic.CURRENTNESS, None)])["eligible"]


def test_nothing_evaluated_raises():
    with pytest.raises(NothingEvaluated):
        certification_eligibility([_char(Characteristic.ACCURACY, None)])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=5))
def test_verdict_iff_min_level_at_least_3(levels):
    results = [_char(c, lv) for c, lv in zip(Characteristic, levels)]
    assert certification_eligibility(results)["eligible"] == (min(levels) >= 3)


# --------------------------------------------------------------------------
# config

def test_load_config_overrides():
    config = load_config('{"thresholds": [10, 30, 50, 90], "aggregation": "macro"}')
    assert config.aggregation == "macro"
    assert value_to_level(45, config.thresholds) == 3


def test_load_config_rejects_bad_thresholds():
    with pytest.raises(ParseError):
        load_config('{"thresholds": [10, 30, 50]}')
    with pytest.raises(ParseError):
        load_config('{"aggregation": "median"}')


def test_load_config_profile_matrix():
    rows = "[[null,null,null,null],[3,3,3,3],[2,3,3,3],[0,1,2,3],[0,0,0,3],[0,0,0,0]]"
    config = load_config('{"profiles": {"Accuracy": %s}}' % rows)
    table = config.table_for(Characteristic.ACCURACY, 3)
    assert table.caps[3] == (0, 1, 2, 3)
    # other characteristics fall back to the scaled default
    assert config.table_for(Characteristic.CREDIBILITY, 2).caps[1] == (2, 2, 2, 2)


# --------------------------------------------------------------------------
# score_all composition

def _score_single_property(value_pct: int):
    rs = parse_ruleset(make_ruleset([
        rule("r", "e", ["c"], "EXAC_SINT", "syntax", {"pattern": "x"})]))
    ms = MeasureSet({"r": _m("r", value_pct, 100)}, "rf", "sf")
    return score_all(ms, rs, default_config())


def test_single_property_value_60_gives_level_3():
    result = _score_single_property(60)
    assert result["properties"] == [{
        "property": "EXAC_SINT", "characteristic": "Accuracy",
        "value": Decimal("60.0000"), "level": 3, "sum_a": 60, "sum_b": 100,
        "rule_count": 1}]
    assert result["characteristics"][0]["level"] == 3
    assert result["verdict"]["eligible"]


def test_all_compliant_gives_level_5():
    result = _score_single_property(100)
    assert result["characteristics"][0]["level"] == 5


def test_strengths_and_weaknesses_cut():
    rs = parse_ruleset(make_ruleset([
        rule("hi", "e", ["c"], "EXAC_SINT", "syntax", {"pattern": "x"}),
        rule("lo", "e", ["d"], "RAN_EXAC", "range", {"min": 0}),
    ]))
    ms = MeasureSet({"hi": _m("hi", 90, 100), "lo": _m("lo", 10, 100)}, "rf", "sf")
    result = score_all(ms, rs, default_config())
    acc = result["characteristics"][0]
    assert acc["strengths"] == ["EXAC_SINT"]
    assert acc["weaknesses"] == ["RAN_EXAC"]


def test_characteristic_without_rules_absent():
    result = _score_single_property(50)
    assert [c["characteristic"] for c in result["characteristics"]] == ["Accuracy"]
