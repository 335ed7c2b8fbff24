"""From base measures to quality values, levels, profiles, and the verdict.

The pipeline is bottom-up: rule measures aggregate into a property quality
value in [0, 100] (micro = record-weighted ratio, macro = mean of per-rule
ratios), values discretize into property levels 1..5 through threshold
bands (half-open low, closed top), per-characteristic level counts form a
profile vector, and a profiling table of per-range caps turns the profile
into a characteristic level 0..5. Certification requires every evaluated
characteristic to reach at least level 3. All arithmetic is exact
(fractions), so boundary cases never drift. Scoring reads only each rule's
(property, A, B) and gives report.json's properties, characteristics and
verdict members as the document holds them.
"""

from __future__ import annotations

from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NothingEvaluated, OutOfRange, ParseError
from .host import Record
from . import canonical
from .reporting import render_value
from .taxonomy import Characteristic, Property, parse_characteristic

if TYPE_CHECKING:
    from .reporting import MeasureSet
    from .rules import RuleSet

DEFAULT_THRESHOLDS = (20, 40, 70, 85)

# Published example cap table for a three-property characteristic; the
# literal 3 entries are the property count and scale with it (see
# default_profiling_table), the 0/1/2 entries are fixed.
_BASE_CAPS = (
    (None, None, None, None),  # range 0: unconditional
    (3, 3, 3, 3),
    (2, 3, 3, 3),
    (0, 1, 2, 3),
    (0, 0, 0, 3),
    (0, 0, 0, 0),
)


class LevelThresholds(Record):
    """Four strictly increasing boundaries t1<t2<t3<t4 inside (0, 100)."""
    boundaries: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        b = self.boundaries
        if len(b) != 4:
            raise ValueError("thresholds need exactly four boundaries")
        if not all(0 < t < 100 for t in b):
            raise ValueError("thresholds must lie strictly inside (0, 100)")
        if not (b[0] < b[1] < b[2] < b[3]):
            raise ValueError("thresholds must be strictly increasing")

    @classmethod
    def of(cls, *boundaries) -> "LevelThresholds":
        return cls(tuple(Fraction(t) for t in boundaries))


def default_thresholds() -> LevelThresholds:
    return LevelThresholds.of(*DEFAULT_THRESHOLDS)


class ProfilingTable(Record):
    """Per-range caps. caps[r][l-1] bounds the cumulative count of properties
    at level <= l for the range to be satisfied; None means unbounded.
    Range 0 is unconditional and must carry no caps."""
    caps: tuple[tuple[int | None, ...], ...]  # 6 rows × 4 levels

    def __post_init__(self):
        if len(self.caps) != 6 or any(len(row) != 4 for row in self.caps):
            raise ValueError("profiling table must be 6 ranges x 4 levels")
        if any(c is not None for c in self.caps[0]):
            raise ValueError("range 0 is unconditional; its caps must be null")
        for level in range(4):
            prev: int | None = None
            for r in range(1, 6):
                cap = self.caps[r][level]
                if cap is not None and cap < 0:
                    raise ValueError("caps must be non-negative")
                if cap is None:
                    continue
                if prev is not None and cap > prev:
                    raise ValueError("caps must be non-increasing as the range grows")
                prev = cap


def default_profiling_table(property_count: int) -> ProfilingTable:
    """The published example table scaled to a characteristic with
    `property_count` evaluated properties (its no-cap entries equal that
    count). Literal caps clamp at the property count: a cap can never bind
    above it, so clamping preserves behavior while keeping caps monotone
    for small characteristics."""
    rows = []
    for base in _BASE_CAPS:
        rows.append(tuple(None if c is None
                          else property_count if c == 3
                          else min(c, property_count) for c in base))
    return ProfilingTable(tuple(rows))


# --------------------------------------------------------------------------
# Steps

def property_value(pairs: list[tuple[int, int]],
                   mode: str = "micro") -> Fraction | None:
    """Aggregate one property's (A, B) measures into a quality value in [0, 100].

    micro: 100·ΣA/ΣB (record-weighted); macro: 100·mean(A_i/B_i).
    Not-applicable measures (B = 0) are excluded; None when nothing is
    applicable.
    """
    if mode not in ("micro", "macro"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    applicable = [(a, b) for a, b in pairs if b > 0]
    if not applicable:
        return None
    if mode == "micro":
        return Fraction(100) * Fraction(sum(a for a, _ in applicable),
                                        sum(b for _, b in applicable))
    return Fraction(100) * sum(Fraction(a, b) for a, b in applicable) \
        / len(applicable)


def value_to_level(value, thresholds: LevelThresholds) -> int:
    """Band a quality value into level 1..5 (half-open low, closed top)."""
    v = Fraction(value) if not isinstance(value, Fraction) else value
    if not (0 <= v <= 100):
        raise OutOfRange(f"quality value {value} outside [0, 100]")
    for level, bound in enumerate(thresholds.boundaries, start=1):
        if v < bound:
            return level
    return 5


def make_profile(levels) -> tuple[int, int, int, int, int]:
    """How many of the levels sit at each of 1..5; not-evaluated properties
    are excluded upstream."""
    counts = [0, 0, 0, 0, 0]
    for level in levels:
        if not 1 <= level <= 5:
            raise ValueError(f"property level {level} outside 1..5")
        counts[level - 1] += 1
    return tuple(counts)


def profile_to_level(profile: tuple[int, ...], table: ProfilingTable) -> int:
    """Best satisfied range, scanning 5 down to 1; 0 when none is satisfied.

    Range r is satisfied iff for every level l in 1..4 the cumulative count
    of properties at level <= l stays within caps[r][l] (null caps skip)."""
    cumulative = []
    running = 0
    for c in profile[:4]:
        running += c
        cumulative.append(running)
    for r in range(5, 0, -1):
        caps = table.caps[r]
        if all(cap is None or cumulative[l] <= cap for l, cap in enumerate(caps)):
            return r
    return 0


def certification_eligibility(characteristics: list[dict]) -> dict:
    """A report's verdict member from its characteristics member: eligible iff
    every evaluated characteristic reached at least level 3; the reasons are
    those below it."""
    evaluated = [c for c in characteristics if c["level"] is not None]
    if not evaluated:
        raise NothingEvaluated("no characteristic was evaluated")
    reasons = [{"characteristic": c["characteristic"], "level": c["level"]}
               for c in evaluated if c["level"] < 3]
    return {"eligible": not reasons, "reasons": reasons}


# --------------------------------------------------------------------------
# Configuration

class ScoringConfig(Record):
    thresholds: LevelThresholds
    profiles: tuple[tuple[Characteristic, ProfilingTable], ...] = ()
    aggregation: str = "micro"

    def table_for(self, characteristic: Characteristic,
                  evaluated_count: int) -> ProfilingTable:
        for c, table in self.profiles:
            if c is characteristic:
                return table
        return default_profiling_table(evaluated_count)

    def to_json(self) -> dict:
        return {
            "thresholds": [_fraction_json(t) for t in self.thresholds.boundaries],
            "profiles": {c.value: [list(row) for row in table.caps]
                         for c, table in self.profiles},
            "aggregation": self.aggregation,
        }


def default_config() -> ScoringConfig:
    return ScoringConfig(default_thresholds())


def _fraction_json(f: Fraction):
    if f.denominator == 1:
        return f.numerator
    return Decimal(f.numerator) / Decimal(f.denominator)


def load_config(document: str) -> ScoringConfig:
    """Parse the thresholds/profiles/aggregation override document."""
    try:
        data = canonical.load_document(document)
    except ParseError as exc:
        raise ParseError(f"malformed config: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    unknown = set(data) - {"thresholds", "profiles", "aggregation"}
    if unknown:
        raise ParseError("unknown config keys: " + ", ".join(sorted(unknown)))

    thresholds = default_thresholds()
    if "thresholds" in data:
        raw = data["thresholds"]
        if not (isinstance(raw, list) and len(raw) == 4
                and all(type(t) in (int, Decimal) for t in raw)):
            raise ParseError("thresholds must be a list of four numbers")
        try:
            thresholds = LevelThresholds.of(*raw)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    profiles = []
    if "profiles" in data:
        if not isinstance(data["profiles"], dict):
            raise ParseError("profiles must map characteristic names to cap matrices")
        for name, rows in data["profiles"].items():
            try:
                characteristic = parse_characteristic(name)
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            if not (isinstance(rows, list) and len(rows) == 6
                    and all(isinstance(r, list) and len(r) == 4 for r in rows)):
                raise ParseError(f"profile for {name} must be a 6x4 matrix")
            bad = [cap for row in rows for cap in row
                   if cap is not None and type(cap) is not int]
            if bad:
                raise ParseError(f"profile caps must be integers or null, got {bad[0]!r}")
            try:
                profiles.append((characteristic, ProfilingTable(tuple(map(tuple, rows)))))
            except ValueError as exc:
                raise ParseError(f"profile for {name}: {exc}") from None

    aggregation = data.get("aggregation", "micro")
    if aggregation not in ("micro", "macro"):
        raise ParseError("aggregation must be 'micro' or 'macro'")
    return ScoringConfig(thresholds, tuple(profiles), aggregation)


# --------------------------------------------------------------------------
# Full pipeline

def score(items: Iterable[tuple[Property, int, int]],
          config: ScoringConfig | None = None) -> dict:
    """Score (property, A, B) items, one per rule, into a report's
    properties, characteristics and verdict members.

    Strengths are properties at level >= 4, weaknesses at level <= 2;
    characteristics with no evaluated property are excluded from the verdict.
    """
    config = config or default_config()
    by_prop: dict[Property, list[tuple[int, int]]] = {}
    for prop, a, b in items:
        by_prop.setdefault(prop, []).append((a, b))

    properties = []
    for prop in Property:
        pairs = by_prop.get(prop)
        if not pairs:
            continue
        value = property_value(pairs, config.aggregation)
        level = value_to_level(value, config.thresholds) if value is not None else None
        properties.append({
            "property": prop.value,
            "characteristic": prop.characteristic.value,
            "value": render_value(value),
            "level": level,
            "sum_a": sum(a for a, b in pairs if b > 0),
            "sum_b": sum(b for _, b in pairs),
            "rule_count": len(pairs),
        })

    characteristics = []
    for characteristic in Characteristic:
        char_props = [p for p in properties
                      if p["characteristic"] == characteristic.value]
        if not char_props:
            continue
        levels = [p["level"] for p in char_props if p["level"] is not None]
        profile = make_profile(levels)
        level = None
        if levels:
            table = config.table_for(characteristic, len(levels))
            level = profile_to_level(profile, table)
        characteristics.append({
            "characteristic": characteristic.value,
            "profile": list(profile),
            "level": level,
            "strengths": [p["property"] for p in char_props
                          if p["level"] is not None and p["level"] >= 4],
            "weaknesses": [p["property"] for p in char_props
                           if p["level"] is not None and p["level"] <= 2],
        })

    return {"properties": properties, "characteristics": characteristics,
            "verdict": certification_eligibility(characteristics)}


def score_all(ms: MeasureSet, rs: RuleSet,
              config: ScoringConfig | None = None) -> dict:
    """`score` over each rule's (property, A, B)."""
    return score(((r.property, ms.measures[r.id].a, ms.measures[r.id].b)
                  for r in rs.rules), config)
