"""Base measures, evaluation reports, improvement manifests, and report
comparison.

Reports serialize canonically (stable key order, exact decimal rendering,
no wall-clock timestamps), so identical inputs always produce byte-identical
documents. Improvement manifests locate every non-compliant record, grouped
by (entity, property); each failing rule also carries a negated selector
expression where the row-expression language can express the violation
(cross-row and cross-entity kinds rely on the explicit record refs).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from . import canonical
from .errors import DqError, FingerprintMismatch, ParseError, ScopeMismatch
from .host import plain_name, write_atomic
from .taxonomy import Characteristic, Property, parse_property
from .values import format_timestamp, parse_timestamp

# Annotations only: improve, certify and compare load none of the evaluation
# layers, and every start-up pays for what it imports.
if TYPE_CHECKING:
    from .dataset import Repository
    from .rules import RuleSet
    from .scoring import ScoreResult, ScoringConfig

_FOUR_PLACES = Decimal("0.0001")


def _render_value(value: Fraction | None) -> Decimal | None:
    if value is None:
        return None
    return (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        _FOUR_PLACES, rounding=ROUND_HALF_EVEN)


# --------------------------------------------------------------------------
# Report document model

@dataclass(frozen=True)
class ReportMetadata:
    ruleset_name: str
    ruleset_version: str
    ruleset_fingerprint: str
    snapshot_fingerprint: str
    reference_time: datetime
    tool_version: str
    config: dict  # the ScoringConfig.to_json() echo


@dataclass(frozen=True)
class MeasureSummary:
    rule_id: str
    entity: str
    property: Property
    kind: str
    a: int
    b: int
    failing_total: int
    selector: str | None

    @property
    def ratio(self) -> Decimal | None:
        """A/B rendered to four places, or None when not applicable (B = 0)."""
        return _render_value(Fraction(self.a, self.b)) if self.b else None


@dataclass(frozen=True)
class PropertyReport:
    property: Property
    value: Decimal | None
    level: int | None
    sum_a: int
    sum_b: int
    rule_count: int


@dataclass(frozen=True)
class CharacteristicReport:
    characteristic: Characteristic
    profile: tuple[int, int, int, int, int]
    level: int | None
    strengths: tuple[Property, ...]
    weaknesses: tuple[Property, ...]


@dataclass(frozen=True)
class EvaluationReport:
    metadata: ReportMetadata
    entity_rows: tuple[tuple[str, int], ...]
    measures: tuple[MeasureSummary, ...]
    properties: tuple[PropertyReport, ...]
    characteristics: tuple[CharacteristicReport, ...]
    eligible: bool
    reasons: tuple[tuple[Characteristic, int], ...]

    @property
    def rule_counts(self) -> tuple[tuple[Characteristic, int], ...]:
        """How many rules each characteristic has, in taxonomy order."""
        counts = dict.fromkeys(Characteristic, 0)
        for m in self.measures:
            counts[m.property.characteristic] += 1
        return tuple(counts.items())

    def characteristic(self, c: Characteristic) -> CharacteristicReport | None:
        for r in self.characteristics:
            if r.characteristic is c:
                return r
        return None


# --------------------------------------------------------------------------
# Building

def build_report(rs: RuleSet, repo: Repository, ms: MeasureSet,
                 result: ScoreResult, config: ScoringConfig,
                 tool_version: str) -> EvaluationReport:
    """Assemble the complete, canonical evaluation report."""
    measures = []
    for rule in rs.rules:
        m = ms.measures[rule.id]
        measures.append(MeasureSummary(
            rule.id, rule.entity, rule.property, rule.kind_name,
            m.a, m.b, m.failing_total, rule.selector(repo.catalog)))

    return EvaluationReport(
        metadata=ReportMetadata(
            rs.name, rs.version, ms.ruleset_fingerprint, ms.snapshot_fingerprint,
            rs.reference_time, tool_version, config.to_json()),
        entity_rows=tuple((name, repo.entities[name].n_rows)
                          for name in sorted(repo.entities)),
        measures=tuple(measures),
        properties=result.properties,
        characteristics=result.characteristics,
        eligible=result.eligible,
        reasons=result.reasons)


# --------------------------------------------------------------------------
# Serialization

def serialize_report(report: EvaluationReport) -> str:
    md = report.metadata
    doc = {
        "metadata": {
            "ruleset_name": md.ruleset_name,
            "ruleset_version": md.ruleset_version,
            "ruleset_fingerprint": md.ruleset_fingerprint,
            "snapshot_fingerprint": md.snapshot_fingerprint,
            "reference_time": format_timestamp(md.reference_time),
            "tool_version": md.tool_version,
            "config": md.config,
        },
        "scope": {
            "entity_count": len(report.entity_rows),
            "row_counts": {name: n for name, n in report.entity_rows},
            "rule_counts": {c.value: n for c, n in report.rule_counts},
            "total_rules": len(report.measures),
        },
        "measures": [
            {
                "rule_id": m.rule_id,
                "entity": m.entity,
                "property": m.property.value,
                "kind": m.kind,
                "a": m.a,
                "b": m.b,
                "ratio": m.ratio,
                "failing_total": m.failing_total,
                "selector": m.selector,
            }
            for m in report.measures
        ],
        "properties": [
            {
                "property": p.property.value,
                "characteristic": p.property.characteristic.value,
                "value": p.value,
                "level": p.level,
                "sum_a": p.sum_a,
                "sum_b": p.sum_b,
                "rule_count": p.rule_count,
            }
            for p in report.properties
        ],
        "characteristics": [
            {
                "characteristic": c.characteristic.value,
                "profile": list(c.profile),
                "level": c.level,
                "strengths": [p.value for p in c.strengths],
                "weaknesses": [p.value for p in c.weaknesses],
            }
            for c in report.characteristics
        ],
        "verdict": {
            "eligible": report.eligible,
            "reasons": [{"characteristic": c.value, "level": lv}
                        for c, lv in report.reasons],
        },
    }
    return canonical.dumps(doc)


def _int(doc: dict, key: str) -> int:
    """doc[key] when it is an integer (a bool is not)."""
    value = doc[key]
    if type(value) is int:
        return value
    raise TypeError(f"{key} must be an integer, not {value!r}")


def _measure(m: dict) -> MeasureSummary:
    """One measure's inputs; its failing_total is B - A, as the engine counts."""
    a, b, failing_total = _int(m, "a"), _int(m, "b"), _int(m, "failing_total")
    if not 0 <= a <= b:
        raise ValueError(f"rule {m['rule_id']}: a {a} and b {b} are not 0 <= a <= b")
    if failing_total != b - a:
        raise ValueError(f"rule {m['rule_id']}: failing_total {failing_total} is not b - a")
    return MeasureSummary(m["rule_id"], m["entity"], parse_property(m["property"]),
                          m["kind"], a, b, failing_total, m["selector"])


def parse_report(text: str) -> EvaluationReport:
    """The report on a document's inputs: the metadata (the config echo read
    by load_config), scope.row_counts and each measure's rule_id, entity,
    property, kind, a, b, failing_total and selector. The rest is derived,
    the scored records through scoring.score, and a document that states it
    otherwise is a ParseError naming the first line that differs."""
    from .scoring import load_config, score  # scoring imports this module
    try:
        data = canonical.loads(text)
    except ValueError as exc:
        raise ParseError(f"malformed report: {exc}") from None
    try:
        md = data["metadata"]
        config = load_config(canonical.dumps(md["config"]))
        metadata = ReportMetadata(
            md["ruleset_name"], md["ruleset_version"], md["ruleset_fingerprint"],
            md["snapshot_fingerprint"], parse_timestamp(md["reference_time"]),
            md["tool_version"], config.to_json())
        row_counts = data["scope"]["row_counts"]
        measures = tuple(map(_measure, data["measures"]))
        result = score([(m.property, m.a, m.b) for m in measures], config)
        report = EvaluationReport(
            metadata, tuple(sorted((n, _int(row_counts, n)) for n in row_counts)),
            measures, result.properties, result.characteristics, result.eligible,
            result.reasons)
        derived = serialize_report(report)
        stated = text if text == derived else canonical.dumps(data)
        if stated != derived:
            line, want = next(pair for pair in zip_longest(
                stated.split("\n"), derived.split("\n"), fillvalue="")
                if pair[0] != pair[1])
            raise ValueError(f"{line.strip()} where the measures give {want.strip()}")
        return report
    except (KeyError, TypeError, ValueError, DqError) as exc:
        raise ParseError(f"invalid report document: {exc}") from None


# --------------------------------------------------------------------------
# Failing records

# Failing-record lists sit at one depth in measures.json (document, measures,
# measure, failing) and in the manifests (document, rules, rule, records).
_RECORDS_LEVEL = 3


def _key_value(value) -> str:
    t = type(value)
    if t is str:
        return canonical._encode_str(value)
    if t is int:
        return str(value)
    return canonical._leaf(value)


def record_writer(record_key: Callable[[str, int], dict], level: int,
                  with_entity: bool) -> Callable[[list], canonical.Raw]:
    """A writer of failing-record lists at `level`: from (entity, row) pairs it
    gives the text canonical.dumps gives [{"entity", "row", "key": {...}}]
    ("entity" only when with_entity), without building the dicts. An
    entity-level record (row None) has an empty key. One row fails many rules,
    so each (entity, row)'s text is made once per writer."""
    lead, sep, close = canonical._layout(level)
    member, member_sep, record_close = canonical._layout(level + 1)
    key_lead, key_sep, key_close = canonical._layout(level + 2)
    texts: dict[tuple[str, int | None], str] = {}

    def record(pair: tuple[str, int | None]) -> str:
        entity, row = pair
        head = "{" + member
        if with_entity:
            head += f'"entity": {canonical._encode_str(entity)}{member_sep}'
        if row is None:
            row_text, key_text = "null", "{}"
        else:
            key = record_key(entity, row)
            members = key_sep.join(f"{canonical._encode_str(name)}: {_key_value(v)}"
                                   for name, v in key.items())
            row_text = str(row)
            key_text = "{" + key_lead + members + key_close + "}" if key else "{}"
        text = texts[pair] = (f'{head}"row": {row_text}{member_sep}"key": '
                              f'{key_text}{record_close}}}')
        return text

    def write(records: list[tuple[str, int | None]]) -> canonical.Raw:
        if not records:
            return canonical.Raw("[]")
        get = texts.get
        return canonical.Raw("[" + lead + sep.join([get(p) or record(p)
                                                    for p in records])
                             + close + "]")

    return write


# --------------------------------------------------------------------------
# Base measures and their document (full failing records; feeds the
# improvement manifests)

@dataclass(frozen=True)
class RuleMeasure:
    rule_id: str
    a: int
    b: int
    failing: list[tuple[str, int | None]]  # (entity, ordinal); None: entity-level
    failing_total: int
    elapsed: float = field(compare=False, default=0.0)

    @property
    def ratio(self) -> Fraction | None:
        """Exact compliance ratio A/B, or None when not applicable (B = 0)."""
        return None if self.b == 0 else Fraction(self.a, self.b)


def _no_keys(entity: str, row: int) -> dict:
    raise LookupError(f"no record keys for {entity} row {row}")


@dataclass(frozen=True)
class MeasureSet:
    measures: dict[str, RuleMeasure]  # rule id → measure, in document order
    ruleset_fingerprint: str
    snapshot_fingerprint: str
    # (entity, row) → the record's key, column name → value: the repository's
    # key columns for an evaluated set, the parsed records for a parsed one
    record_key: Callable[[str, int], dict] = field(
        default=_no_keys, compare=False, repr=False)

    def __iter__(self):
        return iter(self.measures.values())


def serialize_measures(ms: MeasureSet) -> str:
    write_records = record_writer(ms.record_key, _RECORDS_LEVEL, True)
    doc = {
        "ruleset_fingerprint": ms.ruleset_fingerprint,
        "snapshot_fingerprint": ms.snapshot_fingerprint,
        "measures": [
            {
                "rule_id": m.rule_id,
                "a": m.a,
                "b": m.b,
                "failing_total": m.failing_total,
                "failing": write_records(m.failing),
            }
            for m in ms
        ],
    }
    return canonical.dumps(doc)


def _valid_record(entity, row, key) -> bool:
    return (type(entity) is str and type(key) is dict
            and (not key if row is None else type(row) is int)
            and all(type(v) in (str, int, bool, type(None))
                    or type(v) is Decimal and v.is_finite() for v in key.values()))


def parse_measures(text: str) -> MeasureSet:
    """The measures document in the evaluated form: failing (entity, row)
    pairs, with keys looked up in a table built from the records.

    A record needs a text entity that is a plain file name (manifests are
    named after it), an integer row (or null with an empty key) and a key of
    JSON scalars; one (entity, row) with two keys that are not written alike
    is a ParseError."""
    keys: dict[tuple[str, int | None], dict] = {}
    texts: dict[tuple[str, int | None], str] = {}  # first key's repr, once repeated
    try:
        data = canonical.loads(text)
        measures = {}
        for m in data["measures"]:
            failing = []
            for r in m["failing"]:
                pair = (r["entity"], r["row"])
                key = r["key"]
                known = keys.setdefault(pair, key)
                if known is key:
                    if not _valid_record(*pair, key):
                        raise ValueError(f"invalid failing record {r!r}")
                else:
                    first = texts.get(pair) or texts.setdefault(pair, repr(known))
                    if known != key or repr(key) != first:
                        raise ValueError(f"{pair[0]} row {pair[1]} has two keys, "
                                         f"{known!r} and {key!r}")
                failing.append(pair)
            measures[m["rule_id"]] = RuleMeasure(
                m["rule_id"], _int(m, "a"), _int(m, "b"), failing,
                _int(m, "failing_total"))
        unsafe = sorted(e for e in {e for e, _ in keys} if not plain_name(e))
        if unsafe:
            raise ValueError(f"entity name {unsafe[0]!r} is not a plain file name")
        return MeasureSet(measures, data["ruleset_fingerprint"],
                          data["snapshot_fingerprint"],
                          lambda entity, row: keys[entity, row])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid measures document: {exc}") from None


# --------------------------------------------------------------------------
# Improvement manifests

@dataclass(frozen=True)
class ManifestRule:
    rule_id: str
    kind: str
    selector: str | None
    failing_total: int
    records: tuple[tuple[str, int | None], ...]  # (entity, row) pairs


@dataclass(frozen=True)
class ImprovementManifest:
    entity: str
    property: Property
    rules: tuple[ManifestRule, ...]
    # writes ManifestRule.records; shared by the manifests of one measure set
    write_records: Callable[[tuple], canonical.Raw] = field(compare=False,
                                                            repr=False)


def build_improvement(report: EvaluationReport,
                      ms: MeasureSet) -> list[ImprovementManifest]:
    """Manifests for every rule with failures, grouped by (entity, property).

    format_class failures may span entities; each record lands in its own
    entity's manifest, and the rule's selector, which reads the columns of
    the rule's entity, is given only in that entity's manifest.
    """
    if (report.metadata.ruleset_fingerprint != ms.ruleset_fingerprint
            or report.metadata.snapshot_fingerprint != ms.snapshot_fingerprint):
        raise FingerprintMismatch(
            "report and measures were produced from different inputs")

    groups: dict[tuple[str, Property], list[ManifestRule]] = {}
    for summary in report.measures:
        measure = ms.measures.get(summary.rule_id)
        if measure is None or measure.failing_total == 0:
            continue
        by_entity: dict[str, list[tuple[str, int | None]]] = {}
        for record in measure.failing:
            by_entity.setdefault(record[0], []).append(record)
        for entity, records in by_entity.items():
            selector = summary.selector if entity == summary.entity else None
            groups.setdefault((entity, summary.property), []).append(ManifestRule(
                summary.rule_id, summary.kind, selector,
                measure.failing_total, tuple(records)))

    write_records = record_writer(ms.record_key, _RECORDS_LEVEL, False)
    return [ImprovementManifest(entity, prop, tuple(rules), write_records)
            for (entity, prop), rules in sorted(
                groups.items(), key=lambda kv: (kv[0][0], kv[0][1].value))]


def serialize_manifest(manifest: ImprovementManifest, report: EvaluationReport) -> str:
    doc = {
        "entity": manifest.entity,
        "property": manifest.property.value,
        "characteristic": manifest.property.characteristic.value,
        "ruleset_fingerprint": report.metadata.ruleset_fingerprint,
        "snapshot_fingerprint": report.metadata.snapshot_fingerprint,
        "rules": [
            {
                "rule_id": r.rule_id,
                "kind": r.kind,
                "selector": r.selector,
                "failing_total": r.failing_total,
                "failing_listed": len(r.records),
                "records": manifest.write_records(r.records),
            }
            for r in manifest.rules
        ],
    }
    return canonical.dumps(doc)


def write_improvement(manifests: list[ImprovementManifest],
                      report: EvaluationReport, directory: Path) -> list[str]:
    """Write one manifest file per (entity, property) plus index.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for manifest in manifests:
        name = f"{manifest.entity}.{manifest.property.value}.manifest.json"
        write_atomic(directory / name, serialize_manifest(manifest, report))
        entries.append({
            "entity": manifest.entity,
            "property": manifest.property.value,
            "path": name,
            "rule_count": len(manifest.rules),
            "failing_listed": sum(len(r.records) for r in manifest.rules),
        })
    index = {
        "ruleset_fingerprint": report.metadata.ruleset_fingerprint,
        "snapshot_fingerprint": report.metadata.snapshot_fingerprint,
        "manifests": entries,
    }
    write_atomic(directory / "index.json", canonical.dumps(index))
    return [e["path"] for e in entries]


# --------------------------------------------------------------------------
# Comparison

@dataclass(frozen=True)
class PropertyDelta:
    property: Property
    first_value: Decimal | None
    second_value: Decimal | None
    value_delta: Decimal | None
    first_level: int | None
    second_level: int | None
    level_delta: int | None


@dataclass(frozen=True)
class CharacteristicDelta:
    characteristic: Characteristic
    first_level: int | None
    second_level: int | None
    level_delta: int | None


@dataclass(frozen=True)
class ComparisonReport:
    ruleset_name: str
    first_version: str
    second_version: str
    properties: tuple[PropertyDelta, ...]
    added_properties: tuple[Property, ...]
    removed_properties: tuple[Property, ...]
    characteristics: tuple[CharacteristicDelta, ...]
    verdict_first: bool
    verdict_second: bool
    regression: bool


def compare(first: EvaluationReport, second: EvaluationReport) -> ComparisonReport:
    """Per-property and per-characteristic deltas, second minus first."""
    if first.metadata.ruleset_name != second.metadata.ruleset_name:
        raise ScopeMismatch(
            f"reports describe different rulesets: "
            f"{first.metadata.ruleset_name!r} vs {second.metadata.ruleset_name!r}")
    first_chars = {c.characteristic for c in first.characteristics if c.level is not None}
    second_chars = {c.characteristic for c in second.characteristics if c.level is not None}
    if first_chars and second_chars and not (first_chars & second_chars):
        raise ScopeMismatch("reports share no evaluated characteristic")

    first_props = {p.property: p for p in first.properties if p.value is not None}
    second_props = {p.property: p for p in second.properties if p.value is not None}

    deltas = []
    regression = False
    for prop in Property:
        if prop in first_props and prop in second_props:
            a, b = first_props[prop], second_props[prop]
            value_delta = b.value - a.value
            level_delta = b.level - a.level
            regression = regression or value_delta < 0 or level_delta < 0
            deltas.append(PropertyDelta(prop, a.value, b.value, value_delta,
                                        a.level, b.level, level_delta))
    added = tuple(p for p in Property if p in second_props and p not in first_props)
    removed = tuple(p for p in Property if p in first_props and p not in second_props)

    char_deltas = []
    for characteristic in Characteristic:
        a = first.characteristic(characteristic)
        b = second.characteristic(characteristic)
        a_level = a.level if a else None
        b_level = b.level if b else None
        if a_level is None and b_level is None:
            continue
        level_delta = None
        if a_level is not None and b_level is not None:
            level_delta = b_level - a_level
            regression = regression or level_delta < 0
        char_deltas.append(CharacteristicDelta(characteristic, a_level, b_level,
                                               level_delta))

    return ComparisonReport(
        first.metadata.ruleset_name,
        first.metadata.ruleset_version, second.metadata.ruleset_version,
        tuple(deltas), added, removed, tuple(char_deltas),
        first.eligible, second.eligible, regression)


def serialize_comparison(cmp: ComparisonReport) -> str:
    doc = {
        "ruleset_name": cmp.ruleset_name,
        "first_version": cmp.first_version,
        "second_version": cmp.second_version,
        "properties": [
            {
                "property": d.property.value,
                "first_value": d.first_value,
                "second_value": d.second_value,
                "value_delta": d.value_delta,
                "first_level": d.first_level,
                "second_level": d.second_level,
                "level_delta": d.level_delta,
            }
            for d in cmp.properties
        ],
        "added_properties": [p.value for p in cmp.added_properties],
        "removed_properties": [p.value for p in cmp.removed_properties],
        "characteristics": [
            {
                "characteristic": d.characteristic.value,
                "first_level": d.first_level,
                "second_level": d.second_level,
                "level_delta": d.level_delta,
            }
            for d in cmp.characteristics
        ],
        "verdict_transition": {"first": cmp.verdict_first, "second": cmp.verdict_second},
        "regression": cmp.regression,
    }
    return canonical.dumps(doc)


# --------------------------------------------------------------------------
# Text rendering

def _fmt(value) -> str:
    if value is None:
        return "-"
    return str(value)


def render_report(report: EvaluationReport) -> str:
    """Fixed-width human rendering of a report."""
    md = report.metadata
    lines = [
        "DATA QUALITY EVALUATION REPORT",
        f"ruleset:        {md.ruleset_name} v{md.ruleset_version}",
        f"reference time: {format_timestamp(md.reference_time)}",
        f"entities:       {len(report.entity_rows)}  "
        f"rows: {sum(n for _, n in report.entity_rows)}  "
        f"rules: {len(report.measures)}",
        "",
        "CHARACTERISTICS",
        f"  {'characteristic':<15} {'level':>5}  {'profile':<17} "
        f"{'strengths':<12} weaknesses",
    ]
    for c in report.characteristics:
        profile = "<" + ",".join(str(n) for n in c.profile) + ">"
        lines.append(f"  {c.characteristic.value:<15} {_fmt(c.level):>5}  "
                     f"{profile:<17} {str(len(c.strengths)):<12} {len(c.weaknesses)}")
    lines += [
        "",
        "PROPERTIES",
        f"  {'property':<14} {'characteristic':<15} {'value':>9} {'level':>5} "
        f"{'A':>10} {'B':>10} {'rules':>6}",
    ]
    for p in report.properties:
        lines.append(
            f"  {p.property.value:<14} {p.property.characteristic.value:<15} "
            f"{_fmt(p.value):>9} {_fmt(p.level):>5} {p.sum_a:>10} {p.sum_b:>10} "
            f"{p.rule_count:>6}")
    lines.append("")
    if report.eligible:
        lines.append("VERDICT: ELIGIBLE (min level 3 rule)")
    else:
        lines.append("VERDICT: NOT ELIGIBLE (min level 3 rule)")
        for characteristic, level in report.reasons:
            lines.append(f"  below threshold: {characteristic.value} at level {level}")
    lines.append("")
    return "\n".join(lines)


def render_comparison(cmp: ComparisonReport) -> str:
    """Fixed-width human rendering of a comparison."""
    lines = [
        "DATA QUALITY COMPARISON",
        f"ruleset: {cmp.ruleset_name} (v{cmp.first_version} -> v{cmp.second_version})",
        "",
        "CHARACTERISTIC LEVELS",
        f"  {'characteristic':<15} {'before':>6} {'after':>6} {'delta':>6}",
    ]
    for d in cmp.characteristics:
        delta = f"{d.level_delta:+d}" if d.level_delta is not None else "-"
        lines.append(f"  {d.characteristic.value:<15} {_fmt(d.first_level):>6} "
                     f"{_fmt(d.second_level):>6} {delta:>6}")
    lines += [
        "",
        "PROPERTY VALUES",
        f"  {'property':<14} {'before':>9} {'after':>9} {'delta':>10} "
        f"{'lvl before':>10} {'lvl after':>9}",
    ]
    for d in cmp.properties:
        lines.append(
            f"  {d.property.value:<14} {_fmt(d.first_value):>9} "
            f"{_fmt(d.second_value):>9} {_fmt(d.value_delta):>10} "
            f"{_fmt(d.first_level):>10} {_fmt(d.second_level):>9}")
    for label, props in (("added", cmp.added_properties),
                         ("removed", cmp.removed_properties)):
        if props:
            lines.append(f"  {label}: " + ", ".join(p.value for p in props))
    lines += [
        "",
        f"verdict: {'ELIGIBLE' if cmp.verdict_first else 'NOT ELIGIBLE'} -> "
        f"{'ELIGIBLE' if cmp.verdict_second else 'NOT ELIGIBLE'}",
        f"regression: {'yes' if cmp.regression else 'no'}",
        "",
    ]
    return "\n".join(lines)
