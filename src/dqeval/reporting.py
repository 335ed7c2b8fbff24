"""Base measures, evaluation reports, improvement manifests, and report
comparison.

Each document is built once, as the tree canonical.dumps writes (stable
key order, exact decimal rendering, no wall-clock timestamps), so identical
inputs always produce byte-identical documents. Improvement manifests
locate every non-compliant record, grouped by (entity, property); each
failing rule also carries a negated selector expression where the
row-expression language can express the violation (cross-row and
cross-entity kinds rely on the explicit record refs).
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from . import canonical
from .errors import DqError, FingerprintMismatch, ParseError, ScopeMismatch
from .host import Record, plain_name, write_atomic
from .taxonomy import Characteristic, parse_property
from .values import format_timestamp, parse_timestamp

# Annotations only: improve, certify and compare load none of the evaluation
# layers, and every start-up pays for what it imports.
if TYPE_CHECKING:
    from .dataset import Repository
    from .rules import RuleSet
    from .scoring import ScoringConfig

_FOUR_PLACES = Decimal("0.0001")


def render_value(value: Fraction | None) -> Decimal | None:
    """A value or ratio as report.json writes it: four places, half to even."""
    if value is None:
        return None
    return (Decimal(value.numerator) / Decimal(value.denominator)).quantize(
        _FOUR_PLACES, rounding=ROUND_HALF_EVEN)


# --------------------------------------------------------------------------
# Report document

def _report(metadata: dict, row_counts: dict[str, int],
            measures: list[tuple], scored: dict) -> dict:
    """report.json from its inputs: the metadata, each entity's row count,
    each rule's (rule_id, entity, property, kind, a, b, failing_total,
    selector), and the properties, characteristics and verdict members
    scoring.score gives. The ratios and the scope's counts are derived here."""
    rule_counts = dict.fromkeys((c.value for c in Characteristic), 0)
    for _, _, prop, *_ in measures:
        rule_counts[prop.characteristic.value] += 1
    return {
        "metadata": metadata,
        "scope": {
            "entity_count": len(row_counts),
            "row_counts": row_counts,
            "rule_counts": rule_counts,
            "total_rules": len(measures),
        },
        "measures": [
            {
                "rule_id": rule_id,
                "entity": entity,
                "property": prop.value,
                "kind": kind,
                "a": a,
                "b": b,
                "ratio": render_value(Fraction(a, b)) if b else None,
                "failing_total": failing_total,
                "selector": selector,
            }
            for rule_id, entity, prop, kind, a, b, failing_total, selector in measures
        ],
        **scored,
    }


def build_report(rs: RuleSet, repo: Repository, ms: MeasureSet, scored: dict,
                 config: ScoringConfig, tool_version: str) -> dict:
    """The complete, canonical evaluation report, as the document tree;
    `scored` is score_all's members."""
    metadata = {
        "ruleset_name": rs.name,
        "ruleset_version": rs.version,
        "ruleset_fingerprint": ms.ruleset_fingerprint,
        "snapshot_fingerprint": ms.snapshot_fingerprint,
        "reference_time": format_timestamp(rs.reference_time),
        "tool_version": tool_version,
        "config": config.to_json(),
    }
    measures = []
    for rule in rs.rules:
        m = ms.measures[rule.id]
        measures.append((rule.id, rule.entity, rule.property, rule.kind_name,
                         m.a, m.b, m.failing_total, rule.selector(repo.catalog)))
    return _report(metadata, {name: repo.entities[name].n_rows
                              for name in sorted(repo.entities)}, measures, scored)


def serialize_report(report: dict) -> str:
    return canonical.dumps(report)


def _int(doc: dict, key: str) -> int:
    """doc[key] when it is an integer (a bool is not)."""
    value = doc[key]
    if type(value) is int:
        return value
    raise TypeError(f"{key} must be an integer, not {value!r}")


def _text(doc: dict, key: str, null: bool = False) -> str | None:
    """doc[key] when it is a string, or null where `null` allows it."""
    value = doc[key]
    if type(value) is str or null and value is None:
        return value
    raise TypeError(f"{key} must be a string{' or null' if null else ''}, "
                    f"not {value!r}")


def _counts(m: dict) -> tuple[int, int, int]:
    """A measure's a, b and failing_total, with 0 <= a <= b and failing_total
    = b - a, as the engine counts them."""
    a, b, failing_total = _int(m, "a"), _int(m, "b"), _int(m, "failing_total")
    if not 0 <= a <= b:
        raise ValueError(f"rule {m['rule_id']}: a {a} and b {b} are not 0 <= a <= b")
    if failing_total != b - a:
        raise ValueError(f"rule {m['rule_id']}: failing_total {failing_total} is not b - a")
    return a, b, failing_total


def _measure(m: dict) -> tuple:
    """One report measure's inputs, in _report's order."""
    a, b, failing_total = _counts(m)
    return (_text(m, "rule_id"), _text(m, "entity"), parse_property(m["property"]),
            _text(m, "kind"), a, b, failing_total, _text(m, "selector", null=True))


_METADATA_TEXTS = ("ruleset_name", "ruleset_version", "ruleset_fingerprint",
                   "snapshot_fingerprint", "reference_time", "tool_version")


def parse_report(text: str) -> dict:
    """The report document, laid out again from its inputs: the metadata (the
    config echo read by load_config), scope.row_counts and each measure's
    rule_id, entity, property, kind, a, b, failing_total and selector. The
    rest is derived, the scored members through scoring.score, and a document
    that states it otherwise is a ParseError naming the first line that
    differs."""
    from .scoring import load_config, score  # scoring imports this module
    try:
        data = canonical.loads(text)
    except ValueError as exc:
        raise ParseError(f"malformed report: {exc}") from None
    try:
        md = data["metadata"]
        metadata = {key: _text(md, key) for key in _METADATA_TEXTS}
        metadata["reference_time"] = format_timestamp(
            parse_timestamp(metadata["reference_time"]))
        config = load_config(canonical.dumps(md["config"]))
        metadata["config"] = config.to_json()
        row_counts = data["scope"]["row_counts"]
        if type(row_counts) is not dict:
            raise TypeError(f"row_counts must be an object, not {row_counts!r}")
        measures = list(map(_measure, data["measures"]))
        seen: set[str] = set()
        for rule_id, *_ in measures:
            if rule_id in seen:
                raise ValueError(f"rule {rule_id} is listed twice")
            seen.add(rule_id)
        report = _report(metadata, {n: _int(row_counts, n) for n in sorted(row_counts)},
                         measures, score([(prop, a, b) for _, _, prop, _, a, b, _, _
                                          in measures], config))
        derived = canonical.dumps(report)
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


def record_writer(record_key: Callable[[str, int], dict], level: int,
                  with_entity: bool) -> Callable[[list], canonical.Raw]:
    """A writer of failing-record lists at `level`: from (entity, row) pairs it
    gives the text canonical.dumps gives [{"entity", "row", "key": {...}}]
    ("entity" only when with_entity), without building the dicts. An
    entity-level record (row None) has an empty key. One row fails many rules,
    so each (entity, row)'s text is made once per writer."""
    lead, sep, close = canonical.layout(level)
    member, member_sep, record_close = canonical.layout(level + 1)
    key_lead, key_sep, key_close = canonical.layout(level + 2)
    scalar = canonical.scalar
    texts: dict[tuple[str, int | None], str] = {}

    def record(pair: tuple[str, int | None]) -> str:
        entity, row = pair
        head = "{" + member
        if with_entity:
            head += f'"entity": {scalar(entity)}{member_sep}'
        if row is None:
            row_text, key_text = "null", "{}"
        else:
            key = record_key(entity, row)
            members = key_sep.join(f"{scalar(name)}: {scalar(v)}"
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

class RuleMeasure(Record):
    rule_id: str
    a: int
    b: int
    failing: list[tuple[str, int | None]]  # (entity, ordinal); None: entity-level
    failing_total: int
    elapsed: float = 0.0
    _uncompared = ("elapsed",)


def _no_keys(entity: str, row: int) -> dict:
    raise LookupError(f"no record keys for {entity} row {row}")


class MeasureSet(Record):
    measures: dict[str, RuleMeasure]  # rule id → measure, in document order
    ruleset_fingerprint: str
    snapshot_fingerprint: str
    # (entity, row) → the record's key, column name → value: the repository's
    # key columns for an evaluated set, the parsed records for a parsed one
    record_key: Callable[[str, int], dict] = _no_keys
    _uncompared = _unshown = ("record_key",)

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

    A measure needs a rule id of its own, 0 <= a <= b, failing_total = b - a
    and at most failing_total records. A record needs a text entity that is a plain file
    name (manifests are named after it), an integer row (or null with an
    empty key) and a key of JSON scalars; one (entity, row) with two keys that
    are not written alike is a ParseError."""
    keys: dict[tuple[str, int | None], dict] = {}
    texts: dict[tuple[str, int | None], str] = {}  # first key's repr, once repeated
    try:
        data = canonical.loads(text)
        measures = {}
        for m in data["measures"]:
            a, b, failing_total = _counts(m)
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
                    if repr(key) != first:
                        raise ValueError(f"{pair[0]} row {pair[1]} has two keys, "
                                         f"{known!r} and {key!r}")
                failing.append(pair)
            if len(failing) > failing_total:
                raise ValueError(f"rule {m['rule_id']}: {len(failing)} failing records "
                                 f"listed, more than failing_total {failing_total}")
            if m["rule_id"] in measures:
                raise ValueError(f"rule {m['rule_id']} is listed twice")
            measures[m["rule_id"]] = RuleMeasure(m["rule_id"], a, b, failing,
                                                 failing_total)
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

def build_improvement(report: dict, ms: MeasureSet) -> list[dict]:
    """The manifest documents of every rule with failures, grouped by
    (entity, property).

    The measures must be the report's: the same fingerprints, and the same
    rule ids in the same order with the same (a, b); otherwise
    FingerprintMismatch names the first rule that differs. format_class
    failures may span entities; each record lands in its own entity's
    manifest, and the rule's selector, which reads the columns of the rule's
    entity, is given only in that entity's manifest.
    """
    md = report["metadata"]
    if (md["ruleset_fingerprint"] != ms.ruleset_fingerprint
            or md["snapshot_fingerprint"] != ms.snapshot_fingerprint):
        raise FingerprintMismatch(
            "report and measures were produced from different inputs")
    stated = [(m["rule_id"], m["a"], m["b"]) for m in report["measures"]]
    measured = [(m.rule_id, m.a, m.b) for m in ms]
    if stated != measured:
        rule_id = next(s or m for s, m in zip_longest(stated, measured) if s != m)[0]
        raise FingerprintMismatch(f"report and measures disagree on rule {rule_id!r}")

    write_records = record_writer(ms.record_key, _RECORDS_LEVEL, False)
    groups: dict[tuple[str, str], list[dict]] = {}
    for m in report["measures"]:
        by_entity: dict[str, list[tuple[str, int | None]]] = {}
        for record in ms.measures[m["rule_id"]].failing:
            by_entity.setdefault(record[0], []).append(record)
        for entity, records in by_entity.items():
            groups.setdefault((entity, m["property"]), []).append({
                "rule_id": m["rule_id"],
                "kind": m["kind"],
                "selector": m["selector"] if entity == m["entity"] else None,
                "failing_total": m["failing_total"],
                "failing_listed": len(records),
                "records": write_records(records),
            })
    return [
        {
            "entity": entity,
            "property": prop,
            "characteristic": parse_property(prop).characteristic.value,
            "ruleset_fingerprint": md["ruleset_fingerprint"],
            "snapshot_fingerprint": md["snapshot_fingerprint"],
            "rules": rules,
        }
        for (entity, prop), rules in sorted(groups.items())
    ]


def write_improvement(manifests: list[dict], report: dict,
                      directory: Path) -> list[str]:
    """Write one manifest file per (entity, property) plus index.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for manifest in manifests:
        name = f"{manifest['entity']}.{manifest['property']}.manifest.json"
        write_atomic(directory / name, canonical.dumps(manifest))
        entries.append({
            "entity": manifest["entity"],
            "property": manifest["property"],
            "path": name,
            "rule_count": len(manifest["rules"]),
            "failing_listed": sum(r["failing_listed"] for r in manifest["rules"]),
        })
    index = {
        "ruleset_fingerprint": report["metadata"]["ruleset_fingerprint"],
        "snapshot_fingerprint": report["metadata"]["snapshot_fingerprint"],
        "manifests": entries,
    }
    write_atomic(directory / "index.json", canonical.dumps(index))
    return [e["path"] for e in entries]


# --------------------------------------------------------------------------
# Comparison

def compare(first: dict, second: dict) -> dict:
    """The comparison document of two reports: per-property and
    per-characteristic deltas, second minus first."""
    name = first["metadata"]["ruleset_name"]
    if name != second["metadata"]["ruleset_name"]:
        raise ScopeMismatch(
            f"reports describe different rulesets: "
            f"{name!r} vs {second['metadata']['ruleset_name']!r}")
    first_levels, second_levels = ({c["characteristic"]: c["level"]
                                    for c in r["characteristics"]
                                    if c["level"] is not None}
                                   for r in (first, second))
    if first_levels and second_levels and not first_levels.keys() & second_levels.keys():
        raise ScopeMismatch("reports share no evaluated characteristic")

    # report properties are in taxonomy order
    first_props, second_props = ({p["property"]: p for p in r["properties"]
                                  if p["value"] is not None}
                                 for r in (first, second))
    properties = []
    for prop, a in first_props.items():
        if prop in second_props:
            b = second_props[prop]
            properties.append({
                "property": prop,
                "first_value": a["value"],
                "second_value": b["value"],
                "value_delta": b["value"] - a["value"],
                "first_level": a["level"],
                "second_level": b["level"],
                "level_delta": b["level"] - a["level"],
            })

    characteristics = []
    for characteristic in Characteristic:
        a_level = first_levels.get(characteristic.value)
        b_level = second_levels.get(characteristic.value)
        if a_level is None and b_level is None:
            continue
        characteristics.append({
            "characteristic": characteristic.value,
            "first_level": a_level,
            "second_level": b_level,
            "level_delta": (None if a_level is None or b_level is None
                            else b_level - a_level),
        })
    regression = (any(p["value_delta"] < 0 or p["level_delta"] < 0 for p in properties)
                  or any(c["level_delta"] is not None and c["level_delta"] < 0
                         for c in characteristics))

    return {
        "ruleset_name": name,
        "first_version": first["metadata"]["ruleset_version"],
        "second_version": second["metadata"]["ruleset_version"],
        "properties": properties,
        "added_properties": [p for p in second_props if p not in first_props],
        "removed_properties": [p for p in first_props if p not in second_props],
        "characteristics": characteristics,
        "verdict_transition": {"first": first["verdict"]["eligible"],
                               "second": second["verdict"]["eligible"]},
        "regression": regression,
    }


# --------------------------------------------------------------------------
# Text rendering

def _fmt(value) -> str:
    if value is None:
        return "-"
    return str(value)


def render_report(report: dict) -> str:
    """Fixed-width human rendering of a report."""
    md, scope = report["metadata"], report["scope"]
    lines = [
        "DATA QUALITY EVALUATION REPORT",
        f"ruleset:        {md['ruleset_name']} v{md['ruleset_version']}",
        f"reference time: {md['reference_time']}",
        f"entities:       {scope['entity_count']}  "
        f"rows: {sum(scope['row_counts'].values())}  "
        f"rules: {scope['total_rules']}",
        "",
        "CHARACTERISTICS",
        f"  {'characteristic':<15} {'level':>5}  {'profile':<17} "
        f"{'strengths':<12} weaknesses",
    ]
    for c in report["characteristics"]:
        profile = "<" + ",".join(str(n) for n in c["profile"]) + ">"
        lines.append(f"  {c['characteristic']:<15} {_fmt(c['level']):>5}  "
                     f"{profile:<17} {str(len(c['strengths'])):<12} "
                     f"{len(c['weaknesses'])}")
    lines += [
        "",
        "PROPERTIES",
        f"  {'property':<14} {'characteristic':<15} {'value':>9} {'level':>5} "
        f"{'A':>10} {'B':>10} {'rules':>6}",
    ]
    for p in report["properties"]:
        lines.append(
            f"  {p['property']:<14} {p['characteristic']:<15} "
            f"{_fmt(p['value']):>9} {_fmt(p['level']):>5} {p['sum_a']:>10} "
            f"{p['sum_b']:>10} {p['rule_count']:>6}")
    lines.append("")
    if report["verdict"]["eligible"]:
        lines.append("VERDICT: ELIGIBLE (min level 3 rule)")
    else:
        lines.append("VERDICT: NOT ELIGIBLE (min level 3 rule)")
        for reason in report["verdict"]["reasons"]:
            lines.append(f"  below threshold: {reason['characteristic']} "
                         f"at level {reason['level']}")
    lines.append("")
    return "\n".join(lines)


def render_comparison(cmp: dict) -> str:
    """Fixed-width human rendering of a comparison."""
    lines = [
        "DATA QUALITY COMPARISON",
        f"ruleset: {cmp['ruleset_name']} "
        f"(v{cmp['first_version']} -> v{cmp['second_version']})",
        "",
        "CHARACTERISTIC LEVELS",
        f"  {'characteristic':<15} {'before':>6} {'after':>6} {'delta':>6}",
    ]
    for d in cmp["characteristics"]:
        delta = f"{d['level_delta']:+d}" if d["level_delta"] is not None else "-"
        lines.append(f"  {d['characteristic']:<15} {_fmt(d['first_level']):>6} "
                     f"{_fmt(d['second_level']):>6} {delta:>6}")
    lines += [
        "",
        "PROPERTY VALUES",
        f"  {'property':<14} {'before':>9} {'after':>9} {'delta':>10} "
        f"{'lvl before':>10} {'lvl after':>9}",
    ]
    for d in cmp["properties"]:
        lines.append(
            f"  {d['property']:<14} {_fmt(d['first_value']):>9} "
            f"{_fmt(d['second_value']):>9} {_fmt(d['value_delta']):>10} "
            f"{_fmt(d['first_level']):>10} {_fmt(d['second_level']):>9}")
    for label in ("added", "removed"):
        if cmp[f"{label}_properties"]:
            lines.append(f"  {label}: " + ", ".join(cmp[f"{label}_properties"]))
    verdict = cmp["verdict_transition"]
    lines += [
        "",
        f"verdict: {'ELIGIBLE' if verdict['first'] else 'NOT ELIGIBLE'} -> "
        f"{'ELIGIBLE' if verdict['second'] else 'NOT ELIGIBLE'}",
        f"regression: {'yes' if cmp['regression'] else 'no'}",
        "",
    ]
    return "\n".join(lines)
