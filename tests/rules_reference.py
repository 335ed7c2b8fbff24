"""Reference ruleset serializer: the isinstance ladder dqeval.rules replaced.

Kept verbatim as the specification of the canonical rules document, whose
SHA-256 is the ruleset fingerprint. The tests check that
dqeval.rules.serialize_ruleset writes the same text as this one.
"""

from __future__ import annotations

from dqeval import canonical
from dqeval.expr import unparse
from dqeval.rules import (Domain, ForeignKey, FormatClass, Frequency, Freshness,
                          MinCount, NoDefault, NotNull, Predicate, Range, Rule,
                          RuleSet, Syntax, Unique)
from dqeval.values import format_timestamp


def _kind_to_json(rule: Rule) -> tuple[str, dict]:
    k = rule.kind
    if isinstance(k, Syntax):
        return "syntax", {"pattern": k.pattern}
    if isinstance(k, Range):
        params: dict = {}
        if k.min is not None:
            params["min"] = k.min
        if k.max is not None:
            params["max"] = k.max
        params["min_inclusive"] = k.min_inclusive
        params["max_inclusive"] = k.max_inclusive
        return "range", params
    if isinstance(k, Domain):
        if k.reference is not None:
            return "domain", {"reference": f"{k.reference[0]}.{k.reference[1]}"}
        return "domain", {"allowed": list(k.allowed)}
    if isinstance(k, NotNull):
        return "not_null", {}
    if isinstance(k, NoDefault):
        return "no_default", {"placeholders": list(k.placeholders)}
    if isinstance(k, Unique):
        return "unique", {"key": list(k.key)}
    if isinstance(k, MinCount):
        return "min_count", {"threshold": k.threshold}
    if isinstance(k, ForeignKey):
        return "foreign_key", {"referenced": f"{k.referenced[0]}.{k.referenced[1]}"}
    if isinstance(k, FormatClass):
        params = {"class": k.class_name}
        if k.extra_targets:
            params["extra_targets"] = [list(t) for t in k.extra_targets]
        return "format_class", params
    if isinstance(k, Predicate):
        return "predicate", {"expr": unparse(k.expr)}
    if isinstance(k, Freshness):
        params = {"timestamp_column": k.timestamp_column, "max_age": k.max_age_days}
        if k.condition is not None:
            params["condition"] = unparse(k.condition)
        return "freshness", params
    if isinstance(k, Frequency):
        return "frequency", {"timestamp_column": k.timestamp_column,
                             "max_gap": k.max_gap_days}
    raise TypeError(f"unknown kind {k!r}")


def serialize_ruleset(rs: RuleSet) -> str:
    """Canonical rules-document text."""
    doc = {
        "name": rs.name,
        "version": rs.version,
        "reference_time": format_timestamp(rs.reference_time),
        "format_classes": {name: pattern for name, pattern in rs.format_classes},
        "rules": [],
    }
    for rule in rs.rules:
        kind_name, params = _kind_to_json(rule)
        doc["rules"].append({
            "id": rule.id,
            "entity": rule.entity,
            "columns": list(rule.columns),
            "property": rule.property.value,
            "kind": kind_name,
            "params": params,
            "where": unparse(rule.where) if rule.where is not None else None,
            "skip_null": rule.skip_null,
            "description": rule.description,
        })
    return canonical.dumps(doc)
