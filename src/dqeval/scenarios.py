"""Replayable before/after evaluation scenarios.

Three organization pairs (travel, registry, school), each with a first
snapshot full of engineered weaknesses and a second snapshot after the
improvement campaign. Rule counts per characteristic mirror the published
scopes (375 for travel, 813 for registry, 488 for school); violation rates
are chosen so the characteristic levels land exactly on the documented
transitions, e.g. travel Accuracy 1 -> 5 and Completeness 2 -> 4.

Both versions share one ruleset (ids, kinds, columns); only the ruleset
version string and the violation plans differ.
"""

from __future__ import annotations

import itertools
from decimal import Decimal
from pathlib import Path

from .dataset import ColumnSchema, EntitySchema, SchemaCatalog, serialize_catalog
from .host import Record, write_atomic
from .rules import KINDS, RuleSet, parse_ruleset, serialize_ruleset
from .synthkit import (ColumnGen, EntityPlan, ExpectedMeasures, SynthSpec,
                       ViolationPlan, generate)
from . import canonical

REFERENCE_TIME = "2024-06-01T00:00:00Z"

SCENARIOS = ("travel-v1", "travel-v2", "registry-v1", "registry-v2",
             "school-v1", "school-v2")


class PropertyPlan(Record):
    property: str
    kinds: tuple[tuple[str, int], ...]  # (kind template, rule count)
    rates: dict  # version -> violation rate (row-scoped kinds)
    fail_counts: dict | None = None  # version -> failing rule count (binary kinds)


class OrgProfile(Record):
    org: str
    fact_entities: int
    rows: int
    plans: tuple[PropertyPlan, ...]


def _rates(v1: str, v2: str) -> dict:
    return {"1": Decimal(v1), "2": Decimal(v2)}


# Violation rate r yields a property value of 100*(1-r); with the default
# thresholds: 0.90 -> level 1, 0.70 -> 2, 0.45 -> 3, 0.25 -> 4, 0.05 -> 5.
_PROFILES = {
    "travel": OrgProfile("travel", fact_entities=13, rows=200, plans=(
        PropertyPlan("EXAC_SINT", (("syntax", 30),), _rates("0.90", "0.05")),
        PropertyPlan("EXAC_SEMAN", (("domain", 30),), _rates("0.90", "0.05")),
        PropertyPlan("RAN_EXAC", (("range", 29),), _rates("0.90", "0.05")),
        PropertyPlan("COMP_FICH", (("min_count", 19),), {},
                     fail_counts={"1": 5, "2": 5}),
        PropertyPlan("COMP_REG", (("not_null", 20),), _rates("0.90", "0.05")),
        PropertyPlan("COMP_VAL_ESP", (("not_null", 10), ("no_default", 10)),
                     _rates("0.25", "0.05")),
        PropertyPlan("FAL_COMP_FICH", (("unique", 19),), _rates("0.25", "0.05")),
        PropertyPlan("CONS_FORM", (("syntax", 12), ("format_class", 11)),
                     _rates("0.90", "0.45")),
        PropertyPlan("CONS_SEMAN", (("predicate", 23),), _rates("0.25", "0.45")),
        PropertyPlan("INT_REF", (("foreign_key", 23),), _rates("0.25", "0.25")),
        PropertyPlan("RIES_INCO", (("unique", 11), ("predicate", 11)),
                     _rates("0.05", "0.05")),
        PropertyPlan("CRED_FUEN", (("provenance", 27),), _rates("0.45", "0.45")),
        PropertyPlan("CRED_VAL_DAT", (("domain", 27),), _rates("0.25", "0.25")),
        PropertyPlan("CONV_ACT", (("freshness", 32),), _rates("0.90", "0.05")),
        PropertyPlan("FREC_ACT", (("frequency", 31),), {},
                     fail_counts={"1": 1, "2": 0}),
    )),
    "registry": OrgProfile("registry", fact_entities=35, rows=100, plans=(
        PropertyPlan("EXAC_SINT", (("syntax", 63),), _rates("0.90", "0.05")),
        PropertyPlan("EXAC_SEMAN", (("domain", 63),), _rates("0.90", "0.05")),
        PropertyPlan("RAN_EXAC", (("range", 63),), _rates("0.90", "0.05")),
        PropertyPlan("COMP_FICH", (("min_count", 32),), {},
                     fail_counts={"1": 0, "2": 0}),
        PropertyPlan("COMP_REG", (("not_null", 33),), _rates("0.05", "0.05")),
        PropertyPlan("COMP_VAL_ESP", (("no_default", 33),), _rates("0.05", "0.05")),
        PropertyPlan("FAL_COMP_FICH", (("unique", 33),), _rates("0.05", "0.05")),
        PropertyPlan("CONS_FORM", (("syntax", 43), ("format_class", 42)),
                     _rates("0.90", "0.45")),
        PropertyPlan("CONS_SEMAN", (("predicate", 85),), _rates("0.90", "0.45")),
        PropertyPlan("INT_REF", (("foreign_key", 85),), _rates("0.90", "0.25")),
        PropertyPlan("RIES_INCO", (("unique", 43), ("predicate", 42)),
                     _rates("0.25", "0.25")),
        PropertyPlan("CRED_FUEN", (("provenance", 36),), _rates("0.05", "0.05")),
        PropertyPlan("CRED_VAL_DAT", (("domain", 36),), _rates("0.05", "0.05")),
        PropertyPlan("CONV_ACT", (("freshness", 41),), _rates("0.45", "0.05")),
        PropertyPlan("FREC_ACT", (("frequency", 40),), {},
                     fail_counts={"1": 20, "2": 2}),
    )),
    "school": OrgProfile("school", fact_entities=9, rows=100, plans=(
        PropertyPlan("EXAC_SINT", (("syntax", 31),), _rates("0.25", "0.05")),
        PropertyPlan("EXAC_SEMAN", (("domain", 31),), _rates("0.25", "0.05")),
        PropertyPlan("RAN_EXAC", (("range", 32),), _rates("0.90", "0.05")),
        PropertyPlan("COMP_FICH", (("min_count", 25),), {},
                     fail_counts={"1": 6, "2": 6}),
        PropertyPlan("COMP_REG", (("not_null", 25),), _rates("0.25", "0.25")),
        PropertyPlan("COMP_VAL_ESP", (("no_default", 25),), _rates("0.25", "0.25")),
        PropertyPlan("FAL_COMP_FICH", (("unique", 25),), _rates("0.25", "0.25")),
        PropertyPlan("CONS_FORM", (("syntax", 22), ("format_class", 22)),
                     _rates("0.45", "0.45")),
        PropertyPlan("CONS_SEMAN", (("predicate", 44),), _rates("0.45", "0.45")),
        PropertyPlan("INT_REF", (("foreign_key", 44),), _rates("0.25", "0.25")),
        PropertyPlan("RIES_INCO", (("unique", 22), ("predicate", 22)),
                     _rates("0.25", "0.25")),
        PropertyPlan("CRED_FUEN", (("provenance", 24),), _rates("0.25", "0.25")),
        PropertyPlan("CRED_VAL_DAT", (("domain", 24),), _rates("0.25", "0.25")),
        PropertyPlan("CONV_ACT", (("freshness", 35),), _rates("0.25", "0.25")),
        PropertyPlan("FREC_ACT", (("frequency", 35),), {},
                     fail_counts={"1": 1, "2": 1}),
    )),
}

_SYNTAX_PATTERN = "^[A-Z]{2}[0-9]{6}$"
_DOMAIN_POOL = ("ALPHA", "BETA", "GAMMA")
_PROVENANCE_POOL = ("CRM", "WEB", "API")
_PROVENANCE_SET = ", ".join(f"'{v}'" for v in _PROVENANCE_POOL)


def _serial(fmt: str) -> ColumnGen:
    return ColumnGen("serial", (("format", fmt),))


def _choice(values: tuple) -> ColumnGen:
    return ColumnGen("choice", (("values", values),))


# Rule template -> (datatype and generator of the column it adds, rule kind,
# and a function from that column and the org's lookup entity to the rule's
# params and its plan's violating pool). The kind's arity decides whether
# the column is also the rule's `columns`. min_count is not here: it adds
# no column and takes its threshold from whether the rule is to fail.
_TEMPLATES = {
    "syntax": ("text", _serial("AB{n:06d}"), "syntax",
               lambda col, lookup: ({"pattern": _SYNTAX_PATTERN}, ("??",))),
    "domain": ("text", _choice(_DOMAIN_POOL), "domain",
               lambda col, lookup: ({"allowed": list(_DOMAIN_POOL)}, ())),
    "range": ("integer", ColumnGen("int_uniform", (("max", 100), ("min", 0))),
              "range", lambda col, lookup: ({"min": 0, "max": 100}, ())),
    "not_null": ("text", _choice(("set_a", "set_b")), "not_null",
                 lambda col, lookup: ({}, ())),
    "no_default": ("text", _choice(("real_a", "real_b")), "no_default",
                   lambda col, lookup: ({"placeholders": ["N/A"]}, ())),
    "unique": ("text", _serial("K{n:07d}"), "unique",
               lambda col, lookup: ({"key": [col]}, ())),
    "foreign_key": ("text", _choice(tuple(f"CODE{i:06d}" for i in range(10))),
                    "foreign_key",
                    lambda col, lookup: ({"referenced": f"{lookup}.code"}, ())),
    "format_class": ("text", _serial("CD{n:06d}"), "format_class",
                     lambda col, lookup: ({"class": "std_code"}, ("*bad*",))),
    "predicate": ("integer", ColumnGen("int_uniform", (("max", 99), ("min", 10))),
                  "predicate",
                  lambda col, lookup: ({"expr": f"{col} < 1000"}, ((col, 1000),))),
    "provenance": ("text", _choice(_PROVENANCE_POOL), "predicate",
                   lambda col, lookup: ({"expr": f"in_set({col}, {_PROVENANCE_SET})"},
                                        ((col, "UNKNOWN"),))),
    "freshness": ("timestamp",
                  ColumnGen("timestamp_uniform", (("end", "2024-05-31T00:00:00Z"),
                                                  ("start", "2024-05-02T00:00:00Z"))),
                  "freshness",
                  lambda col, lookup: ({"timestamp_column": col, "max_age": "60d"}, ())),
    "frequency": ("timestamp",
                  ColumnGen("timestamp_spaced", (("start", "2024-05-02T00:00:00Z"),
                                                 ("step", "1h"))),
                  "frequency",
                  lambda col, lookup: ({"timestamp_column": col, "max_gap": "7d"}, ())),
}


class ScenarioBundle(Record):
    name: str
    catalog: SchemaCatalog
    ruleset: RuleSet
    spec: SynthSpec


def scenario_names() -> tuple[str, ...]:
    return SCENARIOS


class _Builder:
    def __init__(self, profile: OrgProfile, version: str, seed: int):
        self.profile = profile
        self.version = version
        self.seed = seed
        self.facts = [f"{profile.org}_{i:02d}" for i in range(profile.fact_entities)]
        # lookup entity backing the foreign-key rules
        self.lookup = f"{profile.org}_lookup"
        # entity -> its (column schema, generator) pairs, in column order
        self.columns: dict[str, list[tuple[ColumnSchema, ColumnGen]]] = {
            self.lookup: [(ColumnSchema("code", "text"), _serial("CODE{n:06d}"))]}
        for name in self.facts:
            self.columns[name] = [(ColumnSchema("pk", "text"), _serial("PK{n:08d}"))]
        self.rules: list[dict] = []
        self.violations: list[ViolationPlan] = []
        self.entity_cycle = itertools.cycle(self.facts)
        self.column_numbers = itertools.count(1)

    def emit(self, plan: PropertyPlan) -> None:
        """Add one rule, with its column and violation plan, per template use."""
        prop = plan.property
        rate = plan.rates.get(self.version, Decimal(0))
        fails = (plan.fail_counts or {}).get(self.version, 0)
        templates = [t for t, count in plan.kinds for _ in range(count)]
        for index, template in enumerate(templates, 1):
            rule_id = f"{prop}_{index:03d}"
            entity = next(self.entity_cycle)
            failing = index <= fails
            if template == "min_count":
                rows = self.profile.rows
                kind, columns = "min_count", []
                params = {"threshold": rows + 1 if failing else max(rows // 2, 1)}
            else:
                datatype, gen, kind, make = _TEMPLATES[template]
                col = f"c{next(self.column_numbers):04d}"
                self.columns[entity].append(
                    (ColumnSchema(col, datatype, kind == "not_null"), gen))
                params, violating = make(col, self.lookup)
                columns = [] if KINDS[kind].arity == "none" else [col]
                planned = rate if kind != "frequency" else Decimal(1 if failing else 0)
                if planned > 0:
                    self.violations.append(ViolationPlan(rule_id, planned, violating))
            self.rules.append({
                "id": rule_id, "entity": entity, "columns": columns,
                "property": prop, "kind": kind, "params": params,
                "where": None, "skip_null": False,
                "description": f"{prop} check over {entity}",
            })

    def bundle(self, name: str) -> ScenarioBundle:
        # every entity is keyed on its first column
        catalog = SchemaCatalog(tuple(
            EntitySchema(entity, tuple(schema for schema, _ in cols), (cols[0][0].name,))
            for entity, cols in self.columns.items()))

        doc = canonical.dumps({
            "name": f"{self.profile.org}-rules",
            "version": self.version,
            "reference_time": REFERENCE_TIME,
            "format_classes": {"std_code": _SYNTAX_PATTERN},
            "rules": self.rules,
        })
        ruleset = parse_ruleset(doc)

        spec = SynthSpec(self.seed, tuple(
            (entity, EntityPlan(self.profile.rows,
                                tuple((schema.name, gen) for schema, gen in cols)))
            for entity, cols in self.columns.items()), tuple(self.violations))
        return ScenarioBundle(name, catalog, ruleset, spec)


def build_scenario(name: str) -> ScenarioBundle:
    """Construct the catalog, ruleset, and synth spec of one scenario."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of "
                         + ", ".join(SCENARIOS))
    org, version = name.rsplit("-v", 1)
    profile = _PROFILES[org]
    seeds = {"travel": 9041, "registry": 9042, "school": 9043}
    builder = _Builder(profile, version, seed=seeds[org])
    for plan in profile.plans:
        builder.emit(plan)
    return builder.bundle(name)


def write_scenario(name: str, out_dir: Path) -> ExpectedMeasures:
    """Materialize a scenario: schema.json, rules.json, snapshot/ + oracle."""
    bundle = build_scenario(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(out_dir / "schema.json", serialize_catalog(bundle.catalog))
    write_atomic(out_dir / "rules.json", serialize_ruleset(bundle.ruleset))
    return generate(bundle.spec, bundle.catalog, bundle.ruleset,
                    out_dir / "snapshot")
