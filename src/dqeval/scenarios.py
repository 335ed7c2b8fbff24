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

from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .dataset import ColumnSchema, EntitySchema, SchemaCatalog, serialize_catalog
from .rules import RuleSet, parse_ruleset, serialize_ruleset
from .synthkit import (ColumnGen, EntityPlan, ExpectedMeasures, SynthSpec,
                       ViolationPlan, generate)
from . import canonical

REFERENCE_TIME = "2024-06-01T00:00:00Z"

SCENARIOS = ("travel-v1", "travel-v2", "registry-v1", "registry-v2",
             "school-v1", "school-v2")


@dataclass(frozen=True)
class PropertyPlan:
    property: str
    kinds: tuple[tuple[str, int], ...]  # (kind template, rule count)
    rates: dict  # version -> violation rate (row-scoped kinds)
    fail_counts: dict | None = None  # version -> failing rule count (binary kinds)


@dataclass(frozen=True)
class OrgProfile:
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


@dataclass(frozen=True)
class ScenarioBundle:
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
        self.schema_cols: dict[str, list[ColumnSchema]] = {
            name: [ColumnSchema("pk", "text")] for name in self.facts}
        self.generators: dict[str, dict[str, ColumnGen]] = {
            name: {"pk": ColumnGen("serial", (("format", "PK{n:08d}"),))}
            for name in self.facts}
        self.rules: list[dict] = []
        self.violations: list[ViolationPlan] = []
        self.counter = 0
        self.entity_cursor = 0
        # lookup entity backing the foreign-key rules
        self.lookup = f"{profile.org}_lookup"
        self.schema_cols[self.lookup] = [ColumnSchema("code", "text")]
        self.generators[self.lookup] = {
            "code": ColumnGen("serial", (("format", "CODE{n:06d}"),))}

    def next_entity(self) -> str:
        entity = self.facts[self.entity_cursor % len(self.facts)]
        self.entity_cursor += 1
        return entity

    def next_column(self) -> str:
        self.counter += 1
        return f"c{self.counter:04d}"

    def add_column(self, entity: str, datatype: str, gen: ColumnGen,
                   nullable: bool = False) -> str:
        column = self.next_column()
        self.schema_cols[entity].append(ColumnSchema(column, datatype, nullable))
        self.generators[entity][column] = gen
        return column

    def add_rule(self, rule_id: str, entity: str, columns: list[str],
                 prop: str, kind: str, params: dict, skip_null: bool = False) -> None:
        self.rules.append({
            "id": rule_id, "entity": entity, "columns": columns,
            "property": prop, "kind": kind, "params": params,
            "where": None, "skip_null": skip_null,
            "description": f"{prop} check over {entity}",
        })

    def plan(self, rule_id: str, rate: Decimal, violating=()) -> None:
        if rate > 0:
            self.violations.append(ViolationPlan(rule_id, rate, violating))

    def emit(self, plan: PropertyPlan) -> None:
        index = 0
        for template, count in plan.kinds:
            for _ in range(count):
                index += 1
                rule_id = f"{plan.property}_{index:03d}"
                rate = plan.rates.get(self.version, Decimal(0))
                fails = (plan.fail_counts or {}).get(self.version, 0)
                self._emit_rule(template, rule_id, plan.property, rate,
                                failing=index <= fails)

    def _emit_rule(self, template: str, rule_id: str, prop: str,
                   rate: Decimal, failing: bool) -> None:
        entity = self.next_entity()
        rows = self.profile.rows
        if template == "syntax":
            col = self.add_column(entity, "text",
                                  ColumnGen("serial", (("format", "AB{n:06d}"),)))
            self.add_rule(rule_id, entity, [col], prop, "syntax",
                          {"pattern": _SYNTAX_PATTERN})
            self.plan(rule_id, rate, ("??",))
        elif template == "domain":
            col = self.add_column(entity, "text",
                                  ColumnGen("choice", (("values", _DOMAIN_POOL),)))
            self.add_rule(rule_id, entity, [col], prop, "domain",
                          {"allowed": list(_DOMAIN_POOL)})
            self.plan(rule_id, rate)
        elif template == "range":
            col = self.add_column(entity, "integer",
                                  ColumnGen("int_uniform",
                                            (("max", 100), ("min", 0))))
            self.add_rule(rule_id, entity, [col], prop, "range",
                          {"min": 0, "max": 100})
            self.plan(rule_id, rate)
        elif template == "min_count":
            threshold = rows + 1 if failing else max(rows // 2, 1)
            self.add_rule(rule_id, entity, [], prop, "min_count",
                          {"threshold": threshold})
        elif template == "not_null":
            col = self.add_column(entity, "text",
                                  ColumnGen("choice",
                                            (("values", ("set_a", "set_b")),)),
                                  nullable=True)
            self.add_rule(rule_id, entity, [col], prop, "not_null", {})
            self.plan(rule_id, rate)
        elif template == "no_default":
            col = self.add_column(entity, "text",
                                  ColumnGen("choice",
                                            (("values", ("real_a", "real_b")),)))
            self.add_rule(rule_id, entity, [col], prop, "no_default",
                          {"placeholders": ["N/A"]})
            self.plan(rule_id, rate)
        elif template == "unique":
            col = self.add_column(entity, "text",
                                  ColumnGen("serial", (("format", "K{n:07d}"),)))
            self.add_rule(rule_id, entity, [], prop, "unique", {"key": [col]})
            self.plan(rule_id, rate)
        elif template == "foreign_key":
            pool = tuple(f"CODE{i:06d}" for i in range(10))
            col = self.add_column(entity, "text",
                                  ColumnGen("choice", (("values", pool),)))
            self.add_rule(rule_id, entity, [col], prop, "foreign_key",
                          {"referenced": f"{self.lookup}.code"})
            self.plan(rule_id, rate)
        elif template == "format_class":
            col = self.add_column(entity, "text",
                                  ColumnGen("serial", (("format", "CD{n:06d}"),)))
            self.add_rule(rule_id, entity, [col], prop, "format_class",
                          {"class": "std_code"})
            self.plan(rule_id, rate, ("*bad*",))
        elif template == "predicate":
            col = self.add_column(entity, "integer",
                                  ColumnGen("int_uniform",
                                            (("max", 99), ("min", 10))))
            self.add_rule(rule_id, entity, [], prop, "predicate",
                          {"expr": f"{col} < 1000"})
            self.plan(rule_id, rate, ((col, 1000),))
        elif template == "provenance":
            col = self.add_column(entity, "text",
                                  ColumnGen("choice", (("values", _PROVENANCE_POOL),)))
            members = ", ".join(f"'{v}'" for v in _PROVENANCE_POOL)
            self.add_rule(rule_id, entity, [], prop, "predicate",
                          {"expr": f"in_set({col}, {members})"})
            self.plan(rule_id, rate, ((col, "UNKNOWN"),))
        elif template == "freshness":
            col = self.add_column(entity, "timestamp",
                                  ColumnGen("timestamp_uniform",
                                            (("end", "2024-05-31T00:00:00Z"),
                                             ("start", "2024-05-02T00:00:00Z"))))
            self.add_rule(rule_id, entity, [], prop, "freshness",
                          {"timestamp_column": col, "max_age": "60d"})
            self.plan(rule_id, rate)
        elif template == "frequency":
            col = self.add_column(entity, "timestamp",
                                  ColumnGen("timestamp_spaced",
                                            (("start", "2024-05-02T00:00:00Z"),
                                             ("step", "1h"))))
            self.add_rule(rule_id, entity, [], prop, "frequency",
                          {"timestamp_column": col, "max_gap": "7d"})
            if failing:
                self.plan(rule_id, Decimal(1))
        else:  # pragma: no cover
            raise ValueError(f"unknown template {template!r}")

    def bundle(self, name: str) -> ScenarioBundle:
        entities = [EntitySchema(self.lookup,
                                 tuple(self.schema_cols[self.lookup]), ("code",))]
        entities += [EntitySchema(fact, tuple(self.schema_cols[fact]), ("pk",))
                     for fact in self.facts]
        catalog = SchemaCatalog(tuple(entities))

        doc = canonical.dumps({
            "name": f"{self.profile.org}-rules",
            "version": self.version,
            "reference_time": REFERENCE_TIME,
            "format_classes": {"std_code": _SYNTAX_PATTERN},
            "rules": self.rules,
        })
        ruleset = parse_ruleset(doc)

        plans = {self.lookup: EntityPlan(self.profile.rows, tuple(
            (c, self.generators[self.lookup][c])
            for c in self.generators[self.lookup]))}
        for fact in self.facts:
            plans[fact] = EntityPlan(self.profile.rows, tuple(
                (c, self.generators[fact][c]) for c in self.generators[fact]))
        spec = SynthSpec(self.seed, tuple(plans.items()), tuple(self.violations))
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
    (out_dir / "schema.json").write_text(serialize_catalog(bundle.catalog),
                                         encoding="utf-8")
    (out_dir / "rules.json").write_text(serialize_ruleset(bundle.ruleset),
                                        encoding="utf-8")
    return generate(bundle.spec, bundle.catalog, bundle.ruleset,
                    out_dir / "snapshot")
