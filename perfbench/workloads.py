"""The benchmark's workloads: inputs for `dq evaluate`, generated from a seed.

Each workload is a directory holding `schema.json`, `rules.json` and
`snapshot/` (one CSV per entity plus `expected_measures.json`, the
by-construction oracle). `scan` and `rowexpr` are synth specs generated by
`synthkit.generate`, the work `dq synth` does; `registry` is the bundled
`registry-v1` scenario, whose seed `scenarios.py` fixes.

Why these three: they load the layers of `dq evaluate` in different
proportions.

- scan: a criterion-8 shaped table. Load and per-value scans do nearly all
  the work; every rule column fits the loader's 65,536-entry dedup cache;
  ten equally heavy rules give `--jobs` real work to split; no expression
  is evaluated.
- rowexpr: orders and customers with high-cardinality columns (keys,
  emails, decimals, timestamps exceed the dedup cap) and rules whose cost
  is the row-expression interpreter: predicates, `where` filters and a
  freshness condition, next to unique and foreign-key rules. Failing refs
  stay at a few percent per rule so that reporting stays small.
- registry: 36 small entities and 813 rules of all twelve kinds. Data work
  is negligible; per-rule overhead, validation, scoring, output
  serialization, manifest writes and interpreter start-up dominate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from dqeval import canonical, scenarios, synthkit
from dqeval.dataset import load_catalog, serialize_catalog
from dqeval.rules import parse_ruleset, serialize_ruleset

WORKLOADS = ("scan", "rowexpr", "registry")
REGISTRY_SCENARIO = "registry-v1"

# Rows at scale 1. The smoke test runs the same shapes at a small scale.
SCAN_ROWS = 60_000
ROWEXPR_ORDERS = 68_000  # 2% of rows get planned values; the rest still exceed 65,536
ROWEXPR_CUSTOMERS = 5_000

# criterion 8's four-octet address check, each octet in 0..255
_OCTET = "(25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)"
SCAN_PATTERN = f"^{_OCTET}(\\.{_OCTET}){{3}}$"
_IP_POOL = [f"10.{i // 256 % 256}.{i % 256}.{i * 7 % 256}" for i in range(1000)]
_COLOURS = ["RED", "GREEN", "BLUE"]


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated workload, as `dq evaluate` takes them."""
    root: Path

    @property
    def rules(self) -> Path:
        return self.root / "rules.json"

    @property
    def schema(self) -> Path:
        return self.root / "schema.json"

    @property
    def data(self) -> Path:
        return self.root / "snapshot"

    @property
    def expected(self) -> Path:
        return self.data / "expected_measures.json"


@dataclass(frozen=True)
class SynthWorkload:
    """Documents for `dq synth`, plus rules the oracle cannot cover.

    `late_rules` carry `where` filters or freshness conditions, which
    synthkit refuses; they join `rules.json` after generation and are
    checked by byte identity across runs rather than by the oracle.
    """
    schema: dict
    rules: list
    late_rules: list
    spec: dict


def _rule(rule_id, entity, columns, prop, kind, params, where=None):
    rule = {"id": rule_id, "entity": entity, "columns": columns,
            "property": prop, "kind": kind, "params": params}
    if where is not None:
        rule["where"] = where
    return rule


def _col(name, datatype):
    return {"name": name, "datatype": datatype, "nullable": False}


def scan_workload(seed: int, scale: float = 1.0) -> SynthWorkload:
    rows = max(int(SCAN_ROWS * scale), 1000)
    columns = [_col("pk", "text")]
    gens = {"pk": {"generator": "serial", "format": "PK{n:07d}"}}
    rules, plans = [], []
    for i in range(4):
        c = f"syn{i}"
        columns.append(_col(c, "text"))
        gens[c] = {"generator": "choice", "values": _IP_POOL}
        rules.append(_rule(c, "big", [c], "EXAC_SINT", "syntax",
                           {"pattern": SCAN_PATTERN}))
        plans.append({"rule": c, "rate": 0.002, "violating": ["999.999.999.999"]})
    for i in range(3):
        c = f"rng{i}"
        columns.append(_col(c, "integer"))
        gens[c] = {"generator": "int_uniform", "min": 0, "max": 255}
        rules.append(_rule(c, "big", [c], "RAN_EXAC", "range", {"min": 0, "max": 255}))
        plans.append({"rule": c, "rate": 0.002})
    for i in range(3):
        c = f"dom{i}"
        columns.append(_col(c, "text"))
        gens[c] = {"generator": "choice", "values": _COLOURS}
        rules.append(_rule(c, "big", [c], "EXAC_SEMAN", "domain",
                           {"allowed": _COLOURS}))
        plans.append({"rule": c, "rate": 0.002})
    return SynthWorkload(
        schema={"entities": [{"name": "big", "columns": columns, "key": ["pk"]}]},
        rules=rules, late_rules=[],
        spec={"seed": seed, "entities": {"big": {"rows": rows, "columns": gens}},
              "violations": plans})


def rowexpr_workload(seed: int, scale: float = 1.0) -> SynthWorkload:
    orders = max(int(ROWEXPR_ORDERS * scale), 1000)
    customers = max(int(ROWEXPR_CUSTOMERS * scale), 200)
    # Every generator keeps its baseline inside the rules below, so only
    # the planned rows fail. A plan writes a column no other oracle rule reads.
    order_cols = {
        "order_id": ("integer", {"generator": "serial"}),
        "customer_id": ("integer", {"generator": "int_uniform", "min": 0,
                                    "max": customers - 1}),
        "order_ref": ("text", {"generator": "serial", "format": "ORD-{n:08d}"}),
        "email": ("text", {"generator": "serial",
                           "format": "buyer{n:07d}@shop.example"}),
        "amount": ("decimal", {"generator": "decimal_uniform", "min": "0.01",
                               "max": "99999.99", "places": 2}),
        "quantity": ("integer", {"generator": "int_uniform", "min": 1, "max": 20}),
        "status": ("text", {"generator": "choice",
                            "values": ["NEW", "PAID", "SHIPPED", "DONE"]}),
        "created_at": ("timestamp", {"generator": "timestamp_uniform",
                                     "start": "2024-01-01T00:00:00Z",
                                     "end": "2024-03-01T00:00:00Z"}),
        "shipped_at": ("timestamp", {"generator": "timestamp_uniform",
                                     "start": "2024-02-01T00:00:00Z",
                                     "end": "2024-04-01T00:00:00Z"}),
        "delivered_at": ("timestamp", {"generator": "timestamp_uniform",
                                       "start": "2024-04-02T00:00:00Z",
                                       "end": "2024-05-30T00:00:00Z"}),
    }
    customer_cols = {
        "cust_id": ("integer", {"generator": "serial"}),
        "cust_email": ("text", {"generator": "serial",
                                "format": "client{n:06d}@mail.example"}),
        "credit": ("decimal", {"generator": "decimal_uniform", "min": "0.00",
                               "max": "10000.00", "places": 2}),
        "tier": ("text", {"generator": "choice", "values": ["GOLD", "SILVER", "BRONZE"]}),
    }
    rules = [
        _rule("fk_customer", "orders", ["customer_id"], "INT_REF", "foreign_key",
              {"referenced": "customers.cust_id"}),
        _rule("uniq_ref", "orders", [], "FAL_COMP_FICH", "unique",
              {"key": ["order_ref"]}),
        _rule("p_text", "orders", [], "CONS_SEMAN", "predicate",
              {"expr": "len(email) > 20 and substr(upper(email), 1, 5) = 'BUYER'"}),
        _rule("p_number", "orders", [], "CONS_SEMAN", "predicate",
              {"expr": "amount > 0 and amount / quantity < 100000"}),
        _rule("p_transit", "orders", [], "CONS_SEMAN", "predicate",
              {"expr": "date_diff_days(delivered_at, shipped_at) > 0"}),
        _rule("p_status", "orders", [], "CONS_SEMAN", "predicate",
              {"expr": "in_set(status, 'NEW', 'PAID', 'SHIPPED', 'DONE')"}),
        _rule("fresh_created", "orders", [], "CONV_ACT", "freshness",
              {"timestamp_column": "created_at", "max_age": "200d"}),
        _rule("uniq_cust_email", "customers", [], "FAL_COMP_FICH", "unique",
              {"key": ["cust_email"]}),
        _rule("p_credit", "customers", [], "CONS_SEMAN", "predicate",
              {"expr": "credit >= 0 and credit <= 10000 and "
                       "in_set(tier, 'GOLD', 'SILVER', 'BRONZE')"}),
    ]
    late_rules = [
        _rule("w_paid_amount", "orders", [], "RIES_INCO", "predicate",
              {"expr": "amount * quantity >= 100"}, where="status = 'PAID'"),
        _rule("w_fk_big", "orders", ["customer_id"], "INT_REF", "foreign_key",
              {"referenced": "customers.cust_id"}, where="amount > 50000"),
        _rule("w_fresh_shipped", "orders", [], "CONV_ACT", "freshness",
              {"timestamp_column": "shipped_at", "max_age": "118d",
               "condition": "status != 'NEW' and age_days(shipped_at) > 30"}),
    ]
    plans = [
        {"rule": "fk_customer", "rate": 0.02},
        {"rule": "uniq_ref", "rate": 0.02},
        {"rule": "p_text", "rate": 0.02, "violating": {"email": "nobody@x"}},
        {"rule": "p_number", "rate": 0.02, "violating": {"amount": "-5.00"}},
        {"rule": "p_transit", "rate": 0.02,
         "violating": {"delivered_at": "2023-01-01T00:00:00Z"}},
        {"rule": "p_status", "rate": 0.02, "violating": {"status": "LOST"}},
        {"rule": "fresh_created", "rate": 0.02},
        {"rule": "uniq_cust_email", "rate": 0.02},
        {"rule": "p_credit", "rate": 0.02, "violating": {"credit": "-1.00"}},
    ]

    def entity(name, cols, key):
        return {"name": name, "columns": [_col(c, t) for c, (t, _) in cols.items()],
                "key": [key]}

    return SynthWorkload(
        schema={"entities": [entity("customers", customer_cols, "cust_id"),
                             entity("orders", order_cols, "order_id")]},
        rules=rules, late_rules=late_rules,
        spec={"seed": seed, "violations": plans, "entities": {
            "customers": {"rows": customers,
                          "columns": {c: g for c, (_, g) in customer_cols.items()}},
            "orders": {"rows": orders,
                       "columns": {c: g for c, (_, g) in order_cols.items()}}}})


def _rules_doc(name: str, rules: list) -> str:
    return json.dumps({"name": name, "version": "1", "rules": rules,
                       "reference_time": scenarios.REFERENCE_TIME}, indent=1)


def synth_inputs(name: str, seed: int, scale: float = 1.0):
    """(spec, catalog, oracle ruleset, late rules) that `setup` generates from."""
    if name == "registry":
        bundle = scenarios.build_scenario(REGISTRY_SCENARIO)
        return bundle.spec, bundle.catalog, bundle.ruleset, []
    w = {"scan": scan_workload, "rowexpr": rowexpr_workload}[name](seed, scale)
    return (synthkit.parse_synthspec(json.dumps(w.spec)),
            load_catalog(json.dumps(w.schema)),
            parse_ruleset(_rules_doc(name, w.rules)), w.late_rules)


def setup(name: str, seed: int, out_dir: Path, scale: float = 1.0) -> Inputs:
    """Generate one workload's inputs into out_dir."""
    inputs = Inputs(Path(out_dir))
    if name == "registry":
        scenarios.write_scenario(REGISTRY_SCENARIO, inputs.root)
        return inputs
    spec, catalog, rs, late_rules = synth_inputs(name, seed, scale)
    synthkit.generate(spec, catalog, rs, inputs.data)
    inputs.schema.write_text(serialize_catalog(catalog), encoding="utf-8")
    rules = canonical.loads(serialize_ruleset(rs))
    rules["rules"] += late_rules
    inputs.rules.write_text(canonical.dumps(rules), encoding="utf-8")
    return inputs
