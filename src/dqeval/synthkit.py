"""Deterministic synthetic snapshots with exact per-rule violation counts.

A synth spec fixes a seed, per-entity row counts, per-column generators that
produce rule-compliant baselines, and per-rule violation plans. For a plan
with rate r over n applicable items, exactly round(r·n) items (half-up) are
rewritten to violate the rule and the rest stay compliant, so the expected
(A, B) of every rule is known by construction. The ruleset is validated
against the catalog first (InvalidRuleset on any error). Generation then
refuses specs it cannot honor exactly rather than producing an unsound
oracle:

- rules in the ruleset may not carry `where`/`condition` filters (B must be
  a construction-time constant);
- a column written by one plan may not be read by any other rule;
- columns read by rules may not have a null_rate;
- unique keys need serial generators (duplicates are made by copying the
  first group member's key); a unique plan needs round(r·n) != 1;
- min_count takes no plan (its outcome follows from the row count).

Every per-value rule plants its violations in (entity, column, row) slots
across all its targets and is re-verified after the writes, with local
checks independent of the evaluation engine: a per-value check runs once
per distinct value of a column, a predicate once per row.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys
from datetime import datetime, timedelta
from decimal import ROUND_HALF_UP, Decimal
from itertools import compress, count, repeat
from pathlib import Path

from . import canonical
from .dataset import Entity, RowView, SchemaCatalog, write_entity
from .errors import ConflictingPlan, InvalidRuleset, ParseError, SynthError
from .expr import columns_referenced, evaluate
from .host import Record, write_atomic
from .reporting import MeasureSet
from .rules import (Domain, ForeignKey, FormatClass, Frequency, Freshness,
                    MinCount, NoDefault, NotNull, Predicate, Range, Rule,
                    RuleSet, Syntax, Unique, days_to_timedelta,
                    parse_duration_days, validate_ruleset)
from .values import DECIMAL_PLACES, coerce_literal

GENERATOR_KINDS = ("serial", "choice", "int_uniform", "decimal_uniform",
                   "timestamp_uniform", "timestamp_spaced", "const")


class ColumnGen(Record):
    kind: str
    params: tuple  # frozen (key, value) pairs
    null_rate: Decimal = Decimal(0)

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


class EntityPlan(Record):
    rows: int
    columns: tuple[tuple[str, ColumnGen], ...]


class ViolationPlan(Record):
    rule_id: str
    rate: Decimal
    violating: tuple = ()  # explicit violating values (or (column, value) pairs
    #                        for predicate plans)


class SynthSpec(Record):
    seed: int
    entities: tuple[tuple[str, EntityPlan], ...]
    violations: tuple[ViolationPlan, ...]

    def entity(self, name: str) -> EntityPlan | None:
        for n, plan in self.entities:
            if n == name:
                return plan
        return None


class ExpectedMeasures(Record):
    measures: tuple[tuple[str, int, int], ...]  # (rule_id, a, b)


class Discrepancy(Record):
    rule_id: str
    expected: tuple[int, int] | None
    actual: tuple[int, int] | None

    def __str__(self) -> str:
        return (f"{self.rule_id}: expected {self.expected}, "
                f"engine measured {self.actual}")


def round_half_up(rate: Decimal, n: int) -> int:
    return int((rate * n).quantize(Decimal(1), rounding=ROUND_HALF_UP))


def _freshness_cutoff(rule: Rule, rs: RuleSet) -> datetime:
    return rs.reference_time - days_to_timedelta(rule.kind.max_age_days)


def _sub_rng(seed: int, tag: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{tag}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# --------------------------------------------------------------------------
# Spec parsing

def parse_synthspec(document: str) -> SynthSpec:
    data = canonical.load_document(document)
    if not isinstance(data, dict):
        raise ParseError("synth spec must be a JSON object")
    seed = data.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ParseError("seed must be an integer", context="$.seed")

    raw_entities = data.get("entities")
    if not isinstance(raw_entities, dict) or not raw_entities:
        raise ParseError("entities must be a non-empty object", context="$.entities")
    entities = []
    for name, raw in raw_entities.items():
        ctx = f"entities.{name}"
        if not isinstance(raw, dict):
            raise ParseError("entity plans must be objects", context=ctx)
        rows = raw.get("rows")
        if not isinstance(rows, int) or isinstance(rows, bool) or rows < 0:
            raise ParseError("rows must be a non-negative integer", context=f"{ctx}.rows")
        raw_cols = raw.get("columns", {})
        if not isinstance(raw_cols, dict):
            raise ParseError("columns must be an object", context=f"{ctx}.columns")
        columns = []
        for cname, rawgen in raw_cols.items():
            cctx = f"{ctx}.columns.{cname}"
            if not isinstance(rawgen, dict) or rawgen.get("generator") not in GENERATOR_KINDS:
                raise ParseError("generator must be one of " + ", ".join(GENERATOR_KINDS),
                                 context=cctx)
            null_rate = rawgen.get("null_rate", 0)
            if isinstance(null_rate, bool) or not isinstance(null_rate, (int, Decimal)) \
                    or not 0 <= null_rate <= 1:
                raise ParseError("null_rate must be a number in [0, 1]", context=cctx)
            params = tuple((k, _freeze_param(v)) for k, v in sorted(rawgen.items())
                           if k not in ("generator", "null_rate"))
            columns.append((cname, ColumnGen(rawgen["generator"], params,
                                             Decimal(null_rate))))
        entities.append((name, EntityPlan(rows, tuple(columns))))

    violations = []
    raw_violations = data.get("violations", [])
    if not isinstance(raw_violations, list):
        raise ParseError("violations must be an array", context="$.violations")
    for i, raw in enumerate(raw_violations):
        ctx = f"violations[{i}]"
        if not isinstance(raw, dict) or not isinstance(raw.get("rule"), str):
            raise ParseError("violation plans must name a rule", context=ctx)
        rate = raw.get("rate")
        if isinstance(rate, bool) or not isinstance(rate, (int, Decimal)) \
                or not 0 <= rate <= 1:
            raise ParseError("rate must be a number in [0, 1]", context=f"{ctx}.rate")
        violating = raw.get("violating", [])
        if isinstance(violating, dict):  # predicate plans: column -> value
            frozen = tuple((k, _freeze_param(v)) for k, v in sorted(violating.items()))
        elif isinstance(violating, list):
            frozen = tuple(_freeze_param(v) for v in violating)
        else:
            raise ParseError("violating must be an array or an object",
                             context=f"{ctx}.violating")
        violations.append(ViolationPlan(raw["rule"], Decimal(rate), frozen))
    return SynthSpec(seed, tuple(entities), tuple(violations))


def _freeze_param(v):
    if isinstance(v, list):
        return tuple(_freeze_param(x) for x in v)
    if isinstance(v, dict):
        return tuple((k, _freeze_param(x)) for k, x in sorted(v.items()))
    return v


# --------------------------------------------------------------------------
# Column generators

def _draws(rng: random.Random, seq, n: int) -> list:
    """[rng.choice(seq) for _ in range(n)], leaving rng in the same state.

    CPython's choice(seq) is seq[r] for the first getrandbits(k) result r
    below len(seq), k = len(seq).bit_length(), so the accepted results of
    one run of getrandbits(k) calls are the choices in order. Each batch
    asks for as many calls as values are missing, and so never draws past
    where the n-th choice stops. seq must not be empty.
    """
    size = len(seq)
    k = size.bit_length()
    values: list = []
    while len(values) < n:
        values += map(seq.__getitem__, filter(size.__gt__, map(
            rng.getrandbits, repeat(k, n - len(values)))))
    return values


def _span(lo: int, hi: int, context: str, kind: str) -> range:
    """range(lo, hi + 1), which _draws, like random.choice, can draw from
    only while its length fits in a C ssize_t."""
    if hi - lo >= sys.maxsize:
        raise SynthError(f"{context}: {kind} range holds more than {sys.maxsize} values")
    return range(lo, hi + 1)


def _generate_column(gen: ColumnGen, datatype: str, n: int,
                     rng: random.Random, context: str) -> list:
    # Drawn cells are _draws' choices from a pool or a range, and
    # choice(range(min, max + 1)) draws what randint(min, max) draws.
    kind = gen.kind
    if kind == "serial":
        if datatype == "integer":
            start = gen.param("start", 0)
            if type(start) is not int:
                raise SynthError(f"{context}: serial start must be an integer")
            values = [start + i for i in range(n)]
        elif datatype == "text":
            fmt = gen.param("format")
            if not isinstance(fmt, str) or "{n" not in fmt:
                raise SynthError(f"{context}: serial text generators need a "
                                 "format with an {n} placeholder")
            try:
                values = [fmt.format(n=i) for i in range(n)]
            except (AttributeError, LookupError, OverflowError, TypeError,
                    ValueError) as exc:
                raise SynthError(f"{context}: serial format {fmt!r} cannot format a "
                                 f"row number ({type(exc).__name__}: {exc})") from None
            text = "".join(values)
            if not text.isascii() and canonical.SURROGATE.search(text):
                row = next(i for i, v in enumerate(values)
                           if canonical.SURROGATE.search(v))
                raise SynthError(f"{context}: serial format {fmt!r} writes a lone "
                                 f"surrogate at row {row}, which UTF-8 cannot encode")
        else:
            raise SynthError(f"{context}: serial supports integer or text columns")
    elif kind == "choice":
        pool = gen.param("values")
        if not isinstance(pool, tuple) or not pool:
            raise SynthError(f"{context}: choice needs a non-empty values pool")
        values = _draws(rng, [_coerce(v, datatype, context) for v in pool], n)
    elif kind == "int_uniform":
        lo, hi = gen.param("min"), gen.param("max")
        if type(lo) is not int or type(hi) is not int or lo > hi:
            raise SynthError(f"{context}: int_uniform needs integer min <= max")
        values = _draws(rng, _span(lo, hi, context, kind), n)
    elif kind == "decimal_uniform":
        places = gen.param("places", 2)
        if type(places) is not int or not 0 <= places <= DECIMAL_PLACES:
            raise SynthError(f"{context}: decimal_uniform places must be an "
                             f"integer from 0 to {DECIMAL_PLACES}")
        lo = _coerce(gen.param("min"), "decimal", context)
        hi = _coerce(gen.param("max"), "decimal", context)
        if lo > hi:
            raise SynthError(f"{context}: decimal_uniform needs min <= max")
        units = int(((hi - lo) * (10 ** places)).to_integral_value())
        quantum = Decimal(1).scaleb(-places)
        values = list(map(lo.__add__, map(quantum.__mul__, _draws(
            rng, _span(0, units, context, kind), n))))
    elif kind == "timestamp_uniform":
        start = _coerce(gen.param("start"), "timestamp", context)
        end = _coerce(gen.param("end"), "timestamp", context)
        if start > end:
            raise SynthError(f"{context}: timestamp_uniform needs start <= end")
        span = int((end - start).total_seconds())
        values = list(map(start.__add__, map(timedelta, repeat(0),  # 0 days, s seconds
                                             _draws(rng, range(span + 1), n))))
    elif kind == "timestamp_spaced":
        start = _coerce(gen.param("start"), "timestamp", context)
        step = parse_duration_days(gen.param("step"), context)
        delta = days_to_timedelta(step)
        try:
            values = [start + i * delta for i in range(n)]
        except OverflowError:
            raise SynthError(f"{context}: {n} timestamps {step} days apart leave "
                             "the datetime range") from None
    elif kind == "const":
        value = _coerce(gen.param("value"), datatype, context)
        values = [value] * n
    else:  # pragma: no cover
        raise SynthError(f"{context}: unknown generator {kind!r}")

    if gen.null_rate > 0:
        nulls = round_half_up(gen.null_rate, n)
        for i in rng.sample(range(n), nulls):
            values[i] = None
    return values


def _coerce(value, datatype: str, context: str):
    try:
        return coerce_literal(value, datatype)
    except ValueError as exc:
        raise SynthError(f"{context}: {exc}") from None


# --------------------------------------------------------------------------
# Plan checking

def _columns_read(rule: Rule) -> set[tuple[str, str]]:
    """Every (entity, column) whose cells influence this rule's outcome."""
    out = set(rule.targets)
    if rule.reference is not None:
        out.add(rule.reference)
    if rule.where is not None:
        out |= {(rule.entity, c) for c in columns_referenced(rule.where)}
    return out


def _columns_written(rule: Rule, plan: ViolationPlan) -> set[tuple[str, str]]:
    if isinstance(rule.kind, Predicate):
        return {(rule.entity, str(c)) for c, _ in plan.violating}
    return set(rule.targets)


def _check_spec(spec: SynthSpec, catalog: SchemaCatalog, rs: RuleSet) -> None:
    rules = {r.id: r for r in rs.rules}
    for plan in spec.violations:
        if plan.rule_id not in rules:
            raise SynthError(f"violation plan references unknown rule {plan.rule_id!r}")
    seen_plans: set[str] = set()
    for plan in spec.violations:
        if plan.rule_id in seen_plans:
            raise ConflictingPlan(f"two plans target rule {plan.rule_id!r}")
        seen_plans.add(plan.rule_id)

    for schema in catalog.entities:
        plan = spec.entity(schema.name)
        if plan is None:
            raise SynthError(f"spec has no entity plan for {schema.name!r}")
        planned = {name for name, _ in plan.columns}
        missing = [c.name for c in schema.columns if c.name not in planned]
        if missing:
            raise SynthError(f"entity {schema.name!r} is missing generators for: "
                             + ", ".join(missing))

    # cells read by rules must stay deterministic: no null_rate there
    read_map: dict[tuple[str, str], set[str]] = {}
    for rule in rs.rules:
        for cell in _columns_read(rule):
            read_map.setdefault(cell, set()).add(rule.id)
    for name, plan in spec.entities:
        for cname, gen in plan.columns:
            if gen.null_rate > 0 and (name, cname) in read_map:
                raise SynthError(f"column {name}.{cname} is read by rules "
                                 f"{sorted(read_map[(name, cname)])} and cannot "
                                 "have a null_rate")

    written: dict[tuple[str, str], str] = {}
    for plan in spec.violations:
        rule = rules[plan.rule_id]
        if isinstance(rule.kind, MinCount):
            raise SynthError("min_count rules take no violation plan; their "
                             "outcome follows from the row count")
        for cell in _columns_written(rule, plan):
            if cell in written:
                raise ConflictingPlan(
                    f"plans for rules {written[cell]!r} and {plan.rule_id!r} "
                    f"both write {cell[0]}.{cell[1]}")
            written[cell] = plan.rule_id
            readers = read_map.get(cell, set()) - {plan.rule_id}
            if readers:
                raise ConflictingPlan(
                    f"plan for rule {plan.rule_id!r} writes {cell[0]}.{cell[1]}, "
                    f"which rules {sorted(readers)} also read")

    # checked last, so that a plan writing a column that a `where` filter
    # reads is reported as a conflict
    for rule in rs.rules:
        if rule.where is not None:
            raise SynthError(f"rule {rule.id!r} has a where filter; synthetic "
                             "oracles require unconditional rules")
        if isinstance(rule.kind, Freshness) and rule.kind.condition is not None:
            raise SynthError(f"rule {rule.id!r} has a freshness condition; "
                             "synthetic oracles require unconditional rules")


# --------------------------------------------------------------------------
# Violating values

def _derive_violating(rule: Rule, plan: ViolationPlan, schema, rs: RuleSet,
                      parent_values: set | None):
    """One value that violates the rule (used when the plan gives no pool)."""
    k = rule.kind
    if isinstance(k, NotNull):
        return None
    if isinstance(k, NoDefault):
        return coerce_literal(k.placeholders[0], _column_type(rule, schema))
    if isinstance(k, Range):
        dtype = _column_type(rule, schema)
        step = timedelta(days=1) if dtype == "timestamp" else 1
        if k.max is not None:
            hi = coerce_literal(k.max, dtype)
            return _stepped(rule, hi, step) if k.max_inclusive else hi
        lo = coerce_literal(k.min, dtype)
        return _stepped(rule, lo, -step) if k.min_inclusive else lo
    if isinstance(k, Domain) and rule.reference is None:
        dtype = _column_type(rule, schema)
        allowed = {coerce_literal(v, dtype) for v in k.allowed}
        if dtype == "text":
            return f"__violates_{rule.id}"
        if dtype in ("integer", "decimal"):
            return max(allowed) + 1
        if dtype == "timestamp":
            return _stepped(rule, max(allowed), timedelta(seconds=1))
        if dtype == "boolean":
            leftover = {True, False} - allowed
            if leftover:
                return leftover.pop()
        raise SynthError(f"rule {rule.id!r}: cannot derive a violating value; "
                         "give the plan an explicit 'violating' pool")
    if rule.reference is not None:  # reference-based membership
        dtype = _column_type(rule, schema)
        if dtype == "text":
            return f"__missing_{rule.id}"
        if dtype in ("integer", "decimal") and parent_values:
            return max(parent_values) + 1
        raise SynthError(f"rule {rule.id!r}: cannot derive a violating value; "
                         "give the plan an explicit 'violating' pool")
    if isinstance(k, Freshness):
        cutoff = _freshness_cutoff(rule, rs)
        try:
            return cutoff - timedelta(days=1)
        except OverflowError:
            raise SynthError(f"rule {rule.id!r}: no timestamp a day before the "
                             "freshness cutoff fits the datetime range") from None
    if isinstance(k, (Syntax, FormatClass, Predicate)):
        raise SynthError(f"rule {rule.id!r}: {k.name} plans need an explicit "
                         "'violating' pool")
    raise SynthError(f"rule {rule.id!r}: no violating value for kind {k.name}")


def _stepped(rule: Rule, value, step):
    """value + step, or SynthError where a timestamp leaves the datetime range."""
    try:
        return value + step
    except OverflowError:
        raise SynthError(f"rule {rule.id!r}: cannot derive a violating value inside "
                         "the datetime range; give the plan an explicit "
                         "'violating' pool") from None


# --------------------------------------------------------------------------
# Local compliance checks (independent of the engine)
#
# One entry per per-value kind binds a rule's check once: literals coerced,
# sets built, the pattern compiled, the freshness cutoff computed. The bound
# check runs once per distinct value of a column; it depends only on value
# equality, so equal values share its outcome.

def _column_type(rule: Rule, schema) -> str:
    return schema.column(rule.columns[0]).datatype


def _pattern_check(rule: Rule, schema, rs: RuleSet, parent_values: set | None):
    fullmatch = re.compile(rule.kind.pattern).fullmatch
    return lambda v: v is not None and fullmatch(v) is not None


def _not_null_check(rule: Rule, schema, rs: RuleSet, parent_values: set | None):
    return lambda v: v is not None


def _no_default_check(rule: Rule, schema, rs: RuleSet, parent_values: set | None):
    dtype = _column_type(rule, schema)
    placeholders = {coerce_literal(p, dtype) for p in rule.kind.placeholders}
    return lambda v: v is not None and v not in placeholders


def _range_check(rule: Rule, schema, rs: RuleSet, parent_values: set | None):
    k = rule.kind
    dtype = _column_type(rule, schema)
    lo = coerce_literal(k.min, dtype)  # None stays None: no bound
    hi = coerce_literal(k.max, dtype)

    def passes(v) -> bool:
        if v is None:
            return False
        if lo is not None and (v < lo if k.min_inclusive else v <= lo):
            return False
        if hi is not None and (v > hi if k.max_inclusive else v >= hi):
            return False
        return True
    return passes


def _domain_check(rule: Rule, schema, rs: RuleSet, parent_values: set | None):
    if rule.reference is None:
        dtype = _column_type(rule, schema)
        allowed = {coerce_literal(v, dtype) for v in rule.kind.allowed}
    else:  # reference-based membership: domain reference or foreign key
        allowed = parent_values or set()
    return lambda v: v is not None and v in allowed


def _freshness_check(rule: Rule, schema, rs: RuleSet, parent_values: set | None):
    cutoff = _freshness_cutoff(rule, rs)
    return lambda v: v is not None and v >= cutoff


_CHECKS = {
    Syntax: _pattern_check, FormatClass: _pattern_check, Range: _range_check,
    Domain: _domain_check, NotNull: _not_null_check,
    NoDefault: _no_default_check, ForeignKey: _domain_check,
    Freshness: _freshness_check,
}


def _failing_rows(passes, col: list) -> list[int]:
    """Rows whose value fails `passes`, calling it once per distinct value."""
    bad = {v for v in set(col) if not passes(v)}
    if not bad:
        return []
    return list(compress(count(), map(bad.__contains__, col)))


def _verify(rule: Rule, tables, chosen: list[tuple[str, str, int]], schema,
            rs: RuleSet, parent_values: set | None) -> None:
    """Raise unless exactly the chosen (entity, column, row) slots fail the
    rule's check. The first offending slot is reported: target by target,
    then row by row."""
    passes = _CHECKS[type(rule.kind)](rule, schema, rs, parent_values)
    for ent, cname in rule.targets:
        col = tables[ent][cname]
        planned = {i for e, c, i in chosen if (e, c) == (ent, cname)}
        wrong = planned.symmetric_difference(_failing_rows(passes, col))
        if not wrong:
            continue
        i = min(wrong)
        if i in planned:
            raise SynthError(f"rule {rule.id!r}: planned violating value {col[i]!r} "
                             f"at {ent}.{cname}[{i}] passes the check")
        raise SynthError(f"rule {rule.id!r}: baseline value {col[i]!r} "
                         f"at {ent}.{cname}[{i}] fails the check")


# --------------------------------------------------------------------------
# Generation

def generate(spec: SynthSpec, catalog: SchemaCatalog, rs: RuleSet,
             out_dir: Path | None = None) -> ExpectedMeasures:
    """Build the snapshot and its exact expected measures.

    Writes `<entity>.csv` files plus expected_measures.json into out_dir
    when given; a pure function of (spec, catalog, ruleset) either way. A
    ruleset with validation errors raises InvalidRuleset before anything runs.
    """
    errors = [d for d in validate_ruleset(rs, catalog) if d.level == "ERROR"]
    if errors:
        raise InvalidRuleset("\n".join(map(str, errors)))
    tables, expected = _generate_tables(spec, catalog, rs)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for schema in catalog.entities:
            write_entity(Entity(schema, tables[schema.name]),
                         out_dir / f"{schema.name}.csv")
        write_atomic(out_dir / "expected_measures.json", serialize_expected(expected))
    return expected


def _generate_tables(spec: SynthSpec, catalog: SchemaCatalog,
                     rs: RuleSet) -> tuple[dict, ExpectedMeasures]:
    """Generated columns (entity → column → values) and expected measures."""
    _check_spec(spec, catalog, rs)

    tables: dict[str, dict[str, list]] = {}
    for schema in catalog.entities:
        plan = spec.entity(schema.name)
        columns: dict[str, list] = {}
        for cname, gen in plan.columns:
            col_schema = schema.column(cname)
            if col_schema is None:
                raise SynthError(f"{schema.name}.{cname} is not in the catalog")
            rng = _sub_rng(spec.seed, f"col|{schema.name}|{cname}")
            columns[cname] = _generate_column(gen, col_schema.datatype, plan.rows,
                                              rng, f"{schema.name}.{cname}")
        tables[schema.name] = columns

    expected: dict[str, tuple[int, int]] = {}
    plans = {p.rule_id: p for p in spec.violations}
    for rule in rs.rules:
        expected[rule.id] = _apply_rule(rule, plans.get(rule.id), spec, catalog,
                                        rs, tables)
    return tables, ExpectedMeasures(tuple((r.id, *expected[r.id]) for r in rs.rules))


def _apply_rule(rule: Rule, plan: ViolationPlan | None, spec: SynthSpec,
                catalog: SchemaCatalog, rs: RuleSet, tables) -> tuple[int, int]:
    schema = catalog.get(rule.entity)
    columns = tables[rule.entity]
    n = spec.entity(rule.entity).rows
    k = rule.kind

    if isinstance(k, MinCount):
        if n == 0:
            return 0, 0
        return (1 if n >= k.threshold else 0), 1

    if isinstance(k, Frequency):
        if n == 0:
            return 0, 0
        [(_, column)] = rule.targets
        col = columns[column]
        violate = plan is not None and round_half_up(plan.rate, 1) == 1
        try:
            max_gap = days_to_timedelta(k.max_gap_days)
            if violate:
                split = max(n // 2, 1)
                shift = max_gap + timedelta(days=1)
                for i in range(split, n):
                    col[i] = col[i] + shift
        except OverflowError:
            raise SynthError(f"rule {rule.id!r}: a gap wider than max_gap "
                             f"{k.max_gap_days} days leaves the datetime range") from None
        stamps = sorted(v for v in col if v is not None)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        widest = max(gaps, default=timedelta(0))
        if violate and widest <= max_gap:
            raise SynthError(f"rule {rule.id!r}: could not construct a gap "
                             f"wider than {k.max_gap_days} days")
        if not violate and widest > max_gap:
            raise SynthError(f"rule {rule.id!r}: baseline timestamps violate the "
                             "max gap; use a timestamp_spaced generator")
        return (0 if violate else 1), 1

    if isinstance(k, Unique):
        key = [c for _, c in rule.targets]
        v = round_half_up(plan.rate, n) if plan else 0
        if v == 1:
            raise SynthError(f"rule {rule.id!r}: a single row cannot violate "
                             "uniqueness; adjust the rate")
        if v:
            rng = _sub_rng(spec.seed, f"plan|{rule.id}")
            chosen = sorted(rng.sample(range(n), v))
            groups = [chosen[i:i + 2] for i in range(0, len(chosen), 2)]
            if len(groups[-1]) == 1:  # odd count: fold the leftover into a triple
                groups[-2].extend(groups.pop())
            for group in groups:
                first = group[0]
                for member in group[1:]:
                    for c in key:
                        columns[c][member] = columns[c][first]
        counts: dict[tuple, int] = {}
        for i in range(n):
            values = tuple(columns[c][i] for c in key)
            counts[values] = counts.get(values, 0) + 1
        actual_violations = sum(c for c in counts.values() if c > 1)
        if actual_violations != v:
            raise SynthError(f"rule {rule.id!r}: baseline keys are not unique; "
                             "use serial generators for key columns")
        return n - v, n

    if isinstance(k, Predicate):
        v = round_half_up(plan.rate, n) if plan else 0
        chosen: set[int] = set()
        if v:
            if not plan.violating:
                _derive_violating(rule, plan, schema, rs, None)  # raises
            overrides = {str(c): val for c, val in plan.violating}
            for cname, value in overrides.items():
                column = schema.column(cname)
                if column is None:
                    raise SynthError(f"rule {rule.id!r}: violating column "
                                     f"{rule.entity}.{cname} is not in the catalog")
                overrides[cname] = _coerce(value, column.datatype, f"rule {rule.id!r}")
            rng = _sub_rng(spec.seed, f"plan|{rule.id}")
            chosen = set(rng.sample(range(n), v))
            for cname, value in overrides.items():
                col = columns[cname]
                for i in chosen:
                    col[i] = value
        entity = Entity(schema, columns)
        for i in range(n):
            ok = evaluate(k.expr, RowView(entity, i), rs.reference_time) is True
            if i in chosen and ok:
                raise SynthError(f"rule {rule.id!r}: the violating overrides still "
                                 "satisfy the predicate")
            if i not in chosen and not ok:
                raise SynthError(f"rule {rule.id!r}: baseline row {i} does not "
                                 "satisfy the predicate")
        return n - v, n

    if type(k) in _CHECKS:
        parents = None  # the referenced column's values, for membership kinds
        if rule.reference is not None:
            ref_entity, ref_column = rule.reference
            parents = set(tables[ref_entity][ref_column]) - {None}
        sizes = [len(tables[ent][cname]) for ent, cname in rule.targets]
        b = sum(sizes)
        v = round_half_up(plan.rate, b) if plan else 0
        chosen: list[tuple[str, str, int]] = []  # (entity, column, row) slots
        if v:
            rng = _sub_rng(spec.seed, f"plan|{rule.id}")
            picked = sorted(rng.sample(range(b), v))
            # slot s is row s - start of the target whose rows start at `start`
            start = 0
            for (ent, cname), size in zip(rule.targets, sizes):
                chosen += [(ent, cname, s - start) for s in picked
                           if start <= s < start + size]
                start += size
            pool = plan.violating or (_derive_violating(rule, plan, schema, rs,
                                                        parents),)
            dtype = schema.column(rule.targets[0][1]).datatype
            pool = tuple(_coerce(p, dtype, f"rule {rule.id!r}") for p in pool)
            for j, (ent, cname, i) in enumerate(chosen):
                tables[ent][cname][i] = pool[j % len(pool)]
        _verify(rule, tables, chosen, schema, rs, parents)
        return b - v, b

    raise SynthError(f"rule {rule.id!r}: unsupported kind {k.name}")  # pragma: no cover


# --------------------------------------------------------------------------
# Expected-measure documents and the engine cross-check

def serialize_expected(expected: ExpectedMeasures) -> str:
    return canonical.dumps({
        "rules": {rid: {"a": a, "b": b} for rid, a, b in expected.measures}
    })


def parse_expected(text: str) -> ExpectedMeasures:
    try:
        data = canonical.loads(text)
        return ExpectedMeasures(tuple(
            (rid, entry["a"], entry["b"]) for rid, entry in data["rules"].items()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid expected-measures document: {exc}") from None


def expected_vs_actual(expected: ExpectedMeasures,
                       ms: MeasureSet) -> list[Discrepancy]:
    """Empty iff the engine's counts equal the construction's counts exactly."""
    out: list[Discrepancy] = []
    seen: set[str] = set()
    for rid, a, b in expected.measures:
        seen.add(rid)
        measure = ms.measures.get(rid)
        if measure is None:
            out.append(Discrepancy(rid, (a, b), None))
        elif (measure.a, measure.b) != (a, b):
            out.append(Discrepancy(rid, (a, b), (measure.a, measure.b)))
    for rid, measure in ms.measures.items():
        if rid not in seen:
            out.append(Discrepancy(rid, None, (measure.a, measure.b)))
    return out
