"""Business-rule documents: parsing, validation, serialization.

A ruleset is a JSON document binding each rule to one quality property and
one kind-specific check. Rulesets are immutable after parsing and safe to
share across concurrent evaluators. The file format is documented in
docs/file-formats.md.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal

from . import canonical
from .errors import ParseError
from .expr import (Expr, ExprTypeError, parse_expr, typecheck, unparse,
                   validate_pattern)
from .taxonomy import Characteristic, Property, parse_property
from .values import coerce_literal, format_timestamp, parse_timestamp

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# --------------------------------------------------------------------------
# Rule kinds

@dataclass(frozen=True)
class Syntax:
    pattern: str
    name = "syntax"


@dataclass(frozen=True)
class Range:
    min: object = None
    max: object = None
    min_inclusive: bool = True
    max_inclusive: bool = True
    name = "range"


@dataclass(frozen=True)
class Domain:
    allowed: tuple = ()
    reference: tuple[str, str] | None = None  # (entity, column)
    name = "domain"


@dataclass(frozen=True)
class NotNull:
    name = "not_null"


@dataclass(frozen=True)
class NoDefault:
    placeholders: tuple = ()
    name = "no_default"


@dataclass(frozen=True)
class Unique:
    key: tuple[str, ...] = ()
    name = "unique"


@dataclass(frozen=True)
class MinCount:
    threshold: int = 0
    name = "min_count"


@dataclass(frozen=True)
class ForeignKey:
    referenced: tuple[str, str] = ("", "")
    name = "foreign_key"


@dataclass(frozen=True)
class FormatClass:
    class_name: str = ""
    pattern: str = ""
    extra_targets: tuple[tuple[str, str], ...] = ()
    name = "format_class"


@dataclass(frozen=True)
class Predicate:
    expr: Expr = None
    name = "predicate"


@dataclass(frozen=True)
class Freshness:
    timestamp_column: str = ""
    max_age_days: Decimal = Decimal(0)
    condition: Expr | None = None
    name = "freshness"


@dataclass(frozen=True)
class Frequency:
    timestamp_column: str = ""
    max_gap_days: Decimal = Decimal(0)
    name = "frequency"


RuleKind = (Syntax | Range | Domain | NotNull | NoDefault | Unique | MinCount
            | ForeignKey | FormatClass | Predicate | Freshness | Frequency)

KIND_NAMES = ("syntax", "range", "domain", "not_null", "no_default", "unique",
              "min_count", "foreign_key", "format_class", "predicate",
              "freshness", "frequency")

# Which properties each kind may be categorized under.
KIND_PROPERTIES: dict[str, tuple[Property, ...]] = {
    "syntax": (Property.EXAC_SINT, Property.CONS_FORM),
    "range": (Property.RAN_EXAC,),
    "domain": (Property.EXAC_SEMAN, Property.CRED_VAL_DAT),
    "not_null": (Property.COMP_REG, Property.COMP_VAL_ESP),
    "no_default": (Property.COMP_VAL_ESP,),
    "unique": (Property.FAL_COMP_FICH, Property.RIES_INCO),
    "min_count": (Property.COMP_FICH,),
    "foreign_key": (Property.INT_REF,),
    "format_class": (Property.CONS_FORM,),
    "predicate": (Property.CONS_SEMAN, Property.CRED_VAL_DAT, Property.CRED_FUEN,
                  Property.RIES_INCO, Property.EXAC_SEMAN),
    "freshness": (Property.CONV_ACT,),
    "frequency": (Property.FREC_ACT,),
}

# Kinds that check exactly one column named in `columns`.
SINGLE_COLUMN_KINDS = ("syntax", "range", "domain", "not_null", "no_default",
                       "foreign_key")
# Kinds whose targets come from params, not `columns`.
NO_COLUMN_KINDS = ("unique", "min_count", "predicate", "freshness", "frequency")


@dataclass(frozen=True)
class Rule:
    id: str
    entity: str
    columns: tuple[str, ...]
    property: Property
    kind: RuleKind
    where: Expr | None = None
    skip_null: bool = False
    description: str = ""

    @property
    def characteristic(self) -> Characteristic:
        return self.property.characteristic

    @property
    def kind_name(self) -> str:
        return self.kind.name


@dataclass(frozen=True)
class RuleSet:
    name: str
    version: str
    reference_time: datetime
    rules: tuple[Rule, ...]
    format_classes: tuple[tuple[str, str], ...] = ()

    def format_class_map(self) -> dict[str, str]:
        return dict(self.format_classes)

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)


@dataclass(frozen=True)
class Diagnostic:
    level: str  # ERROR | WARNING
    rule_id: str | None
    message: str

    def __str__(self) -> str:
        rid = self.rule_id if self.rule_id is not None else "-"
        return f"{self.level} {rid}: {self.message}"


# --------------------------------------------------------------------------
# Parsing

def _fail(message: str, context: str) -> ParseError:
    return ParseError(message, context=context)


def _want(obj: dict, key: str, kinds, context: str, default=_fail):
    if key not in obj:
        if default is not _fail:
            return default
        raise ParseError(f"missing required key {key!r}", context=context)
    value = obj[key]
    if not isinstance(value, kinds) or (kinds is not bool and isinstance(value, bool)
                                        and bool not in _as_tuple(kinds)):
        raise ParseError(f"key {key!r} has the wrong type", context=f"{context}.{key}")
    return value


def _as_tuple(kinds):
    return kinds if isinstance(kinds, tuple) else (kinds,)


def _literal(value, context: str):
    if value is None or isinstance(value, (bool, int, Decimal, str)):
        return value
    raise ParseError("literals must be JSON scalars", context=context)


def _name(value, what: str, context: str) -> str:
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise ParseError(f"{what} must be an identifier ([A-Za-z_][A-Za-z0-9_]*)",
                         context=context)
    return value


def parse_duration_days(value, context: str) -> Decimal:
    """Durations are JSON numbers (days) or strings like '30d', '12h', '90m', '45s'."""
    if isinstance(value, bool):
        raise ParseError("duration must be a number of days or a suffixed string",
                         context=context)
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, Decimal):
        return value
    if isinstance(value, str):
        m = re.fullmatch(r"([0-9]+(?:\.[0-9]+)?)([dhms])", value)
        if m:
            amount = Decimal(m.group(1))
            per_day = {"d": 1, "h": 24, "m": 1440, "s": 86400}[m.group(2)]
            return amount / per_day
    raise ParseError(f"invalid duration {value!r}", context=context)


def _cmp_bounds(lo, hi) -> bool | None:
    """min <= max when both bounds are present and comparable; None if unknown."""
    num = (int, Decimal)
    if isinstance(lo, num) and not isinstance(lo, bool) \
            and isinstance(hi, num) and not isinstance(hi, bool):
        return lo <= hi
    if isinstance(lo, str) and isinstance(hi, str):
        try:
            return parse_timestamp(lo) <= parse_timestamp(hi)
        except ValueError:
            return lo <= hi
    return None


def _parse_kind(kind_name: str, params: dict, format_classes: dict[str, str],
                context: str) -> RuleKind:
    ctx = f"{context}.params"

    def only(*allowed: str) -> None:
        extra = set(params) - set(allowed)
        if extra:
            raise ParseError(f"unknown params for kind {kind_name!r}: "
                             + ", ".join(sorted(extra)), context=ctx)

    if kind_name == "syntax":
        only("pattern")
        pattern = _want(params, "pattern", str, ctx)
        try:
            validate_pattern(pattern)
        except ValueError as exc:
            raise ParseError(str(exc), context=f"{ctx}.pattern") from None
        return Syntax(pattern)

    if kind_name == "range":
        only("min", "max", "min_inclusive", "max_inclusive")
        lo = _literal(params.get("min"), f"{ctx}.min")
        hi = _literal(params.get("max"), f"{ctx}.max")
        if lo is None and hi is None:
            raise ParseError("range requires at least one of min/max", context=ctx)
        if lo is not None and hi is not None:
            ok = _cmp_bounds(lo, hi)
            if ok is None:
                raise ParseError("range bounds have incompatible types", context=ctx)
            if not ok:
                raise ParseError("range min must not exceed max", context=ctx)
        return Range(lo, hi,
                     _want(params, "min_inclusive", bool, ctx, True),
                     _want(params, "max_inclusive", bool, ctx, True))

    if kind_name == "domain":
        only("allowed", "reference")
        has_allowed = "allowed" in params
        has_reference = "reference" in params
        if has_allowed == has_reference:
            raise ParseError("domain takes exactly one of 'allowed' or 'reference'",
                             context=ctx)
        if has_allowed:
            allowed = _want(params, "allowed", list, ctx)
            if not allowed:
                raise ParseError("domain allowed list must be non-empty", context=ctx)
            return Domain(allowed=tuple(_literal(v, f"{ctx}.allowed") for v in allowed))
        return Domain(reference=_entity_column(params["reference"], f"{ctx}.reference"))

    if kind_name == "not_null":
        only()
        return NotNull()

    if kind_name == "no_default":
        only("placeholders")
        placeholders = _want(params, "placeholders", list, ctx)
        if not placeholders:
            raise ParseError("no_default placeholders must be non-empty", context=ctx)
        return NoDefault(tuple(_literal(v, f"{ctx}.placeholders") for v in placeholders))

    if kind_name == "unique":
        only("key")
        key = _want(params, "key", list, ctx)
        if not key:
            raise ParseError("unique key list must be non-empty", context=ctx)
        names = [_name(c, "key column", f"{ctx}.key") for c in key]
        if len(set(names)) != len(names):
            raise ParseError("unique key list has duplicate column names", context=ctx)
        return Unique(tuple(names))

    if kind_name == "min_count":
        only("threshold")
        threshold = _want(params, "threshold", int, ctx)
        if isinstance(threshold, bool) or threshold < 0:
            raise ParseError("min_count threshold must be a non-negative integer",
                             context=ctx)
        return MinCount(threshold)

    if kind_name == "foreign_key":
        only("referenced")
        return ForeignKey(_entity_column(_want(params, "referenced", str, ctx),
                                         f"{ctx}.referenced"))

    if kind_name == "format_class":
        only("class", "extra_targets")
        class_name = _want(params, "class", str, ctx)
        if class_name not in format_classes:
            raise ParseError(f"undefined format class {class_name!r}",
                             context=f"{ctx}.class")
        extra = params.get("extra_targets", [])
        if not isinstance(extra, list):
            raise ParseError("extra_targets must be a list of [entity, column] pairs",
                             context=ctx)
        targets = []
        for i, t in enumerate(extra):
            if not (isinstance(t, list) and len(t) == 2):
                raise ParseError("extra_targets entries must be [entity, column] pairs",
                                 context=f"{ctx}.extra_targets[{i}]")
            targets.append((_name(t[0], "entity", f"{ctx}.extra_targets[{i}]"),
                            _name(t[1], "column", f"{ctx}.extra_targets[{i}]")))
        return FormatClass(class_name, format_classes[class_name], tuple(targets))

    if kind_name == "predicate":
        only("expr")
        text = _want(params, "expr", str, ctx)
        try:
            return Predicate(parse_expr(text))
        except ParseError as exc:
            raise ParseError(exc.message, line=exc.line, column=exc.column,
                             context=f"{ctx}.expr") from None

    if kind_name == "freshness":
        only("timestamp_column", "max_age", "condition")
        column = _name(_want(params, "timestamp_column", str, ctx),
                       "timestamp_column", f"{ctx}.timestamp_column")
        max_age = parse_duration_days(_want(params, "max_age", (int, Decimal, str), ctx),
                                      f"{ctx}.max_age")
        condition = None
        if params.get("condition") is not None:
            try:
                condition = parse_expr(_want(params, "condition", str, ctx))
            except ParseError as exc:
                raise ParseError(exc.message, line=exc.line, column=exc.column,
                                 context=f"{ctx}.condition") from None
        return Freshness(column, max_age, condition)

    if kind_name == "frequency":
        only("timestamp_column", "max_gap")
        column = _name(_want(params, "timestamp_column", str, ctx),
                       "timestamp_column", f"{ctx}.timestamp_column")
        max_gap = parse_duration_days(_want(params, "max_gap", (int, Decimal, str), ctx),
                                      f"{ctx}.max_gap")
        return Frequency(column, max_gap)

    raise ParseError(f"unknown rule kind {kind_name!r}; expected one of "
                     + ", ".join(KIND_NAMES), context=f"{context}.kind")


def _entity_column(value, context: str) -> tuple[str, str]:
    if isinstance(value, str) and value.count(".") == 1:
        entity, column = value.split(".")
        if _NAME_RE.match(entity) and _NAME_RE.match(column):
            return entity, column
    raise ParseError(f"expected 'entity.column', got {value!r}", context=context)


def _parse_rule(obj, index: int, format_classes: dict[str, str]) -> Rule:
    context = f"rules[{index}]"
    if not isinstance(obj, dict):
        raise ParseError("rule entries must be objects", context=context)
    rule_id = _want(obj, "id", str, context)
    if not rule_id:
        raise ParseError("rule id must be non-empty", context=f"{context}.id")
    context = f"rules[{index}] (id {rule_id!r})"
    entity = _name(_want(obj, "entity", str, context), "entity", f"{context}.entity")
    columns = _want(obj, "columns", list, context, [])
    columns = tuple(_name(c, "column", f"{context}.columns") for c in columns)
    try:
        prop = parse_property(_want(obj, "property", str, context))
    except ValueError as exc:
        raise ParseError(str(exc), context=f"{context}.property") from None
    kind_name = _want(obj, "kind", str, context)
    params = _want(obj, "params", dict, context, {})
    kind = _parse_kind(kind_name, params, format_classes, context)

    if prop not in KIND_PROPERTIES[kind_name]:
        raise ParseError(
            f"kind {kind_name!r} cannot be categorized under property {prop.value}; "
            "allowed: " + ", ".join(p.value for p in KIND_PROPERTIES[kind_name]),
            context=f"{context}.property")
    if kind_name in SINGLE_COLUMN_KINDS and len(columns) != 1:
        raise ParseError(f"kind {kind_name!r} requires exactly one column",
                         context=f"{context}.columns")
    if kind_name in NO_COLUMN_KINDS and columns:
        raise ParseError(f"kind {kind_name!r} takes no columns "
                         "(targets come from params)", context=f"{context}.columns")
    if kind_name == "format_class" and not columns:
        raise ParseError("format_class requires at least one column",
                         context=f"{context}.columns")

    where = None
    if obj.get("where") is not None:
        try:
            where = parse_expr(_want(obj, "where", str, context))
        except ParseError as exc:
            raise ParseError(exc.message, line=exc.line, column=exc.column,
                             context=f"{context}.where") from None

    skip_null = _want(obj, "skip_null", bool, context, False)
    if skip_null and kind_name in ("not_null", "no_default"):
        raise ParseError(f"skip_null cannot be true for kind {kind_name!r} "
                         "(null presence is what the rule checks)",
                         context=f"{context}.skip_null")
    description = _want(obj, "description", str, context, "")
    return Rule(rule_id, entity, columns, prop, kind, where, skip_null, description)


def parse_ruleset(document: str) -> RuleSet:
    """Parse a rules document; total — either a valid RuleSet or ParseError."""
    try:
        data = canonical.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno,
                         column=exc.colno) from None
    if not isinstance(data, dict):
        raise ParseError("ruleset document must be a JSON object")

    name = _want(data, "name", str, "$")
    version = _want(data, "version", str, "$")
    try:
        reference_time = parse_timestamp(_want(data, "reference_time", str, "$"))
    except ValueError as exc:
        raise ParseError(str(exc), context="$.reference_time") from None

    raw_classes = _want(data, "format_classes", dict, "$", {})
    format_classes: dict[str, str] = {}
    for cname, pattern in raw_classes.items():
        _name(cname, "format class name", "$.format_classes")
        if not isinstance(pattern, str):
            raise ParseError("format class patterns must be text",
                             context=f"$.format_classes.{cname}")
        try:
            validate_pattern(pattern)
        except ValueError as exc:
            raise ParseError(str(exc), context=f"$.format_classes.{cname}") from None
        format_classes[cname] = pattern

    raw_rules = _want(data, "rules", list, "$")
    if not raw_rules:
        raise ParseError("ruleset must contain at least one rule", context="$.rules")

    rules = []
    seen: set[str] = set()
    for i, obj in enumerate(raw_rules):
        rule = _parse_rule(obj, i, format_classes)
        if rule.id in seen:
            raise ParseError(f"duplicate rule id {rule.id!r}", context=f"rules[{i}].id")
        seen.add(rule.id)
        rules.append(rule)

    return RuleSet(name, version, reference_time, tuple(rules),
                   tuple(sorted(format_classes.items())))


# --------------------------------------------------------------------------
# Serialization (canonical; parse(serialize(rs)) == rs)

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


def ruleset_fingerprint(rs: RuleSet) -> str:
    return canonical.sha256_text(serialize_ruleset(rs))


# --------------------------------------------------------------------------
# Validation against a schema catalog

def validate_ruleset(rs: RuleSet, catalog) -> list[Diagnostic]:
    """Cross-check a parsed ruleset against a SchemaCatalog.

    Returns ordered diagnostics; an empty list (or warnings only) means the
    ruleset is evaluable.
    """
    out: list[Diagnostic] = []
    used_classes: set[str] = set()

    def error(rule_id: str, message: str) -> None:
        out.append(Diagnostic("ERROR", rule_id, message))

    for rule in rs.rules:
        entity = catalog.get(rule.entity)
        if entity is None:
            error(rule.id, f"entity {rule.entity!r} does not exist")
            continue
        col_types = {c.name: c.datatype for c in entity.columns}

        missing = [c for c in rule.columns if c not in col_types]
        for c in missing:
            error(rule.id, f"column {rule.entity}.{c} does not exist")
        if missing:
            continue

        if rule.where is not None:
            _check_boolean_expr(rule, rule.where, col_types, "where", error)

        k = rule.kind
        if isinstance(k, (Syntax, FormatClass)):
            for c in rule.columns:
                if col_types[c] != "text":
                    error(rule.id, f"pattern rules require text columns; "
                                   f"{rule.entity}.{c} is {col_types[c]}")
            if isinstance(k, FormatClass):
                used_classes.add(k.class_name)
                for ent_name, col in k.extra_targets:
                    target = catalog.get(ent_name)
                    if target is None:
                        error(rule.id, f"entity {ent_name!r} does not exist")
                        continue
                    if target.column(col) is None:
                        error(rule.id, f"column {ent_name}.{col} does not exist")
                    elif target.column(col).datatype != "text":
                        error(rule.id, f"pattern rules require text columns; "
                                       f"{ent_name}.{col} is {target.column(col).datatype}")
                    if rule.where is not None:
                        # where runs against every target entity's rows
                        _check_boolean_expr(rule, rule.where,
                                            {c.name: c.datatype for c in target.columns},
                                            f"where (target {ent_name})", error)
        elif isinstance(k, Range):
            dtype = col_types[rule.columns[0]]
            if dtype == "boolean":
                error(rule.id, "range rules cannot target boolean columns")
            else:
                for bound, label in ((k.min, "min"), (k.max, "max")):
                    if bound is None:
                        continue
                    try:
                        coerce_literal(bound, dtype)
                    except ValueError as exc:
                        error(rule.id, f"range {label}: {exc}")
        elif isinstance(k, Domain):
            dtype = col_types[rule.columns[0]]
            if k.reference is not None:
                ent_name, col = k.reference
                target = catalog.get(ent_name)
                if target is None:
                    error(rule.id, f"entity {ent_name!r} does not exist")
                elif target.column(col) is None:
                    error(rule.id, f"column {ent_name}.{col} does not exist")
                elif not _types_comparable(dtype, target.column(col).datatype):
                    error(rule.id, f"domain reference {ent_name}.{col} has type "
                                   f"{target.column(col).datatype}, not comparable with {dtype}")
            else:
                for v in k.allowed:
                    try:
                        coerce_literal(v, dtype)
                    except ValueError as exc:
                        error(rule.id, f"domain literal: {exc}")
        elif isinstance(k, NoDefault):
            dtype = col_types[rule.columns[0]]
            for v in k.placeholders:
                try:
                    coerce_literal(v, dtype)
                except ValueError as exc:
                    error(rule.id, f"placeholder: {exc}")
        elif isinstance(k, Unique):
            for c in k.key:
                if c not in col_types:
                    error(rule.id, f"column {rule.entity}.{c} does not exist")
        elif isinstance(k, ForeignKey):
            ent_name, col = k.referenced
            target = catalog.get(ent_name)
            if target is None:
                error(rule.id, f"entity {ent_name!r} does not exist")
            elif target.column(col) is None:
                error(rule.id, f"column {ent_name}.{col} does not exist")
            elif not _types_comparable(col_types[rule.columns[0]],
                                       target.column(col).datatype):
                error(rule.id, f"foreign key targets {target.column(col).datatype} "
                               f"column, not comparable with {col_types[rule.columns[0]]}")
        elif isinstance(k, (Freshness, Frequency)):
            col = k.timestamp_column
            if col not in col_types:
                error(rule.id, f"column {rule.entity}.{col} does not exist")
            elif col_types[col] != "timestamp":
                error(rule.id, f"{rule.entity}.{col} is {col_types[col]}, "
                               "expected timestamp")
            if isinstance(k, Freshness) and k.condition is not None \
                    and col in col_types:
                _check_boolean_expr(rule, k.condition, col_types, "condition", error)
        elif isinstance(k, Predicate):
            _check_boolean_expr(rule, k.expr, col_types, "predicate", error)

    for cname, _ in rs.format_classes:
        if cname not in used_classes:
            out.append(Diagnostic("WARNING", None,
                                  f"format class {cname!r} is defined but never used"))
    return out


def _check_boolean_expr(rule: Rule, e: Expr, col_types: dict[str, str],
                        label: str, error) -> None:
    try:
        result = typecheck(e, col_types)
    except ExprTypeError as exc:
        error(rule.id, f"{label}: {exc}")
        return
    if result != "boolean":
        error(rule.id, f"{label} must be boolean, got {result}")


def _types_comparable(a: str, b: str) -> bool:
    if a == b:
        return True
    return {a, b} <= {"integer", "decimal"}


# --------------------------------------------------------------------------
# Partitioning

def rules_by_property(rs: RuleSet) -> dict[Property, list[Rule]]:
    """Partition rules by property, preserving document order within each list."""
    out: dict[Property, list[Rule]] = {}
    for rule in rs.rules:
        out.setdefault(rule.property, []).append(rule)
    return out

