"""Business-rule documents: parsing, validation, serialization, and each
rule's violating-row selector.

A ruleset is a JSON document binding each rule to one quality property and
one kind-specific check. Rulesets are immutable after parsing and safe to
share across concurrent evaluators. The file format is documented in
docs/file-formats.md.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta
from decimal import Decimal

from . import canonical
from .errors import ParseError
from .host import Record
from .expr import (Expr, ExprTypeError, Literal, columns_referenced, comparable,
                   parse_expr, typecheck, unparse, validate_pattern)
from .taxonomy import Characteristic, Property, parse_property
from .values import coerce_literal, format_timestamp, parse_timestamp

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# --------------------------------------------------------------------------
# Rule kinds
#
# Each kind class is the one definition of its kind: `name` is its document
# name, `properties` the properties it may be categorized under, and `arity`
# what `columns` must hold ("one" column, "none", or "some": at least one).
# Its fields are its params, named alike unless its `param_names` gives
# another name (None: not a param); its `refs` are "entity.column" references.

class Syntax(Record):
    pattern: str
    name = "syntax"
    properties = (Property.EXAC_SINT, Property.CONS_FORM)
    arity = "one"


class Range(Record):
    min: object = None
    max: object = None
    min_inclusive: bool = True
    max_inclusive: bool = True
    name = "range"
    properties = (Property.RAN_EXAC,)
    arity = "one"


class Domain(Record):
    allowed: tuple = ()
    reference: tuple[str, str] | None = None
    name = "domain"
    properties = (Property.EXAC_SEMAN, Property.CRED_VAL_DAT)
    arity = "one"
    refs = ("reference",)


class NotNull(Record):
    name = "not_null"
    properties = (Property.COMP_REG, Property.COMP_VAL_ESP)
    arity = "one"


class NoDefault(Record):
    placeholders: tuple = ()
    name = "no_default"
    properties = (Property.COMP_VAL_ESP,)
    arity = "one"


class Unique(Record):
    key: tuple[str, ...] = ()
    name = "unique"
    properties = (Property.FAL_COMP_FICH, Property.RIES_INCO)
    arity = "none"


class MinCount(Record):
    threshold: int = 0
    name = "min_count"
    properties = (Property.COMP_FICH,)
    arity = "none"


class ForeignKey(Record):
    referenced: tuple[str, str] = ("", "")
    name = "foreign_key"
    properties = (Property.INT_REF,)
    arity = "one"
    refs = ("referenced",)


class FormatClass(Record):
    class_name: str = ""
    pattern: str = ""
    extra_targets: tuple[tuple[str, str], ...] = ()
    name = "format_class"
    properties = (Property.CONS_FORM,)
    arity = "some"
    # the pattern is resolved from the ruleset's format_classes, not written
    # in the document
    param_names = {"class_name": "class", "pattern": None}


class Predicate(Record):
    expr: Expr = None
    name = "predicate"
    properties = (Property.CONS_SEMAN, Property.CRED_VAL_DAT, Property.CRED_FUEN,
                  Property.RIES_INCO, Property.EXAC_SEMAN)
    arity = "none"


class Freshness(Record):
    timestamp_column: str = ""
    max_age_days: Decimal = Decimal(0)
    condition: Expr | None = None
    name = "freshness"
    properties = (Property.CONV_ACT,)
    arity = "none"
    param_names = {"max_age_days": "max_age"}


class Frequency(Record):
    timestamp_column: str = ""
    max_gap_days: Decimal = Decimal(0)
    name = "frequency"
    properties = (Property.FREC_ACT,)
    arity = "none"
    param_names = {"max_gap_days": "max_gap"}


KINDS: dict[str, type] = {k.name: k for k in (
    Syntax, Range, Domain, NotNull, NoDefault, Unique, MinCount, ForeignKey,
    FormatClass, Predicate, Freshness, Frequency)}
KIND_NAMES = tuple(KINDS)


def _params(kind: type) -> tuple[tuple[str, str, bool], ...]:
    """(field, param name, is an "entity.column" reference), in field order."""
    names = getattr(kind, "param_names", {})
    refs = getattr(kind, "refs", ())
    return tuple((f, names.get(f, f), f in refs)
                 for f in kind._fields if names.get(f, f) is not None)


_PARAMS = {k: _params(k) for k in KINDS.values()}


class Rule(Record):
    id: str
    entity: str
    columns: tuple[str, ...]
    property: Property
    kind: object  # an instance of a KINDS class
    where: Expr | None = None
    skip_null: bool = False
    description: str = ""

    @property
    def characteristic(self) -> Characteristic:
        return self.property.characteristic

    @property
    def kind_name(self) -> str:
        return self.kind.name

    @property
    def targets(self) -> tuple[tuple[str, str], ...]:
        """The (entity, column) cells the rule tests, in scan order: the unique
        key, the predicate's columns sorted, the timestamp column, or else the
        rule's columns followed by format_class's extra targets."""
        k = self.kind
        if isinstance(k, Unique):
            columns = k.key
        elif isinstance(k, Predicate):
            columns = sorted(columns_referenced(k.expr))
        elif isinstance(k, (Freshness, Frequency)):
            columns = (k.timestamp_column,)
        else:
            extra = k.extra_targets if isinstance(k, FormatClass) else ()
            return tuple((self.entity, c) for c in self.columns) + extra
        return tuple((self.entity, c) for c in columns)

    @property
    def reference(self) -> tuple[str, str] | None:
        """The (entity, column) whose values a membership check reads: a domain's
        `reference` or a foreign key's `referenced`; None for other rules."""
        k = self.kind
        if isinstance(k, ForeignKey):
            return k.referenced
        return k.reference if isinstance(k, Domain) else None

    def selector(self, catalog) -> str | None:
        """Expression text selecting the rule's violating rows within its
        entity (the negation of its check, under `where`), or None when the
        kind cannot be expressed row-locally."""
        k = self.kind
        schema = catalog.get(self.entity)

        def literal(value, column: str | None = None) -> str:
            datatype = "text" if column is None else schema.column(column).datatype
            return unparse(Literal(coerce_literal(value, datatype)))

        body: str | None = None
        if isinstance(k, Syntax):
            body = f"not regex_match({self.columns[0]}, {literal(k.pattern)})"
        elif isinstance(k, FormatClass):
            body = " or ".join(f"not regex_match({c}, {literal(k.pattern)})"
                               for e, c in self.targets if e == self.entity)
        elif isinstance(k, Range):
            col = self.columns[0]
            parts = []
            if k.min is not None:
                op = ">=" if k.min_inclusive else ">"
                parts.append(f"{col} {op} {literal(k.min, col)}")
            if k.max is not None:
                op = "<=" if k.max_inclusive else "<"
                parts.append(f"{col} {op} {literal(k.max, col)}")
            body = f"not ({' and '.join(parts)})"
        elif isinstance(k, Domain) and self.reference is None:
            col = self.columns[0]
            members = ", ".join(literal(v, col) for v in k.allowed)
            body = f"not in_set({col}, {members})"
        elif isinstance(k, NoDefault):
            col = self.columns[0]
            members = ", ".join(literal(v, col) for v in k.placeholders)
            body = f"in_set({col}, {members})"
        elif isinstance(k, Predicate):
            body = f"not ({unparse(k.expr)})"
        elif isinstance(k, Freshness):
            [(_, column)] = self.targets
            age = f"age_days({column}) > {unparse(Literal(k.max_age_days))}"
            if k.condition is not None:
                body = f"({unparse(k.condition)}) and {age}"
            else:
                body = age
        if body is None:
            return None
        if self.where is not None:
            body = f"({unparse(self.where)}) and ({body})"
        return body


class RuleSet(Record):
    name: str
    version: str
    reference_time: datetime
    rules: tuple[Rule, ...]
    format_classes: tuple[tuple[str, str], ...] = ()


class Diagnostic(Record):
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


# a duration must convert to a timedelta, whose range is +-999,999,999 days
_MAX_DURATION_DAYS = timedelta.max.days


def parse_duration_days(value, context: str) -> Decimal:
    """Durations are non-negative JSON numbers (days) or strings like '30d',
    '12h', '90m', '45s'."""
    if isinstance(value, bool):
        raise ParseError("duration must be a number of days or a suffixed string",
                         context=context)
    days = None
    if isinstance(value, int):
        days = Decimal(value)
    elif isinstance(value, Decimal):
        days = value
    elif isinstance(value, str):
        m = re.fullmatch(r"([0-9]+(?:\.[0-9]+)?)([dhms])", value)
        if m:
            amount = Decimal(m.group(1))
            per_day = {"d": 1, "h": 24, "m": 1440, "s": 86400}[m.group(2)]
            days = amount / per_day
    if days is None:
        raise ParseError(f"invalid duration {value!r}", context=context)
    if days < 0:
        raise ParseError(f"duration {value!r} is negative", context=context)
    if days > _MAX_DURATION_DAYS:
        raise ParseError(f"duration {value!r} is out of range (at most "
                         f"{_MAX_DURATION_DAYS} days)", context=context)
    return days


def days_to_timedelta(days: Decimal) -> timedelta:
    """A parsed duration as a timedelta, exact to the microsecond."""
    return timedelta(microseconds=int(days * 86_400_000_000))


def _expr(text: str, context: str) -> Expr:
    """Parse expression text, reporting errors under the document path `context`."""
    try:
        return parse_expr(text)
    except ParseError as exc:
        raise ParseError(exc.message, line=exc.line, column=exc.column,
                         context=context) from None


def _parse_kind(kind_name: str, params: dict, format_classes: dict[str, str],
                context: str):
    kind = KINDS.get(kind_name)
    if kind is None:
        raise ParseError(f"unknown rule kind {kind_name!r}; expected one of "
                         + ", ".join(KIND_NAMES), context=f"{context}.kind")
    ctx = f"{context}.params"
    extra = set(params) - {param for _, param, _ in _PARAMS[kind]}
    if extra:
        raise ParseError(f"unknown params for kind {kind_name!r}: "
                         + ", ".join(sorted(extra)), context=ctx)

    if kind is Syntax:
        pattern = _want(params, "pattern", str, ctx)
        try:
            validate_pattern(pattern)
        except ValueError as exc:
            raise ParseError(str(exc), context=f"{ctx}.pattern") from None
        return Syntax(pattern)

    if kind is Range:
        lo = _literal(params.get("min"), f"{ctx}.min")
        hi = _literal(params.get("max"), f"{ctx}.max")
        if lo is None and hi is None:
            raise ParseError("range requires at least one of min/max", context=ctx)
        return Range(lo, hi,
                     _want(params, "min_inclusive", bool, ctx, True),
                     _want(params, "max_inclusive", bool, ctx, True))

    if kind is Domain:
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

    if kind is NotNull:
        return NotNull()

    if kind is NoDefault:
        placeholders = _want(params, "placeholders", list, ctx)
        if not placeholders:
            raise ParseError("no_default placeholders must be non-empty", context=ctx)
        return NoDefault(tuple(_literal(v, f"{ctx}.placeholders") for v in placeholders))

    if kind is Unique:
        key = _want(params, "key", list, ctx)
        if not key:
            raise ParseError("unique key list must be non-empty", context=ctx)
        names = [_name(c, "key column", f"{ctx}.key") for c in key]
        if len(set(names)) != len(names):
            raise ParseError("unique key list has duplicate column names", context=ctx)
        return Unique(tuple(names))

    if kind is MinCount:
        threshold = _want(params, "threshold", int, ctx)
        if threshold < 0:
            raise ParseError("min_count threshold must be a non-negative integer",
                             context=ctx)
        return MinCount(threshold)

    if kind is ForeignKey:
        return ForeignKey(_entity_column(_want(params, "referenced", str, ctx),
                                         f"{ctx}.referenced"))

    if kind is FormatClass:
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

    if kind is Predicate:
        return Predicate(_expr(_want(params, "expr", str, ctx), f"{ctx}.expr"))

    if kind is Freshness:
        column = _name(_want(params, "timestamp_column", str, ctx),
                       "timestamp_column", f"{ctx}.timestamp_column")
        max_age = parse_duration_days(_want(params, "max_age", (int, Decimal, str), ctx),
                                      f"{ctx}.max_age")
        condition = None
        if params.get("condition") is not None:
            condition = _expr(_want(params, "condition", str, ctx), f"{ctx}.condition")
        return Freshness(column, max_age, condition)

    # Frequency
    column = _name(_want(params, "timestamp_column", str, ctx),
                   "timestamp_column", f"{ctx}.timestamp_column")
    max_gap = parse_duration_days(_want(params, "max_gap", (int, Decimal, str), ctx),
                                  f"{ctx}.max_gap")
    return Frequency(column, max_gap)


def _entity_column(value, context: str) -> tuple[str, str]:
    if isinstance(value, str) and value.count(".") == 1:
        entity, column = value.split(".")
        if _NAME_RE.match(entity) and _NAME_RE.match(column):
            return entity, column
    raise ParseError(f"expected 'entity.column', got {value!r}", context=context)


# What `columns` must hold for each arity, and the error when it does not.
_ARITY = {
    "one": (lambda n: n == 1, "kind {!r} requires exactly one column"),
    "none": (lambda n: n == 0, "kind {!r} takes no columns (targets come from params)"),
    "some": (lambda n: n > 0, "{} requires at least one column"),
}


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

    if prop not in kind.properties:
        raise ParseError(
            f"kind {kind_name!r} cannot be categorized under property {prop.value}; "
            "allowed: " + ", ".join(p.value for p in kind.properties),
            context=f"{context}.property")
    fits, message = _ARITY[kind.arity]
    if not fits(len(columns)):
        raise ParseError(message.format(kind_name), context=f"{context}.columns")

    where = None
    if obj.get("where") is not None:
        where = _expr(_want(obj, "where", str, context), f"{context}.where")

    skip_null = _want(obj, "skip_null", bool, context, False)
    if skip_null and kind_name in ("not_null", "no_default"):
        raise ParseError(f"skip_null cannot be true for kind {kind_name!r} "
                         "(null presence is what the rule checks)",
                         context=f"{context}.skip_null")
    description = _want(obj, "description", str, context, "")
    rule = Rule(rule_id, entity, columns, prop, kind, where, skip_null, description)
    seen: set[tuple[str, str]] = set()
    for i, target in enumerate(rule.targets):  # only format_class can list one twice
        if target in seen:
            raise ParseError(f"{kind_name} target '{target[0]}.{target[1]}' is repeated",
                             context=f"{context}." + ("columns" if i < len(columns)
                                                      else "params.extra_targets"))
        seen.add(target)
    return rule


def parse_ruleset(document: str) -> RuleSet:
    """Parse a rules document; total — either a valid RuleSet or ParseError."""
    data = canonical.load_document(document)
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
    """The kind's name and every param that is set (None and () are left out)."""
    k = rule.kind
    params = {}
    for attr, param, is_ref in _PARAMS[type(k)]:
        value = getattr(k, attr)
        if value is None or value == ():
            continue
        if isinstance(value, Expr):
            value = unparse(value)
        elif is_ref:
            value = ".".join(value)
        params[param] = value
    return k.name, params


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

    def target_column(rule_id: str, ent_name: str, col: str):
        """The ColumnSchema of `ent_name.col`, or None once its absence is reported."""
        target = catalog.get(ent_name)
        if target is None:
            error(rule_id, f"entity {ent_name!r} does not exist")
            return None
        if target.column(col) is None:
            error(rule_id, f"column {ent_name}.{col} does not exist")
        return target.column(col)

    def check_literals(rule_id: str, dtype: str, labelled) -> list:
        """Each literal typed for the column; None where it does not fit."""
        typed = []
        for label, value in labelled:
            try:
                typed.append(coerce_literal(value, dtype))
            except ValueError as exc:
                error(rule_id, f"{label}: {exc}")
                typed.append(None)
        return typed

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
        dtype = col_types[rule.columns[0]] if rule.columns else None
        if isinstance(k, (Syntax, FormatClass)):
            for c in rule.columns:
                if col_types[c] != "text":
                    error(rule.id, f"pattern rules require text columns; "
                                   f"{rule.entity}.{c} is {col_types[c]}")
            if isinstance(k, FormatClass):
                used_classes.add(k.class_name)
                where_checked = {rule.entity}
                for ent_name, col in k.extra_targets:
                    column = target_column(rule.id, ent_name, col)
                    if column is not None and column.datatype != "text":
                        error(rule.id, f"pattern rules require text columns; "
                                       f"{ent_name}.{col} is {column.datatype}")
                    target = catalog.get(ent_name)
                    if target is not None and rule.where is not None \
                            and ent_name not in where_checked:
                        # where runs against every target entity's rows
                        where_checked.add(ent_name)
                        _check_boolean_expr(rule, rule.where,
                                            {c.name: c.datatype for c in target.columns},
                                            f"where (target {ent_name})", error)
        elif isinstance(k, Range):
            if dtype == "boolean":
                error(rule.id, "range rules cannot target boolean columns")
            else:
                lo, hi = check_literals(rule.id, dtype,
                                        (("range min", k.min), ("range max", k.max)))
                if lo is not None and hi is not None and lo > hi:
                    error(rule.id, "range min must not exceed max")
        elif isinstance(k, Domain):
            if k.reference is not None:
                column = target_column(rule.id, *k.reference)
                if column is not None and not comparable(dtype, column.datatype):
                    error(rule.id, f"domain reference {'.'.join(k.reference)} has "
                                   f"type {column.datatype}, not comparable with {dtype}")
            else:
                check_literals(rule.id, dtype, (("domain literal", v) for v in k.allowed))
        elif isinstance(k, NoDefault):
            check_literals(rule.id, dtype, (("placeholder", v) for v in k.placeholders))
        elif isinstance(k, Unique):
            for c in k.key:
                if c not in col_types:
                    error(rule.id, f"column {rule.entity}.{c} does not exist")
        elif isinstance(k, ForeignKey):
            column = target_column(rule.id, *k.referenced)
            if column is not None and not comparable(dtype, column.datatype):
                error(rule.id, f"foreign key targets {column.datatype} column, "
                               f"not comparable with {dtype}")
        elif isinstance(k, (Freshness, Frequency)):
            col = k.timestamp_column
            if col not in col_types:
                error(rule.id, f"column {rule.entity}.{col} does not exist")
            elif col_types[col] != "timestamp":
                error(rule.id, f"{rule.entity}.{col} is {col_types[col]}, "
                               "expected timestamp")
            if isinstance(k, Freshness):
                if k.condition is not None and col in col_types:
                    _check_boolean_expr(rule, k.condition, col_types, "condition",
                                        error)
                try:
                    rs.reference_time - days_to_timedelta(k.max_age_days)
                except OverflowError:
                    error(rule.id, f"max_age of {k.max_age_days} days puts the "
                                   "freshness cutoff outside the datetime range")
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
