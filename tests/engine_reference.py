"""Reference rule evaluation: the per-row forms dqeval.engine replaced.

Kept verbatim as the specification of all twelve kinds. The seven per-value
kinds (syntax, range, domain, not_null, no_default, foreign_key,
format_class) make one `passes(v)` call per applicable cell, in row order;
applicability, unique, predicate, freshness, min_count and frequency are the
engine's own code from before freshness joined the per-value path and A was
derived from the failing items. The tests check that dqeval.engine yields
the same A, B and failing ordinals as this module.
"""

from __future__ import annotations

import re
from datetime import timedelta
from decimal import Decimal

from dqeval.dataset import Entity, Repository, RowView
from dqeval.engine import _coerced
from dqeval.errors import EvalError
from dqeval.expr import columns_referenced, evaluate
from dqeval.rules import Rule, RuleSet


def _applicable_rows(rule: Rule, entity: Entity, rs: RuleSet,
                     subject_columns: tuple[str, ...]) -> list[int] | range:
    """Ordinals passing `where` (and non-null subjects when skip_null)."""
    n = entity.n_rows
    rows: list[int] | range
    if rule.where is None:
        rows = range(n)
    else:
        ref = rs.reference_time
        rows = [i for i in range(n)
                if evaluate(rule.where, RowView(entity, i), ref) is True]
    if rule.skip_null and subject_columns:
        cols = [entity.column(c) for c in subject_columns]
        rows = [i for i in rows if all(col[i] is not None for col in cols)]
    return rows


def _raw(entity: Entity, rows) -> list[tuple[str, int | None]]:
    return [(entity.name, i) for i in rows]


def _scan_column(rule: Rule, entity: Entity, rs: RuleSet, column: str, passes):
    """Count one column's applicable cells through a per-value check."""
    col = entity.column(column)
    rows = _applicable_rows(rule, entity, rs, (column,))
    a = 0
    failing: list[int] = []
    if isinstance(rows, range):  # fast path: every row applicable
        for i, v in enumerate(col):
            if passes(v):
                a += 1
            else:
                failing.append(i)
        return a, entity.n_rows, failing
    for i in rows:
        if passes(col[i]):
            a += 1
        else:
            failing.append(i)
    return a, len(rows), failing


def _eval_syntax(rule: Rule, entity: Entity, rs: RuleSet):
    match = re.compile(rule.kind.pattern).fullmatch
    return _scan_column(rule, entity, rs, rule.columns[0],
                        lambda v: v is not None and match(v) is not None)


def _eval_range(rule: Rule, entity: Entity, rs: RuleSet):
    column = rule.columns[0]
    dtype = entity.schema.column(column).datatype
    k = rule.kind
    lo = _coerced(k.min, dtype, rule) if k.min is not None else None
    hi = _coerced(k.max, dtype, rule) if k.max is not None else None

    def passes(v) -> bool:
        if v is None:
            return False
        if lo is not None and (v < lo if k.min_inclusive else v <= lo):
            return False
        if hi is not None and (v > hi if k.max_inclusive else v >= hi):
            return False
        return True

    return _scan_column(rule, entity, rs, column, passes)


def _eval_domain(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    column = rule.columns[0]
    k = rule.kind
    if k.reference is not None:
        ref_entity, ref_column = k.reference
        target = repo.entities.get(ref_entity)
        if target is None:
            raise EvalError(f"referenced entity {ref_entity!r} not loaded", rule.id)
        allowed = set(target.column(ref_column)) - {None}
    else:
        dtype = entity.schema.column(column).datatype
        allowed = {_coerced(v, dtype, rule) for v in k.allowed}
    return _scan_column(rule, entity, rs, column,
                        lambda v: v is not None and v in allowed)


def _eval_not_null(rule: Rule, entity: Entity, rs: RuleSet):
    return _scan_column(rule, entity, rs, rule.columns[0],
                        lambda v: v is not None)


def _eval_no_default(rule: Rule, entity: Entity, rs: RuleSet):
    dtype = entity.schema.column(rule.columns[0]).datatype
    placeholders = {_coerced(v, dtype, rule) for v in rule.kind.placeholders}
    return _scan_column(rule, entity, rs, rule.columns[0],
                        lambda v: v is not None and v not in placeholders)


def _eval_foreign_key(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    ref_entity, ref_column = rule.kind.referenced
    target = repo.entities.get(ref_entity)
    if target is None:
        raise EvalError(f"referenced entity {ref_entity!r} not loaded", rule.id)
    index = set(target.column(ref_column)) - {None}
    return _scan_column(rule, entity, rs, rule.columns[0],
                        lambda v: v is not None and v in index)


def _eval_format_class(rule: Rule, entity: Entity, rs: RuleSet,
                       repo: Repository) -> tuple[int, int, list]:
    match = re.compile(rule.kind.pattern).fullmatch
    targets = [(entity, c) for c in rule.columns]
    for ent_name, col in rule.kind.extra_targets:
        target = repo.entities.get(ent_name)
        if target is None:
            raise EvalError(f"target entity {ent_name!r} not loaded", rule.id)
        targets.append((target, col))
    a = 0
    b = 0
    raw: list[tuple[str, int | None]] = []
    for target, column in targets:
        ta, tb, rows = _scan_column(rule, target, rs, column,
                                    lambda v: v is not None and match(v) is not None)
        a += ta
        b += tb
        raw.extend((target.name, i) for i in rows)
    return a, b, raw


def _eval_unique(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    key_cols = rule.kind.key
    rows = _applicable_rows(rule, entity, rs, key_cols)
    cols = [entity.column(c) for c in key_cols]
    counts: dict[tuple, int] = {}
    keys: list[tuple] = []
    row_list = list(rows)
    for i in row_list:
        key = tuple(col[i] for col in cols)
        keys.append(key)
        counts[key] = counts.get(key, 0) + 1
    a = 0
    failing: list[int] = []
    for i, key in zip(row_list, keys):
        if counts[key] == 1:
            a += 1
        else:
            failing.append(i)
    return a, len(row_list), _raw(entity, failing)


def _eval_predicate(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    expr = rule.kind.expr
    subject = tuple(sorted(columns_referenced(expr)))
    rows = _applicable_rows(rule, entity, rs, subject)
    ref = rs.reference_time
    a = 0
    failing: list[int] = []
    for i in rows:
        if evaluate(expr, RowView(entity, i), ref) is True:
            a += 1
        else:
            failing.append(i)
    return a, len(rows), _raw(entity, failing)


def _eval_freshness(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    k = rule.kind
    col = entity.column(k.timestamp_column)
    rows = _applicable_rows(rule, entity, rs, (k.timestamp_column,))
    if k.condition is not None:
        ref = rs.reference_time
        rows = [i for i in rows
                if evaluate(k.condition, RowView(entity, i), ref) is True]
    cutoff = rs.reference_time - _days_to_timedelta(k.max_age_days)
    a = 0
    failing: list[int] = []
    row_list = list(rows)
    for i in row_list:
        v = col[i]
        if v is not None and v >= cutoff:
            a += 1
        else:
            failing.append(i)
    return a, len(row_list), _raw(entity, failing)


def _days_to_timedelta(days: Decimal) -> timedelta:
    return timedelta(microseconds=int(days * 86_400_000_000))


def _eval_min_count(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    if entity.n_rows == 0:
        return 0, 0, []
    if entity.n_rows >= rule.kind.threshold:
        return 1, 1, []
    return 0, 1, [(entity.name, None)]


def _eval_frequency(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    if entity.n_rows == 0:
        return 0, 0, []
    stamps = sorted(v for v in entity.column(rule.kind.timestamp_column)
                    if v is not None)
    max_gap = timedelta(0)
    for prev, nxt in zip(stamps, stamps[1:]):
        gap = nxt - prev
        if gap > max_gap:
            max_gap = gap
    if max_gap <= _days_to_timedelta(rule.kind.max_gap_days):
        return 1, 1, []
    return 0, 1, [(entity.name, None)]


def reference_counts(rule: Rule, repo: Repository, rs: RuleSet) -> tuple[int, int, list]:
    """(A, B, failing (entity, ordinal) pairs) of one rule, uncapped, through
    the per-kind dispatch the engine used before its check table."""
    entity = repo.entities[rule.entity]
    evaluate_kind = {
        "syntax": lambda: _eval_syntax(rule, entity, rs),
        "range": lambda: _eval_range(rule, entity, rs),
        "domain": lambda: _eval_domain(rule, entity, rs, repo),
        "not_null": lambda: _eval_not_null(rule, entity, rs),
        "no_default": lambda: _eval_no_default(rule, entity, rs),
        "foreign_key": lambda: _eval_foreign_key(rule, entity, rs, repo),
    }
    whole = {"format_class": _eval_format_class, "unique": _eval_unique,
             "predicate": _eval_predicate, "freshness": _eval_freshness,
             "min_count": _eval_min_count, "frequency": _eval_frequency}
    if rule.kind_name in whole:
        return whole[rule.kind_name](rule, entity, rs, repo)
    a, b, rows = evaluate_kind[rule.kind_name]()
    return a, b, [(entity.name, i) for i in rows]
