"""Reference per-value rule evaluation: the per-row form dqeval.engine replaced.

Kept verbatim as the specification of the seven per-value kinds (syntax,
range, domain, not_null, no_default, foreign_key, format_class): one
`passes(v)` call per applicable cell, in row order. The tests check that
dqeval.engine's distinct-value path yields the same A, B and failing
ordinals as this one.
"""

from __future__ import annotations

import re

from dqeval.dataset import Entity, Repository
from dqeval.engine import _applicable_rows, _coerced
from dqeval.errors import EvalError
from dqeval.rules import Rule, RuleSet


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


def reference_counts(rule: Rule, repo: Repository, rs: RuleSet) -> tuple[int, int, list]:
    """(A, B, failing (entity, ordinal) pairs) of one per-value rule, uncapped,
    through the per-kind dispatch the engine used before its check table."""
    entity = repo.entities[rule.entity]
    evaluate_kind = {
        "syntax": lambda: _eval_syntax(rule, entity, rs),
        "range": lambda: _eval_range(rule, entity, rs),
        "domain": lambda: _eval_domain(rule, entity, rs, repo),
        "not_null": lambda: _eval_not_null(rule, entity, rs),
        "no_default": lambda: _eval_no_default(rule, entity, rs),
        "foreign_key": lambda: _eval_foreign_key(rule, entity, rs, repo),
    }
    if rule.kind_name == "format_class":
        return _eval_format_class(rule, entity, rs, repo)
    a, b, rows = evaluate_kind[rule.kind_name]()
    return a, b, [(entity.name, i) for i in rows]
