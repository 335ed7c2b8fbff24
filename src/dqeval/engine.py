"""Rule evaluation: base measures A, B, the ratio X = A/B, failing records.

For every rule, B counts the applicable items (rows passing `where`, minus
null subjects when skip_null; entity-level kinds have B = 1; format_class
sums rows over all its targets), A counts the applicable items that pass
the check, and `failing` references every applicable non-passing item in
(entity, ordinal) order. B = 0 means the rule is not applicable and the
ratio is undefined. Results are independent of evaluation order, so rules
may be evaluated in parallel; the repository is immutable throughout.
"""

from __future__ import annotations

import multiprocessing
import re
import time
from dataclasses import dataclass, field
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction

from .dataset import Entity, Repository, RowView
from .errors import EvalError, UnknownColumn
from .expr import columns_referenced, evaluate
from .rules import (Domain, ForeignKey, FormatClass, Frequency, Freshness,
                    MinCount, NoDefault, NotNull, Predicate, Range, Rule,
                    RuleSet, Syntax, Unique, ruleset_fingerprint)
from .values import coerce_literal

DEFAULT_FAILING_CAP = 100_000


@dataclass(frozen=True)
class RecordRef:
    """Locator for one non-compliant item. row is None for entity-level kinds."""
    entity: str
    row: int | None
    key: tuple = ()


@dataclass(frozen=True)
class RuleMeasure:
    rule_id: str
    a: int
    b: int
    failing: tuple[RecordRef, ...]
    failing_total: int
    elapsed: float = field(compare=False, default=0.0)

    @property
    def ratio(self) -> Fraction | None:
        """Exact compliance ratio A/B, or None when not applicable (B = 0)."""
        return None if self.b == 0 else Fraction(self.a, self.b)

    @property
    def not_applicable(self) -> bool:
        return self.b == 0


@dataclass(frozen=True)
class MeasureSet:
    measures: dict[str, RuleMeasure]  # rule id → measure, in document order
    ruleset_fingerprint: str
    snapshot_fingerprint: str

    def __iter__(self):
        return iter(self.measures.values())


# --------------------------------------------------------------------------
# Applicability

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


def _make_ref(entity: Entity, ordinal: int | None) -> RecordRef:
    if ordinal is None:
        return RecordRef(entity.name, None)
    return RecordRef(entity.name, ordinal,
                     tuple(entity.key_values(ordinal).items()))


# Raw failing items are (entity name, ordinal) pairs; record refs with key
# values are only materialized in the coordinating process, which keeps
# worker results small and avoids touching key columns in forked children.

def _cap_raw(a: int, b: int, raw: list[tuple[str, int | None]],
             cap: int) -> tuple[int, int, list, int]:
    raw.sort(key=lambda item: (item[0], -1 if item[1] is None else item[1]))
    total = len(raw)
    if total > cap:
        raw = raw[:cap]
    return a, b, raw, total


def _materialize(rule: Rule, repo: Repository, counts, elapsed: float) -> RuleMeasure:
    a, b, raw, total = counts
    failing = tuple(_make_ref(repo.entities[name], ordinal)
                    for name, ordinal in raw)
    return RuleMeasure(rule.id, a, b, failing, total, elapsed)


# --------------------------------------------------------------------------
# Per-kind checks

def _coerced(value, datatype: str, rule: Rule):
    try:
        return coerce_literal(value, datatype)
    except ValueError as exc:
        raise EvalError(str(exc), rule.id) from None


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


def _eval_unique(rule: Rule, entity: Entity, rs: RuleSet):
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
    return a, len(row_list), failing


def _eval_predicate(rule: Rule, entity: Entity, rs: RuleSet):
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
    return a, len(rows), failing


def _eval_freshness(rule: Rule, entity: Entity, rs: RuleSet):
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
    return a, len(row_list), failing


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


def _days_to_timedelta(days: Decimal) -> timedelta:
    return timedelta(microseconds=int(days * 86_400_000_000))


def _eval_min_count(rule: Rule, entity: Entity):
    if entity.n_rows == 0:
        return 0, 0, []
    if entity.n_rows >= rule.kind.threshold:
        return 1, 1, []
    return 0, 1, [None]


def _eval_frequency(rule: Rule, entity: Entity):
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
    return 0, 1, [None]


# --------------------------------------------------------------------------
# Entry points

def _eval_counts(rule: Rule, repo: Repository, rs: RuleSet,
                 cap: int) -> tuple[int, int, list, int]:
    entity = repo.entities.get(rule.entity)
    if entity is None:
        raise EvalError(f"entity {rule.entity!r} not loaded", rule.id)
    k = rule.kind
    try:
        if isinstance(k, FormatClass):
            a, b, raw = _eval_format_class(rule, entity, rs, repo)
            return _cap_raw(a, b, raw, cap)
        if isinstance(k, Syntax):
            a, b, rows = _eval_syntax(rule, entity, rs)
        elif isinstance(k, Range):
            a, b, rows = _eval_range(rule, entity, rs)
        elif isinstance(k, Domain):
            a, b, rows = _eval_domain(rule, entity, rs, repo)
        elif isinstance(k, NotNull):
            a, b, rows = _eval_not_null(rule, entity, rs)
        elif isinstance(k, NoDefault):
            a, b, rows = _eval_no_default(rule, entity, rs)
        elif isinstance(k, ForeignKey):
            a, b, rows = _eval_foreign_key(rule, entity, rs, repo)
        elif isinstance(k, Unique):
            a, b, rows = _eval_unique(rule, entity, rs)
        elif isinstance(k, Predicate):
            a, b, rows = _eval_predicate(rule, entity, rs)
        elif isinstance(k, Freshness):
            a, b, rows = _eval_freshness(rule, entity, rs)
        elif isinstance(k, MinCount):
            a, b, rows = _eval_min_count(rule, entity)
        elif isinstance(k, Frequency):
            a, b, rows = _eval_frequency(rule, entity)
        else:  # pragma: no cover
            raise EvalError(f"unknown kind {k!r}", rule.id)
    except UnknownColumn as exc:
        raise EvalError(str(exc), rule.id) from None
    return _cap_raw(a, b, [(entity.name, i) for i in rows], cap)


def eval_rule(rule: Rule, repo: Repository, rs: RuleSet,
              cap: int = DEFAULT_FAILING_CAP) -> RuleMeasure:
    """Evaluate one validated rule. EvalError signals a pipeline bug only."""
    started = time.perf_counter()
    counts = _eval_counts(rule, repo, rs, cap)
    return _materialize(rule, repo, counts, time.perf_counter() - started)


# Worker state for fork-based parallel evaluation; set in the parent right
# before the pool is created so children inherit it copy-on-write.
_WORKER_STATE: tuple[RuleSet, Repository, int] | None = None


def _eval_index(index: int):
    rs, repo, cap = _WORKER_STATE
    started = time.perf_counter()
    counts = _eval_counts(rs.rules[index], repo, rs, cap)
    return index, counts, time.perf_counter() - started


def eval_all(rs: RuleSet, repo: Repository, jobs: int = 1,
             cap: int = DEFAULT_FAILING_CAP) -> MeasureSet:
    """Evaluate every rule; the result does not depend on schedule or jobs.

    jobs > 1 forks workers that share the loaded repository copy-on-write;
    workers ship back counts and failing ordinals only, and the coordinator
    materializes record refs in document order, so the output is identical
    to a sequential run byte for byte.
    """
    if jobs > 1 and len(rs.rules) > 1:
        global _WORKER_STATE
        _WORKER_STATE = (rs, repo, cap)
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(min(jobs, len(rs.rules))) as pool:
                results = list(pool.imap_unordered(
                    _eval_index, range(len(rs.rules)), chunksize=1))
        except ValueError:  # platform without fork: fall back to sequential
            results = [(i, _eval_counts(r, repo, rs, cap), 0.0)
                       for i, r in enumerate(rs.rules)]
        finally:
            _WORKER_STATE = None
        by_index = {index: (counts, elapsed) for index, counts, elapsed in results}
        measures = {}
        for i, rule in enumerate(rs.rules):
            counts, elapsed = by_index[i]
            measures[rule.id] = _materialize(rule, repo, counts, elapsed)
    else:
        measures = {r.id: eval_rule(r, repo, rs, cap) for r in rs.rules}
    return MeasureSet(measures, ruleset_fingerprint(rs), repo.fingerprint)
