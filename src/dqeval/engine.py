"""Rule evaluation: base measures A, B, the ratio X = A/B, failing records.

For every rule, B counts the applicable items (rows passing `where`, minus
null subjects when skip_null; entity-level kinds have B = 1; format_class
sums rows over all its targets), A counts the applicable items that pass
the check, and `failing` references every applicable non-passing item in
(entity, ordinal) order. B = 0 means the rule is not applicable and the
ratio is undefined. Results are independent of evaluation order, so rules
may be evaluated in parallel; the repository is immutable throughout.

The seven per-value kinds (syntax, range, domain, not_null, no_default,
foreign_key, format_class) cost one check per distinct value of the column
plus one membership sweep over its rows, so a repetitive column is cheap
whatever its length. The check sees every distinct value of the column,
including values found only in rows a `where` filter excludes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import re
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction
from itertools import compress

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
# Per-value kinds: one check per rule, run once per distinct value

def _coerced(value, datatype: str, rule: Rule):
    try:
        return coerce_literal(value, datatype)
    except ValueError as exc:
        raise EvalError(str(exc), rule.id) from None


def _referenced_values(rule: Rule, repo: Repository,
                       reference: tuple[str, str]) -> set:
    ref_entity, ref_column = reference
    target = repo.entities.get(ref_entity)
    if target is None:
        raise EvalError(f"referenced entity {ref_entity!r} not loaded", rule.id)
    return set(target.column(ref_column)) - {None}


def _pattern_check(rule: Rule, entity: Entity, repo: Repository):
    match = re.compile(rule.kind.pattern).fullmatch
    return lambda v: v is not None and match(v) is not None


def _range_check(rule: Rule, entity: Entity, repo: Repository):
    dtype = entity.schema.column(rule.columns[0]).datatype
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

    return passes


def _domain_check(rule: Rule, entity: Entity, repo: Repository):
    k = rule.kind
    if k.reference is not None:
        allowed = _referenced_values(rule, repo, k.reference)
    else:
        dtype = entity.schema.column(rule.columns[0]).datatype
        allowed = {_coerced(v, dtype, rule) for v in k.allowed}
    return lambda v: v is not None and v in allowed


def _not_null_check(rule: Rule, entity: Entity, repo: Repository):
    return lambda v: v is not None


def _no_default_check(rule: Rule, entity: Entity, repo: Repository):
    dtype = entity.schema.column(rule.columns[0]).datatype
    placeholders = {_coerced(v, dtype, rule) for v in rule.kind.placeholders}
    return lambda v: v is not None and v not in placeholders


def _foreign_key_check(rule: Rule, entity: Entity, repo: Repository):
    index = _referenced_values(rule, repo, rule.kind.referenced)
    return lambda v: v is not None and v in index


_VALUE_CHECKS = {
    Syntax: _pattern_check, FormatClass: _pattern_check, Range: _range_check,
    Domain: _domain_check, NotNull: _not_null_check,
    NoDefault: _no_default_check, ForeignKey: _foreign_key_check,
}


def value_check(rule: Rule, entity: Entity,
                repo: Repository) -> Callable[[object], bool]:
    """The pass/fail test of one per-value rule on `entity`, a pure function of
    the value: literals coerced, regex compiled, reference set built once."""
    return _VALUE_CHECKS[type(rule.kind)](rule, entity, repo)


def _scan_column(rule: Rule, entity: Entity, rs: RuleSet, column: str, check):
    """Count one column's applicable cells, checking each distinct value once."""
    col = entity.column(column)
    rows = _applicable_rows(rule, entity, rs, (column,))
    bad = {v for v in set(col) if not check(v)}
    if not bad:
        failing = []
    elif isinstance(rows, range):  # every row applicable: sweep at C speed
        failing = list(compress(range(len(col)), map(bad.__contains__, col)))
    else:
        failing = [i for i in rows if col[i] in bad]
    return len(rows) - len(failing), len(rows), failing


def _raw(entity: Entity, rows) -> list[tuple[str, int | None]]:
    return [(entity.name, i) for i in rows]


def _eval_values(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    """syntax, range, domain, not_null, no_default, foreign_key: one column."""
    a, b, rows = _scan_column(rule, entity, rs, rule.columns[0],
                              value_check(rule, entity, repo))
    return a, b, _raw(entity, rows)


def _eval_format_class(rule: Rule, entity: Entity, rs: RuleSet,
                       repo: Repository):
    check = value_check(rule, entity, repo)
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
        ta, tb, rows = _scan_column(rule, target, rs, column, check)
        a += ta
        b += tb
        raw.extend(_raw(target, rows))
    return a, b, raw


# --------------------------------------------------------------------------
# Row and entity kinds

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


# Every kind's evaluator: (rule, entity, ruleset, repository) ->
# (A, B, failing (entity name, ordinal) pairs).
_EVALUATORS = {
    Syntax: _eval_values, Range: _eval_values, Domain: _eval_values,
    NotNull: _eval_values, NoDefault: _eval_values, ForeignKey: _eval_values,
    FormatClass: _eval_format_class, Unique: _eval_unique,
    Predicate: _eval_predicate, Freshness: _eval_freshness,
    MinCount: _eval_min_count, Frequency: _eval_frequency,
}


# --------------------------------------------------------------------------
# Entry points

def _eval_counts(rule: Rule, repo: Repository, rs: RuleSet,
                 cap: int) -> tuple[int, int, list, int]:
    entity = repo.entities.get(rule.entity)
    if entity is None:
        raise EvalError(f"entity {rule.entity!r} not loaded", rule.id)
    try:
        a, b, raw = _EVALUATORS[type(rule.kind)](rule, entity, rs, repo)
    except UnknownColumn as exc:
        raise EvalError(str(exc), rule.id) from None
    return _cap_raw(a, b, raw, cap)


def eval_rule(rule: Rule, repo: Repository, rs: RuleSet,
              cap: int = DEFAULT_FAILING_CAP) -> RuleMeasure:
    """Evaluate one validated rule. EvalError signals a pipeline bug only."""
    started = time.perf_counter()
    counts = _eval_counts(rule, repo, rs, cap)
    return _materialize(rule, repo, counts, time.perf_counter() - started)


# Worker state for fork-based parallel evaluation; set in the parent right
# before the pool is created so children inherit it copy-on-write.
_WORKER_STATE: tuple[RuleSet, Repository, int] | None = None


def _eval_batch(indices: range) -> list[tuple[int, tuple, float]]:
    rs, repo, cap = _WORKER_STATE
    out = []
    for index in indices:
        started = time.perf_counter()
        counts = _eval_counts(rs.rules[index], repo, rs, cap)
        out.append((index, counts, time.perf_counter() - started))
    return out


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _place_worker(cpus: frozenset, slots) -> None:
    """Start this worker on the CPU its slot names, then let the scheduler move
    it: a forked worker starts on its parent's CPU, and the kernel may leave
    two of them sharing one CPU for a second while another CPU idles."""
    os.sched_setaffinity(0, {slots.get()})
    os.sched_setaffinity(0, cpus)


def _eval_parallel(rs: RuleSet, repo: Repository, workers: int,
                   cap: int) -> dict[int, RuleMeasure]:
    """Rule index → measure, from batches of consecutive rules run in forked
    workers; each batch's record refs are materialized here as it arrives."""
    # imported here: concurrent.futures.process adds ~20 ms to every start-up
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool
    rules = rs.rules
    size = max(1, len(rules) // (4 * workers))
    measured: dict[int, RuleMeasure] = {}
    ctx = multiprocessing.get_context("fork")
    placement = {}
    if hasattr(os, "sched_setaffinity"):
        cpus = frozenset(os.sched_getaffinity(0))
        slots = ctx.SimpleQueue()
        for k in range(workers):
            slots.put(sorted(cpus)[k % len(cpus)])
        placement = {"initializer": _place_worker, "initargs": (cpus, slots)}
    global _WORKER_STATE
    _WORKER_STATE = (rs, repo, cap)
    gc.freeze()  # the collector would otherwise dirty the shared pages
    try:
        with ProcessPoolExecutor(workers, mp_context=ctx, **placement) as pool:
            futures = [pool.submit(_eval_batch, range(i, min(i + size, len(rules))))
                       for i in range(0, len(rules), size)]
            try:
                for future in as_completed(futures):
                    for index, counts, elapsed in future.result():
                        measured[index] = _materialize(rules[index], repo,
                                                       counts, elapsed)
            except BrokenProcessPool:
                unfinished = [r.id for i, r in enumerate(rules) if i not in measured]
                shown = ", ".join(unfinished[:10])
                if len(unfinished) > 10:
                    shown += f" and {len(unfinished) - 10} more"
                raise EvalError("a worker process died while evaluating "
                                f"rules {shown}") from None
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        gc.unfreeze()
        _WORKER_STATE = None
    return measured


def eval_all(rs: RuleSet, repo: Repository, jobs: int = 1,
             cap: int = DEFAULT_FAILING_CAP) -> MeasureSet:
    """Evaluate every rule; the result does not depend on schedule or jobs.

    jobs > 1 forks workers that share the loaded repository copy-on-write,
    at most one per usable CPU (more only queue for the same CPUs);
    workers ship back counts and failing ordinals only, and the coordinator
    materializes record refs, so the output is identical to a sequential run
    byte for byte. A worker that dies raises EvalError naming the rules not
    yet evaluated. Without fork, evaluation is sequential.
    """
    workers = min(jobs, len(rs.rules), usable_cpus())
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        measured = _eval_parallel(rs, repo, workers, cap)
        measures = {rule.id: measured[i] for i, rule in enumerate(rs.rules)}
    else:
        measures = {r.id: eval_rule(r, repo, rs, cap) for r in rs.rules}
    return MeasureSet(measures, ruleset_fingerprint(rs), repo.fingerprint)
