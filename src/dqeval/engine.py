"""Rule evaluation: base measures A, B, the ratio X = A/B, failing records.

For every rule, B counts the applicable items (rows passing `where`, minus
null subjects when skip_null, minus rows failing a freshness `condition`;
entity-level kinds have B = 1; format_class sums rows over all its targets),
`failing` holds the (entity, ordinal) pair of every applicable item failing
the check, in that order (ordinal None for entity-level kinds, at most
DEFAULT_FAILING_CAP pairs), and A = B - failing_total for every kind. An
evaluator gives one target's pairs in ordinal order, so only the pairs of a
rule with several targets (a format_class over several columns or with
extra targets, a composite unique key, a predicate over several columns)
are sorted. B = 0 means the rule is not applicable and the ratio is
undefined. Results are independent of evaluation order, so rules may be
evaluated in parallel; the repository is immutable throughout. A process
pool is started only when the evaluation's estimated serial cost, worked
out from sizes before anything is evaluated, is large enough to pay for
the pool; otherwise the rules run serially, with the same results.

Row expressions (`where`, predicate, freshness `condition`) are compiled
once per rule and entity into closures over the entity's columns
(`expr.compiled`), with `expr.evaluate`'s semantics.

The eight per-value kinds (syntax, range, domain, not_null, no_default,
foreign_key, format_class, freshness) cost one check per distinct value of
the column plus one membership sweep over its rows, so a repetitive column
is cheap whatever its length. The check sees every distinct value of the
column, including values found only in rows a filter excludes.
"""

from __future__ import annotations

import gc
import os
import re
import time
from collections import Counter
from collections.abc import Callable
from datetime import timedelta
from itertools import compress

from .dataset import Entity, Repository
from .errors import EvalError, UnknownColumn
from .expr import compiled, node_count
from .host import usable_cpus
from .reporting import MeasureSet, RuleMeasure
from .rules import (Domain, ForeignKey, FormatClass, Frequency, Freshness,
                    MinCount, NoDefault, NotNull, Predicate, Range, Rule,
                    RuleSet, Syntax, Unique, days_to_timedelta,
                    ruleset_fingerprint)
from .values import coerce_literal

DEFAULT_FAILING_CAP = 100_000


# --------------------------------------------------------------------------
# Applicability

def _truths(expr, entity: Entity, rs: RuleSet, rows) -> list[bool]:
    """Whether the row expression is true on each of `rows`, in order: the one
    place the engine evaluates `where`, freshness `condition` and predicate,
    each compiled once per rule and entity."""
    f = compiled(expr, entity.column, rs.reference_time)
    return [v is True for v in map(f, rows)]


def _applicable_rows(rule: Rule, entity: Entity, rs: RuleSet,
                     subject_columns: tuple[str, ...]) -> list[int] | range:
    """Ordinals passing `where`, then non-null subjects when skip_null, then a
    freshness `condition`."""
    rows: list[int] | range = range(entity.n_rows)
    if rule.where is not None:
        rows = list(compress(rows, _truths(rule.where, entity, rs, rows)))
    if rule.skip_null and subject_columns:
        cols = [entity.column(c) for c in subject_columns]
        rows = [i for i in rows if all(col[i] is not None for col in cols)]
    if isinstance(rule.kind, Freshness) and rule.kind.condition is not None:
        rows = list(compress(rows, _truths(rule.kind.condition, entity, rs, rows)))
    return rows


# --------------------------------------------------------------------------
# Per-value kinds: one check per rule, run once per distinct value

def _coerced(value, datatype: str, rule: Rule):
    try:
        return coerce_literal(value, datatype)
    except ValueError as exc:
        raise EvalError(str(exc), rule.id) from None


def _pattern_check(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    match = re.compile(rule.kind.pattern).fullmatch
    return lambda v: v is not None and match(v) is not None


def _range_check(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
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


def _domain_check(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    """Membership in a domain's allowed literals or in the values of the
    column a domain reference or foreign key names."""
    if rule.reference is not None:
        ref_entity, ref_column = rule.reference
        target = repo.entities.get(ref_entity)
        if target is None:
            raise EvalError(f"referenced entity {ref_entity!r} not loaded", rule.id)
        allowed = set(target.column(ref_column)) - {None}
    else:
        dtype = entity.schema.column(rule.columns[0]).datatype
        allowed = {_coerced(v, dtype, rule) for v in rule.kind.allowed}
    return lambda v: v is not None and v in allowed


def _not_null_check(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    return lambda v: v is not None


def _no_default_check(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    dtype = entity.schema.column(rule.columns[0]).datatype
    placeholders = {_coerced(v, dtype, rule) for v in rule.kind.placeholders}
    return lambda v: v is not None and v not in placeholders


def _freshness_check(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    cutoff = rs.reference_time - days_to_timedelta(rule.kind.max_age_days)
    return lambda v: v is not None and v >= cutoff


# Each per-value kind's builder of its pass/fail test on `entity`, a pure
# function of the value: literals coerced, regex compiled, reference set and
# freshness cutoff built once.
_VALUE_CHECKS = {
    Syntax: _pattern_check, FormatClass: _pattern_check, Range: _range_check,
    Domain: _domain_check, NotNull: _not_null_check,
    NoDefault: _no_default_check, ForeignKey: _domain_check,
    Freshness: _freshness_check,
}


def _scan_column(rule: Rule, entity: Entity, rs: RuleSet, column: str, check):
    """B and failing ordinals of one column, checking each distinct value once."""
    col = entity.column(column)
    rows = _applicable_rows(rule, entity, rs, (column,))
    bad = {v for v in set(col) if not check(v)}
    if not bad:
        failing = []
    elif isinstance(rows, range):  # every row applicable: sweep at C speed
        failing = list(compress(range(len(col)), map(bad.__contains__, col)))
    else:
        failing = [i for i in rows if col[i] in bad]
    return len(rows), failing


def _eval_values(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    """The per-value kinds over the rule's (entity, column) targets."""
    check = _VALUE_CHECKS[type(rule.kind)](rule, entity, rs, repo)
    b = 0
    raw: list[tuple[str, int | None]] = []
    for ent_name, column in rule.targets:
        target = repo.entities.get(ent_name)
        if target is None:
            raise EvalError(f"target entity {ent_name!r} not loaded", rule.id)
        tb, rows = _scan_column(rule, target, rs, column, check)
        b += tb
        raw.extend((target.name, i) for i in rows)
    return b, raw


# --------------------------------------------------------------------------
# Row and entity kinds

def _eval_unique(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    key_cols = tuple(c for _, c in rule.targets)
    rows = _applicable_rows(rule, entity, rs, key_cols)
    cols = [entity.column(c) for c in key_cols]
    keys = [tuple(col[i] for col in cols) for i in rows]
    counts = Counter(keys)
    return len(rows), [(entity.name, i) for i, key in zip(rows, keys)
                       if counts[key] > 1]


def _eval_predicate(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    rows = _applicable_rows(rule, entity, rs, tuple(c for _, c in rule.targets))
    truths = _truths(rule.kind.expr, entity, rs, rows)
    return len(rows), [(entity.name, i) for i, ok in zip(rows, truths) if not ok]


def _entity_level(entity: Entity, passes: Callable[[], bool]):
    """B = 0 for an empty entity, else B = 1, the entity failing unless passes()."""
    if entity.n_rows == 0:
        return 0, []
    return 1, [] if passes() else [(entity.name, None)]


def _eval_min_count(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    return _entity_level(entity, lambda: entity.n_rows >= rule.kind.threshold)


def _eval_frequency(rule: Rule, entity: Entity, rs: RuleSet, repo: Repository):
    def passes() -> bool:
        [(_, column)] = rule.targets
        stamps = sorted(v for v in entity.column(column) if v is not None)
        max_gap = max((nxt - prev for prev, nxt in zip(stamps, stamps[1:])),
                      default=timedelta(0))
        return max_gap <= days_to_timedelta(rule.kind.max_gap_days)

    return _entity_level(entity, passes)


# Every kind's evaluator: (rule, entity, ruleset, repository) ->
# (B, failing (entity name, ordinal) pairs); A = B - len(failing).
_EVALUATORS = {
    **dict.fromkeys(_VALUE_CHECKS, _eval_values), Unique: _eval_unique,
    Predicate: _eval_predicate, MinCount: _eval_min_count,
    Frequency: _eval_frequency,
}


# --------------------------------------------------------------------------
# Entry points

def eval_rule(rule: Rule, repo: Repository, rs: RuleSet) -> RuleMeasure:
    """Evaluate one validated rule: A, B, the first DEFAULT_FAILING_CAP failing
    pairs in (entity, ordinal) order, how many failed, and the time it took.
    EvalError signals a pipeline bug only."""
    started = time.perf_counter()
    entity = repo.entities.get(rule.entity)
    if entity is None:
        raise EvalError(f"entity {rule.entity!r} not loaded", rule.id)
    try:
        b, failing = _EVALUATORS[type(rule.kind)](rule, entity, rs, repo)
    except UnknownColumn as exc:
        raise EvalError(str(exc), rule.id) from None
    if len(rule.targets) > 1:  # one target's pairs come out in ordinal order
        failing.sort(key=lambda item: (item[0], -1 if item[1] is None else item[1]))
    total = len(failing)
    if total > DEFAULT_FAILING_CAP:
        failing = failing[:DEFAULT_FAILING_CAP]
    return RuleMeasure(rule.id, b - total, b, failing, total,
                       time.perf_counter() - started)


# The estimated serial work from which a pool of workers pays for itself.
# Measured with Python 3.11.7 on 2 shared vCPUs: importing multiprocessing
# and concurrent.futures takes about 20 ms, forking two workers of a
# 60k-row process about 25 ms, and two processes run CPU-bound work about
# 1.4x as fast as one. Serial work T then saves T * (1 - 1/1.4) on two
# workers, which exceeds those 45 ms from about 150 ms on.
POOL_BREAK_EVEN_NS = 150_000_000

# The cost model of _serial_costs_ns, fitted to the per-rule times of
# eval_rule (best of 3, same host) on perfbench's inputs: scan (60k rows,
# per-value rules at 56-75 ns per row), registry (813 rules of 100 rows at
# 11-40 us each, most of it per rule) and rowexpr (68k rows; unique keys at
# about 1 us per row). Compiled expressions (best of 5) cost 76-460 ns per
# row and node on rowexpr, 224 ns over all its 3.5M, and a median 243 ns
# beyond the per-rule cost on registry's 163 predicates.
_RULE_NS = 25_000            # per rule: bind the check, build the measure
_NODE_NS = 250               # per row of the rule's entity and expression node
_ROW_NS = {                  # per row of each target
    **dict.fromkeys(_VALUE_CHECKS, 65),  # one set lookup per cell
    Unique: 1_000,           # build the key tuple, count it, look it up
    Predicate: 0,            # the expression's nodes carry its cost
    MinCount: 0,
    Frequency: 200,          # sort the timestamps
}


def _serial_costs_ns(rs: RuleSet, repo: Repository) -> list[int]:
    """The estimated serial time of each rule, from sizes the validated rules
    and the loaded entities hold: the rows of each target, weighted by kind,
    plus the rows of the rule's entity times the nodes of its `where`,
    predicate and freshness `condition`, plus a fixed cost per rule. No value
    is read, no expression evaluated and no clock consulted."""
    rows = {name: e.n_rows for name, e in repo.entities.items()}

    def cost(rule: Rule) -> int:
        k = rule.kind
        exprs = (rule.where, getattr(k, "expr", None), getattr(k, "condition", None))
        nodes = sum(node_count(e) for e in exprs if e is not None)
        return (_RULE_NS
                + _ROW_NS[type(k)] * sum(rows.get(e, 0) for e, _ in rule.targets)
                + _NODE_NS * nodes * rows.get(rule.entity, 0))

    return [cost(rule) for rule in rs.rules]


def _longest_first(costs: list[int], workers: int) -> list[list[int]]:
    """Rule indices in batches, longest first: rules are dealt in order of
    falling estimated cost, index breaking ties, and a rule joins the open
    batch only while the batch stays within a quarter of one worker's share,
    so a heavy rule travels alone and starts first, while light ones share
    the last batches. Graham's longest-processing-time-first rule (Bounds on
    Multiprocessing Timing Anomalies, 1969) keeps the makespan within
    4/3 - 1/(3m) of the optimum on m workers."""
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    share = sum(costs) / (4 * workers)
    batches: list[list[int]] = []
    batch: list[int] = []
    held = 0
    for i in order:
        if batch and held + costs[i] > share:
            batches.append(batch)
            batch, held = [], 0
        batch.append(i)
        held += costs[i]
    return batches + [batch] if batch else batches


# Worker state for fork-based parallel evaluation; set in the parent right
# before the pool is created so children inherit it copy-on-write.
_WORKER_STATE: tuple[RuleSet, Repository] | None = None


def _eval_batch(indices: list[int]) -> list[tuple[int, RuleMeasure]]:
    rs, repo = _WORKER_STATE
    return [(index, eval_rule(rs.rules[index], repo, rs)) for index in indices]


def _place_worker(cpus: frozenset, slots) -> None:
    """Start this worker on the CPU its slot names, then let the scheduler move
    it: a forked worker starts on its parent's CPU, and the kernel may leave
    two of them sharing one CPU for a second while another CPU idles."""
    os.sched_setaffinity(0, {slots.get()})
    os.sched_setaffinity(0, cpus)


def _can_fork() -> bool:
    # imported here, as in _eval_parallel: multiprocessing and
    # concurrent.futures add about 20 ms to every start-up that imports them
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def _eval_parallel(rs: RuleSet, repo: Repository, workers: int,
                   costs: list[int]) -> dict[int, RuleMeasure]:
    """Rule index → measure, from batches run in forked workers, submitted
    longest first by the rules' estimated costs."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool
    rules = rs.rules
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
    _WORKER_STATE = (rs, repo)
    gc.freeze()  # the collector would otherwise dirty the shared pages
    try:
        with ProcessPoolExecutor(workers, mp_context=ctx, **placement) as pool:
            futures = [pool.submit(_eval_batch, batch)
                       for batch in _longest_first(costs, workers)]
            try:
                for future in as_completed(futures):
                    measured.update(future.result())
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


def eval_all(rs: RuleSet, repo: Repository, jobs: int = 1) -> MeasureSet:
    """Evaluate every rule; the result does not depend on schedule or jobs.

    jobs is an upper bound on the worker processes: at most one per usable
    CPU (more only queue for the same CPUs) and one per rule. With more than
    one, each rule's serial cost is estimated from sizes alone (rows,
    targets, kind, expression nodes), and workers are forked only when the
    total reaches POOL_BREAK_EVEN_NS, the work from which the pool saves more
    than its start-up costs; below it the rules run serially, and
    multiprocessing is not imported.
    Forked workers share the loaded repository copy-on-write, take batches
    of rules longest first, and ship back counts and failing (entity,
    ordinal) pairs, the same values a sequential run computes, so the
    output is identical byte for byte. Key values are read from the
    repository only when records are written (`MeasureSet.record_key`). A
    worker that dies raises EvalError naming the rules not yet evaluated.
    Without fork, evaluation is sequential.
    """
    workers = min(jobs, len(rs.rules), usable_cpus())
    costs = _serial_costs_ns(rs, repo) if workers > 1 else []
    if workers > 1 and sum(costs) >= POOL_BREAK_EVEN_NS and _can_fork():
        measured = _eval_parallel(rs, repo, workers, costs)
        measures = {rule.id: measured[i] for i, rule in enumerate(rs.rules)}
    else:
        measures = {r.id: eval_rule(r, repo, rs) for r in rs.rules}
    return MeasureSet(measures, ruleset_fingerprint(rs), repo.fingerprint,
                      repo.record_key)
