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
evaluated in parallel; the repository is immutable throughout. Workers
are forked (ranges.forked) to take rules beside this process only when
the evaluation's estimated serial cost, worked out from sizes before
anything is evaluated, is large enough to pay for them; otherwise the
rules run serially, with the same results.
`evaluate_snapshot` loads a snapshot and evaluates it: large files whose
entities only row-local rules read are loaded and evaluated in row ranges,
which this process and forked workers take alike (ranges.py), the rest
through load_snapshot and eval_all.

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

import os
import re
import time
from collections import Counter
from collections.abc import Callable
from datetime import timedelta
from itertools import compress
from pathlib import Path

from .dataset import Entity, Repository, SchemaCatalog, load_snapshot
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
        allowed = set(repo.entities[ref_entity].column(ref_column)) - {None}
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
        target = repo.entities[ent_name]
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
    if len(cols) == 1:  # the values themselves are the keys
        keys = cols[0] if isinstance(rows, range) else [cols[0][i] for i in rows]
    else:
        keys = [tuple(col[i] for col in cols) for i in rows]
    dup = {key for key, n in Counter(keys).items() if n > 1}
    return len(rows), [(entity.name, i)
                       for i in compress(rows, map(dup.__contains__, keys))]


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
    read = [rule.entity, *(name for name, _ in rule.targets)]
    if rule.reference is not None:
        read.append(rule.reference[0])
    missing = [name for name in read if name not in repo.entities]
    if missing:
        raise EvalError(f"entity {missing[0]!r} not loaded", rule.id)
    try:
        b, failing = _EVALUATORS[type(rule.kind)](rule, repo.entities[rule.entity],
                                                  rs, repo)
    except UnknownColumn as exc:
        raise EvalError(str(exc), rule.id) from None
    if len(rule.targets) > 1:  # one target's pairs come out in ordinal order
        failing.sort(key=lambda item: (item[0], -1 if item[1] is None else item[1]))
    total = len(failing)
    if total > DEFAULT_FAILING_CAP:
        failing = failing[:DEFAULT_FAILING_CAP]
    return RuleMeasure(rule.id, b - total, b, failing, total,
                       time.perf_counter() - started)


# The estimated serial work from which forking workers pays for itself.
# Measured with Python 3.11.7 on 2 shared vCPUs, in fresh processes without
# a bytecode cache on perfbench's scan shape with its rules repeated
# (39-157 ms estimated, medians of 15): jobs=2, one forked worker beside
# this process, took about 32 ms (imports, the fork, results) more than the
# serial time over the two-process speedup, 2.0 there, and crossed jobs=1 at
# about 70 ms of estimated work. It stays at 150 ms until jobs=1 and jobs=2
# are timed against each other on work in between.
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


def _longest_first(costs: list[int]) -> list[int]:
    """Rule indices in order of falling estimated cost, index breaking ties:
    the order in which the pool hands out rules, one per task."""
    return sorted(range(len(costs)), key=lambda i: (-costs[i], i))


def _eval_parallel(rs: RuleSet, repo: Repository, workers: int,
                   costs: list[int]) -> dict[int, RuleMeasure]:
    """Rule index → measure, from this process and workers - 1 forked workers
    (ranges.forked) that each take the next rule, in order of falling
    estimated cost, index breaking ties, until none is left: a heavy rule
    starts first, and light ones fill in at the end. Graham's longest-
    processing-time-first rule (Bounds on Multiprocessing Timing Anomalies,
    1969) keeps the makespan within 4/3 - 1/(3m) of the optimum on m
    processes."""
    from .ranges import forked  # imports pickle
    order = _longest_first(costs)

    def names(left: list[int]) -> str:
        ids = [rs.rules[i].id for i in sorted(left)]
        shown = ", ".join(ids[:10])
        if len(ids) > 10:
            shown += f" and {len(ids) - 10} more"
        return f"rules {shown}"

    measured = forked(lambda i: eval_rule(rs.rules[i], repo, rs), order,
                      workers - 1, names)
    return dict(zip(order, measured))


def eval_all(rs: RuleSet, repo: Repository, jobs: int = 1) -> MeasureSet:
    """Evaluate every rule; the result does not depend on schedule or jobs.

    jobs is an upper bound on the processes that evaluate rules, this one
    included: at most one per usable CPU (more only queue for the same CPUs)
    and one per rule. With more than one, each rule's serial cost is
    estimated from sizes alone (rows, targets, kind, expression nodes), and
    workers are forked only when the total reaches POOL_BREAK_EVEN_NS, the
    work from which the workers save more than forking them costs; below it
    the rules run serially, and pickle is not imported.
    Forked workers share the loaded repository copy-on-write, take rules
    longest first beside this process, and ship back counts and failing
    (entity, ordinal) pairs, the same values a sequential run computes, so the
    output is identical byte for byte. Key values are read from the
    repository only when records are written (`MeasureSet.record_key`). A
    worker that dies raises EvalError naming the rules left unmeasured.
    Without fork, or with a fork refused, evaluation is sequential.
    """
    workers = min(jobs, len(rs.rules), usable_cpus())
    costs = _serial_costs_ns(rs, repo) if workers > 1 else []
    measured = {}
    if workers > 1 and sum(costs) >= POOL_BREAK_EVEN_NS and hasattr(os, "fork"):
        try:
            measured = _eval_parallel(rs, repo, workers, costs)
        except OSError:  # a worker could not start (EAGAIN, ENOMEM): run here
            pass
    measures = {rule.id: measured[i] if measured else eval_rule(rule, repo, rs)
                for i, rule in enumerate(rs.rules)}
    return MeasureSet(measures, ruleset_fingerprint(rs), repo.fingerprint,
                      repo.record_key)


# --------------------------------------------------------------------------
# Loading and evaluation in row ranges

# The snapshot-file size from which loading and evaluating it in two row
# ranges (ranges.py) saves more than the ranges cost: importing pickle and
# ranges, finding the cuts, forking, hashing the file apart from the load and
# shipping the measures back. Fitted on perfbench's scan shape (11 columns,
# 10 per-value rules; Python 3.11.7, 2 shared vCPUs, no bytecode cache,
# medians of 15 fresh processes): one range took 30 ms at 1.0 MB and 58 ms
# at 2.0 MB, two ranges 35 ms and 46 ms, so they cross at about 1.3 MB.
RANGE_BREAK_EVEN_BYTES = 1_500_000

# The kinds evaluated per row range: each row's verdict depends on that row
# alone, and the ranges' measures add up. min_count is row-local too, as a
# count of rows, and runs on the summed count.
RANGED_KINDS = (*_VALUE_CHECKS, Predicate)


def _whole(rs: RuleSet) -> set[str]:
    """The entities that load whole: those a membership check reads, and those
    a rule reads that is not row-local or that tests another entity too."""
    whole = set()
    for rule in rs.rules:
        read = {rule.entity, *(entity for entity, _ in rule.targets)}
        if rule.reference is not None:
            whole.add(rule.reference[0])
        if len(read) > 1 or not isinstance(rule.kind, (*RANGED_KINDS, MinCount)):
            whole |= read
    return whole


def evaluate_snapshot(rs: RuleSet, directory: Path, catalog: SchemaCatalog,
                      jobs: int = 1) -> tuple[Repository, MeasureSet]:
    """load_snapshot, then eval_all: the repository and its measures, the one-
    range case. With more than one worker possible (jobs, usable CPUs,
    os.fork), the snapshot files of at least RANGE_BREAK_EVEN_BYTES whose
    entities only row-local rules read are instead cut into row ranges,
    loaded and evaluated by this process and forked workers, and hashed
    whole after them (ranges.evaluate_ranges). Both
    give the same measures, row counts and record keys, so the same report
    and measures bytes, and the same error where loading fails; a cut
    entity's repository entry then holds its row count alone."""
    directory = Path(directory)
    parts = min(jobs, usable_cpus())
    if parts > 1 and hasattr(os, "fork"):
        paths = [directory / f"{schema.name}.csv" for schema in catalog.entities]
        try:
            large = [path for path in paths
                     if path.stat().st_size >= RANGE_BREAK_EVEN_BYTES]
        except OSError:  # the one-range path names the missing file
            large = []
        whole = _whole(rs) if large else set()
        large = [path for path in large if path.stem not in whole]
        if large:
            from .ranges import evaluate_ranges  # imports pickle
            ranged = evaluate_ranges(rs, directory, catalog, jobs, parts, large)
            if ranged is not None:
                return ranged
    repo = load_snapshot(directory, catalog)
    return repo, eval_all(rs, repo, jobs)
