"""Loading and evaluating large snapshot files in row ranges, for `--jobs N`.

`engine.evaluate_snapshot` hands `evaluate_ranges` the snapshot files of
at least `engine.RANGE_BREAK_EVEN_BYTES` whose entities only row-local
rules read. Each is cut at record boundaries into up to N byte ranges
(`dataset._record_cuts`). This process loads and evaluates the first
range of each file itself, hashing its bytes as they load, then hashes the
rest of each file for the fingerprint, while workers it forks (`forked`)
take the others. Each range loads through `dataset._load`
and runs its entity's rules through `engine.eval_rule`, and a worker
pickles back, per range, its row count, each rule's measure over it
(ordinals from the range's first row, failing pairs capped) and the keys of
the rows that fail. The measures merge exactly: B and the failing totals
sum, and the failing pairs, shifted by the rows before their range,
concatenate in range order and are capped again, which gives the pairs, in
the order, that one range gives (range partitioning: DeWitt and Gray, CACM
1992; mergeable summaries: Agarwal et al., PODS 2012).

The entities that are not cut load whole here before the fork, among them
every entity a foreign key or domain reference reads, which the ranges'
rules need; their rules, and min_count over the summed row counts, run
after the merge through `engine.eval_all`.

A range that does not load, a file whose size, mtime or inode moves, or a
worker that cannot be started sends the caller down the one-range path,
which loads the snapshot again and so raises the one-range path's error,
in catalog order. A worker that dies raises EvalError naming the ranges
left without a result. `forked` is the program's one way to run work in
other processes; `engine.eval_all` runs its rules through it, this process
taking them beside the workers.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import signal
from functools import partial
from pathlib import Path

from . import canonical, engine
from .dataset import (Entity, Repository, SchemaCatalog, _file_digest, _load,
                      _record_cuts)
from .errors import EvalError, LoadError
from .reporting import MeasureSet, RuleMeasure
from .rules import RuleSet, ruleset_fingerprint

Range = tuple[str, int, int]  # entity name, first byte, byte after the last


def _evaluate_ranges(rs: RuleSet, directory: Path, catalog: SchemaCatalog,
                     whole: dict[str, Entity], hashes: dict,
                     ranges: list[Range]) -> list:
    """For each range: the LoadError it raises, or its row count, the measure
    over it of each ranged rule of its entity, in ruleset order, and row →
    key of the rows failing them. A range's bytes feed the sha256 object
    `hashes` holds for its entity, if any."""
    outcomes = []
    for name, start, stop in ranges:
        try:
            entity = _load(directory / f"{name}.csv", catalog.get(name), start, stop,
                           hashes.get(name))[0]
        except LoadError as exc:
            outcomes.append(exc)
            continue
        repo = Repository(catalog, {**whole, name: entity}, "")
        measures = [engine.eval_rule(rule, repo, rs) for rule in rs.rules
                    if rule.entity == name and isinstance(rule.kind, engine.RANGED_KINDS)]
        rows = {row for m in measures for _, row in m.failing}
        outcomes.append((entity.n_rows, measures,
                         {row: repo.record_key(name, row) for row in rows}))
    return outcomes


def _fork(cpu: int | None, cpus: list[int], work):
    """(pid, pipe) of a forked worker that writes to the pipe the pickled
    (True, work()), or (False, the exception it raised), and exits. The
    worker starts on `cpu`, then may run on any of `cpus`."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        os.close(read)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
            os.sched_setaffinity(0, cpus)
        try:
            result = True, work()
        except Exception as exc:  # the parent raises it
            result = False, exc
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


# Task k is the 4-byte record k in the workers' queue, a pipe: a write of up
# to PIPE_BUF bytes (512 or more) lands whole, and a read holds the pipe.
_RECORD = 4
_PIPE_BUF = 512


def forked(work, tasks: list, workers: int, names, here=None) -> tuple:
    """here(), run in this process, and [work(task) for task in tasks], run
    while it runs by `workers` forked workers that each take the next task
    from a queue until it is empty, so one on a slower CPU takes fewer.
    Without `here`, this process takes tasks from the queue beside them.

    A worker's results, or the exception it raised, which is raised here,
    come back pickled through a pipe. A worker that dies before sending them
    raises EvalError "a worker process died while evaluating {names(left)}",
    `left` the tasks without a result; a fork refused (EAGAIN, ENOMEM), its
    OSError. On every exit path, every worker is reaped, killed first if
    it has not exited."""
    records = b"".join(k.to_bytes(_RECORD, "little") for k in range(len(tasks)))
    read, write = os.pipe()
    queue = open(write, "wb", buffering=0)

    def pull() -> list:
        queue.close()  # the queue then ends once the parent has closed its end
        done = []
        while record := os.read(read, _RECORD):
            k = int.from_bytes(record, "little")
            done.append((k, work(tasks[k])))
        return done

    forks = []  # (pid, pipe) of each forked worker
    reaped = set()
    # A forked worker starts on its parent's CPU, and the kernel may leave the
    # two sharing it for longer than a task takes while another CPU idles:
    # this process moves to the first usable CPU while it forks, worker k
    # starts on the (k + 1)-th, cycling, and each then lets the scheduler move it.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    gc.freeze()  # the collector would otherwise dirty the shared pages
    try:
        queue.write(records[:_PIPE_BUF])
        if cpus:
            os.sched_setaffinity(0, cpus[:1])
        for k in range(1, workers + 1):
            forks.append(_fork(cpus[k % len(cpus)] if cpus else None, cpus, pull))
        if cpus:
            os.sched_setaffinity(0, cpus)
        with queue:
            for start in range(_PIPE_BUF, len(records), _PIPE_BUF):
                queue.write(records[start:start + _PIPE_BUF])
        mine = here() if here else None
        results = {} if here else dict(pull())
        # every result is read and loaded before any worker is reaped: a
        # worker's pipe ends before its exit has unmapped its view of this
        # process's memory, which takes milliseconds
        sent = []
        for _, pipe in forks:
            try:
                sent.append(pickle.loads(pipe.read()))
            except (EOFError, pickle.UnpicklingError):  # it died before sending all
                pass
        for pid, _ in forks:
            os.waitpid(pid, 0)
            reaped.add(pid)
        for ok, value in sent:
            if not ok:
                raise value
            results.update(value)
        if len(results) < len(tasks):  # a worker died holding a task
            left = [task for k, task in enumerate(tasks) if k not in results]
            raise EvalError(f"a worker process died while evaluating {names(left)}")
    finally:
        gc.unfreeze()
        queue.close()
        os.close(read)
        if cpus:
            os.sched_setaffinity(0, cpus)
        for pid, pipe in forks:
            pipe.close()
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return mine, [results[k] for k in range(len(tasks))]


def _run(rs: RuleSet, directory: Path, catalog: SchemaCatalog,
         whole: dict[str, Entity], plan: dict) -> tuple[list, dict]:
    """Every range's `_evaluate_ranges` outcome, as (entity name, outcome) in
    range order, the first ranges' from this process and the others' from
    forked workers; and each cut file's sha256 (None if it moved), its first
    range hashed as it loads and the rest here while the workers run. An
    error other than a range's LoadError is raised as it is met."""
    # task k holds range k of each file cut into more than k ranges
    tasks = [[(name, cuts[k], cuts[k + 1]) for name, (_, _, cuts) in plan.items()
              if k + 1 < len(cuts)]
             for k in range(max(len(cuts) for _, _, cuts in plan.values()) - 1)]
    hashes = {name: hashlib.sha256() for name in plan}

    def here():
        first = _evaluate_ranges(rs, directory, catalog, whole, hashes, tasks[0])
        return first, {name: _file_digest(path, before, hashes[name], cuts[1])
                       for name, (path, before, cuts) in plan.items()}

    def names(left: list) -> str:
        return ", ".join(f"{name}.csv bytes {start}-{stop}"
                         for ranges in left for name, start, stop in ranges)

    (first, digests), rest = forked(
        partial(_evaluate_ranges, rs, directory, catalog, whole, {}), tasks[1:],
        len(tasks) - 1, names, here)
    outcomes = [(name, outcome) for ranges, result in zip(tasks, [first, *rest])
                for (name, _, _), outcome in zip(ranges, result)]
    return outcomes, digests


def _merged(rule_id: str, parts: list[tuple[int, RuleMeasure]]) -> RuleMeasure:
    """One rule's measure from its measures over ranges, each with the number
    of rows before its range, in range order."""
    cap = engine.DEFAULT_FAILING_CAP
    b = total = 0
    elapsed = 0.0
    failing: list = []
    for offset, m in parts:
        b += m.b
        total += m.failing_total
        elapsed += m.elapsed
        failing += [(entity, row + offset)
                    for entity, row in m.failing[:cap - len(failing)]]
    return RuleMeasure(rule_id, b - total, b, failing, total, elapsed)


def evaluate_ranges(rs: RuleSet, directory: Path, catalog: SchemaCatalog,
                    jobs: int, parts: int,
                    large: list[Path]) -> tuple[Repository, MeasureSet] | None:
    """`engine.evaluate_snapshot`'s result, with each of the `large` files cut
    into up to `parts` ranges; None where the one-range path must decide: no
    file splits into two ranges, a file cannot be read, fails to load or
    moves, or no worker can be started."""
    plan = {}  # entity name → (path, (size, mtime, inode), cuts)
    for path in large:
        try:
            before, cuts = _record_cuts(path, parts)
        except OSError:
            return None
        if len(cuts) > 2:
            plan[path.stem] = path, before, cuts
    if not plan:
        return None
    entities: dict[str, Entity] = {}
    digests: dict[str, str | None] = {}
    for schema in catalog.entities:
        if schema.name not in plan:
            try:
                entities[schema.name], digests[schema.name] = _load(
                    directory / f"{schema.name}.csv", schema, digest=hashlib.sha256())
            except LoadError:
                return None
    try:
        outcomes, cut_digests = _run(rs, directory, catalog, dict(entities), plan)
    except OSError:  # no worker could start (EAGAIN, ENOMEM): one range does
        return None
    digests.update(cut_digests)
    if None in digests.values() or any(isinstance(o, LoadError) for _, o in outcomes):
        return None

    ranged: dict[str, list[tuple[int, RuleMeasure]]] = {}
    keys: dict[tuple[str, int], dict] = {}
    rows = dict.fromkeys(plan, 0)
    for name, (n_rows, measures, failing_keys) in outcomes:
        for m in measures:
            ranged.setdefault(m.rule_id, []).append((rows[name], m))
        keys.update(((name, rows[name] + row), key) for row, key in failing_keys.items())
        rows[name] += n_rows
    for name, n_rows in rows.items():
        entities[name] = Entity(catalog.get(name), {}, n_rows)
    repo = Repository(catalog, {s.name: entities[s.name] for s in catalog.entities},
                      canonical.fingerprint_digests(
                          {f"{name}.csv": digest for name, digest in digests.items()}))
    measures = {rule_id: _merged(rule_id, parts) for rule_id, parts in ranged.items()}
    rest = tuple(rule for rule in rs.rules if rule.id not in measures)
    if rest:
        measures.update(engine.eval_all(rs.replace(rules=rest), repo, jobs).measures)

    def record_key(entity: str, row: int) -> dict:
        return keys[entity, row] if entity in plan else repo.record_key(entity, row)

    return repo, MeasureSet({rule.id: measures[rule.id] for rule in rs.rules},
                            ruleset_fingerprint(rs), repo.fingerprint, record_key)
