"""Loading and evaluating large snapshot files in row ranges, for `--jobs N`.

`engine.evaluate_snapshot` hands `evaluate_ranges` the snapshot files of
at least `engine.RANGE_BREAK_EVEN_BYTES` whose entities only row-local
rules read. Each is cut at record boundaries into up to N byte ranges
(`dataset._record_cuts`), and each range is one task that this process and
the workers it forks (`forked`) take from one queue alike. Each range loads
through `dataset._load` and runs its entity's rules through
`engine.eval_rule`, and a worker pickles back, per range, its row count,
each rule's measure over it (ordinals from the range's first row, failing
pairs capped) and the keys of the rows that fail. This process then hashes
each cut file whole for the fingerprint. The measures merge exactly: B and
the failing totals sum, and the failing pairs, shifted by the rows before
their range, concatenate in range order and are capped again, which gives
the pairs, in the order, that one range gives (range partitioning: DeWitt
and Gray, CACM 1992; mergeable summaries: Agarwal et al., PODS 2012).

The entities that are not cut load whole here before the fork, among them
every entity a foreign key or domain reference reads, which the ranges'
rules need; their rules, and min_count over the summed row counts, run
after the merge through `engine.eval_all`.

A range that does not load, a file whose size, mtime or inode moves, or a
worker that cannot be started sends the caller down the one-range path,
which loads the snapshot again and so raises the one-range path's error,
in catalog order. A worker that dies raises EvalError naming the ranges
left without a result. `forked` is the program's one way to run work in
other processes; `engine.eval_all` runs its rules through it too.
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
                     whole: dict[str, Entity], task: Range):
    """The LoadError the range raises, or its row count, the measure over it
    of each ranged rule of its entity, in ruleset order, and row → key of the
    rows failing them."""
    name, start, stop = task
    try:
        entity = _load(directory / f"{name}.csv", catalog.get(name), start, stop)[0]
    except LoadError as exc:
        return exc
    repo = Repository(catalog, {**whole, name: entity}, "")
    measures = [engine.eval_rule(rule, repo, rs) for rule in rs.rules
                if rule.entity == name and isinstance(rule.kind, engine.RANGED_KINDS)]
    rows = {row for m in measures for _, row in m.failing}
    return entity.n_rows, measures, {row: repo.record_key(name, row) for row in rows}


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


def forked(work, tasks: list, workers: int, names) -> list:
    """[work(task) for task in tasks], run by this process and `workers`
    forked workers, each taking the next task from one queue until it is
    empty, so one on a slower CPU takes fewer.

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
        results = dict(pull())
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
    return [results[k] for k in range(len(tasks))]


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
    tasks = [(name, start, stop) for name, (_, _, cuts) in plan.items()
             for start, stop in zip(cuts, cuts[1:])]

    def names(left: list[Range]) -> str:
        return ", ".join(f"{name}.csv bytes {start}-{stop}" for name, start, stop in left)

    try:  # this process, and one worker fewer than the most ranges of a file
        outcomes = forked(partial(_evaluate_ranges, rs, directory, catalog, entities),
                          tasks, max(len(cuts) for _, _, cuts in plan.values()) - 2, names)
    except OSError:  # no worker could start (EAGAIN, ENOMEM): one range does
        return None
    digests.update((name, _file_digest(path, before))
                   for name, (path, before, _) in plan.items())
    if None in digests.values() or any(isinstance(o, LoadError) for o in outcomes):
        return None

    ranged: dict[str, list[tuple[int, RuleMeasure]]] = {}
    keys: dict[tuple[str, int], dict] = {}
    rows = dict.fromkeys(plan, 0)
    for (name, _, _), (n_rows, measures, failing_keys) in zip(tasks, outcomes):
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
