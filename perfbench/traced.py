"""The traced in-process run: per-layer numbers from spans around public calls.

Spans (name, start, end, parent) are recorded by the benchmark's own code
around each call into a `dqeval` module, kept in memory and written out at
the end. Collector time is charged to the innermost open span through
`gc.callbacks`. The end-to-end metrics never come from this run; the
tracing overhead is the traced core pipeline's median wall time minus that
of untraced passes of the same calls, interleaved with the traced ones.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from dqeval import __version__, synthkit
from dqeval.canonical import snapshot_fingerprint
from dqeval.dataset import (Repository, RowView, load_catalog, load_entity,
                            write_entity)
from dqeval.engine import eval_all, eval_rule
from dqeval.expr import evaluate
from dqeval.reporting import (build_improvement, build_report, serialize_measures,
                              serialize_report, write_improvement)
from dqeval.rules import (FormatClass, Freshness, Predicate, parse_ruleset,
                          validate_ruleset)
from dqeval.scoring import default_config, score_all

import e2e
import workloads
from workloads import Inputs

DEDUP_CAP = 65_536  # dataset.load_entity's per-column dedup cache size
MB = 1024 * 1024


class Tracer:
    """In-memory spans with self time and collector time per span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._gc_started: float | None = None

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
        elif self._gc_started is not None:
            if self._open:
                self.spans[self._open[-1]]["gc_s"] += now - self._gc_started
            self._gc_started = None

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "gc_s": 0.0, **attrs}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def finish(self) -> list[dict]:
        """Spans with duration, self time and collector time including children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            s["duration_s"] = s["end"] - s["start"]
            s["gc_total_s"] = s["gc_s"]
        for i in range(len(self.spans) - 1, -1, -1):  # children follow parents
            s = self.spans[i]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["duration_s"]
                self.spans[s["parent"]]["gc_total_s"] += s["gc_total_s"]
        for s, covered in zip(self.spans, child_time):
            s["self_s"] = s["duration_s"] - covered
        return self.spans


def _no_span(name: str, **attrs):
    return nullcontext({})


def core(inputs: Inputs, tracer: Tracer | None):
    """The calls `dq evaluate --jobs 1` makes, in its order, minus file writes.

    The loader's two steps, per-entity parsing and the snapshot
    fingerprint, are called separately so that each gets its own span.
    """
    span = tracer.span if tracer else _no_span
    rules_text = inputs.rules.read_text(encoding="utf-8")
    schema_text = inputs.schema.read_text(encoding="utf-8")
    with span("rules.parse_ruleset"):
        rs = parse_ruleset(rules_text)
    with span("dataset.load_catalog"):
        catalog = load_catalog(schema_text)
    with span("rules.validate_ruleset"):
        validate_ruleset(rs, catalog)
    entities = {}
    for schema in catalog.entities:
        path = inputs.data / f"{schema.name}.csv"
        with span("dataset.load_entity", entity=schema.name,
                  bytes=path.stat().st_size) as record:
            entities[schema.name] = load_entity(path, schema)
        record["cells"] = entities[schema.name].n_rows * len(schema.columns)
    with span("canonical.snapshot_fingerprint"):
        fingerprint = snapshot_fingerprint(inputs.data)
    repo = Repository(catalog, entities, fingerprint)
    with span("engine.eval_all", jobs=1, role="jobs1"):
        ms = eval_all(rs, repo, jobs=1)
    config = default_config()
    with span("scoring.score_all"):
        result = score_all(ms, rs, config)
    with span("reporting.build_report"):
        report = build_report(rs, repo, ms, result, config, __version__)
    with span("reporting.serialize_report"):
        report_text = serialize_report(report)
    with span("reporting.serialize_measures"):
        measures_text = serialize_measures(ms)
    return rs, repo, ms, report, report_text, measures_text


def _rows_scanned(rule, repo: Repository) -> int:
    rows = repo.entities[rule.entity].n_rows
    if isinstance(rule.kind, FormatClass):
        rows *= len(rule.columns)
        rows += sum(repo.entities[e].n_rows for e, _ in rule.kind.extra_targets)
    return rows


def _row_expressions(rule) -> list:
    k = rule.kind
    found = [rule.where]
    if isinstance(k, Predicate):
        found.append(k.expr)
    elif isinstance(k, Freshness):
        found.append(k.condition)
    return [e for e in found if e is not None]


def _startup_s(src: Path, log: Path, times: int = 3) -> tuple[float, bool]:
    env = e2e.child_env(src)
    runs = [e2e.spawn([sys.executable, "-m", "dqeval.cli", "--version"], env, log)
            for _ in range(times)]
    return statistics.median(r[0] for r in runs), all(r[1] == 0 for r in runs)


def _load_rss_mb(inputs: Inputs, src: Path, log: Path) -> float | None:
    """Peak RSS of a fresh process that only imports the loader and loads."""
    code = ("import sys\n"
            "from pathlib import Path\n"
            "from dqeval.dataset import load_catalog, load_snapshot\n"
            "catalog = load_catalog(Path(sys.argv[1]).read_text(encoding='utf-8'))\n"
            "load_snapshot(Path(sys.argv[2]), catalog)\n")
    _, code, rss = e2e.spawn([sys.executable, "-c", code, str(inputs.schema),
                              str(inputs.data)], e2e.child_env(src), log)
    return rss if code == 0 else None


def input_sizes(rs, repo: Repository, inputs: Inputs) -> dict:
    """Rows, columns, rules, CSV bytes and distinct values per column."""
    entities = {}
    for name, entity in repo.entities.items():
        distinct = {c.name: len(set(entity.column(c.name)) - {None})
                    for c in entity.schema.columns}
        entities[name] = {
            "rows": entity.n_rows, "columns": len(distinct),
            "csv_bytes": (inputs.data / f"{name}.csv").stat().st_size,
            "columns_over_dedup_cap": sorted(c for c, d in distinct.items()
                                             if d > DEDUP_CAP),
            "distinct": distinct,
        }
    return {"rules": len(rs.rules), "dedup_cap": DEDUP_CAP, "entities": entities}


class Run:
    """One traced run: a warm-up pass, then repetitions that each time the
    `dq evaluate` calls untraced and then run every layer traced."""

    def __init__(self, name: str, seed: int, inputs: Inputs, work: Path,
                 src: Path, jobs2: int, scale: float):
        self.inputs, self.work, self.src, self.jobs2 = inputs, work, src, jobs2
        self.expected = synthkit.parse_expected(
            inputs.expected.read_text(encoding="utf-8"))
        self.synth = workloads.synth_inputs(name, seed, scale)
        self.tally = e2e.Tally()
        self.reference: tuple[str, str] | None = None
        self.last = None  # (ruleset, repository) of the latest repetition

    def repetition(self, tracer: Tracer) -> tuple[float, dict]:
        """Core pipeline plus one pass per extra layer; returns core wall time."""
        span = tracer.span
        started = time.perf_counter()
        rs, repo, ms, report, report_text, measures_text = core(self.inputs, tracer)
        core_s = time.perf_counter() - started
        texts = (report_text, measures_text)
        if self.reference is None:
            self.reference = texts
        same = (texts == self.reference and len(ms.measures) == len(rs.rules)
                and not e2e.oracle_discrepancies(self.expected, ms))
        self.tally.record(same, "eval_all --jobs 1: outputs differ across "
                                "repetitions or (A, B) != oracle")

        with span("engine.eval_all", jobs=self.jobs2, role="jobs2"):
            ms2 = eval_all(rs, repo, jobs=self.jobs2)
        self.tally.record(serialize_measures(ms2) == measures_text,
                          f"eval_all --jobs {self.jobs2}: measures differ from --jobs 1")

        same = True
        for rule in rs.rules:
            with span("engine.eval_rule", rule=rule.id, kind=rule.kind_name,
                      rows=_rows_scanned(rule, repo)):
                measure = eval_rule(rule, repo, rs)
            same = same and measure == ms.measures[rule.id]
        self.tally.record(same, "eval_rule: a measure differs from eval_all's")

        ref = rs.reference_time
        rows = 0
        with span("expr.evaluate") as record:
            for rule in rs.rules:
                entity = repo.entities[rule.entity]
                for e in _row_expressions(rule):
                    for i in range(entity.n_rows):
                        evaluate(e, RowView(entity, i), ref)
                    rows += entity.n_rows
        record["rows"] = rows

        with span("reporting.build_improvement"):
            manifests = build_improvement(report, ms)
        out = self.work / "traced_improve"
        shutil.rmtree(out, ignore_errors=True)
        with span("reporting.write_improvement"):
            write_improvement(manifests, report, out)
        manifest_bytes = sum(p.stat().st_size for p in out.iterdir())

        spec, catalog, oracle_rs, _ = self.synth
        with span("synthkit.generate"):
            expected = synthkit.generate(spec, catalog, oracle_rs, None)
        self.tally.record(expected == self.expected,
                          "synthkit.generate: in-memory oracle differs from the file")

        rewrite = self.work / "rewrite"
        rewrite.mkdir(parents=True, exist_ok=True)
        with span("dataset.write_entity"):
            for name, entity in repo.entities.items():
                write_entity(entity, rewrite / f"{name}.csv")

        self.last = (rs, repo)
        return core_s, {"reporting.report_mb": len(report_text.encode("utf-8")) / MB,
                        "reporting.measures_mb": len(measures_text.encode("utf-8")) / MB,
                        "reporting.manifest_mb": manifest_bytes / MB,
                        "engine.failing_total": sum(m.failing_total for m in ms)}

    def run(self, seconds: float) -> dict:
        core(self.inputs, None)  # warm-up: lazy imports, regex cache, page cache
        startup_s, startup_ok = _startup_s(self.src, self.work / "children.log")
        self.tally.record(startup_ok, "dq --version exited non-zero")
        load_rss_mb = _load_rss_mb(self.inputs, self.src, self.work / "children.log")
        self.tally.record(load_rss_mb is not None, "load_snapshot child process failed")

        tracer = Tracer()
        untraced_times, core_times = [], []
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            core(self.inputs, None)
            untraced_times.append(time.perf_counter() - started)
            with tracer:
                core_s, sizes = self.repetition(tracer)
            core_times.append(core_s)
            if time.perf_counter() >= deadline:
                break
        spans = tracer.finish()
        metrics, per_kind = summarize(spans, len(core_times))
        sizes_in = input_sizes(*self.last, self.inputs)
        metrics.update(sizes)
        metrics.update({
            "dataset.load_rss_mb": load_rss_mb or 0.0,
            "dataset.dedup_overflow_cols": sum(
                len(e["columns_over_dedup_cap"]) for e in sizes_in["entities"].values()),
            "cli.startup_s": startup_s,
            "trace.overhead_s": (statistics.median(core_times)
                                 - statistics.median(untraced_times)),
        })
        return {"metrics": metrics, "per_kind": per_kind, "spans": spans,
                "tally": self.tally,
                "input_sizes": sizes_in, "repetitions": len(core_times)}


def summarize(spans: list[dict], reps: int) -> tuple[dict, dict]:
    """Per-layer metrics: each span total divided over the repetitions.

    Totals over all repetitions divided by their count are the mean per
    repetition; rates are total work over total time.
    """
    def total(name, pred=lambda s: True, key="duration_s"):
        return sum(s[key] for s in spans if s["name"] == name and pred(s))

    def per_rep(name, pred=lambda s: True, key="duration_s"):
        return total(name, pred, key) / reps

    jobs1 = lambda s: s["role"] == "jobs1"  # noqa: E731
    jobs2 = lambda s: s["role"] == "jobs2"  # noqa: E731
    load_s = total("dataset.load_entity")
    eval_s = per_rep("engine.eval_all", jobs1)
    eval_jobs2_s = per_rep("engine.eval_all", jobs2)
    expr_s = total("expr.evaluate")
    expr_rows = total("expr.evaluate", key="rows")
    rule_spans = [s for s in spans if s["name"] == "engine.eval_rule"]
    slowest: dict[str, float] = {}
    for s in rule_spans:
        slowest[s["rule"]] = slowest.get(s["rule"], 0.0) + s["duration_s"]
    metrics = {
        "rules.parse_s": per_rep("rules.parse_ruleset"),
        "rules.validate_s": per_rep("rules.validate_ruleset"),
        "dataset.load_s": load_s / reps,
        "dataset.load_mb_per_s": total("dataset.load_entity", key="bytes") / MB / load_s,
        "dataset.load_cells_per_s": total("dataset.load_entity", key="cells") / load_s,
        "dataset.write_s": per_rep("dataset.write_entity"),
        "canonical.fingerprint_s": per_rep("canonical.snapshot_fingerprint"),
        "engine.eval_s": eval_s,
        "engine.eval_jobs2_s": eval_jobs2_s,
        "engine.jobs2_speedup": eval_s / eval_jobs2_s,
        "engine.slowest_rule_s": max(slowest.values()) / reps,
        "engine.gc_s": per_rep("engine.eval_all", jobs1, key="gc_total_s"),
        "expr.rows": expr_rows / reps,
        "expr.rows_per_s": expr_rows / expr_s if expr_rows else 0.0,
        "scoring.score_s": per_rep("scoring.score_all"),
        "reporting.build_s": per_rep("reporting.build_report"),
        "reporting.serialize_report_s": per_rep("reporting.serialize_report"),
        "reporting.serialize_measures_s": per_rep("reporting.serialize_measures"),
        "reporting.build_improvement_s": per_rep("reporting.build_improvement"),
        "reporting.write_improvement_s": per_rep("reporting.write_improvement"),
        "synthkit.generate_s": per_rep("synthkit.generate"),
    }
    per_kind = {}
    for kind in sorted({s["kind"] for s in rule_spans}):
        of_kind = [s for s in rule_spans if s["kind"] == kind]
        seconds = sum(s["duration_s"] for s in of_kind)
        per_kind[f"engine.kind.{kind}_s"] = seconds / reps
        per_kind[f"engine.kind.{kind}_rows_per_s"] = (
            sum(s["rows"] for s in of_kind) / seconds)
    return metrics, per_kind
