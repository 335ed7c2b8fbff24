"""Loading and evaluating a snapshot file in row ranges gives what one range
gives: the same measures, report and measures bytes, or the same error."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import PERSON_CSV, PERSON_SCHEMA, make_ruleset, rule
from dqeval import __version__, dataset, engine, ranges
from dqeval.cli import main
from dqeval.dataset import ColumnSchema, EntitySchema, SchemaCatalog, load_snapshot
from dqeval.errors import DqError, EvalError
from dqeval.reporting import build_report, serialize_measures, serialize_report
from dqeval.rules import KINDS, parse_ruleset, validate_ruleset
from dqeval.scoring import default_config, score_all
from test_dataset import _NARROW, _WIDE, _quoted

SRC = Path(__file__).resolve().parents[1] / "src"

# The entity the files are cut from is "t"; "r" is what its foreign key reads,
# so it loads whole.
_REFERENCED = EntitySchema("r", (ColumnSchema("t", "text", True),))
_REFERENCED_CSV = b"t\nx\na\n\xc3\xa9\xe2\x82\xac\n"


def _rule(rule_id: str, columns: list, kind: str, params: dict, **extra) -> dict:
    return rule(rule_id, "t", columns, KINDS[kind].properties[0].name, kind, params,
                **extra)


def _rules(schema: EntitySchema) -> str:
    """Row-local rules of every ranged kind over `schema`, a foreign key into
    the whole entity, and min_count, which runs on the summed row count."""
    has = set(schema.column_names())
    rules = [
        _rule("syn", ["t"], "syntax", {"pattern": "^[a1]+$"}),
        _rule("nn", ["t"], "not_null", {}),
        _rule("fk", ["t"], "foreign_key", {"referenced": "r.t"}, skip_null=True),
        _rule("many", [], "min_count", {"threshold": 3}),
        _rule("p", [], "predicate", {"expr": "len(t) >= 2"}, where="t != 'x'"),
    ]
    if "n" in has:
        rules += [_rule("rng", ["n"], "range", {"min": 0, "max": 5}, where="n != 3"),
                  _rule("pn", [], "predicate", {"expr": "n > 0 or t = 'a'"})]
    if {"u", "b"} <= has:
        rules += [_rule("nd", ["u"], "no_default", {"placeholders": ["x", ""]},
                        where="b = true"),
                  _rule("dom", ["u"], "domain", {"allowed": ["a", "1"]})]
    return make_ruleset(rules)


def _outcome(rs, evaluate):
    """The measures, report bytes and measures bytes of evaluate(), or the
    class and message of the error it raises."""
    try:
        repo, ms = evaluate()
        config = default_config()
        report = build_report(rs, repo, ms, score_all(ms, rs, config), config,
                              __version__)
        return ms, serialize_report(report), serialize_measures(ms)
    except DqError as exc:
        return type(exc), str(exc)


# Fields that load, per column of _WIDE and _NARROW: quoted ones hold
# separators, newlines, CRLF and doubled quotes; "" and \\N unquoted are nulls.
_GOOD = {
    "t": _quoted | st.sampled_from(["", "\\N", "x", "a", "1", "aa", "é€"]),
    "u": _quoted | st.sampled_from(["x", "a", "1", "a\rb"]),
    "n": st.sampled_from(["1", "-7", "3", "", "\\N", '"12"']),
    "b": st.sampled_from(["true", "false", '"true"']),
}
# Records that do not load: a field too many or too few, an unterminated
# quote, a bad integer or boolean, a null where none may be.
_BAD = {"t": ['a,b', '"open'], "u": [",,,,", "x,,1,true", "x,y,abc,true"],
        "n": ["x,y,1,yes"], "b": ["x,y,1,maybe"]}


@st.composite
def _files(draw) -> tuple[EntitySchema, bytes]:
    """A schema and a file for it: records that load, each ended by a newline
    or CRLF, the last maybe by none; now and then one record that does not
    load, or a byte that is not UTF-8."""
    schema = draw(st.sampled_from([_WIDE, _NARROW]))
    names = schema.column_names()
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(",".join(draw(_GOOD[name]) for name in names))
    damage = draw(st.integers(0, 5))
    if damage == 0:
        bad = draw(st.sampled_from([b for name in names for b in _BAD[name]]))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    data = text.encode("utf-8")
    if damage == 1:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return schema, data


def _boundaries(data: bytes) -> list[int]:
    """Every offset short of the end that follows a newline with an even
    number of quote characters before it: the record boundaries."""
    found, odd = [], 0
    for i, byte in enumerate(data):
        if byte == ord('"'):
            odd ^= 1
        elif byte == ord("\n") and not odd and i + 1 < len(data):
            found.append(i + 1)
    return found


def _reference_cuts(data: bytes, parts: int) -> list[int]:
    size, bounds, cuts = len(data), _boundaries(data), [0]
    for i in range(1, parts):
        target = max(size * i // parts, cuts[-1])
        later = [b for b in bounds if b > target]
        if not later:
            break
        cuts.append(later[0])
    return cuts + [size]


@settings(max_examples=200, deadline=None)
@given(file=_files(), picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
       chunk=st.sampled_from([1, 3, 65536]), cap=st.sampled_from([0, 1, 2, 10**6]))
# quoted newlines and doubled quotes, CRLF, and no final newline
@example(file=(EntitySchema("t", (ColumnSchema("t", "text", True),)),
               b't\n"a\n1"\r\n""""\nx\n"a""\n"\n\\N\n\nx'),
         picks=[1, 2, 4], chunk=3, cap=10**6)
# a bad row in the last range, and bytes that are not UTF-8 after it
@example(file=(EntitySchema("t", (ColumnSchema("t", "text", True),
                                  ColumnSchema("n", "integer", True))),
               b"t,n\na,1\nx,2\nb,abc\nx,\xff\n"), picks=[0, 1, 2], chunk=65536,
         cap=10**6)
# failing pairs in every range, capped in the first
@example(file=(EntitySchema("t", (ColumnSchema("t", "text", True),)),
               b"t\nb\nb\nb\nb\nb\nb\n"), picks=[1, 3], chunk=65536, cap=2)
def test_ranges_give_what_one_range_gives(file, picks, chunk, cap):
    """Any record boundaries, 1 to 4 ranges, any chunk size and failing cap:
    the MeasureSet, report bytes and measures bytes of the one-range path,
    or its error's class and message."""
    schema, data = file
    schema = EntitySchema("t", schema.columns, (schema.columns[0].name,))
    catalog = SchemaCatalog((schema, _REFERENCED))
    rs = parse_ruleset(_rules(schema))
    assert [d for d in validate_ruleset(rs, catalog) if d.level == "ERROR"] == []
    bounds = _boundaries(data)
    cuts = [0, *sorted({bounds[p % len(bounds)] for p in picks} if bounds else ()),
            len(data)]
    with tempfile.TemporaryDirectory() as d:
        directory = Path(d)
        (directory / "t.csv").write_bytes(data)
        (directory / "r.csv").write_bytes(_REFERENCED_CSV)
        for parts in range(1, 5):
            assert dataset._record_cuts(directory / "t.csv", parts)[1] == \
                _reference_cuts(data, parts)
        before = dataset._record_cuts(directory / "t.csv", 1)[0]
        with mock.patch.object(engine, "DEFAULT_FAILING_CAP", cap):
            expected = _outcome(rs, lambda: (repo := load_snapshot(directory, catalog),
                                             engine.eval_all(rs, repo)))
        whole_loads = []
        with mock.patch.object(ranges, "_record_cuts", lambda path, parts: (before, cuts)), \
                mock.patch.object(engine, "DEFAULT_FAILING_CAP", cap), \
                mock.patch.object(engine, "RANGE_BREAK_EVEN_BYTES", 0), \
                mock.patch.object(engine, "usable_cpus", lambda: 4), \
                mock.patch.object(engine, "load_snapshot",
                                  lambda *a: whole_loads.append(a) or load_snapshot(*a)), \
                mock.patch.object(dataset, "_CHUNK_BYTES", chunk):
            got = _outcome(rs, lambda: engine.evaluate_snapshot(rs, directory, catalog, 4))
    assert got == expected
    if len(cuts) > 2 and not isinstance(expected[0], type):
        assert whole_loads == []  # a file that loads, loaded in ranges


@pytest.mark.parametrize("body, whole", [
    (rule("r", "t", ["t"], "EXAC_SINT", "syntax", {"pattern": "^a$"}), set()),
    (rule("r", "t", [], "COMP_FICH", "min_count", {"threshold": 3}), set()),
    (rule("r", "t", [], "CONS_SEMAN", "predicate", {"expr": "len(t) > 1"},
          where="t != 'x'"), set()),
    (rule("r", "t", ["t"], "INT_REF", "foreign_key", {"referenced": "r.t"}), {"r"}),
    (rule("r", "t", ["t"], "EXAC_SEMAN", "domain", {"reference": "r.t"}), {"r"}),
    (rule("r", "t", ["t"], "INT_REF", "foreign_key", {"referenced": "t.u"}), {"t"}),
    (rule("r", "t", [], "RIES_INCO", "unique", {"key": ["t"]}), {"t"}),
    (rule("r", "t", [], "FREC_ACT", "frequency",
          {"timestamp_column": "at", "max_gap": "1d"}), {"t"}),
    (rule("r", "t", ["t"], "CONS_FORM", "format_class",
          {"class": "c", "extra_targets": [["r", "t"]]}), {"t", "r"}),
    (rule("r", "t", ["t", "u"], "CONS_FORM", "format_class", {"class": "c"}), set()),
], ids=["syntax", "min_count", "predicate", "foreign_key", "domain-reference",
        "self-reference", "unique", "frequency", "cross-entity-format", "format"])
def test_entities_that_stay_whole(body, whole):
    """Only row-local rules over their own entity let it be cut; what a
    membership check reads, and what any other rule reads, stays whole."""
    rs = parse_ruleset(make_ruleset([body], format_classes={"c": "^a$"}))
    assert engine._whole(rs) == whole


# --------------------------------------------------------------------------
# workers: failure, reaping, imports


@pytest.fixture
def large(tmp_path: Path, monkeypatch):
    """A workspace whose person.csv is cut into two ranges."""
    rows = PERSON_CSV.splitlines(keepends=True)
    (tmp_path / "schema.json").write_text(json.dumps(PERSON_SCHEMA))
    (tmp_path / "rules.json").write_text(make_ruleset([
        rule("r1", "person", ["id"], "EXAC_SINT", "syntax",
             {"pattern": "^[0-9]{8}[A-Z]$"})]))
    snap = tmp_path / "snapshot"
    snap.mkdir()
    (snap / "person.csv").write_text(rows[0] + "".join(rows[1:]) * 50)
    (snap / "warning.csv").write_text("wid,type,person_id\n")
    monkeypatch.setattr(engine, "RANGE_BREAK_EVEN_BYTES", 0)
    monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
    return tmp_path


def _argv(workspace: Path) -> list[str]:
    return ["evaluate", "--rules", str(workspace / "rules.json"),
            "--schema", str(workspace / "schema.json"),
            "--data", str(workspace / "snapshot"),
            "--out", str(workspace / "out"), "--jobs", "2"]


def _timed_out(signum, frame):
    raise TimeoutError("evaluate did not return within 10 s")


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _run_bounded(argv: list[str]) -> int:
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_ranges_equal_one_range_through_the_cli(large):
    assert main(_argv(large)) == 0
    ranged = _contents(large / "out")
    assert main(_argv(large)[:-1] + ["1"]) == 0
    assert ranged == _contents(large / "out")


def _worker_takes_a_range(monkeypatch, died: Path, fault) -> list:
    """_evaluate_ranges patched so that the forked worker, on the first range
    it takes, leaves a file at `died` and then calls fault(), while this
    process holds the first range it takes until that file is there: the
    worker thus always takes one. Returns the ranges this process takes."""
    parent = os.getpid()
    real = ranges._evaluate_ranges
    taken = []

    def body(*args):
        if os.getpid() != parent:
            died.touch()
            fault()
        while not died.exists():
            time.sleep(0.001)
        taken.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ranges, "_evaluate_ranges", body)
    return taken


def _person_ranges(workspace: Path) -> list:
    cuts = dataset._record_cuts(workspace / "snapshot" / "person.csv", 2)[1]
    return [("person", start, stop) for start, stop in zip(cuts, cuts[1:])]


def test_dead_worker_is_a_named_error(large, monkeypatch, capsys):
    """A worker that dies gives EvalError, exit 4, naming the range it held
    and none that this process measured; nothing is written, and no worker
    is left running or unreaped."""
    taken = _worker_takes_a_range(monkeypatch, large / "died", lambda: os._exit(1))
    started = time.monotonic()
    assert _run_bounded(_argv(large)) == 4
    assert time.monotonic() - started < 10
    [(_, start, stop)] = [r for r in _person_ranges(large) if r not in taken]
    assert capsys.readouterr().err == ("error: a worker process died while evaluating "
                                       f"person.csv bytes {start}-{stop}\n")
    assert not (large / "out").exists()
    assert _no_children()


def test_failing_parent_kills_and_reaps_its_workers(large, monkeypatch, capsys):
    """An error in this process's own range stops the workers, however long
    they would run."""
    parent = os.getpid()

    def body(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise EvalError("this process's range failed")

    monkeypatch.setattr(ranges, "_evaluate_ranges", body)
    started = time.monotonic()
    assert _run_bounded(_argv(large)) == 4
    assert time.monotonic() - started < 10
    assert capsys.readouterr().err == "error: this process's range failed\n"
    assert _no_children()


def test_worker_that_cannot_start_leaves_one_range(large, monkeypatch):
    """A fork refused (a process limit reached) gives the one-range path's
    outputs, not an error."""
    assert main(_argv(large)[:-1] + ["1"]) == 0
    one_range = _contents(large / "out")

    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    with mock.patch.object(engine, "load_snapshot", wraps=load_snapshot) as whole:
        assert main(_argv(large)) == 0
    assert whole.call_count == 1
    assert _contents(large / "out") == one_range
    assert _no_children()


def test_worker_error_is_raised_in_the_parent(large, monkeypatch, capsys):
    def fail():
        raise EvalError("a worker's range failed")

    _worker_takes_a_range(monkeypatch, large / "failed", fail)
    assert _run_bounded(_argv(large)) == 4
    assert capsys.readouterr().err == "error: a worker's range failed\n"
    assert not (large / "out").exists()
    assert _no_children()


def test_parent_takes_every_range_a_late_worker_leaves(large, monkeypatch):
    """A worker that starts pulling only once this process has taken every
    range gets none: the outputs are the one-range path's, and the one
    worker forked is reaped."""
    assert main(_argv(large)[:-1] + ["1"]) == 0
    one_range = _contents(large / "out")
    every = _person_ranges(large)
    assert len(every) == 2
    done = large / "done"
    real_evaluate, real_fork = ranges._evaluate_ranges, ranges._fork
    taken, forks = [], []

    def body(*args):
        taken.append(args[-1])
        if len(taken) == len(every):
            done.touch()
        return real_evaluate(*args)

    def late(cpu, cpus, work):
        def pull():
            while not done.exists():
                time.sleep(0.001)
            return work()

        forks.append(cpu)
        return real_fork(cpu, cpus, pull)

    monkeypatch.setattr(ranges, "_evaluate_ranges", body)
    monkeypatch.setattr(ranges, "_fork", late)
    assert _run_bounded(_argv(large)) == 0
    assert taken == every
    assert len(forks) == 1
    assert _contents(large / "out") == one_range
    assert _no_children()


@pytest.mark.parametrize("jobs, forks, modules", [
    ("1", 0, []), ("2", 1, ["pickle"])], ids=["one-range", "ranged"])
def test_only_the_ranged_path_imports_pickle(large, jobs, forks, modules):
    """The one-range path imports neither pickle nor the ranges module, and no
    path imports multiprocessing."""
    script = (
        "import os, sys\n"
        "from dqeval import engine\n"
        "from dqeval.cli import main\n"
        "engine.usable_cpus = lambda: 2\n"
        "engine.RANGE_BREAK_EVEN_BYTES = 0\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        f"code = main({_argv(large)[:-1] + [jobs]!r})\n"
        "print(code, len(forks), [m for m in ('pickle', 'multiprocessing',"
        " 'concurrent.futures') if m in sys.modules],"
        " 'dqeval.ranges' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {forks} {modules} {bool(forks)}"
