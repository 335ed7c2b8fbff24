from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import (PERSON_CSV, PERSON_SCHEMA, WARNING_CSV, growing_reader,
                      make_ruleset, rule)
from dqeval import __version__, canonical, engine, errors
from dqeval.errors import EvalError
from dqeval.cli import build_parser, main
from dqeval.scenarios import write_scenario

RULES_DOC = make_ruleset([
    rule("r1", "person", ["id"], "EXAC_SINT", "syntax",
         {"pattern": "^[0-9]{8}[A-Z]$"}),
    rule("r3", "warning", ["type"], "EXAC_SEMAN", "domain",
         {"allowed": ["IT GENERAL", "SUPERCOMPUTATION", "HR"]}),
])


@pytest.fixture
def workspace(tmp_path: Path):
    (tmp_path / "rules.json").write_text(RULES_DOC)
    (tmp_path / "schema.json").write_text(json.dumps(PERSON_SCHEMA))
    snap = tmp_path / "snapshot"
    snap.mkdir()
    (snap / "person.csv").write_text(PERSON_CSV)
    (snap / "warning.csv").write_text(WARNING_CSV)
    return tmp_path


def _evaluate(workspace: Path, *extra: str) -> int:
    return main(["evaluate",
                 "--rules", str(workspace / "rules.json"),
                 "--schema", str(workspace / "schema.json"),
                 "--data", str(workspace / "snapshot"),
                 "--out", str(workspace / "out"), *extra])


# --------------------------------------------------------------------------
# validate

def test_validate_ok(workspace, capsys):
    code = main(["validate", "--rules", str(workspace / "rules.json"),
                 "--schema", str(workspace / "schema.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_validate_missing_column_exits_3(workspace, capsys):
    (workspace / "bad.json").write_text(make_ruleset([
        rule("r", "person", ["foo"], "EXAC_SINT", "syntax", {"pattern": "x"})]))
    code = main(["validate", "--rules", str(workspace / "bad.json"),
                 "--schema", str(workspace / "schema.json")])
    assert code == 3
    assert "ERROR r:" in capsys.readouterr().out


def test_validate_unreadable_file_exits_1(workspace, capsys):
    code = main(["validate", "--rules", str(workspace / "absent.json"),
                 "--schema", str(workspace / "schema.json")])
    assert code == 1


@pytest.mark.parametrize("argv, what", [
    (["validate", "--rules", "bad.json", "--schema", "schema.json"], "rules file"),
    (["validate", "--rules", "rules.json", "--schema", "bad.json"], "schema file"),
    (["evaluate", "--rules", "rules.json", "--schema", "schema.json", "--data",
      "snapshot", "--out", "out", "--config", "bad.json"], "config file"),
    (["certify", "bad.json"], "report"),
    (["improve", "--report", "out/report.json", "--measures", "bad.json", "--out",
      "manifests"], "measures file"),
    (["synth", "--spec", "bad.json", "--schema", "schema.json", "--rules",
      "rules.json", "--out", "synth"], "synth spec"),
], ids=["rules", "schema", "config", "report", "measures", "synth-spec"])
def test_input_document_not_utf8_exits_1(workspace, capsys, monkeypatch, argv, what):
    """An input document that is not UTF-8 is named, exit 1, as an unreadable
    one is."""
    _evaluate(workspace)
    (workspace / "bad.json").write_bytes(b"\xff\xfe{}")
    monkeypatch.chdir(workspace)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot read {what} bad.json: not valid UTF-8\n"


# --------------------------------------------------------------------------
# evaluate

def test_evaluate_writes_report_and_measures(workspace):
    assert _evaluate(workspace) == 0
    report = json.loads((workspace / "out" / "report.json").read_text())
    assert report["verdict"]["eligible"] is True
    assert (workspace / "out" / "measures.json").is_file()


def test_evaluate_exit_0_even_when_quality_poor(workspace):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("r", "person", ["id"], "EXAC_SINT", "syntax",
             {"pattern": "^NEVER$"})]))
    assert _evaluate(workspace) == 0


def test_evaluate_error_exits_4(workspace, capsys, monkeypatch):
    """An evaluation error is printed once and exits 4, before any output
    is written."""
    def fail(*args, **kwargs):
        raise EvalError("rule 'r1': worker died")
    monkeypatch.setattr(engine, "eval_all", fail)
    assert _evaluate(workspace) == 4
    assert capsys.readouterr().err == "error: rule 'r1': worker died\n"
    assert not (workspace / "out" / "report.json").exists()


# Every error class's exit status, as README's CLI summary documents it.
_STATUS = {"DqError": 1, "ParseError": 3, "LoadError": 1, "UnknownColumn": 1,
           "EvalError": 4, "OutOfRange": 1, "NothingEvaluated": 3,
           "FingerprintMismatch": 5, "ScopeMismatch": 5, "SynthError": 3,
           "ConflictingPlan": 3, "InvalidRuleset": 3}


@pytest.mark.parametrize("name", list(_STATUS))
def test_each_error_class_exits_with_its_status(workspace, capsys, monkeypatch, name):
    """An error raised inside a command exits with its class's status and
    one `error: message` line; InvalidRuleset's message, its ERROR lines, is
    printed as it is."""
    cls = getattr(errors, name)

    def fail(*args, **kwargs):
        raise cls("what went wrong")
    monkeypatch.setattr(engine, "eval_all", fail)
    assert _evaluate(workspace) == _STATUS[name]
    prefix = "" if cls is errors.InvalidRuleset else "error: "
    assert capsys.readouterr().err == f"{prefix}what went wrong\n"
    assert not (workspace / "out").exists()


def test_every_error_class_has_a_documented_status():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    summary = readme.split("## CLI summary", 1)[1].split("\n## ", 1)[0]
    cells = [row.rsplit("|", 2)[1] for row in summary.splitlines()
             if row.startswith("| `dq")]
    documented = {int(code) for code in re.findall(r"(\d) [a-z]", "".join(cells))
                  + re.findall(r"exit (\d)", summary)}
    classes = {name for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.DqError)}
    assert classes == set(_STATUS)
    assert set(_STATUS.values()) <= documented


def test_evaluate_chars_filter(workspace):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("acc", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": ".*"}),
        rule("cons", "person", [], "CONS_SEMAN", "predicate",
             {"expr": "age >= 0"}),
    ]))
    assert _evaluate(workspace, "--chars", "Accuracy") == 0
    report = json.loads((workspace / "out" / "report.json").read_text())
    chars = {c["characteristic"] for c in report["characteristics"]}
    assert chars == {"Accuracy"}
    assert {m["rule_id"] for m in report["measures"]} == {"acc"}
    assert main(["certify", str(workspace / "out" / "report.json")]) == 0


def test_evaluate_invalid_char_filter_exits_1(workspace):
    assert _evaluate(workspace, "--chars", "Velocity") == 1


def test_evaluate_empty_snapshot_dir_exits_1(workspace, capsys):
    empty = workspace / "empty"
    empty.mkdir()
    code = main(["evaluate", "--rules", str(workspace / "rules.json"),
                 "--schema", str(workspace / "schema.json"),
                 "--data", str(empty), "--out", str(workspace / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_evaluate_snapshot_that_grows_while_read_exits_1(workspace, capsys,
                                                        monkeypatch):
    from dqeval import dataset
    monkeypatch.setattr(dataset, "_CHUNK_BYTES", 64)
    monkeypatch.setattr(dataset, "_decoded", growing_reader(b"X\n"))
    assert _evaluate(workspace) == 1
    person = workspace / "snapshot" / "person.csv"
    assert capsys.readouterr().err == \
        f"error: snapshot file {person} changed while it was read\n"
    assert not (workspace / "out").exists()


def test_evaluate_text_format(workspace, capsys):
    assert _evaluate(workspace, "--format", "text") == 0
    assert (workspace / "out" / "report.txt").is_file()
    assert "VERDICT" in capsys.readouterr().out


def test_evaluate_write_that_fails_partway_keeps_the_old_outputs(workspace, monkeypatch):
    from dqeval import reporting
    assert _evaluate(workspace) == 0
    out = workspace / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real = reporting.serialize_measures
    monkeypatch.setattr(reporting, "serialize_measures",
                        lambda ms: real(ms)[:1] + "x" * 100_000 + "\ud800")
    with pytest.raises(UnicodeEncodeError):
        _evaluate(workspace)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_evaluate_validation_error_exits_3(workspace, capsys):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("r", "person", ["ghost"], "EXAC_SINT", "syntax", {"pattern": "x"})]))
    assert _evaluate(workspace) == 3


@pytest.mark.parametrize("argv, code, message", [
    (["evaluate", "--chars", "Accuracy", "--props", "COMP_REG"], 3,
     "no rules left after applying the characteristic/property filters"),
    (["evaluate", "--rules", "nope.json"], 1,
     "cannot read rules file nope.json: No such file or directory"),
    (["evaluate", "--chars", "Velocity"], 1,
     "invalid characteristic: unknown characteristic 'Velocity'; expected one of "
     "Accuracy, Completeness, Consistency, Credibility, Currentness"),
    (["synth", "--out", "o"], 1,
     "synth needs either --scenario or all of --spec/--schema/--rules"),
    (["synth", "--scenario", "nope", "--out", "o"], 1,
     "unknown scenario; available: travel-v1, travel-v2, registry-v1, registry-v2, "
     "school-v1, school-v2"),
    (["certify", "nope.json"], 1, "cannot read report nope.json: No such file or directory"),
], ids=["empty-filter", "unreadable-rules", "unknown-characteristic", "synth-no-input",
        "unknown-scenario", "unreadable-report"])
def test_refusal_exits_with_its_status_and_one_error_line(workspace, capsys, monkeypatch,
                                                          argv, code, message):
    """Refusals in the command shell itself: an empty rule filter is "nothing
    evaluated", exit 3; the others are usage or I/O errors, exit 1. Each
    prints one `error:` line and writes nothing."""
    monkeypatch.chdir(workspace)
    if argv[0] == "evaluate":
        argv = ["evaluate", "--rules", "rules.json", "--schema", "schema.json",
                "--data", "snapshot", "--out", "out", *argv[1:]]
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (workspace / "out").exists() and not (workspace / "o").exists()


# --------------------------------------------------------------------------
# certify

def test_certify_eligible_exit_0(workspace, capsys):
    _evaluate(workspace)
    assert main(["certify", str(workspace / "out" / "report.json")]) == 0
    assert "ELIGIBLE" in capsys.readouterr().out


def test_certify_not_eligible_exit_2(workspace, capsys):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("r", "person", ["id"], "EXAC_SINT", "syntax",
             {"pattern": "^NEVER$"})]))
    _evaluate(workspace)
    assert main(["certify", str(workspace / "out" / "report.json")]) == 2
    assert "Accuracy at level 2" in capsys.readouterr().out


def test_certify_corrupt_json_exit_1(workspace):
    (workspace / "broken.json").write_text("{nope")
    assert main(["certify", str(workspace / "broken.json")]) == 1


# --------------------------------------------------------------------------
# improve

def test_improve_writes_manifest_dir(workspace):
    _evaluate(workspace)
    code = main(["improve", "--report", str(workspace / "out" / "report.json"),
                 "--measures", str(workspace / "out" / "measures.json"),
                 "--out", str(workspace / "manifests")])
    assert code == 0
    index = json.loads((workspace / "manifests" / "index.json").read_text())
    assert {m["path"] for m in index["manifests"]} == {
        "person.EXAC_SINT.manifest.json", "warning.EXAC_SEMAN.manifest.json"}


def test_improve_zero_failures_empty_dir_with_index(workspace):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("r", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": ".*"})]))
    _evaluate(workspace)
    code = main(["improve", "--report", str(workspace / "out" / "report.json"),
                 "--measures", str(workspace / "out" / "measures.json"),
                 "--out", str(workspace / "manifests")])
    assert code == 0
    index = json.loads((workspace / "manifests" / "index.json").read_text())
    assert index["manifests"] == []


def test_improve_fingerprint_mismatch_exits_5(workspace):
    _evaluate(workspace)
    measures = json.loads((workspace / "out" / "measures.json").read_text())
    measures["snapshot_fingerprint"] = "0" * 64
    (workspace / "tampered.json").write_text(json.dumps(measures))
    code = main(["improve", "--report", str(workspace / "out" / "report.json"),
                 "--measures", str(workspace / "tampered.json"),
                 "--out", str(workspace / "manifests")])
    assert code == 5


def test_number_beyond_decimal_limits_is_an_input_error(workspace, capsys):
    """An exponent Decimal cannot hold is an error message, not a traceback,
    in every document the commands read back."""
    huge = "1e99999999999999999999"
    message = "a number's exponent is out of range\n"
    _evaluate(workspace)
    out = workspace / "out"
    for name in ("report.json", "measures.json"):
        text = (out / name).read_text()
        (workspace / name).write_text(text.replace('"ruleset_fingerprint"',
                                                   f'"x": {huge}, "ruleset_fingerprint"', 1))
    capsys.readouterr()
    assert main(["certify", str(workspace / "report.json")]) == 1
    assert capsys.readouterr().err == "error: malformed report: " + message
    assert main(["improve", "--report", str(out / "report.json"),
                 "--measures", str(workspace / "measures.json"),
                 "--out", str(workspace / "manifests")]) == 1
    assert capsys.readouterr().err == "error: invalid measures document: " + message
    (workspace / "config.json").write_text('{"thresholds": [20, 40, 70, %s]}' % huge)
    assert _evaluate(workspace, "--config", str(workspace / "config.json")) == 3
    assert capsys.readouterr().err == f"error: malformed config: number {huge} {_OUT_OF_RANGE}\n"


_TOO_DEEP = "arrays and objects nest deeper than the decoder's recursion allows"


@pytest.mark.parametrize("document, code, message", [
    ("rules", 3, f"malformed JSON: {_TOO_DEEP}"),
    ("schema", 3, f"malformed JSON: {_TOO_DEEP}"),
    ("config", 3, f"malformed config: malformed JSON: {_TOO_DEEP}"),
    ("certify-report", 1, f"malformed report: {_TOO_DEEP}"),
    ("compare-report", 1, f"malformed report: {_TOO_DEEP}"),
    ("improve-report", 1, f"malformed report: {_TOO_DEEP}"),
    ("improve-measures", 1, f"invalid measures document: {_TOO_DEEP}"),
])
def test_json_nested_too_deep_is_an_input_error(workspace, capsys, document, code,
                                                message):
    """100,000 nested arrays exhaust the JSON decoder's recursion: every
    document a command reads refuses them with a message, not a traceback."""
    _evaluate(workspace)
    deep, out = str(workspace / "deep.json"), workspace / "out"
    (workspace / "deep.json").write_text("[" * 100_000)
    rules, schema = str(workspace / "rules.json"), str(workspace / "schema.json")
    report, measures = str(out / "report.json"), str(out / "measures.json")
    argv = {
        "rules": ["validate", "--rules", deep, "--schema", schema],
        "schema": ["validate", "--rules", rules, "--schema", deep],
        "config": ["evaluate", "--rules", rules, "--schema", schema, "--data",
                   str(workspace / "snapshot"), "--out", str(workspace / "o2"),
                   "--config", deep],
        "certify-report": ["certify", deep],
        "compare-report": ["compare", report, deep],
        "improve-report": ["improve", "--report", deep, "--measures", measures,
                           "--out", str(workspace / "m")],
        "improve-measures": ["improve", "--report", report, "--measures", deep,
                             "--out", str(workspace / "m")],
    }[document]
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"


_LONE_SURROGATE = ("error: a string holds the lone surrogate U+D800, which UTF-8 "
                   "cannot encode\n")


@pytest.mark.parametrize("command", ["validate", "evaluate"])
def test_lone_surrogate_in_rules_exits_3(workspace, capsys, command):
    """A JSON escape of a lone UTF-16 surrogate decodes, but no output could
    hold it as UTF-8: the document is refused when read."""
    (workspace / "rules.json").write_text(make_ruleset([
        rule("r3", "warning", ["type"], "EXAC_SEMAN", "domain",
             {"allowed": ["HR", "\ud800"]})]))
    argv = ["validate", "--rules", str(workspace / "rules.json"),
            "--schema", str(workspace / "schema.json")]
    assert (main(argv) if command == "validate" else _evaluate(workspace)) == 3
    assert capsys.readouterr().err == _LONE_SURROGATE
    assert not (workspace / "out").exists()


def test_surrogate_pair_escape_still_loads(workspace, capsys):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("r3", "warning", ["type"], "EXAC_SEMAN", "domain",
             {"allowed": ["HR", "\U0001F600"]})]))
    assert "\\ud83d\\ude00" in (workspace / "rules.json").read_text()
    assert _evaluate(workspace) == 0
    assert "\U0001F600" in (workspace / "out" / "report.json").read_text("utf-8")


_SURROGATE = _LONE_SURROGATE.removeprefix("error: ").rstrip("\n")


@pytest.mark.parametrize("argv", [
    ["certify", "report.json"],
    ["compare", "out/report.json", "report.json"],
    ["compare", "out/report.json", "report.json", "--out", "cmp"],
    ["improve", "--report", "report.json", "--measures", "out/measures.json",
     "--out", "manifests"],
], ids=["certify", "compare", "compare-out", "improve"])
def test_lone_surrogate_in_a_report_exits_1(workspace, capsys, monkeypatch, argv):
    """A report that dq wrote, edited to hold a lone surrogate, is malformed:
    no output could hold the text as UTF-8, and certify must not read it."""
    _evaluate(workspace)
    text = (workspace / "out" / "report.json").read_text()
    (workspace / "report.json").write_text(
        re.sub(r'("ruleset_name": "[^"]*)"', r'\1\\ud800"', text, count=1))
    monkeypatch.chdir(workspace)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: malformed report: {_SURROGATE}\n")
    assert not (workspace / "cmp").exists() and not (workspace / "manifests").exists()


def test_lone_surrogate_in_measures_exits_1(workspace, capsys):
    """A record key holding a lone surrogate is refused when the measures are
    read, not when its manifest is written."""
    _evaluate(workspace)
    text = (workspace / "out" / "measures.json").read_text()
    (workspace / "measures.json").write_text(text.replace('"1234"', '"\\ud8001234"'))
    _improve_refused(workspace, capsys, 1, f"invalid measures document: {_SURROGATE}")


def test_surrogate_pair_escape_in_measures_still_loads(workspace):
    _evaluate(workspace)
    text = (workspace / "out" / "measures.json").read_text()
    (workspace / "measures.json").write_text(
        text.replace('"1234"', '"\\ud83d\\ude001234"'))
    assert main(["improve", "--report", str(workspace / "out" / "report.json"),
                 "--measures", str(workspace / "measures.json"),
                 "--out", str(workspace / "manifests")]) == 0
    manifests = "".join(p.read_text("utf-8") for p in (workspace / "manifests").iterdir())
    assert "\U0001F6001234" in manifests


def test_config_number_beyond_bounds_exits_3_at_once(workspace):
    """A config threshold too long to write out in full is refused while the
    config is read, before any exact arithmetic on it."""
    (workspace / "config.json").write_text('{"thresholds": [20, 40, 70, 1e-999999999]}')
    argv = ["evaluate", "--rules", str(workspace / "rules.json"),
            "--schema", str(workspace / "schema.json"),
            "--data", str(workspace / "snapshot"), "--out", str(workspace / "out"),
            "--config", str(workspace / "config.json")]
    script = ("import time\n"
              "from dqeval.cli import main\n"
              "start = time.perf_counter()\n"
              f"code = main({argv!r})\n"
              "print(code, time.perf_counter() - start)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
    code, seconds = proc.stdout.split()
    assert code == "3" and float(seconds) < 1
    assert proc.stderr == f"error: malformed config: number 1e-999999999 {_OUT_OF_RANGE}\n"
    assert not (workspace / "out").exists()


def _rewrite(source: Path, target: Path, path: tuple, value) -> None:
    doc = canonical.loads(source.read_text())
    place = doc
    for step in path[:-1]:
        place = place[step]
    place[path[-1]] = value
    target.write_text(canonical.dumps(doc))


def _differs(stated: str, derived: str) -> str:
    return f"{stated} where the measures give {derived}"


@pytest.mark.parametrize("path, value, message", [
    (("properties", 0, "value"), "abc",
     _differs('"value": "abc",', '"value": 75.0000,')),
    (("measures", 0, "ratio"), "0.75", _differs('"ratio": "0.75",', '"ratio": 0.7500,')),
    (("measures", 0, "ratio"), True, _differs('"ratio": true,', '"ratio": 0.7500,')),
    (("properties", 0, "level"), "3", _differs('"level": "3",', '"level": 4,')),
    (("characteristics", 0, "level"), Decimal("4.0"),
     _differs('"level": 4.0,', '"level": 4,')),
    (("verdict", "reasons"), [{"characteristic": "Accuracy", "level": "2"}],
     _differs('"reasons": [', '"reasons": []')),
    (("measures", 0, "a"), True, "a must be an integer, not True"),
    (("measures", 0, "b"), "4", "b must be an integer, not '4'"),
    (("measures", 0, "failing_total"), None, "failing_total must be an integer, not None"),
    (("properties", 0, "sum_a"), Decimal("3.5"), _differs('"sum_a": 3.5,', '"sum_a": 3,')),
    (("properties", 0, "sum_b"), False, _differs('"sum_b": false,', '"sum_b": 4,')),
    (("properties", 0, "rule_count"), "1",
     _differs('"rule_count": "1"', '"rule_count": 1')),
    (("characteristics", 0, "profile"), [0, 0, 0, 2], _differs("2", "2,")),
    (("characteristics", 0, "profile"), [0, 0, 0, 2, "0"], _differs('"0"', "0")),
    (("scope", "row_counts", "person"), "4", "person must be an integer, not '4'"),
    (("scope", "row_counts"), [1], "row_counts must be an object, not [1]"),
    (("scope", "rule_counts", "Accuracy"), True,
     _differs('"Accuracy": true,', '"Accuracy": 2,')),
    (("verdict", "eligible"), "false",
     _differs('"eligible": "false",', '"eligible": true,')),
    (("metadata", "config", "aggregation"), "median",
     "aggregation must be 'micro' or 'macro'"),
], ids=["value-text", "ratio-text", "ratio-bool", "property-level-text",
        "characteristic-level-decimal", "reason-level-text", "a-bool", "b-text",
        "failing-total-null", "sum-a-decimal", "sum-b-bool", "rule-count-text",
        "profile-four", "profile-text-member", "scope-row-count-text",
        "scope-row-counts-array",
        "scope-rule-count-bool", "eligible-text", "config-echo-aggregation"])
def test_report_numbers_of_the_wrong_type_exit_1(workspace, capsys, path, value, message):
    """certify, compare and improve refuse a report whose inputs are not of
    their type, or whose derived figures are not what the measures give, with
    a message instead of a traceback or a wrong figure: a text "false" is not
    a verdict, and certify must not read it as eligible."""
    _evaluate(workspace)
    _rewrite(workspace / "out" / "report.json", workspace / "report.json", path, value)
    _refused_by_every_reader(workspace, capsys, message)


def _refused_by_every_reader(workspace: Path, capsys, message: str) -> None:
    """certify, compare and improve each exit 1 on workspace/report.json with
    `message`, and write nothing."""
    out = workspace / "out"
    capsys.readouterr()
    expected = f"error: invalid report document: {message}\n"
    assert main(["certify", str(workspace / "report.json")]) == 1
    assert capsys.readouterr().err == expected
    assert main(["compare", str(out / "report.json"), str(workspace / "report.json"),
                 "--out", str(workspace / "cmp")]) == 1
    assert capsys.readouterr().err == expected
    assert main(["improve", "--report", str(workspace / "report.json"),
                 "--measures", str(out / "measures.json"),
                 "--out", str(workspace / "manifests")]) == 1
    assert capsys.readouterr().err == expected
    assert not (workspace / "cmp").exists() and not (workspace / "manifests").exists()


@pytest.mark.parametrize("first, counts, message", [
    (1, {"a": 5, "failing_total": 0}, "rule r1: a 5 and b 4 are not 0 <= a <= b"),
    (1, {"a": -1, "failing_total": 5}, "rule r1: a -1 and b 4 are not 0 <= a <= b"),
    (1, {"a": 0, "b": -1, "failing_total": -1},
     "rule r1: a 0 and b -1 are not 0 <= a <= b"),
    (1, {"failing_total": 2}, "rule r1: failing_total 2 is not b - a"),
    (2, {"a": 0, "b": 0, "failing_total": 0}, "no characteristic was evaluated"),
], ids=["a-above-b", "a-negative", "b-negative", "failing-total-not-b-minus-a",
        "every-b-zero"])
def test_report_measures_that_are_not_counts_exit_1(workspace, capsys, first, counts,
                                                    message):
    """A measure's A and B are counts with 0 <= A <= B, and its failing_total
    is B - A; a report with no applicable measure has no verdict."""
    _evaluate(workspace)
    doc = canonical.loads((workspace / "out" / "report.json").read_text())
    for measure in doc["measures"][:first]:
        measure.update(counts)
    (workspace / "report.json").write_text(canonical.dumps(doc))
    _refused_by_every_reader(workspace, capsys, message)


def test_report_listing_a_rule_twice_exits_1(workspace, capsys):
    """The person report with r1 listed a second time, as 0 of 4, and every
    derived figure written for the doubled list: evaluate never lists a rule
    twice, and certify must not score one twice."""
    from dqeval.reporting import _measure, _report
    from dqeval.scoring import load_config, score
    _evaluate(workspace)
    doc = canonical.loads((workspace / "out" / "report.json").read_text())
    first = doc["measures"][0]
    measures = [*map(_measure, doc["measures"]),
                _measure(dict(first, a=0, failing_total=first["b"]))]
    config = load_config(canonical.dumps(doc["metadata"]["config"]))
    doubled = _report(doc["metadata"], doc["scope"]["row_counts"], measures,
                      score([(p, a, b) for _, _, p, _, a, b, _, _ in measures], config))
    assert doubled["verdict"]["eligible"] is True
    (workspace / "report.json").write_text(canonical.dumps(doubled))
    _refused_by_every_reader(workspace, capsys, "rule r1 is listed twice")


@pytest.fixture(scope="module")
def travel_outputs(tmp_path_factory) -> Path:
    """travel-v1 with its evaluate outputs in `out`: not eligible, Accuracy at
    level 1."""
    s = tmp_path_factory.mktemp("travel")
    write_scenario("travel-v1", s)
    assert main(["evaluate", "--rules", str(s / "rules.json"), "--schema",
                 str(s / "schema.json"), "--data", str(s / "snapshot"),
                 "--out", str(s / "out"), "--jobs", "1"]) == 0
    return s


def test_forged_verdict_exits_1(travel_outputs, tmp_path, capsys):
    """travel-v1's report with only its verdict replaced by an eligible one:
    the measures it lists give Accuracy level 1, so no reader believes it."""
    (tmp_path / "out").symlink_to(travel_outputs / "out")
    _rewrite(travel_outputs / "out" / "report.json", tmp_path / "report.json",
             ("verdict",), {"eligible": True, "reasons": []})
    _refused_by_every_reader(tmp_path, capsys,
                             '"eligible": true, where the measures give "eligible": false,')


@pytest.mark.parametrize("path, value, message", [
    (("measures", 0, "selector"), 5, "selector must be a string or null, not 5"),
    (("measures", 0, "rule_id"), 7, "rule_id must be a string, not 7"),
    (("measures", 0, "rule_id"), ["a"], "rule_id must be a string, not ['a']"),
    (("measures", 0, "entity"), None, "entity must be a string, not None"),
    (("measures", 0, "kind"), True, "kind must be a string, not True"),
    (("metadata", "reference_time"), 5, "reference_time must be a string, not 5"),
    (("metadata", "ruleset_name"), ["x"], "ruleset_name must be a string, not ['x']"),
    (("metadata", "tool_version"), Decimal("1.0"),
     "tool_version must be a string, not Decimal('1.0')"),
], ids=["selector-number", "rule-id-number", "rule-id-array", "entity-null",
        "kind-bool", "reference-time-number", "ruleset-name-array",
        "tool-version-number"])
def test_report_texts_of_the_wrong_type_exit_1(workspace, capsys, path, value, message):
    """A report's metadata texts, rule ids, entities and kinds are strings and
    its selectors strings or null: improve would copy anything else into the
    manifests."""
    _evaluate(workspace)
    _rewrite(workspace / "out" / "report.json", workspace / "report.json", path, value)
    _refused_by_every_reader(workspace, capsys, message)


def _improve_refused(workspace: Path, capsys, code: int, message: str) -> None:
    """improve exits `code` with `message` on workspace/measures.json and the
    report it was evaluated with, and writes nothing."""
    out = workspace / "out"
    capsys.readouterr()
    assert main(["improve", "--report", str(out / "report.json"),
                 "--measures", str(workspace / "measures.json"),
                 "--out", str(workspace / "manifests")]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "manifests").exists()


@pytest.mark.parametrize("key, value, message", [
    ("failing_total", "90", "failing_total must be an integer, not '90'"),
    ("a", True, "a must be an integer, not True"),
    ("b", Decimal("5.0"), "b must be an integer, not Decimal('5.0')"),
], ids=["failing-total-text", "a-bool", "b-decimal"])
def test_measures_numbers_of_the_wrong_type_exit_1(workspace, capsys, key, value, message):
    """improve refuses a measures document whose counts are not integers
    rather than copying them into the manifests."""
    _evaluate(workspace)
    _rewrite(workspace / "out" / "measures.json", workspace / "measures.json",
             ("measures", 0, key), value)
    _improve_refused(workspace, capsys, 1, f"invalid measures document: {message}")


@pytest.mark.parametrize("edit, code, message", [
    (lambda ms: ms[0].update(a=0, failing_total=999999), 1,
     "invalid measures document: rule r1: failing_total 999999 is not b - a"),
    (lambda ms: ms[0].update(a=5, failing_total=-1), 1,
     "invalid measures document: rule r1: a 5 and b 4 are not 0 <= a <= b"),
    (lambda ms: ms[0].update(a=4, failing_total=0), 1,
     "invalid measures document: rule r1: 1 failing records listed, more than "
     "failing_total 0"),
    (lambda ms: ms.append(ms[0]), 1,
     "invalid measures document: rule r1 is listed twice"),
    (lambda ms: ms.pop(0), 5, "report and measures disagree on rule 'r1'"),
    (lambda ms: ms.pop(), 5, "report and measures disagree on rule 'r3'"),
    (lambda ms: ms[0].update(a=4, failing_total=0, failing=[]), 5,
     "report and measures disagree on rule 'r1'"),
    (lambda ms: ms.reverse(), 5, "report and measures disagree on rule 'r1'"),
    (lambda ms: ms.append(dict(ms[1], rule_id="r9")), 5,
     "report and measures disagree on rule 'r9'"),
], ids=["edited-total", "a-above-b", "more-records-than-total", "repeated",
        "first-deleted", "last-deleted", "other-counts", "reordered", "rule-added"])
def test_measures_that_disagree_with_their_report_are_refused(workspace, capsys, edit,
                                                              code, message):
    """A measures document states consistent counts (0 <= a <= b, failing_total
    = b - a, no more records than failing_total; exit 1), and the report's
    rules in its order with its (a, b) (exit 5): the manifests would otherwise
    state one rule's total against another's records, or silently drop a
    rule."""
    _evaluate(workspace)
    doc = canonical.loads((workspace / "out" / "measures.json").read_text())
    edit(doc["measures"])
    (workspace / "measures.json").write_text(canonical.dumps(doc))
    _improve_refused(workspace, capsys, code, message)


# --------------------------------------------------------------------------
# compare

def test_compare_self_zero_deltas(workspace, capsys):
    _evaluate(workspace)
    report = str(workspace / "out" / "report.json")
    assert main(["compare", report, report,
                 "--out", str(workspace / "cmp")]) == 0
    doc = json.loads((workspace / "cmp" / "comparison.json").read_text())
    assert doc["regression"] is False
    assert all(p["value_delta"] == 0 for p in doc["properties"])


def test_compare_different_ruleset_names_exits_5(workspace):
    _evaluate(workspace)
    (workspace / "rules.json").write_text(make_ruleset(
        [rule("r1", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": ".*"})],
        name="other"))
    main(["evaluate", "--rules", str(workspace / "rules.json"),
          "--schema", str(workspace / "schema.json"),
          "--data", str(workspace / "snapshot"),
          "--out", str(workspace / "out2")])
    code = main(["compare", str(workspace / "out" / "report.json"),
                 str(workspace / "out2" / "report.json")])
    assert code == 5


# --------------------------------------------------------------------------
# synth

def test_synth_scenario_roundtrip(tmp_path: Path):
    assert main(["synth", "--scenario", "travel-v1",
                 "--out", str(tmp_path / "t1")]) == 0
    assert (tmp_path / "t1" / "snapshot" / "expected_measures.json").is_file()


def test_synth_unknown_scenario_exits_1(tmp_path: Path):
    assert main(["synth", "--scenario", "nope", "--out", str(tmp_path)]) == 1


def test_synth_spec_mode(workspace, tmp_path: Path):
    spec = {
        "seed": 3,
        "entities": {
            "person": {"rows": 20, "columns": {
                "id": {"generator": "serial", "format": "{n:08d}A"},
                "ipaddress": {"generator": "const", "value": "1.2.3.4"},
                "age": {"generator": "int_uniform", "min": 20, "max": 60},
                "balance": {"generator": "decimal_uniform", "min": "0.00",
                            "max": "10.00", "places": 2},
                "active": {"generator": "const", "value": True},
                "updated": {"generator": "timestamp_uniform",
                            "start": "2024-05-01T00:00:00Z",
                            "end": "2024-05-30T00:00:00Z"},
            }},
            "warning": {"rows": 10, "columns": {
                "wid": {"generator": "serial", "format": "w{n}"},
                "type": {"generator": "choice", "values": ["HR"]},
                "person_id": {"generator": "const", "value": "00000000A"},
            }},
        },
        "violations": [{"rule": "r1", "rate": 0.5, "violating": ["bad"]}],
    }
    (workspace / "synth.json").write_text(json.dumps(spec))
    code = main(["synth", "--spec", str(workspace / "synth.json"),
                 "--schema", str(workspace / "schema.json"),
                 "--rules", str(workspace / "rules.json"),
                 "--out", str(tmp_path / "gen")])
    assert code == 0
    expected = json.loads(
        (tmp_path / "gen" / "expected_measures.json").read_text())
    assert expected["rules"]["r1"] == {"a": 10, "b": 20}


_CODE_SCHEMA = {"entities": [{"name": "item", "columns": [
    {"name": "code", "datatype": "text", "nullable": False}]}]}


def _synth_codes(tmp_path: Path, column: dict, rows: int) -> int:
    (tmp_path / "schema.json").write_text(json.dumps(_CODE_SCHEMA))
    (tmp_path / "rules.json").write_text(make_ruleset([
        rule("n", "item", ["code"], "COMP_REG", "not_null")]))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"item": {"rows": rows, "columns": {"code": column}}}}))
    return main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--rules", str(tmp_path / "rules.json"),
                 "--out", str(tmp_path / "gen")])


def test_synth_choice_of_a_lone_surrogate_exits_3(tmp_path: Path, capsys):
    assert _synth_codes(tmp_path, {"generator": "choice", "values": ["\ud800"]}, 3) == 3
    assert capsys.readouterr().err == _LONE_SURROGATE
    assert not (tmp_path / "gen").exists()


def test_synth_serial_format_writing_a_surrogate_exits_3(tmp_path: Path, capsys):
    """{n:c} writes row 55,296 as U+D800, which UTF-8 cannot encode."""
    column = {"generator": "serial", "format": "{n:c}"}
    assert _synth_codes(tmp_path, column, 0xD800) == 0
    capsys.readouterr()
    assert _synth_codes(tmp_path, column, 0xD801) == 3
    assert capsys.readouterr().err == (
        "error: item.code: serial format '{n:c}' writes a lone surrogate at row "
        "55296, which UTF-8 cannot encode\n")


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "x\ny", "a\rb", "\\N"])
def test_synth_then_evaluate_column_names_that_need_quotes(tmp_path: Path, name):
    """A column name is written in the header as a text cell is, so the
    snapshot synth writes loads back."""
    schema = {"entities": [{"name": "item", "columns": [
        {"name": "id", "datatype": "text", "nullable": False},
        {"name": name, "datatype": "text", "nullable": False}]}]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "rules.json").write_text(make_ruleset([
        rule("n", "item", ["id"], "COMP_REG", "not_null")]))
    (tmp_path / "spec.json").write_text(json.dumps({"seed": 1, "entities": {"item": {
        "rows": 3, "columns": {"id": {"generator": "serial", "format": "i{n}"},
                               name: {"generator": "const", "value": "v"}}}}}))
    files = ["--schema", str(tmp_path / "schema.json"),
             "--rules", str(tmp_path / "rules.json")]
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), *files,
                 "--out", str(tmp_path / "gen")]) == 0
    assert main(["evaluate", *files, "--data", str(tmp_path / "gen"),
                 "--out", str(tmp_path / "out")]) == 0


def test_synth_missing_args_exits_1(tmp_path: Path):
    assert main(["synth", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["evaluate", "evaluate-report-directory",
                                     "improve", "compare", "synth-scenario",
                                     "synth-spec"])
def test_unwritable_output_exits_1_naming_it(workspace, capsys, command):
    """An output directory that runs through a regular file, or an output
    file that is a directory, is `error: cannot write PATH: reason`, exit 1,
    not a traceback."""
    assert _evaluate(workspace) == 0
    (workspace / "file").write_text("")
    blocked, reason = workspace / "file" / "out", os.strerror(errno.ENOTDIR)
    inputs = ["--rules", str(workspace / "rules.json"),
              "--schema", str(workspace / "schema.json")]
    report = str(workspace / "out" / "report.json")
    if command == "evaluate-report-directory":
        blocked, reason = workspace / "out2" / "report.json", os.strerror(errno.EISDIR)
        blocked.mkdir(parents=True)
    const = {"id": "00000000A", "ipaddress": "1.2.3.4", "age": 30,
             "balance": "1.00", "active": True, "updated": "2024-05-01T00:00:00Z",
             "wid": "w", "type": "HR", "person_id": "00000000A"}
    (workspace / "spec.json").write_text(json.dumps({"seed": 1, "entities": {
        e["name"]: {"rows": 1, "columns": {
            c["name"]: {"generator": "const", "value": const[c["name"]]}
            for c in e["columns"]}}
        for e in PERSON_SCHEMA["entities"]}}))
    argv = {
        "evaluate": ["evaluate", *inputs, "--data", str(workspace / "snapshot"),
                     "--out", str(blocked)],
        "evaluate-report-directory": ["evaluate", *inputs, "--data",
                                      str(workspace / "snapshot"),
                                      "--out", str(blocked.parent)],
        "improve": ["improve", "--report", report, "--measures",
                    str(workspace / "out" / "measures.json"), "--out", str(blocked)],
        "compare": ["compare", report, report, "--out", str(blocked)],
        "synth-scenario": ["synth", "--scenario", "travel-v1", "--out", str(blocked)],
        "synth-spec": ["synth", "--spec", str(workspace / "spec.json"), *inputs,
                       "--out", str(blocked)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {blocked}: {reason}\n"


def test_evaluate_props_filter(workspace):
    assert _evaluate(workspace, "--props", "EXAC_SEMAN") == 0
    report = json.loads((workspace / "out" / "report.json").read_text())
    assert {m["rule_id"] for m in report["measures"]} == {"r3"}
    assert {p["property"] for p in report["properties"]} == {"EXAC_SEMAN"}
    assert main(["certify", str(workspace / "out" / "report.json")]) == 0


def test_evaluate_with_config_overrides(workspace):
    (workspace / "config.json").write_text(
        '{"thresholds": [1, 2, 3, 4], "aggregation": "macro"}')
    assert _evaluate(workspace, "--config", str(workspace / "config.json")) == 0
    report = json.loads((workspace / "out" / "report.json").read_text())
    # 75% and 80% both clear the lowered level-5 bar
    assert all(p["level"] == 5 for p in report["properties"])
    assert report["metadata"]["config"]["aggregation"] == "macro"
    assert main(["certify", str(workspace / "out" / "report.json")]) == 0


def test_macro_and_micro_aggregation_differ_end_to_end(tmp_path: Path):
    """Two rules of one property over entities of 1 and 9 rows: 1/1 and 1/9
    compliant. Micro weighs records, 100·2/10; macro averages the ratios,
    100·(1 + 1/9)/2."""
    schema = {"entities": [{"name": e, "columns": [{"name": "code", "datatype": "text"}]}
                           for e in ("a", "b")]}
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "rules.json").write_text(make_ruleset([
        rule(f"r{e}", e, ["code"], "EXAC_SINT", "syntax", {"pattern": "^[0-9]+$"})
        for e in ("a", "b")]))
    (tmp_path / "snapshot").mkdir()
    (tmp_path / "snapshot" / "a.csv").write_text("code\n1\n")
    (tmp_path / "snapshot" / "b.csv").write_text("code\n1\n" + "x\n" * 8)
    (tmp_path / "macro.json").write_text('{"aggregation": "macro"}')
    rendered = {}
    for name, extra in (("micro", []), ("macro", ["--config", str(tmp_path / "macro.json")])):
        assert _evaluate(tmp_path, *extra) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        [prop] = json.loads(text, parse_float=Decimal)["properties"]
        rendered[name] = (str(prop["value"]), prop["level"], prop["sum_a"], prop["sum_b"])
    assert rendered == {"micro": ("20.0000", 2, 2, 10), "macro": ("55.5556", 3, 2, 10)}
    # the macro report reads back as the one built in process
    from dqeval.dataset import load_catalog, load_snapshot
    from dqeval.engine import eval_all
    from dqeval.reporting import build_report, parse_report
    from dqeval.rules import parse_ruleset
    from dqeval.scoring import load_config, score_all
    rs = parse_ruleset((tmp_path / "rules.json").read_text())
    repo = load_snapshot(tmp_path / "snapshot",
                         load_catalog((tmp_path / "schema.json").read_text()))
    ms = eval_all(rs, repo, jobs=1)
    config = load_config((tmp_path / "macro.json").read_text())
    assert parse_report(text) == build_report(rs, repo, ms, score_all(ms, rs, config),
                                              config, __version__)


_EVALUATE_ARGS = ["evaluate", "--rules", "r.json", "--schema", "s.json",
                  "--data", "snap", "--out", "out"]


def test_jobs_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert build_parser().parse_args(_EVALUATE_ARGS).jobs == 3
    assert build_parser().parse_args(_EVALUATE_ARGS + ["--jobs", "1"]).jobs == 1


def test_jobs_default_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert build_parser().parse_args(_EVALUATE_ARGS).jobs == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(_EVALUATE_ARGS).jobs == 1


@pytest.mark.parametrize("argv", [
    ["certify"],  # no report
    _EVALUATE_ARGS + ["--jobs", "x"],
    _EVALUATE_ARGS + ["--jobs", "0"],
    _EVALUATE_ARGS + ["--jobs", "-3"],
])
def test_argument_errors_exit_1(argv, capsys):
    """Exit 2 is certify's "not eligible", never a bad argument."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["certify", "--help"]])
def test_help_and_version_exit_0(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_evaluate_imports_no_synth_or_pool_modules(workspace):
    """Every start-up pays for what it imports: a serial evaluate loads
    neither the synth modules nor the process pool's."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import dqeval.cli\n"
        "from dqeval.dataset import load_catalog, load_snapshot\n"
        "from dqeval.engine import eval_all\n"
        "from dqeval.rules import parse_ruleset\n"
        f"ws = {str(workspace)!r}\n"
        "repo = load_snapshot(ws + '/snapshot',"
        " load_catalog(open(ws + '/schema.json').read()))\n"
        "eval_all(parse_ruleset(open(ws + '/rules.json').read()), repo, jobs=1)\n"
        "print(sorted(m for m in ('dqeval.synthkit', 'dqeval.scenarios',"
        " 'multiprocessing', 'concurrent.futures') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.fixture(scope="module")
def registry_outputs(tmp_path_factory) -> Path:
    """registry-v1 with its evaluate outputs in `out`."""
    s = tmp_path_factory.mktemp("registry")
    write_scenario("registry-v1", s)
    assert main(["evaluate", "--rules", str(s / "rules.json"), "--schema",
                 str(s / "schema.json"), "--data", str(s / "snapshot"),
                 "--out", str(s / "out"), "--jobs", "1"]) == 0
    return s


def _modules_after(argv: list[str], prefix: str = "dqeval") -> tuple[int, set[str]]:
    """main(argv)'s exit code in a fresh interpreter, and the modules named
    with prefix that it has imported by then."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "from dqeval.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"print(code, *sorted(m for m in sys.modules if m.startswith({prefix!r})))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


_EVALUATION_LAYERS = {f"dqeval.{m}" for m in (
    "engine", "rules", "expr", "dataset", "synthkit", "scenarios")}


@pytest.mark.parametrize("command, code", [
    ("improve", 0), ("certify", 2), ("compare", 0)])
def test_document_commands_import_no_evaluation_layer(registry_outputs, tmp_path,
                                                      command, code):
    """improve, certify and compare read and write documents, and re-score a
    report's measures: a start-up that imports the evaluation layers would pay
    for them on every run."""
    out = registry_outputs / "out"
    argv = {"improve": ["improve", "--report", str(out / "report.json"), "--measures",
                        str(out / "measures.json"), "--out", str(tmp_path / "m")],
            "certify": ["certify", str(out / "report.json")],
            "compare": ["compare", str(out / "report.json"), str(out / "report.json"),
                        "--out", str(tmp_path / "c")]}[command]
    exit_code, modules = _modules_after(argv)
    assert exit_code == code
    assert {"dqeval.reporting", "dqeval.scoring"} <= modules
    assert modules & _EVALUATION_LAYERS == set()


def test_synth_imports_no_engine_or_scoring(tmp_path):
    """synth writes a snapshot and its oracle: it evaluates and scores
    nothing, so it loads neither layer."""
    exit_code, modules = _modules_after(["synth", "--scenario", "travel-v1",
                                         "--out", str(tmp_path / "s")])
    assert exit_code == 0
    assert "dqeval.synthkit" in modules
    assert modules & {"dqeval.engine", "dqeval.scoring"} == set()


def test_version_imports_only_the_shell():
    assert _modules_after(["--version"]) == (0, {
        "dqeval", "dqeval.cli", "dqeval.errors", "dqeval.host", "dqeval.taxonomy"})


def test_validate_imports_no_engine_scoring_or_reporting(registry_outputs):
    s = registry_outputs
    exit_code, modules = _modules_after(["validate", "--rules", str(s / "rules.json"),
                                         "--schema", str(s / "schema.json")])
    assert exit_code == 0
    assert "dqeval.rules" in modules
    assert modules & {"dqeval.engine", "dqeval.scoring", "dqeval.reporting"} == set()


@pytest.mark.parametrize("command", ["evaluate", "validate", "improve", "certify",
                                     "compare", "synth"])
def test_commands_import_neither_dataclasses_nor_inspect(registry_outputs, tmp_path,
                                                         command):
    """The records of every layer are host.Record subclasses: defining them
    as dataclasses, with dataclasses and inspect imported for them, cost
    every start-up of dq evaluate about 33 ms of import time."""
    s, out = registry_outputs, registry_outputs / "out"
    argv = {"evaluate": ["evaluate", "--rules", str(s / "rules.json"), "--schema",
                         str(s / "schema.json"), "--data", str(s / "snapshot"),
                         "--out", str(tmp_path / "e"), "--jobs", "1"],
            "synth": ["synth", "--scenario", "registry-v1", "--out", str(tmp_path / "s")],
            "validate": ["validate", "--rules", str(s / "rules.json"),
                         "--schema", str(s / "schema.json")],
            "improve": ["improve", "--report", str(out / "report.json"), "--measures",
                        str(out / "measures.json"), "--out", str(tmp_path / "m")],
            "certify": ["certify", str(out / "report.json")],
            "compare": ["compare", str(out / "report.json"), str(out / "report.json"),
                        "--out", str(tmp_path / "c")]}[command]
    exit_code, modules = _modules_after(argv, prefix="")
    assert exit_code == (2 if command == "certify" else 0)
    assert "dqeval.host" in modules
    assert modules & {"dataclasses", "inspect"} == set()


# --------------------------------------------------------------------------
# durations that leave the datetime range: exit 3 with a diagnostic

@pytest.mark.parametrize("kind, prop, param, value, message", [
    ("freshness", "CONV_ACT", "max_age", "99999999999d",
     "error: duration '99999999999d' is out of range (at most 999999999 days) "
     "(rules[0] (id 'f').params.max_age)"),
    ("frequency", "FREC_ACT", "max_gap", 99999999999,
     "error: duration 99999999999 is out of range (at most 999999999 days) "
     "(rules[0] (id 'f').params.max_gap)"),
    ("freshness", "CONV_ACT", "max_age", "800000d",
     "ERROR f: max_age of 800000 days puts the freshness cutoff outside the "
     "datetime range"),
    ("freshness", "CONV_ACT", "max_age", -5,
     "error: duration -5 is negative (rules[0] (id 'f').params.max_age)"),
    ("frequency", "FREC_ACT", "max_gap", -1,
     "error: duration -1 is negative (rules[0] (id 'f').params.max_gap)"),
], ids=["max_age", "max_gap", "cutoff", "max_age-negative", "max_gap-negative"])
def test_evaluate_duration_out_of_range_exits_3(workspace, capsys, kind, prop,
                                                param, value, message):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("f", "person", [], prop, kind,
             {"timestamp_column": "updated", param: value})]))
    assert _evaluate(workspace, "--jobs", "1") == 3
    assert capsys.readouterr().err == message + "\n"


def test_validate_reports_freshness_cutoff_out_of_range(workspace, capsys):
    (workspace / "rules.json").write_text(make_ruleset([
        rule("f", "person", [], "CONV_ACT", "freshness",
             {"timestamp_column": "updated", "max_age": 800000})]))
    assert main(["validate", "--rules", str(workspace / "rules.json"),
                 "--schema", str(workspace / "schema.json")]) == 3
    assert capsys.readouterr().out.splitlines()[0] == (
        "ERROR f: max_age of 800000 days puts the freshness cutoff outside the "
        "datetime range")


_NO_DERIVED_VALUE = ("error: rule 'f': cannot derive a violating value inside the "
                     "datetime range; give the plan an explicit 'violating' pool")

_STAMPS_SCHEMA = {"entities": [{"name": "item", "columns": [
    {"name": "at", "datatype": "timestamp", "nullable": False}]}]}


@pytest.mark.parametrize("step, kind, params, plan, reference_time, message", [
    ("99999999999d", None, {}, None, "2024-06-01T00:00:00Z",
     "error: duration '99999999999d' is out of range (at most 999999999 days) "
     "(item.at)"),
    ("1000000d", None, {}, None, "2024-06-01T00:00:00Z",
     "error: item.at: 10 timestamps 1000000 days apart leave the datetime range"),
    ("1d", "freshness", {"max_age": "800000d"}, None, "2024-06-01T00:00:00Z",
     "ERROR f: max_age of 800000 days puts the freshness cutoff outside the "
     "datetime range"),
    ("1d", "freshness", {"max_age": 0}, 0.5, "0001-01-01T12:00:00Z",
     "error: rule 'f': no timestamp a day before the freshness cutoff fits "
     "the datetime range"),
    ("1d", "frequency", {"max_gap": 999999999}, 1, "2024-06-01T00:00:00Z",
     "error: rule 'f': a gap wider than max_gap 999999999 days leaves the "
     "datetime range"),
    (-1, None, {}, None, "2024-06-01T00:00:00Z",
     "error: duration -1 is negative (item.at)"),
    ("1d", "range", {"max": "9999-12-31T12:00:00Z"}, 0.5, "2024-06-01T00:00:00Z",
     _NO_DERIVED_VALUE),
    ("1d", "range", {"min": "0001-01-01T12:00:00Z"}, 0.5, "2024-06-01T00:00:00Z",
     _NO_DERIVED_VALUE),
    ("1d", "domain", {"allowed": ["9999-12-31T23:59:59Z"]}, 0.5,
     "2024-06-01T00:00:00Z", _NO_DERIVED_VALUE),
], ids=["step", "spaced", "freshness-cutoff", "freshness-violating", "frequency",
        "step-negative", "range-max", "range-min", "domain"])
def test_synth_duration_out_of_range_exits_3(tmp_path, capsys, step, kind, params,
                                             plan, reference_time, message):
    if kind is None:
        body = rule("n", "item", ["at"], "COMP_REG", "not_null")
    elif kind in ("range", "domain"):
        body = rule("f", "item", ["at"], "RAN_EXAC" if kind == "range"
                    else "EXAC_SEMAN", kind, params)
    else:
        body = rule("f", "item", [], "CONV_ACT" if kind == "freshness" else "FREC_ACT",
                    kind, dict(params, timestamp_column="at"))
    (tmp_path / "rules.json").write_text(make_ruleset(
        [body], reference_time=reference_time))
    (tmp_path / "schema.json").write_text(json.dumps(_STAMPS_SCHEMA))
    (tmp_path / "spec.json").write_text(json.dumps({
        "seed": 1,
        "entities": {"item": {"rows": 10, "columns": {"at": {
            "generator": "timestamp_spaced", "start": "2001-01-01T00:00:00Z",
            "step": step}}}},
        "violations": [] if plan is None else [{"rule": "f", "rate": plan}]}))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--rules", str(tmp_path / "rules.json"),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == message + "\n"


def test_repeated_format_class_target_exits_3(workspace, capsys):
    (workspace / "rules.json").write_text(make_ruleset(
        [rule("fc", "person", ["id"], "CONS_FORM", "format_class",
              {"class": "code", "extra_targets": [["person", "id"]]})],
        format_classes={"code": "^[0-9]{8}[A-Z]$"}))
    message = ("error: format_class target 'person.id' is repeated "
               "(rules[0] (id 'fc').params.extra_targets)\n")
    assert _evaluate(workspace, "--jobs", "1") == 3
    assert capsys.readouterr().err == message
    (workspace / "spec.json").write_text(json.dumps({
        "seed": 1, "entities": {"person": {"rows": 4, "columns": {}}},
        "violations": [{"rule": "fc", "rate": 0.5}]}))
    assert main(["synth", "--spec", str(workspace / "spec.json"),
                 "--schema", str(workspace / "schema.json"),
                 "--rules", str(workspace / "rules.json"),
                 "--out", str(workspace / "synth")]) == 3
    assert capsys.readouterr().err == message
    assert not (workspace / "out").exists() and not (workspace / "synth").exists()


_INT_SCHEMA = {"entities": [{"name": "item", "columns": [
    {"name": "n", "datatype": "integer", "nullable": False}]}]}


@pytest.mark.parametrize("body, errors", [
    (rule("r", "item", ["n"], "RAN_EXAC", "range", {"max": "abc"}),
     ["ERROR r: range max: literal 'abc' does not fit datatype integer"]),
    (rule("r", "item", ["zzz"], "COMP_REG", "not_null"),
     ["ERROR r: column item.zzz does not exist"]),
    (rule("r", "item", ["n"], "EXAC_SINT", "syntax", {"pattern": "^[0-9]+$"}),
     ["ERROR r: pattern rules require text columns; item.n is integer"]),
    (rule("r", "item", [], "FAL_COMP_FICH", "unique", {"key": ["n", "zzz"]}),
     ["ERROR r: column item.zzz does not exist"]),
    (rule("r", "ghost", ["n"], "COMP_REG", "not_null"),
     ["ERROR r: entity 'ghost' does not exist"]),
    (rule("r", "item", ["n"], "RAN_EXAC", "range", {"min": 9, "max": 1}),
     ["ERROR r: range min must not exceed max"]),
], ids=["range-literal", "missing-column", "syntax-on-integer", "unique-key",
        "unknown-entity", "inverted-range"])
def test_synth_invalid_ruleset_exits_3(tmp_path, capsys, body, errors):
    """synth validates first and prints the ERROR lines `dq validate` prints."""
    (tmp_path / "rules.json").write_text(make_ruleset([body]))
    (tmp_path / "schema.json").write_text(json.dumps(_INT_SCHEMA))
    (tmp_path / "spec.json").write_text(json.dumps({
        "seed": 1,
        "entities": {"item": {"rows": 10, "columns": {"n": {
            "generator": "int_uniform", "min": 0, "max": 9}}}}}))
    files = ["--schema", str(tmp_path / "schema.json"),
             "--rules", str(tmp_path / "rules.json")]
    assert main(["validate", *files]) == 3
    assert capsys.readouterr().out.splitlines()[:-1] == errors
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), *files,
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "".join(line + "\n" for line in errors)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, violating, message", [
    (rule("r", "item", ["n"], "RAN_EXAC", "range", {"min": 0, "max": 9}), ["abc"],
     "error: rule 'r': literal 'abc' does not fit datatype integer"),
    (rule("p", "item", [], "CONS_SEMAN", "predicate", {"expr": "n >= 0"}),
     {"zzz": 1},
     "error: rule 'p': violating column item.zzz is not in the catalog"),
    (rule("p", "item", [], "CONS_SEMAN", "predicate", {"expr": "n >= 0"}),
     {"n": "abc"},
     "error: rule 'p': literal 'abc' does not fit datatype integer"),
], ids=["range-pool", "predicate-column", "predicate-value"])
def test_synth_bad_plan_exits_3(tmp_path, capsys, body, violating, message):
    (tmp_path / "rules.json").write_text(make_ruleset([body]))
    (tmp_path / "schema.json").write_text(json.dumps(_INT_SCHEMA))
    (tmp_path / "spec.json").write_text(json.dumps({
        "seed": 1,
        "entities": {"item": {"rows": 10, "columns": {"n": {
            "generator": "int_uniform", "min": 0, "max": 9}}}},
        "violations": [{"rule": body["id"], "rate": 0.5, "violating": violating}]}))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--rules", str(tmp_path / "rules.json"),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == message + "\n"


_GENERATOR_SCHEMA = {"entities": [{"name": "item", "columns": [
    {"name": "n", "datatype": "integer", "nullable": False},
    {"name": "amt", "datatype": "decimal", "nullable": False},
    {"name": "code", "datatype": "text", "nullable": False}]}]}
_PLACES = "item.amt: decimal_uniform places must be an integer from 0 to 12"
_START = "item.n: serial start must be an integer"
_BOUNDS = "item.n: int_uniform needs integer min <= max"
_FORMAT = "item.code: serial format {!r} cannot format a row number ({})"


def _synth_generators(tmp_path: Path, column: str, params: dict) -> int:
    """dq synth over an integer column n, a decimal column amt and a text
    column code, with params merged into one column's generator."""
    columns = {"n": {"generator": "int_uniform", "min": 0, "max": 9},
               "amt": {"generator": "decimal_uniform", "min": "0", "max": "1"},
               "code": {"generator": "serial", "format": "K{n}"}}
    columns[column] = {**columns[column], **params}
    (tmp_path / "rules.json").write_text(make_ruleset(
        [rule("r", "item", ["n"], "COMP_REG", "not_null")]))
    (tmp_path / "schema.json").write_text(json.dumps(_GENERATOR_SCHEMA))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"item": {"rows": 10, "columns": columns}}}))
    return main(["synth", "--spec", str(tmp_path / "spec.json"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--rules", str(tmp_path / "rules.json"),
                 "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("column, params, message", [
    ("amt", {"places": -1}, _PLACES),
    ("amt", {"places": "2"}, _PLACES),
    ("amt", {"places": 1.5}, _PLACES),
    ("amt", {"places": 3000}, _PLACES),
    ("amt", {"places": 13}, _PLACES),
    ("amt", {"places": True}, _PLACES),
    ("n", {"generator": "serial", "start": "a"}, _START),
    ("n", {"generator": "serial", "start": 1.5}, _START),
    ("n", {"generator": "serial", "start": True}, _START),
    ("n", {"min": True}, _BOUNDS),
    ("n", {"max": 9.0}, _BOUNDS),
    ("amt", {"min": 1e-13, "max": 1e-13}, "item.amt: decimal literal "
     "0.0000000000001 has more than 12 places after the point"),
    ("code", {"format": "K{n}{m}"}, _FORMAT.format("K{n}{m}", "KeyError: 'm'")),
    ("code", {"format": "K{n:q}"}, _FORMAT.format(
        "K{n:q}", "ValueError: Unknown format code 'q' for object of type 'int'")),
    ("n", {"min": 0, "max": 10 ** 53},
     f"item.n: int_uniform range holds more than {sys.maxsize} values"),
    ("n", {"min": 0, "max": sys.maxsize},
     f"item.n: int_uniform range holds more than {sys.maxsize} values"),
    ("amt", {"max": 1e30, "places": 2},
     f"item.amt: decimal_uniform range holds more than {sys.maxsize} values"),
], ids=["places-negative", "places-text", "places-fraction", "places-huge",
        "places-13", "places-boolean", "start-text", "start-fraction",
        "start-boolean", "min-boolean", "max-fraction", "bounds-13-places",
        "format-unknown-field", "format-unknown-code", "int-range-huge",
        "int-range-past-maxsize", "decimal-range-huge"])
def test_synth_generator_parameter_out_of_reach_exits_3(tmp_path, capsys, column,
                                                       params, message):
    """A generator parameter synth cannot honour is refused, naming the
    column, before anything is written."""
    assert _synth_generators(tmp_path, column, params) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("places", [0, 7, 12])
def test_synth_decimal_places_snapshot_loads(tmp_path, places):
    """Every accepted places count writes decimals that dq evaluate loads,
    even below 1E-6, where str() would switch to exponent form."""
    assert _synth_generators(tmp_path, "amt", {"max": "0.000001",
                                               "places": places}) == 0
    assert main(["evaluate", "--rules", str(tmp_path / "rules.json"),
                 "--schema", str(tmp_path / "schema.json"),
                 "--data", str(tmp_path / "out"),
                 "--out", str(tmp_path / "report")]) == 0


def test_synth_widest_int_range_draws(tmp_path):
    """A range of sys.maxsize values is the widest one random.choice, and
    so synth, can draw from."""
    assert _synth_generators(tmp_path, "n", {"min": 1, "max": sys.maxsize}) == 0


def test_decimal_literal_past_twelve_places_exits_3(tmp_path, capsys):
    """A rule literal that no decimal cell can hold is a validation ERROR for
    validate, evaluate and synth alike."""
    error = ("ERROR r: range max: decimal literal 0.0000000000001 has more "
             "than 12 places after the point")
    (tmp_path / "rules.json").write_text(make_ruleset(
        [rule("r", "item", ["amt"], "RAN_EXAC", "range", {"max": 1e-13})]))
    (tmp_path / "schema.json").write_text(json.dumps(_GENERATOR_SCHEMA))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"item": {"rows": 4, "columns": {}}}}))
    files = ["--rules", str(tmp_path / "rules.json"),
             "--schema", str(tmp_path / "schema.json")]
    assert main(["validate", *files]) == 3
    assert capsys.readouterr().out.splitlines()[0] == error
    for argv in (["evaluate", *files, "--data", str(tmp_path / "snapshot"),
                  "--out", str(tmp_path / "out")],
                 ["synth", "--spec", str(tmp_path / "spec.json"), *files,
                  "--out", str(tmp_path / "synth")]):
        assert main(argv) == 3, argv[0]
        assert capsys.readouterr().err == error + "\n", argv[0]
    assert not (tmp_path / "out").exists() and not (tmp_path / "synth").exists()


_OUT_OF_RANGE = "is out of range: at most 1000 digits before and after the decimal point"


@pytest.mark.parametrize("old, new, message", [
    ('"max": 100', '"max": 1e999999', f"number 1e999999 {_OUT_OF_RANGE}"),
    ('"max": 100', '"max": ' + "9" * 5000, f"number {'9' * 20}... {_OUT_OF_RANGE}"),
    ('"where": null', '"where": "c0061 < 0.' + "5" * 1001 + '"',
     f"number 0.555555555555555555... {_OUT_OF_RANGE} "
     "(rules[60] (id 'RAN_EXAC_001').where)"),
], ids=["exponent", "digits", "expression"])
def test_oversized_number_exits_3(tmp_path, capsys, old, new, message):
    """A number too long to write out in full is refused while the rules are
    read, by validate, evaluate and synth alike."""
    write_scenario("travel-v1", tmp_path / "s")
    rules = tmp_path / "s" / "rules.json"
    files = ["--rules", str(rules), "--schema", str(tmp_path / "s" / "schema.json")]
    assert main(["validate", *files]) == 0
    text = rules.read_text()
    at = text.index(old, text.index('"RAN_EXAC_001"'))
    rules.write_text(text[:at] + new + text[at + len(old):])
    (tmp_path / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"travel_08": {"rows": 4, "columns": {}}}}))
    capsys.readouterr()
    for argv in (["validate", *files],
                 ["evaluate", *files, "--data", str(tmp_path / "s" / "snapshot"),
                  "--out", str(tmp_path / "out")],
                 ["synth", "--spec", str(tmp_path / "spec.json"), *files,
                  "--out", str(tmp_path / "synth")]):
        assert main(argv) == 3, argv[0]
        assert capsys.readouterr().err == f"error: {message}\n", argv[0]
    assert not (tmp_path / "out").exists() and not (tmp_path / "synth").exists()


def test_outputs_independent_of_hash_seed(tmp_path):
    """evaluate and improve write the same bytes under two hash seeds."""
    write_scenario("registry-v1", tmp_path / "s")
    src = Path(__file__).resolve().parents[1] / "src"
    written = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        out = tmp_path / f"seed{seed}"
        for argv in (["evaluate", "--rules", str(tmp_path / "s" / "rules.json"),
                      "--schema", str(tmp_path / "s" / "schema.json"),
                      "--data", str(tmp_path / "s" / "snapshot"),
                      "--out", str(out / "evaluate"), "--jobs", "1"],
                     ["improve", "--report", str(out / "evaluate" / "report.json"),
                      "--measures", str(out / "evaluate" / "measures.json"),
                      "--out", str(out / "improve")]):
            proc = subprocess.run([sys.executable, "-m", "dqeval.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in sorted(out.rglob("*.json"))})
    assert {"evaluate/report.json", "evaluate/measures.json",
            "improve/index.json"} <= written[0].keys()
    assert sum(n.endswith(".manifest.json") for n in written[0]) > 100
    assert written[0].keys() == written[1].keys()
    for name in written[0]:
        assert written[0][name] == written[1][name], name


@pytest.mark.parametrize("command", ["validate", "evaluate", "synth"])
def test_entity_name_outside_its_directory_exits_3(workspace, tmp_path, capsys,
                                                   command):
    """A catalog entity named `../outside` would read the snapshot directory's
    parent and make synth write there: every command that reads the catalog
    refuses it before touching a file."""
    schema = json.loads(json.dumps(PERSON_SCHEMA))
    schema["entities"].append({"name": "../outside", "columns": [
        {"name": "x", "datatype": "text", "nullable": True}], "key": []})
    (workspace / "schema.json").write_text(json.dumps(schema))
    (workspace / "outside.csv").write_text("x\nleaked\n")
    (workspace / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"../outside": {"rows": 1, "columns": {}}}}))
    files = ["--rules", str(workspace / "rules.json"),
             "--schema", str(workspace / "schema.json")]
    argv = {"validate": ["validate", *files],
            "evaluate": ["evaluate", *files, "--data", str(workspace / "snapshot"),
                         "--out", str(workspace / "out" / "run")],
            "synth": ["synth", "--spec", str(workspace / "spec.json"), *files,
                      "--out", str(workspace / "out" / "run")]}[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: entity name '../outside' is not a plain file name "
        "(no '/', '\\', NUL, '.' or '..') (entities[2].name)\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", ["validate", "evaluate", "synth"])
@pytest.mark.parametrize("body, format_classes, where", [
    (rule("r", "person", ["id"], "EXAC_SINT", "syntax", {"pattern": "^(a+)+$"}), {},
     "(rules[0] (id 'r').params.pattern)"),
    (rule("r", "person", ["id"], "CONS_FORM", "format_class", {"class": "c"}),
     {"c": "^(a+)+$"}, "($.format_classes.c)"),
    (rule("r", "person", [], "CONS_SEMAN", "predicate",
          {"expr": "regex_match(id, '^(a+)+$')"}), {},
     "at column 1 (rules[0] (id 'r').params.expr)"),
], ids=["syntax", "format-class", "regex-match"])
def test_catastrophic_pattern_exits_3(workspace, capsys, command, body,
                                      format_classes, where):
    """`^(a+)+$` takes seconds to fail on 25 characters; every command that
    reads the ruleset refuses it before reading data or writing a file."""
    (workspace / "rules.json").write_text(make_ruleset([body],
                                                       format_classes=format_classes))
    (workspace / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"person": {"rows": 1, "columns": {}}}}))
    files = ["--rules", str(workspace / "rules.json"),
             "--schema", str(workspace / "schema.json")]
    argv = {"validate": ["validate", *files],
            "evaluate": ["evaluate", *files, "--data", str(workspace / "snapshot"),
                         "--out", str(workspace / "out")],
            "synth": ["synth", "--spec", str(workspace / "spec.json"), *files,
                      "--out", str(workspace / "out")]}[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: pattern '^(a+)+$' nests unbounded quantifiers, which can take "
        f"exponential time to match {where}\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", ["validate", "evaluate", "synth"])
@pytest.mark.parametrize("source, column", [("(" * 130 + "age > 0" + ")" * 130, 102),
                                            (" + ".join(["age"] * 1000) + " > 0", 1)],
                         ids=["130-parentheses", "1000-term-sum"])
def test_expression_nested_too_deep_exits_3(workspace, capsys, command, source, column):
    """Parentheses nested 130 deep once exhausted the parser's recursion,
    and a 1000-term sum every walk over its tree: each is refused while the
    ruleset is read, naming the limit and the column: the parenthesis that
    crosses it, or the whole expression's first."""
    (workspace / "rules.json").write_text(make_ruleset(
        [rule("p", "person", [], "CONS_SEMAN", "predicate", {"expr": source})]))
    (workspace / "spec.json").write_text(json.dumps(
        {"seed": 1, "entities": {"person": {"rows": 1, "columns": {}}}}))
    files = ["--rules", str(workspace / "rules.json"),
             "--schema", str(workspace / "schema.json")]
    argv = {"validate": ["validate", *files],
            "evaluate": ["evaluate", *files, "--data", str(workspace / "snapshot"),
                         "--out", str(workspace / "out")],
            "synth": ["synth", "--spec", str(workspace / "spec.json"), *files,
                      "--out", str(workspace / "out")]}[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: expression nests deeper than 100 levels in expression {source!r} "
        f"at column {column} (rules[0] (id 'p').params.expr)\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("source, message", [
    ("a < < 3", "unexpected token '<' in expression 'a < < 3' at column 5"),
    ("age > 0 $", "unexpected character '$' in expression 'age > 0 $' at column 9"),
    ("abs(age", "expected ')' in expression 'abs(age' at column 8"),
    ("age > 0 and size(id) > 1",
     "unknown function 'size' in expression 'age > 0 and size(id) > 1' at column 13"),
])
def test_expression_syntax_error_names_its_column(workspace, capsys, source, message):
    """dq validate points at the 1-based column where the expression text
    goes wrong: the offending token, or one past the end."""
    (workspace / "rules.json").write_text(make_ruleset(
        [rule("p", "person", [], "CONS_SEMAN", "predicate", {"expr": source})]))
    assert main(["validate", "--rules", str(workspace / "rules.json"),
                 "--schema", str(workspace / "schema.json")]) == 3
    assert capsys.readouterr().err == \
        f"error: {message} (rules[0] (id 'p').params.expr)\n"


def test_evaluate_below_break_even_forks_nothing(tmp_path):
    """`--jobs 2` on a bundled scenario, with two usable CPUs, stays serial:
    no fork, and the process pool's modules are never imported."""
    write_scenario("registry-v1", tmp_path / "s")
    src = Path(__file__).resolve().parents[1] / "src"
    s = tmp_path / "s"
    script = (
        "import os, sys\n"
        "from dqeval import engine\n"
        "from dqeval.cli import main\n"
        "engine.usable_cpus = lambda: 2\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        f"code = main(['evaluate', '--rules', {str(s / 'rules.json')!r},"
        f" '--schema', {str(s / 'schema.json')!r}, '--data', {str(s / 'snapshot')!r},"
        f" '--out', {str(tmp_path / 'out')!r}, '--jobs', '2'])\n"
        "print(code, len(forks), [m for m in ('multiprocessing', 'concurrent.futures')"
        " if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0 []"
