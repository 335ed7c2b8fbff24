from __future__ import annotations

import hashlib
from decimal import Decimal
from pathlib import Path

import pytest

from dqeval.dataset import load_catalog, load_snapshot
from dqeval.engine import eval_all
from dqeval.reporting import (build_improvement, build_report, compare,
                              parse_measures, parse_report, serialize_measures,
                              serialize_report, write_improvement)
from dqeval.rules import parse_ruleset, validate_ruleset
from dqeval.scenarios import (_PROFILES, _TEMPLATES, build_scenario, scenario_names,
                              write_scenario)
from dqeval.scoring import default_config, load_config, score_all
from dqeval.synthkit import expected_vs_actual, generate
from dqeval import __version__, canonical
from dqeval.cli import main


def _evaluate(name: str, tmp_path: Path):
    bundle = build_scenario(name)
    out = tmp_path / name
    expected = generate(bundle.spec, bundle.catalog, bundle.ruleset, out)
    repo = load_snapshot(out, bundle.catalog)
    ms = eval_all(bundle.ruleset, repo)
    assert expected_vs_actual(expected, ms) == []
    result = score_all(ms, bundle.ruleset, default_config())
    levels = {c["characteristic"]: c["level"] for c in result["characteristics"]}
    return bundle, repo, ms, result, levels


def test_scenario_names_cover_three_orgs():
    assert scenario_names() == ("travel-v1", "travel-v2", "registry-v1",
                                "registry-v2", "school-v1", "school-v2")


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        build_scenario("casino-v1")


def test_template_table_has_no_dead_or_missing_rows():
    named = {template for profile in _PROFILES.values() for plan in profile.plans
             for template, _ in plan.kinds}
    assert named == set(_TEMPLATES) | {"min_count"}


def test_scenarios_validate_cleanly():
    for name in ("travel-v1", "registry-v1", "school-v1"):
        bundle = build_scenario(name)
        errors = [d for d in validate_ruleset(bundle.ruleset, bundle.catalog)
                  if d.level == "ERROR"]
        assert errors == [], name


def test_travel_entity_count_mirrors_scope():
    bundle = build_scenario("travel-v1")
    assert len(bundle.catalog.entities) == 14
    assert len(build_scenario("registry-v1").catalog.entities) == 36
    assert len(build_scenario("school-v1").catalog.entities) == 10


def test_school_first_evaluation_only_accuracy_below_3(tmp_path: Path):
    _, _, _, result, levels = _evaluate("school-v1", tmp_path)
    assert levels["Accuracy"] == 2
    assert all(lv >= 3 for c, lv in levels.items() if c != "Accuracy")
    assert not result["verdict"]["eligible"]


def test_school_second_evaluation_reaches_5(tmp_path: Path):
    _, _, _, result, levels = _evaluate("school-v2", tmp_path)
    assert levels["Accuracy"] == 5
    assert result["verdict"]["eligible"]


def test_rulesets_share_ids_across_versions():
    v1 = build_scenario("travel-v1").ruleset
    v2 = build_scenario("travel-v2").ruleset
    assert [r.id for r in v1.rules] == [r.id for r in v2.rules]
    assert v1.name == v2.name
    assert (v1.version, v2.version) == ("1", "2")


def test_write_scenario_layout(tmp_path: Path):
    write_scenario("travel-v1", tmp_path / "t1")
    assert (tmp_path / "t1" / "schema.json").is_file()
    assert (tmp_path / "t1" / "rules.json").is_file()
    assert (tmp_path / "t1" / "snapshot" / "expected_measures.json").is_file()
    catalog = load_catalog((tmp_path / "t1" / "schema.json").read_text())
    rs = parse_ruleset((tmp_path / "t1" / "rules.json").read_text())
    repo = load_snapshot(tmp_path / "t1" / "snapshot", catalog)
    assert len(rs.rules) == 375
    assert set(repo.entities) == {e.name for e in catalog.entities}


@pytest.mark.parametrize("name", scenario_names())
def test_loaded_fingerprint_equals_directory_fingerprint(name: str, tmp_path: Path):
    """A scenario's snapshot holds only catalog CSVs, so fingerprinting the
    bytes parsed gives the directory's fingerprint."""
    write_scenario(name, tmp_path)
    catalog = load_catalog((tmp_path / "schema.json").read_text())
    repo = load_snapshot(tmp_path / "snapshot", catalog)
    assert repo.fingerprint == canonical.snapshot_fingerprint(tmp_path / "snapshot")


def test_travel_comparison_quotes_transitions(tmp_path: Path):
    bundle1, repo1, ms1, result1, _ = _evaluate("travel-v1", tmp_path)
    bundle2, repo2, ms2, result2, _ = _evaluate("travel-v2", tmp_path)
    first = build_report(bundle1.ruleset, repo1, ms1, result1,
                         default_config(), __version__)
    second = build_report(bundle2.ruleset, repo2, ms2, result2,
                          default_config(), __version__)
    delta = compare(first, second)
    by_char = {d["characteristic"]: d for d in delta["characteristics"]}
    assert by_char["Accuracy"]["level_delta"] == 4  # 1 -> 5
    assert by_char["Completeness"]["level_delta"] == 2  # 2 -> 4
    assert delta["verdict_transition"] == {"first": False, "second": True}


# --------------------------------------------------------------------------
# Pinned outputs of the whole pipeline

# SHA-256 over report.json, measures.json, index.json and every manifest of
# each scenario (see _pipeline_digest). The report records the tool version,
# so bumping dqeval.__version__ changes every digest.
_PIPELINE_DIGESTS = {
    "travel-v1": "dfe8332cee9adaeb523b585efd385781a711a986ec9d3a20f6c73b852c1c2790",
    "travel-v2": "516a69076f9733edae74480b2205094f8f540596c5b8127b1b9542ac3b328b98",
    "registry-v1": "a56c871eae1cd3d8bbf6ccfb0c1228632cd609665d698465f4ae2f4f69af3f4d",
    "registry-v2": "e67bbd247e6e21bd9bcbf2c3b19689efa5d824be7a9a34b168913e945d9cfd3d",
    "school-v1": "e25cee1baff379246a8893fba553d00925aa503977ce186fd1db7f81591ea278",
    "school-v2": "47467b92b6f50f3f93f552003209650388e2466bb85478cabcf2a219f15d707b",
}


def _pipeline_digest(out: Path) -> str:
    """One SHA-256 over the evaluate and improve outputs under `out`, each
    file fed with its path relative to `out`."""
    digest = hashlib.sha256()
    names = ["evaluate/report.json", "evaluate/measures.json"] + sorted(
        f"improve/{p.name}" for p in (out / "improve").iterdir())
    for name in names:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", scenario_names())
def test_pipeline_outputs_pinned(name: str, tmp_path: Path):
    """synth, evaluate at --jobs 1 and 2, then improve, write the recorded
    bytes; a tool_version bump changes the digests."""
    assert main(["synth", "--scenario", name, "--out", str(tmp_path / "s")]) == 0
    digests = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["evaluate", "--rules", str(tmp_path / "s" / "rules.json"),
                     "--schema", str(tmp_path / "s" / "schema.json"),
                     "--data", str(tmp_path / "s" / "snapshot"),
                     "--out", str(out / "evaluate"), "--jobs", jobs]) == 0
        assert main(["improve", "--report", str(out / "evaluate" / "report.json"),
                     "--measures", str(out / "evaluate" / "measures.json"),
                     "--out", str(out / "improve")]) == 0
        digests.append(_pipeline_digest(out))
    assert digests == [_PIPELINE_DIGESTS[name]] * 2


# SHA-256 of the text outputs: report.txt of `evaluate --format text` for each
# scenario, and comparison.json and comparison.txt of `compare --out` from
# each organization's v1 report to its v2 report. Like the pins above, the
# report.txt digests change with dqeval.__version__.
_REPORT_TEXT_DIGESTS = {
    "travel-v1": "06af798cb7287335db0dbb1c2c9685b3911fe81c056edc2a99d1ecb67b27e47b",
    "travel-v2": "ee20e88e298b291cdec46f22ba196ca40ffda4dd5d1c3a650239eeea52b3b7c1",
    "registry-v1": "6fc2f8b91fd8f3bdc74b96c354ab92b953c639a55c4e591303d8f65864695866",
    "registry-v2": "346d3ad22647b54066bba02592c5d554a9c006dbe5dfc2804bea5064502143d4",
    "school-v1": "5f293eaf77ab9a4d015603224e541c61f90819ee8422a2f151f3be164b230d99",
    "school-v2": "d429ad8f7da812181e0d43130aa5b2b08ffe2159ad2673b7eb92746d7452c307",
}
_COMPARISON_DIGESTS = {  # (comparison.json, comparison.txt)
    "travel": ("b715f6d29abce6089744dbdbfa357629b3bcaa97c539665481264cb8976f1642",
               "4a5e16f5cbef6f72b81f66dbe70283a1c0b5797f162cc5f11ca8d1ff7a47ed0f"),
    "registry": ("e8e0ef39f3c4680b1dcc0bf34397835a36fc9f976a6fcef618716d7c7c4e32d6",
                 "b822dc149c86531515b1fcdaad9c124b3a66805f0565b632bb96678155bb387e"),
    "school": ("c48af5d269e05f172114798c0221b26a1463de8ed3cb35b62163ecaf1c185938",
               "c48db9da00caf1ef29aeafdf2c4f822d6220e0fef6d40d9bba538ee6d0eddef7"),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("org", sorted(_COMPARISON_DIGESTS))
def test_text_reports_and_comparison_pinned(org: str, tmp_path: Path):
    """evaluate --format text on v1 and v2, then compare --out from v1 to v2,
    write the recorded bytes."""
    reports = []
    for name in (f"{org}-v1", f"{org}-v2"):
        s, out = tmp_path / name, tmp_path / name / "out"
        assert main(["synth", "--scenario", name, "--out", str(s)]) == 0
        assert main(["evaluate", "--rules", str(s / "rules.json"),
                     "--schema", str(s / "schema.json"), "--data", str(s / "snapshot"),
                     "--out", str(out), "--format", "text"]) == 0
        assert _sha256(out / "report.txt") == _REPORT_TEXT_DIGESTS[name]
        reports.append(str(out / "report.json"))
    assert main(["compare", *reports, "--out", str(tmp_path / "cmp")]) == 0
    assert (_sha256(tmp_path / "cmp" / "comparison.json"),
            _sha256(tmp_path / "cmp" / "comparison.txt")) == _COMPARISON_DIGESTS[org]


# A --config that moves every scoring step off its default: macro
# aggregation, thresholds (one fractional) that re-band school-v1's values, and
# a profiling table that lifts Accuracy's profile <1,0,2,0,0> from level 2 to
# 3. The digest is report.json's SHA-256; like the pins above, it changes with
# dqeval.__version__.
_CUSTOM_CONFIG = {
    "aggregation": "macro",
    "thresholds": [15, 56, Decimal("75.5"), 96],
    "profiles": {"Accuracy": [[None] * 4, [None] * 4, [2, 3, 3, 3], [1, 1, 3, 3],
                              [0, 0, 1, 3], [0, 0, 0, 0]]},
}
_CUSTOM_CONFIG_REPORT_DIGEST = \
    "f8853304cb6438703d635dec84a0320f8c73fa430e3c3d1cf61c28dca1388264"


def test_report_under_a_custom_config_pinned(tmp_path: Path):
    s = tmp_path / "s"
    assert main(["synth", "--scenario", "school-v1", "--out", str(s)]) == 0
    config = tmp_path / "config.json"
    config.write_text(canonical.dumps(_CUSTOM_CONFIG), encoding="utf-8")
    assert main(["evaluate", "--rules", str(s / "rules.json"),
                 "--schema", str(s / "schema.json"), "--data", str(s / "snapshot"),
                 "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.json").read_bytes()
    levels = {c["characteristic"]: c["level"]
              for c in canonical.loads(report.decode())["characteristics"]}
    assert levels["Accuracy"] == 3
    assert hashlib.sha256(report).hexdigest() == _CUSTOM_CONFIG_REPORT_DIGEST
    # read back, the report is the one built in process under that config
    rs = parse_ruleset((s / "rules.json").read_text())
    repo = load_snapshot(s / "snapshot", load_catalog((s / "schema.json").read_text()))
    ms = eval_all(rs, repo)
    custom = load_config(config.read_text())
    assert parse_report(report.decode()) == build_report(
        rs, repo, ms, score_all(ms, rs, custom), custom, __version__)


# SHA-256 over every file `dq synth --scenario` writes: schema.json,
# rules.json, each snapshot CSV and expected_measures.json (see _tree_digest).
# Synth is a pure function of the scenario, so these never change unless the
# scenario, the generators or the file formats do.
_SYNTH_DIGESTS = {
    "travel-v1": "5bae43299cfa58e564c61fd5389d9f501c9c0a4697400467ed4885db3b16ddab",
    "travel-v2": "94d072d8ccba2896a4db1f63afbd98b88b70f75d79c8fef1914d2718dc904390",
    "registry-v1": "772fdfc3c66367a05b150b6715c0a1fbb04dfb2b47d7261309d3f329a241c303",
    "registry-v2": "d725f5fcc3fd339c420645a314b0a43659139a2bf772a16bd0fa1657aa9af18b",
    "school-v1": "29181dd0a11bbff60302e3b92c17e07a0a7a8ad802db3ad9c223b9502b4c6f21",
    "school-v2": "038d18ae1c01ad8f461b5e30e48cd18281cab541ebdf6cca2f2911eba24010ca",
}


def _tree_digest(root: Path) -> str:
    """One SHA-256 over every file under `root`, in path order, each file
    fed with its path relative to `root`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", scenario_names())
def test_synth_outputs_pinned(name: str, tmp_path: Path):
    assert main(["synth", "--scenario", name, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["rules.json", "schema.json", "snapshot"]
    assert _tree_digest(tmp_path) == _SYNTH_DIGESTS[name]


@pytest.mark.parametrize("name", scenario_names())
def test_evaluated_and_parsed_measures_write_the_same_manifests(name, tmp_path):
    """Manifests from eval_all's measure set, whose keys come from the
    repository, and from the parsed report.json and measures.json, whose keys
    come from the records, are the same bytes; the report reads back as the
    one built."""
    bundle, repo, ms, result, _ = _evaluate(name, tmp_path)
    report = build_report(bundle.ruleset, repo, ms, result, default_config(),
                          __version__)
    write_improvement(build_improvement(report, ms), report, tmp_path / "evaluated")
    parsed_report = parse_report(serialize_report(report))
    assert parsed_report == report
    parsed = parse_measures(serialize_measures(ms))
    write_improvement(build_improvement(parsed_report, parsed), parsed_report,
                      tmp_path / "parsed")
    written = sorted(p.name for p in (tmp_path / "evaluated").iterdir())
    assert any(n.endswith(".manifest.json") for n in written)
    assert sorted(p.name for p in (tmp_path / "parsed").iterdir()) == written
    for n in written:
        assert (tmp_path / "evaluated" / n).read_bytes() == \
            (tmp_path / "parsed" / n).read_bytes(), n
