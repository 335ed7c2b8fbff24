"""The `dq` command line: validate, evaluate, improve, compare, certify, synth.

Exit codes: 0 ok/eligible, 1 usage or I/O error, 2 not eligible (certify
only), 3 validation errors, 4 internal evaluation error, 5 input mismatch
(fingerprints or comparison scope). Quality outcomes are data, not errors:
`evaluate` exits 0 however poor the levels; only `certify` encodes the
verdict in its exit status.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__, scenarios, synthkit
from .dataset import load_catalog, load_snapshot
from .engine import eval_all, usable_cpus
from .errors import (DqError, EvalError, FingerprintMismatch, LoadError,
                     NothingEvaluated, ParseError, ScopeMismatch, SynthError)
from .reporting import (build_improvement, build_report, compare,
                        parse_measures, parse_report, render_text,
                        serialize_comparison, serialize_measures,
                        serialize_report, write_improvement)
from .rules import RuleSet, parse_ruleset, validate_ruleset
from .scoring import default_config, load_config, score_all
from .taxonomy import parse_characteristic, parse_property

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_ELIGIBLE = 2
EXIT_VALIDATION = 3
EXIT_EVAL = 4
EXIT_MISMATCH = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {what} {path}: {exc.strerror or exc}",
                        EXIT_USAGE) from None


def _load_rules_and_schema(args):
    try:
        rs = parse_ruleset(_read(args.rules, "rules file"))
        catalog = load_catalog(_read(args.schema, "schema file"))
    except ParseError as exc:
        raise _CliError(str(exc), EXIT_VALIDATION) from None
    return rs, catalog


def _parse_name_list(raw: str | None, parser_fn, what: str):
    if not raw:
        return None
    names = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            names.append(parser_fn(token))
        except ValueError as exc:
            raise _CliError(f"invalid {what}: {exc}", EXIT_USAGE) from None
    return names or None


def _filter_rules(rs: RuleSet, chars, props) -> RuleSet:
    rules = rs.rules
    if chars is not None:
        rules = tuple(r for r in rules if r.characteristic in chars)
    if props is not None:
        rules = tuple(r for r in rules if r.property in props)
    if not rules:
        raise _CliError("no rules left after applying the characteristic/property "
                        "filters", EXIT_VALIDATION)
    return dataclasses.replace(rs, rules=rules)


def _scoring_config(args):
    if getattr(args, "config", None):
        try:
            return load_config(_read(args.config, "config file"))
        except ParseError as exc:
            raise _CliError(str(exc), EXIT_VALIDATION) from None
    return default_config()


# --------------------------------------------------------------------------
# Commands

def cmd_validate(args) -> int:
    rs, catalog = _load_rules_and_schema(args)
    diagnostics = validate_ruleset(rs, catalog)
    for d in diagnostics:
        print(d)
    errors = sum(1 for d in diagnostics if d.level == "ERROR")
    print(f"validated {len(rs.rules)} rules against {len(catalog.entities)} "
          f"entities: {errors} error(s), {len(diagnostics) - errors} warning(s)")
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_evaluate(args) -> int:
    rs, catalog = _load_rules_and_schema(args)
    chars = _parse_name_list(args.chars, parse_characteristic, "characteristic")
    props = _parse_name_list(args.props, parse_property, "property")
    rs = _filter_rules(rs, chars, props)

    diagnostics = validate_ruleset(rs, catalog)
    errors = [d for d in diagnostics if d.level == "ERROR"]
    if errors:
        for d in errors:
            print(d, file=sys.stderr)
        return EXIT_VALIDATION

    config = _scoring_config(args)
    try:
        repo = load_snapshot(Path(args.data), catalog)
    except LoadError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None

    try:
        ms = eval_all(rs, repo, jobs=args.jobs)
    except EvalError as exc:
        raise _CliError(str(exc), EXIT_EVAL) from None
    try:
        result = score_all(ms, rs, config)
    except NothingEvaluated as exc:
        raise _CliError(str(exc), EXIT_VALIDATION) from None

    report = build_report(rs, repo, ms, result, config, __version__)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(serialize_report(report), encoding="utf-8")
    (out / "measures.json").write_text(serialize_measures(ms), encoding="utf-8")
    if args.format == "text":
        (out / "report.txt").write_text(render_text(report), encoding="utf-8")
        print(render_text(report))
    else:
        verdict = "ELIGIBLE" if report.eligible else "NOT ELIGIBLE"
        print(f"evaluated {len(rs.rules)} rules over "
              f"{sum(n for _, n in report.entity_rows)} rows; verdict: {verdict}")
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        report = parse_report(_read(args.report, "report"))
    except ParseError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    if report.eligible:
        print("ELIGIBLE: every evaluated characteristic is at level 3 or higher")
        return EXIT_OK
    print("NOT ELIGIBLE:")
    for characteristic, level in report.reasons:
        print(f"  {characteristic.value} at level {level}")
    return EXIT_NOT_ELIGIBLE


def cmd_improve(args) -> int:
    try:
        report = parse_report(_read(args.report, "report"))
        ms = parse_measures(_read(args.measures, "measures file"))
    except ParseError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    try:
        manifests = build_improvement(report, ms)
    except FingerprintMismatch as exc:
        raise _CliError(str(exc), EXIT_MISMATCH) from None
    paths = write_improvement(manifests, report, Path(args.out))
    print(f"wrote {len(paths)} manifest(s) and index.json to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        first = parse_report(_read(args.first, "report"))
        second = parse_report(_read(args.second, "report"))
    except ParseError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from None
    try:
        result = compare(first, second)
    except ScopeMismatch as exc:
        raise _CliError(str(exc), EXIT_MISMATCH) from None
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.json").write_text(serialize_comparison(result),
                                             encoding="utf-8")
        (out / "comparison.txt").write_text(render_text(result), encoding="utf-8")
    print(render_text(result))
    return EXIT_OK


def cmd_synth(args) -> int:
    out = Path(args.out)
    if args.scenario:
        if args.scenario not in scenarios.scenario_names():
            raise _CliError("unknown scenario; available: "
                            + ", ".join(scenarios.scenario_names()), EXIT_USAGE)
        scenarios.write_scenario(args.scenario, out)
        print(f"wrote scenario {args.scenario} to {out}")
        return EXIT_OK
    if not (args.spec and args.schema and args.rules):
        raise _CliError("synth needs either --scenario or all of "
                        "--spec/--schema/--rules", EXIT_USAGE)
    try:
        spec = synthkit.parse_synthspec(_read(args.spec, "synth spec"))
        rs = parse_ruleset(_read(args.rules, "rules file"))
        catalog = load_catalog(_read(args.schema, "schema file"))
        synthkit.generate(spec, catalog, rs, out)
    except (ParseError, SynthError) as exc:
        raise _CliError(str(exc), EXIT_VALIDATION) from None
    print(f"wrote snapshot and expected_measures.json to {out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dq",
        description="Measure tabular snapshots against declarative business "
                    "rules and produce quality levels, certification verdicts, "
                    "and improvement manifests.")
    parser.add_argument("--version", action="version", version=f"dq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a ruleset against a schema catalog")
    p.add_argument("--rules", required=True)
    p.add_argument("--schema", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("evaluate", help="run the full evaluation over a snapshot")
    p.add_argument("--rules", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True, help="snapshot directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="thresholds/profiles/aggregation overrides")
    p.add_argument("--chars", help="comma-separated characteristic filter")
    p.add_argument("--props", help="comma-separated property filter")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--jobs", type=int, default=usable_cpus(),
                   help="parallel rule evaluation degree")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("certify", help="check a report's certification eligibility")
    p.add_argument("report")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("improve", help="write failing-record manifests")
    p.add_argument("--report", required=True)
    p.add_argument("--measures", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_improve)

    p = sub.add_parser("compare", help="diff two evaluation reports")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic snapshot with oracles")
    p.add_argument("--scenario", help="named scenario, e.g. travel-v1")
    p.add_argument("--spec", help="synth spec JSON")
    p.add_argument("--schema")
    p.add_argument("--rules")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DqError as exc:  # pipeline bugs and anything unmapped
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL if isinstance(exc, EvalError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
