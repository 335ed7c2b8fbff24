"""The `dq` command line: validate, evaluate, improve, compare, certify, synth.

Exit codes: 0 ok/eligible, 1 usage or I/O error, 2 not eligible (certify
only), 3 validation errors, 4 internal evaluation error, 5 input mismatch
(fingerprints or comparison scope). The class of an error alone decides
its status, through one table, _EXIT_STATUS. One status depends on the
file (_read_own): a malformed report or measures file, which dq wrote
itself, exits 1, and a malformed rules, schema, config or spec file
exits 3. Quality outcomes are data, not errors: `evaluate` exits 0 however
poor the levels; only `certify` encodes the verdict in its exit status.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import (DqError, EvalError, FingerprintMismatch, InvalidRuleset,
                     NothingEvaluated, ParseError, ScopeMismatch, SynthError)
from .host import usable_cpus, write_atomic

# Each command imports the layers it runs, inside its cmd_* function: every
# start-up pays for what it imports, and improve, certify and compare need
# only the report documents, not the evaluation layers.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_ELIGIBLE = 2
EXIT_VALIDATION = 3
EXIT_EVAL = 4
EXIT_MISMATCH = 5

# Each error's exit status: main returns the status of the first entry whose
# class the error is an instance of. Only the documents dq writes itself
# (_read_own) map a ParseError elsewhere.
_EXIT_STATUS = (
    (ParseError, EXIT_VALIDATION),
    (SynthError, EXIT_VALIDATION),  # ConflictingPlan and InvalidRuleset too
    (NothingEvaluated, EXIT_VALIDATION),
    (EvalError, EXIT_EVAL),
    (FingerprintMismatch, EXIT_MISMATCH),
    (ScopeMismatch, EXIT_MISMATCH),
    (DqError, EXIT_USAGE),
)


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DqError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise DqError(f"cannot read {what} {path}: not valid UTF-8") from None


def _read_own(parse, path: str, what: str):
    """parse() the report or measures file dq wrote at path: a malformed one
    is an input error, exit 1, where a malformed rules file is exit 3."""
    try:
        return parse(_read(path, what))
    except ParseError as exc:
        raise DqError(str(exc)) from None


@contextmanager
def _writing():
    """Report an OSError from making output directories or writing output
    files as `error: cannot write PATH: reason`."""
    try:
        yield
    except OSError as exc:
        raise DqError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None


def _load_rules_and_schema(args):
    from .dataset import load_catalog
    from .rules import parse_ruleset
    return (parse_ruleset(_read(args.rules, "rules file")),
            load_catalog(_read(args.schema, "schema file")))


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
            raise DqError(f"invalid {what}: {exc}") from None
    return names or None


def _filter_rules(rs, chars, props):
    rules = rs.rules
    if chars is not None:
        rules = tuple(r for r in rules if r.characteristic in chars)
    if props is not None:
        rules = tuple(r for r in rules if r.property in props)
    if not rules:
        raise NothingEvaluated("no rules left after applying the "
                               "characteristic/property filters")
    return rs.replace(rules=rules)


def _scoring_config(args):
    from .scoring import default_config, load_config
    if args.config:
        return load_config(_read(args.config, "config file"))
    return default_config()


# --------------------------------------------------------------------------
# Commands

def cmd_validate(args) -> int:
    from .rules import validate_ruleset
    rs, catalog = _load_rules_and_schema(args)
    diagnostics = validate_ruleset(rs, catalog)
    for d in diagnostics:
        print(d)
    errors = sum(1 for d in diagnostics if d.level == "ERROR")
    print(f"validated {len(rs.rules)} rules against {len(catalog.entities)} "
          f"entities: {errors} error(s), {len(diagnostics) - errors} warning(s)")
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_evaluate(args) -> int:
    from .dataset import load_snapshot
    from .engine import eval_all
    from .reporting import (build_report, render_report, serialize_measures,
                            serialize_report)
    from .rules import validate_ruleset
    from .scoring import score_all
    from .taxonomy import parse_characteristic, parse_property
    rs, catalog = _load_rules_and_schema(args)
    chars = _parse_name_list(args.chars, parse_characteristic, "characteristic")
    props = _parse_name_list(args.props, parse_property, "property")
    rs = _filter_rules(rs, chars, props)

    errors = [d for d in validate_ruleset(rs, catalog) if d.level == "ERROR"]
    if errors:
        raise InvalidRuleset("\n".join(map(str, errors)))

    config = _scoring_config(args)
    repo = load_snapshot(Path(args.data), catalog)
    ms = eval_all(rs, repo, jobs=args.jobs)
    result = score_all(ms, rs, config)

    report = build_report(rs, repo, ms, result, config, __version__)
    out = Path(args.out)
    with _writing():
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "report.json", serialize_report(report))
        write_atomic(out / "measures.json", serialize_measures(ms))
        if args.format == "text":
            write_atomic(out / "report.txt", render_report(report))
    if args.format == "text":
        print(render_report(report))
    else:
        verdict = "ELIGIBLE" if report["verdict"]["eligible"] else "NOT ELIGIBLE"
        print(f"evaluated {len(rs.rules)} rules over "
              f"{sum(report['scope']['row_counts'].values())} rows; verdict: {verdict}")
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .reporting import parse_report
    report = _read_own(parse_report, args.report, "report")
    if report["verdict"]["eligible"]:
        print("ELIGIBLE: every evaluated characteristic is at level 3 or higher")
        return EXIT_OK
    print("NOT ELIGIBLE:")
    for reason in report["verdict"]["reasons"]:
        print(f"  {reason['characteristic']} at level {reason['level']}")
    return EXIT_NOT_ELIGIBLE


def cmd_improve(args) -> int:
    from .reporting import (build_improvement, parse_measures, parse_report,
                            write_improvement)
    report = _read_own(parse_report, args.report, "report")
    ms = _read_own(parse_measures, args.measures, "measures file")
    manifests = build_improvement(report, ms)
    with _writing():
        paths = write_improvement(manifests, report, Path(args.out))
    print(f"wrote {len(paths)} manifest(s) and index.json to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import canonical
    from .reporting import compare, parse_report, render_comparison
    first = _read_own(parse_report, args.first, "report")
    second = _read_own(parse_report, args.second, "report")
    result = compare(first, second)
    if args.out:
        out = Path(args.out)
        with _writing():
            out.mkdir(parents=True, exist_ok=True)
            write_atomic(out / "comparison.json", canonical.dumps(result))
            write_atomic(out / "comparison.txt", render_comparison(result))
    print(render_comparison(result))
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import scenarios, synthkit
    out = Path(args.out)
    if args.scenario:
        if args.scenario not in scenarios.scenario_names():
            raise DqError("unknown scenario; available: "
                          + ", ".join(scenarios.scenario_names()))
        with _writing():
            scenarios.write_scenario(args.scenario, out)
        print(f"wrote scenario {args.scenario} to {out}")
        return EXIT_OK
    if not (args.spec and args.schema and args.rules):
        raise DqError("synth needs either --scenario or all of --spec/--schema/--rules")
    spec = synthkit.parse_synthspec(_read(args.spec, "synth spec"))
    rs, catalog = _load_rules_and_schema(args)
    with _writing():
        synthkit.generate(spec, catalog, rs, out)
    print(f"wrote snapshot and expected_measures.json to {out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument wiring

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a bad argument, which is certify's "not
    eligible"; here it is a usage error like any other."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--jobs", type=_jobs, default=usable_cpus(),
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
    except DqError as exc:  # InvalidRuleset: ERROR lines, as validate prints them
        print(exc if isinstance(exc, InvalidRuleset) else f"error: {exc}",
              file=sys.stderr)
        return next(code for cls, code in _EXIT_STATUS if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
