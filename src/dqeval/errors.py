"""Exception types shared across the package."""

from __future__ import annotations


class DqError(Exception):
    """Base class for all errors raised by dqeval."""


class ParseError(DqError):
    """Malformed rules document, schema catalog, or expression text.

    `line`/`column` are set when the underlying decoder knows them: both
    for JSON syntax errors, the 1-based column alone for expression text;
    `context` is a path such as ``rules[3].property`` for errors found after
    decoding.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None, context: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.context = context
        super().__init__(str(self))

    def __str__(self) -> str:
        parts = [] if self.line is None else [f"line {self.line}"]
        if self.column is not None:
            parts.append(f"column {self.column}")
        loc = f" at {', '.join(parts)}" if parts else ""
        ctx = f" ({self.context})" if self.context else ""
        return f"{self.message}{loc}{ctx}"


class LoadError(DqError):
    """Snapshot file could not be loaded into a typed entity."""

    def __init__(self, message: str, *, row: int | None = None,
                 column: str | None = None):
        self.message = message
        self.row = row
        self.column = column
        super().__init__(str(self))

    def __str__(self) -> str:
        parts = []
        if self.row is not None:
            parts.append(f"row {self.row}")
        if self.column is not None:
            parts.append(f"column {self.column!r}")
        suffix = f" ({', '.join(parts)})" if parts else ""
        return f"{self.message}{suffix}"


class UnknownColumn(DqError):
    """A column name does not exist in the entity schema."""


class EvalError(DqError):
    """Internal inconsistency during rule evaluation (a pipeline bug, not a
    data defect): e.g. a validated rule referencing a missing column."""

    def __init__(self, message: str, rule_id: str | None = None):
        self.rule_id = rule_id
        super().__init__(message if rule_id is None else f"rule {rule_id}: {message}")


class OutOfRange(DqError):
    """A quality value lies outside [0, 100]."""


class NothingEvaluated(DqError):
    """No characteristic was evaluated, so no verdict can be produced."""


class FingerprintMismatch(DqError):
    """Report and measures do not describe the same inputs."""


class ScopeMismatch(DqError):
    """Two reports share no evaluated characteristic and cannot be compared."""


class SynthError(DqError):
    """Synthetic-snapshot specification cannot be honored as written."""


class ConflictingPlan(SynthError):
    """Two violation plans demand contradictory values for one cell."""


class InvalidRuleset(SynthError):
    """The ruleset fails validation against the catalog; the message is its
    ERROR diagnostics, one per line, as `dq validate` prints them."""
