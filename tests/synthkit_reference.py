"""Reference synth verification: the per-cell forms dqeval.synthkit replaced.

`value_passes` is kept verbatim, and the slot loop below (lifted out of
`_apply_rule` into a function) as the specification of synth's post-write
check. The tests check that synthkit's bound checks accept and reject the
same values, and that its per-distinct-value verification raises the same
SynthError, with the same message and cell, as this loop.
"""

from __future__ import annotations

import re
from datetime import timedelta

from dqeval.errors import SynthError
from dqeval.rules import (Domain, ForeignKey, FormatClass, Freshness, NoDefault,
                          NotNull, Range, Rule, RuleSet, Syntax)
from dqeval.values import coerce_literal


def value_passes(rule: Rule, value, schema, rs: RuleSet,
                 parent_values: set | None) -> bool:
    k = rule.kind
    if isinstance(k, (Syntax, FormatClass)):
        return value is not None and re.fullmatch(k.pattern, value) is not None
    if isinstance(k, NotNull):
        return value is not None
    if isinstance(k, NoDefault):
        dtype = schema.column(rule.columns[0]).datatype
        return value is not None and value not in {coerce_literal(p, dtype)
                                                   for p in k.placeholders}
    if isinstance(k, Range):
        if value is None:
            return False
        dtype = schema.column(rule.columns[0]).datatype
        if k.min is not None:
            lo = coerce_literal(k.min, dtype)
            if value < lo if k.min_inclusive else value <= lo:
                return False
        if k.max is not None:
            hi = coerce_literal(k.max, dtype)
            if value > hi if k.max_inclusive else value >= hi:
                return False
        return True
    if isinstance(k, Domain):
        if value is None:
            return False
        if k.reference is not None:
            return value in (parent_values or set())
        dtype = schema.column(rule.columns[0]).datatype
        return value in {coerce_literal(v, dtype) for v in k.allowed}
    if isinstance(k, ForeignKey):
        return value is not None and value in (parent_values or set())
    if isinstance(k, Freshness):
        if value is None:
            return False
        cutoff = rs.reference_time - timedelta(
            microseconds=int(k.max_age_days * 86_400_000_000))
        return value >= cutoff
    raise SynthError(f"no per-value check for kind {k.name}")  # pragma: no cover


def verify(rule: Rule, tables, slots: list[tuple[str, str, int]],
           chosen_slots: list[tuple[str, str, int]], schema, rs: RuleSet,
           parents: set | None) -> None:
    """The loop over every (entity, column, row) slot: chosen slots must fail,
    all others pass."""
    chosen_set = set(chosen_slots)
    for ent, cname, i in slots:
        value = tables[ent][cname][i]
        ok = value_passes(rule, value, schema, rs, parents)
        if (ent, cname, i) in chosen_set and ok:
            raise SynthError(f"rule {rule.id!r}: planned violating value {value!r} "
                             f"at {ent}.{cname}[{i}] passes the check")
        if (ent, cname, i) not in chosen_set and not ok:
            raise SynthError(f"rule {rule.id!r}: baseline value {value!r} "
                             f"at {ent}.{cname}[{i}] fails the check")
