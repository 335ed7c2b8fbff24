"""The row-expression checker and interpreter as they were before the
function and operator tables: one if-branch per function and per operator.

Kept verbatim as a test oracle for `dqeval.expr` (see the properties in
tests/test_expr.py), with two changes: integer `%` takes the dividend's sign,
as decimal `%` and SQL `MOD` do; and `+ - * %`, unary minus and `abs` run in
a context that never rounds, so only `/` and the day differences round to 28
digits. Do not import this from `src/`.
"""

from __future__ import annotations

import re
from datetime import datetime
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     InvalidOperation, localcontext)
from fractions import Fraction

from dqeval.expr import (And, Arith, Call, Column, Compare, Expr, ExprTypeError,
                         Literal, Neg, Not, Or)
from dqeval.values import value_type

_SECONDS_PER_DAY = Decimal(86400)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


# --------------------------------------------------------------------------
# Type checking

_NUMERIC = ("integer", "decimal")


def comparable(a: str, b: str) -> bool:
    """Equal datatypes, or both numeric, compare."""
    if a == b:
        return True
    return a in _NUMERIC and b in _NUMERIC


def typecheck(e: Expr, columns: dict[str, str]) -> str:
    """Infer the expression's datatype against a column→datatype mapping.

    Returns one of the datatype names, or "null" for the bare null literal.
    Raises ExprTypeError on any mismatch.
    """
    if isinstance(e, Literal):
        return "null" if e.value is None else value_type(e.value)
    if isinstance(e, Column):
        try:
            return columns[e.name]
        except KeyError:
            raise ExprTypeError(f"unknown column {e.name!r}") from None
    if isinstance(e, Compare):
        lt = typecheck(e.left, columns)
        rt = typecheck(e.right, columns)
        if "null" in (lt, rt):
            return "boolean"  # comparison with null is legal and yields null
        if not comparable(lt, rt):
            raise ExprTypeError(f"cannot compare {lt} {e.op} {rt}")
        if e.op not in ("=", "!=") and lt == "boolean":
            raise ExprTypeError("booleans have no ordering")
        return "boolean"
    if isinstance(e, (And, Or)):
        for side in (e.left, e.right):
            t = typecheck(side, columns)
            if t not in ("boolean", "null"):
                raise ExprTypeError(f"boolean connective applied to {t}")
        return "boolean"
    if isinstance(e, Not):
        t = typecheck(e.operand, columns)
        if t not in ("boolean", "null"):
            raise ExprTypeError(f"not applied to {t}")
        return "boolean"
    if isinstance(e, Neg):
        t = typecheck(e.operand, columns)
        if t == "null":
            return "decimal"
        if t not in _NUMERIC:
            raise ExprTypeError(f"unary minus applied to {t}")
        return t
    if isinstance(e, Arith):
        lt = typecheck(e.left, columns)
        rt = typecheck(e.right, columns)
        for t in (lt, rt):
            if t not in _NUMERIC and t != "null":
                raise ExprTypeError(f"arithmetic {e.op!r} applied to {t}")
        if e.op == "/":
            return "decimal"
        if "decimal" in (lt, rt) or "null" in (lt, rt):
            return "decimal"
        return "integer"
    if isinstance(e, Call):
        return _typecheck_call(e, columns)
    raise TypeError(f"not an expression node: {e!r}")


def _typecheck_call(e: Call, columns: dict[str, str]) -> str:
    kinds = [typecheck(a, columns) for a in e.args]

    def need(i: int, *allowed: str) -> None:
        if kinds[i] != "null" and kinds[i] not in allowed:
            raise ExprTypeError(
                f"{e.func} argument {i + 1} must be {' or '.join(allowed)}, got {kinds[i]}")

    if e.func in ("upper", "lower"):
        need(0, "text")
        return "text"
    if e.func == "len":
        need(0, "text")
        return "integer"
    if e.func == "substr":
        need(0, "text")
        for i in range(1, len(e.args)):
            need(i, "integer")
        return "text"
    if e.func == "abs":
        need(0, *_NUMERIC)
        return kinds[0] if kinds[0] in _NUMERIC else "decimal"
    if e.func == "regex_match":
        need(0, "text")
        return "boolean"
    if e.func == "date_diff_days":
        need(0, "timestamp")
        need(1, "timestamp")
        return "decimal"
    if e.func == "age_days":
        need(0, "timestamp")
        return "decimal"
    if e.func == "in_set":
        first = kinds[0]
        for i in range(1, len(e.args)):
            if kinds[i] == "null" or first == "null":
                continue
            if not comparable(first, kinds[i]):
                raise ExprTypeError(
                    f"in_set member {i + 1} has type {kinds[i]}, incompatible with {first}")
        return "boolean"
    raise ExprTypeError(f"unknown function {e.func!r}")  # pragma: no cover


def columns_referenced(e: Expr) -> set[str]:
    if isinstance(e, Column):
        return {e.name}
    if isinstance(e, (Literal,)):
        return set()
    if isinstance(e, Compare):
        return columns_referenced(e.left) | columns_referenced(e.right)
    if isinstance(e, (And, Or)):
        return columns_referenced(e.left) | columns_referenced(e.right)
    if isinstance(e, (Not, Neg)):
        return columns_referenced(e.operand)
    if isinstance(e, Arith):
        return columns_referenced(e.left) | columns_referenced(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= columns_referenced(a)
        return out
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Evaluation

def evaluate(e: Expr, row, reference_time: datetime):
    """Evaluate against one row (column→value mapping). Returns a value or None.

    Pure: depends only on the row contents and reference_time.
    """
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Column):
        return row[e.name]
    if isinstance(e, And):
        left = evaluate(e.left, row, reference_time)
        if left is False:
            return False
        right = evaluate(e.right, row, reference_time)
        if right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if isinstance(e, Or):
        left = evaluate(e.left, row, reference_time)
        if left is True:
            return True
        right = evaluate(e.right, row, reference_time)
        if right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if isinstance(e, Not):
        v = evaluate(e.operand, row, reference_time)
        return None if v is None else not v
    if isinstance(e, Compare):
        left = evaluate(e.left, row, reference_time)
        right = evaluate(e.right, row, reference_time)
        if left is None or right is None:
            return None
        op = e.op
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if isinstance(e, Neg):
        v = evaluate(e.operand, row, reference_time)
        with localcontext(_EXACT):
            return None if v is None else -v
    if isinstance(e, Arith):
        left = evaluate(e.left, row, reference_time)
        right = evaluate(e.right, row, reference_time)
        if left is None or right is None:
            return None
        try:
            if e.op == "/":
                with localcontext() as ctx:
                    ctx.prec = 28
                    return Decimal(left) / Decimal(right)
            with localcontext(_EXACT):
                if e.op == "+":
                    return left + right
                if e.op == "-":
                    return left - right
                if e.op == "*":
                    return left * right
                if type(left) is int and type(right) is int:  # truncated, like Decimal
                    return left - right * int(Fraction(left, right))
                return left % right
        except (ZeroDivisionError, InvalidOperation):
            return None  # arithmetic faults are data conditions, not errors
    if isinstance(e, Call):
        return _eval_call(e, row, reference_time)
    raise TypeError(f"not an expression node: {e!r}")


def _eval_call(e: Call, row, reference_time: datetime):
    args = [evaluate(a, row, reference_time) for a in e.args]
    f = e.func
    if f == "in_set":
        if args[0] is None:
            return None
        return any(m is not None and _same_kind(args[0], m) and args[0] == m
                   for m in args[1:])
    if f == "age_days":
        if args[0] is None:
            return None
        delta = reference_time - args[0]
        return _days(delta)
    if f == "date_diff_days":
        if args[0] is None or args[1] is None:
            return None
        return _days(args[0] - args[1])
    if any(a is None for a in args):
        return None
    if f == "len":
        return len(args[0])
    if f == "upper":
        return args[0].upper()
    if f == "lower":
        return args[0].lower()
    if f == "substr":
        start = max(args[1], 1) - 1  # 1-based start, clamped
        if len(args) == 2:
            return args[0][start:]
        if args[2] <= 0:
            return ""
        return args[0][start:start + args[2]]
    if f == "abs":
        with localcontext(_EXACT):
            return abs(args[0])
    if f == "regex_match":
        return re.fullmatch(e.args[1].value, args[0]) is not None
    raise TypeError(f"unknown function {f!r}")  # pragma: no cover


def _same_kind(a, b) -> bool:
    num = (int, Decimal)
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, num) and isinstance(b, num):
        return True
    return type(a) is type(b)


def _days(delta) -> Decimal:
    seconds = Decimal(delta.days) * _SECONDS_PER_DAY + Decimal(delta.seconds)
    if delta.microseconds:
        seconds += Decimal(delta.microseconds) / Decimal(1_000_000)
    with localcontext() as ctx:
        ctx.prec = 28
        return seconds / _SECONDS_PER_DAY
