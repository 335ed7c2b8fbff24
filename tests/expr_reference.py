"""The row-expression parser as it was before the precedence table: one
recursive-descent method per precedence level; and the checker and
interpreter as they were before the function and operator tables: one
if-branch per function and per operator.

Kept verbatim as a test oracle for `dqeval.expr` (see the properties in
tests/test_expr.py), with two changes to the interpreter: integer `%` takes
the dividend's sign, as decimal `%` and SQL `MOD` do; and `+ - * %`, unary
minus and `abs` run in a context that never rounds, so only `/` and the day
differences round to 28 digits. Do not import this from `src/`.
"""

from __future__ import annotations

import re
from datetime import datetime
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     InvalidOperation, localcontext)
from fractions import Fraction

from dqeval.errors import ParseError
from dqeval.expr import (_COMPARE, _FUNCS, KEYWORDS, And, Arith, Call, Column,
                         Compare, Expr, ExprTypeError, Literal, Neg, Not, Or,
                         _tokenize, _Token, validate_pattern)
from dqeval.values import parse_timestamp, value_type

_SECONDS_PER_DAY = Decimal(86400)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


# --------------------------------------------------------------------------
# Parsing

class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, message: str):
        raise ParseError(f"{message} in expression {self.source!r}",
                         column=self.tok.pos + 1)

    def expect_op(self, text: str) -> None:
        if self.tok.kind != "op" or self.tok.text != text:
            self.fail(f"expected {text!r}")
        self.advance()

    def at_op(self, *texts: str) -> bool:
        return self.tok.kind == "op" and self.tok.text in texts

    def at_keyword(self, word: str) -> bool:
        return self.tok.kind == "ident" and self.tok.text == word

    # precedence climbing, lowest first
    def parse(self) -> Expr:
        e = self.or_expr()
        if self.tok.kind != "eof":
            self.fail(f"unparsed input starting at {self.tok.text!r}")
        return e

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.at_keyword("or"):
            self.advance()
            e = Or(e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.not_expr()
        while self.at_keyword("and"):
            self.advance()
            e = And(e, self.not_expr())
        return e

    def not_expr(self) -> Expr:
        if self.at_keyword("not"):
            self.advance()
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        e = self.sum_expr()
        if self.at_op(*_COMPARE):
            op = self.advance().text
            return Compare(op, e, self.sum_expr())
        return e

    def sum_expr(self) -> Expr:
        e = self.term()
        while self.at_op("+", "-"):
            op = self.advance().text
            e = Arith(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.at_op("*", "/", "%"):
            op = self.advance().text
            e = Arith(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.factor())
        return self.primary()

    def primary(self) -> Expr:
        t = self.tok
        if t.kind == "int":
            self.advance()
            return Literal(int(t.text))
        if t.kind == "decimal":
            self.advance()
            return Literal(Decimal(t.text))
        if t.kind == "string":
            self.advance()
            return Literal(t.text[1:-1].replace("''", "'"))
        if t.kind == "op" and t.text == "(":
            self.advance()
            e = self.or_expr()
            self.expect_op(")")
            return e
        if t.kind == "ident":
            word = t.text
            if word == "true":
                self.advance()
                return Literal(True)
            if word == "false":
                self.advance()
                return Literal(False)
            if word == "null":
                self.advance()
                return Literal(None)
            if word == "ts":
                self.advance()
                if self.tok.kind != "string":
                    self.fail("expected quoted timestamp after ts")
                raw = self.advance().text[1:-1].replace("''", "'")
                try:
                    return Literal(parse_timestamp(raw))
                except ValueError as exc:
                    raise ParseError(str(exc), column=t.pos + 1) from None
            if word in KEYWORDS:
                self.fail(f"keyword {word!r} cannot be used here")
            self.advance()
            if self.at_op("("):
                return self.call(word, t.pos)
            return Column(word)
        self.fail(f"unexpected token {t.text!r}" if t.kind != "eof"
                  else "unexpected end of expression")

    def call(self, name: str, pos: int) -> Expr:
        func = _FUNCS.get(name)
        if func is None:
            raise ParseError(f"unknown function {name!r} in expression {self.source!r}",
                             column=pos + 1)
        self.expect_op("(")
        args: list[Expr] = []
        if not self.at_op(")"):
            args.append(self.or_expr())
            while self.at_op(","):
                self.advance()
                args.append(self.or_expr())
        self.expect_op(")")
        if not (func.lo <= len(args) <= func.hi):
            expected = str(func.lo) if func.lo == func.hi else f"{func.lo}..{func.hi}"
            raise ParseError(f"{name} takes {expected} argument(s), got {len(args)}"
                             f" in expression {self.source!r}", column=pos + 1)
        if name == "regex_match":
            pat = args[1]
            if not (isinstance(pat, Literal) and isinstance(pat.value, str)):
                raise ParseError("regex_match pattern must be a text literal in "
                                 f"expression {self.source!r}", column=pos + 1)
            try:
                validate_pattern(pat.value)
            except ValueError as exc:
                raise ParseError(str(exc), column=pos + 1) from None
        return Call(name, tuple(args))


def parse_expr(source: str) -> Expr:
    return _Parser(source).parse()


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
