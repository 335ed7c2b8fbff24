"""Row-predicate expression language.

Small, typed expression language used for rule `where` filters and
`predicate` checks. Values follow the cell model in `values`; evaluation is
pure (same row + same reference time always gives the same result) and
total over data: null operands propagate (three-valued logic for the
boolean connectives) and arithmetic faults such as division by zero yield
null instead of raising. A predicate passes only when it evaluates to
exactly true.

Grammar (EBNF) is documented in docs/expression-language.md.
"""

from __future__ import annotations

import functools
import operator
import re
from datetime import datetime
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     InvalidOperation)

try:
    from re import _parser as _regex_parser  # the parser re.compile uses
except ImportError:  # Python 3.10
    import sre_parse as _regex_parser

from .canonical import MAX_NUMBER_DIGITS, number_out_of_range
from .errors import ParseError
from .host import Record
from .values import format_timestamp, parse_timestamp, value_type

__all__ = [
    "Expr", "Literal", "Column", "Compare", "And", "Or", "Not", "Arith",
    "Neg", "Call", "parse_expr", "unparse", "typecheck", "evaluate",
    "compiled", "columns_referenced", "node_count", "validate_pattern",
    "ExprTypeError", "MAX_EXPR_DEPTH",
]

KEYWORDS = {"and", "or", "not", "true", "false", "null", "ts"}

# How deeply an expression's tree, and its parentheses, prefix operators,
# call arguments and operands, may nest: the parser and every walk over a
# tree recurse a few frames per level, and Python's stack holds about a
# thousand.
MAX_EXPR_DEPTH = 100


class ExprTypeError(ValueError):
    """Expression does not type-check against the entity schema."""


# --------------------------------------------------------------------------
# AST

class Expr(Record):
    """A node of an expression tree."""


class Literal(Expr):
    value: object  # None | str | int | Decimal | bool | datetime


class Column(Expr):
    name: str


class Compare(Expr):
    op: str  # = != < <= > >=
    left: Expr
    right: Expr


class And(Expr):
    left: Expr
    right: Expr
    op = "and"  # not annotated: the operator's text, as Compare and Arith hold it
    settles = False  # not annotated: the operand value that decides the result alone


class Or(Expr):
    left: Expr
    right: Expr
    op = "or"
    settles = True


class Not(Expr):
    operand: Expr


class Arith(Expr):
    op: str  # + - * / %
    left: Expr
    right: Expr


class Neg(Expr):
    operand: Expr


class Call(Expr):
    func: str
    args: tuple[Expr, ...]


# --------------------------------------------------------------------------
# Regex dialect guard

_BACKREF_RE = re.compile(r"\\[1-9]|\(\?P=")
_REPEATS = {_regex_parser.MAX_REPEAT, _regex_parser.MIN_REPEAT,
            getattr(_regex_parser, "POSSESSIVE_REPEAT", None)}  # a++: Python 3.11+


def _inner_patterns(av):
    """The patterns inside one parsed item's argument: a group's, an
    assertion's, or each branch of an alternation."""
    if isinstance(av, _regex_parser.SubPattern):
        yield av
    elif isinstance(av, (tuple, list)):
        for x in av:
            yield from _inner_patterns(x)


def _star_height(items) -> int:
    """How deeply unbounded quantifiers (*, +, {n,}) nest in a parsed pattern."""
    height = 0
    for op, av in items:
        if op in _REPEATS:
            _, most, body = av
            height = max(height, (most == _regex_parser.MAXREPEAT) + _star_height(body))
        else:
            height = max([height, *map(_star_height, _inner_patterns(av))])
    return height


@functools.lru_cache(maxsize=256)  # a ruleset repeats its few patterns
def validate_pattern(pattern: str) -> None:
    """Reject backreferences, uncompilable patterns, and an unbounded
    quantifier over a group that holds another, such as `(a+)+`: a
    backtracking matcher can take time exponential in the text's length to
    fail on one (Davis et al., The Impact of Regular Expression Denial of
    Service (ReDoS) in Practice, ESEC/FSE 2018).

    The portable dialect allows character classes, quantifiers, anchors,
    alternation, and grouping only.
    """
    if _BACKREF_RE.search(pattern):
        raise ValueError(f"pattern {pattern!r} uses backreferences, which are not portable")
    try:
        re.compile(pattern)
    except re.error as exc:
        raise ValueError(f"invalid pattern {pattern!r}: {exc}") from None
    if _star_height(_regex_parser.parse(pattern)) > 1:
        raise ValueError(f"pattern {pattern!r} nests unbounded quantifiers, "
                         "which can take exponential time to match")


# --------------------------------------------------------------------------
# Operators and functions: one definition each, read by the parser, the type
# checker and the evaluator. Implementations see non-null operands only.

_NUMERIC = ("integer", "decimal")
_SECONDS_PER_DAY = Decimal(86400)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # never rounds
_DIVISION = Context(prec=28)  # quotients round to 28 significant digits


def _exact(int_op, decimal_op):
    """int op int gives an int; a Decimal operand gives the unrounded Decimal."""
    def apply(a, b):
        return int_op(a, b) if type(a) is int and type(b) is int else decimal_op(a, b)
    return apply


def _negate(v):
    return -v if type(v) is int else _EXACT.minus(v)


def _abs(v):
    return abs(v) if type(v) is int else _EXACT.abs(v)


def _divide(a, b) -> Decimal:
    return _DIVISION.divide(Decimal(a), Decimal(b))


def _int_mod(a: int, b: int) -> int:
    """Remainder with the dividend's sign, as Decimal's % and SQL MOD give."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITH = {"+": _exact(operator.add, _EXACT.add),
          "-": _exact(operator.sub, _EXACT.subtract),
          "*": _exact(operator.mul, _EXACT.multiply),
          "/": _divide, "%": _exact(_int_mod, _EXACT.remainder)}
_OPERATORS = {**_COMPARE, **_ARITH}
_PREFIX = {Not: operator.not_, Neg: _negate}

# Precedence levels, loosest first; and each binary operator's level and the
# node it builds from its two operands. The parser and the unparser read
# precedence from these alone.
_LEVEL = {"or": 1, "and": 2, "not": 3, "cmp": 4, "sum": 5, "term": 6, "neg": 7, "atom": 8}
_BINARY = {"or": (_LEVEL["or"], Or), "and": (_LEVEL["and"], And),
           **{op: (_LEVEL["cmp"], functools.partial(Compare, op)) for op in _COMPARE},
           **{op: (_LEVEL["sum" if op in "+-" else "term"], functools.partial(Arith, op))
              for op in _ARITH}}


def _substr(text: str, start: int, length: int | None = None) -> str:
    start = max(start, 1) - 1  # 1-based start, clamped
    if length is None:
        return text[start:]
    return text[start:start + length] if length > 0 else ""


def _regex_match(text: str, pattern: str) -> bool:
    return re.fullmatch(pattern, text) is not None


def _days(a: datetime, b: datetime) -> Decimal:
    """a minus b, in days."""
    delta = a - b
    seconds = Decimal(delta.days) * _SECONDS_PER_DAY + Decimal(delta.seconds)
    if delta.microseconds:
        seconds += Decimal(delta.microseconds) / Decimal(1_000_000)
    return _DIVISION.divide(seconds, _SECONDS_PER_DAY)


def _in_set(value, *members) -> bool | None:
    """Null subject: null. A member matches an equal value of its own type, or
    any number an equal number; null members never match."""
    if value is None:
        return None
    if type(value) in (int, Decimal):
        return any(type(m) in (int, Decimal) and value == m for m in members)
    return any(type(m) is type(value) and value == m for m in members)


class _Func(Record):
    lo: int  # fewest arguments
    hi: int  # most arguments
    params: tuple[tuple[str, ...], ...]  # allowed datatypes per argument; later ones any
    result: str
    impl: object  # callable over the argument values


_TEXT, _INTEGER, _TIMESTAMP = ("text",), ("integer",), ("timestamp",)

_FUNCS = {
    "len": _Func(1, 1, (_TEXT,), "integer", len),
    "upper": _Func(1, 1, (_TEXT,), "text", str.upper),
    "lower": _Func(1, 1, (_TEXT,), "text", str.lower),
    "substr": _Func(2, 3, (_TEXT, _INTEGER, _INTEGER), "text", _substr),
    "abs": _Func(1, 1, (_NUMERIC,), "decimal", _abs),  # else its argument's type
    "regex_match": _Func(2, 2, (_TEXT,), "boolean", _regex_match),  # pattern: a literal
    "date_diff_days": _Func(2, 2, (_TIMESTAMP, _TIMESTAMP), "decimal", _days),
    "age_days": _Func(1, 1, (_TIMESTAMP,), "decimal", _days),  # from reference time
    "in_set": _Func(2, 64, (), "boolean", _in_set),  # members: comparable to the subject
}


# --------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<decimal>[0-9]+\.[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|[=<>+\-*/%(),])
""", re.VERBOSE)


class _Token(Record):
    kind: str
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r} in expression "
                             f"{source!r}", column=pos + 1)
        kind = m.lastgroup
        if kind in ("int", "decimal") and MAX_NUMBER_DIGITS < max(
                map(len, m.group().split("."))):
            raise number_out_of_range(m.group())
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.nesting = -1  # of expr() calls: the whole expression is at 0

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
        if not self.at_op(text):
            self.fail(f"expected {text!r}")
        self.advance()

    def at_op(self, text: str) -> bool:
        return self.tok.kind == "op" and self.tok.text == text

    def at_keyword(self, word: str) -> bool:
        return self.tok.kind == "ident" and self.tok.text == word

    def parse(self) -> Expr:
        e = self.expr(_LEVEL["or"])
        if self.tok.kind != "eof":
            self.fail(f"unparsed input starting at {self.tok.text!r}")
        # a tree deeper than the limit needs more operator tokens than that
        if len(self.tokens) > MAX_EXPR_DEPTH and _depth(e) > MAX_EXPR_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels "
                             f"in expression {self.source!r}", column=1)
        return e

    def expr(self, level: int) -> Expr:
        """The longest expression from here whose operators are at `level` or
        above: a prefix `not` or `-`, or a primary, then binary operators by
        precedence climbing over _BINARY (Pratt, Top Down Operator
        Precedence, POPL 1973)."""
        self.nesting += 1
        if self.nesting > MAX_EXPR_DEPTH:
            self.fail(f"expression nests deeper than {MAX_EXPR_DEPTH} levels")
        below = _LEVEL["atom"]  # operators that may follow: those below this level
        if level <= _LEVEL["not"] and self.at_keyword("not"):
            self.advance()
            left, below = Not(self.expr(_LEVEL["not"])), _LEVEL["not"] + 1
        elif self.at_op("-"):
            self.advance()
            left = Neg(self.expr(_LEVEL["neg"]))
        else:
            left = self.primary()
        while (binary := _BINARY.get(self.tok.text)) and level <= binary[0] < below:
            self.advance()
            p, build = binary
            left = build(left, self.expr(p + 1))  # left-associative
            below = p if p == _LEVEL["cmp"] else p + 1  # comparisons do not chain
        self.nesting -= 1
        return left

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
            e = self.expr(_LEVEL["or"])
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
            args.append(self.expr(_LEVEL["or"]))
            while self.at_op(","):
                self.advance()
                args.append(self.expr(_LEVEL["or"]))
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
    """Parse expression text; syntax and function-shape errors raise ParseError."""
    return _Parser(source).parse()


# --------------------------------------------------------------------------
# Unparser (canonical text; parse(unparse(e)) == e)

def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _unparse(e: Expr) -> tuple[str, int]:
    if isinstance(e, Literal):
        v = e.value
        if v is None:
            return "null", _LEVEL["atom"]
        if v is True:
            return "true", _LEVEL["atom"]
        if v is False:
            return "false", _LEVEL["atom"]
        if isinstance(v, str):
            return _quote(v), _LEVEL["atom"]
        if isinstance(v, datetime):
            return "ts" + _quote(format_timestamp(v)), _LEVEL["atom"]
        if isinstance(v, Decimal):  # positional: the tokenizer reads no exponent
            return format(v, "f"), _LEVEL["atom"]
        return str(v), _LEVEL["atom"]
    if isinstance(e, Column):
        return e.name, _LEVEL["atom"]
    if isinstance(e, Call):
        args = ", ".join(_wrap(a, 0) for a in e.args)
        return f"{e.func}({args})", _LEVEL["atom"]
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, _LEVEL["neg"]), _LEVEL["neg"]
    if isinstance(e, Not):
        return "not " + _wrap(e.operand, _LEVEL["not"]), _LEVEL["not"]
    if isinstance(e, (Or, And, Compare, Arith)):
        lvl = _BINARY[e.op][0]
        left = _wrap(e.left, lvl + (lvl == _LEVEL["cmp"]))  # comparisons do not chain
        right = _wrap(e.right, lvl + 1)  # left-assoc: parenthesize equal-level right
        return f"{left} {e.op} {right}", lvl
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, min_level: int) -> str:
    text, level = _unparse(e)
    return f"({text})" if level < min_level else text


def unparse(e: Expr) -> str:
    return _unparse(e)[0]


# --------------------------------------------------------------------------
# Type checking

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
        return "integer" if lt == rt == "integer" and e.op != "/" else "decimal"
    if isinstance(e, Call):
        return _typecheck_call(e, columns)
    raise TypeError(f"not an expression node: {e!r}")


def _typecheck_call(e: Call, columns: dict[str, str]) -> str:
    kinds = [typecheck(a, columns) for a in e.args]
    func = _FUNCS[e.func]
    for i, (kind, allowed) in enumerate(zip(kinds, func.params), 1):
        if kind != "null" and kind not in allowed:
            raise ExprTypeError(
                f"{e.func} argument {i} must be {' or '.join(allowed)}, got {kind}")
    if e.func == "in_set":
        first = kinds[0]
        for i, kind in enumerate(kinds[1:], 2):
            if "null" not in (first, kind) and not comparable(first, kind):
                raise ExprTypeError(
                    f"in_set member {i} has type {kind}, incompatible with {first}")
    if e.func == "abs" and kinds[0] != "null":
        return kinds[0]  # abs keeps its argument's numeric type
    return func.result


def _children(e: Expr):
    for field in e._fields:  # child nodes, and Call's tuple of them
        value = getattr(e, field)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Expr):
                yield child


def columns_referenced(e: Expr) -> set[str]:
    if isinstance(e, Column):
        return {e.name}
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression node: {e!r}")
    out: set[str] = set()
    for child in _children(e):
        out |= columns_referenced(child)
    return out


def _depth(e: Expr) -> int:
    """How many levels below its root the tree reaches, counted level by
    level: a recursive walk would exhaust the stack on the trees this
    bounds."""
    depth, level = 0, list(_children(e))
    while level:
        depth += 1
        level = [c for n in level for c in _children(n)]
    return depth


def node_count(e: Expr) -> int:
    """How many nodes the expression tree holds, itself included."""
    return 1 + sum(map(node_count, _children(e)))


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
    if isinstance(e, (And, Or)):  # three-valued: a settling side decides, else a null one
        settles = e.settles
        left = evaluate(e.left, row, reference_time)
        if left is settles:
            return settles
        right = evaluate(e.right, row, reference_time)
        if right is settles:
            return settles
        return None if left is None or right is None else not settles
    if type(e) in _PREFIX:
        v = evaluate(e.operand, row, reference_time)
        return None if v is None else _PREFIX[type(e)](v)
    if isinstance(e, (Compare, Arith)):
        left = evaluate(e.left, row, reference_time)
        right = evaluate(e.right, row, reference_time)
        if left is None or right is None:
            return None
        try:
            return _OPERATORS[e.op](left, right)
        except (ZeroDivisionError, InvalidOperation):  # never a comparison: no NaNs
            return None  # arithmetic faults are data conditions, not errors
    if isinstance(e, Call):
        return _eval_call(e, row, reference_time)
    raise TypeError(f"not an expression node: {e!r}")


def _eval_call(e: Call, row, reference_time: datetime):
    args = [evaluate(a, row, reference_time) for a in e.args]
    if e.func == "age_days":
        args.insert(0, reference_time)  # age_days(t) is date_diff_days(reference_time, t)
    if e.func != "in_set":  # null members never match, so _in_set sees them
        for a in args:  # by identity: `None in args` would compare datetimes by ==
            if a is None:
                return None
    return _FUNCS[e.func].impl(*args)


# --------------------------------------------------------------------------
# Compilation: each expression once, into closures over its columns

def compiled(e: Expr, column, reference_time: datetime):
    """The function f(i) giving evaluate's value of `e` on row i, where
    `column(name)` is that column's list of cells. The tree is walked once:
    each Column binds its list, a regex_match pattern is compiled and an
    in_set of literal members bound to their tuple here, not per row. Feeley
    and Lapalme, Using Closures for Code Generation, Computer Languages
    12(1), 1987."""
    def sub(x):
        return compiled(x, column, reference_time)

    if isinstance(e, Literal):
        value = e.value
        return lambda i: value
    if isinstance(e, Column):
        return column(e.name).__getitem__
    if isinstance(e, (And, Or)):
        settles, left, right = e.settles, sub(e.left), sub(e.right)

        def connective(i):
            a = left(i)
            if a is settles:
                return settles
            b = right(i)
            if b is settles:
                return settles
            return None if a is None or b is None else not settles
        return connective
    if type(e) in _PREFIX:
        op, operand = _PREFIX[type(e)], sub(e.operand)
        return lambda i: None if (v := operand(i)) is None else op(v)
    if isinstance(e, (Compare, Arith)):
        op, left = _OPERATORS[e.op], sub(e.left)
        if isinstance(e, Compare) and isinstance(e.right, Literal) \
                and e.right.value is not None:
            b = e.right.value  # the common `column < literal`, one call per row
            return lambda i: None if (a := left(i)) is None else op(a, b)
        right = sub(e.right)

        def strict(i):
            a, b = left(i), right(i)
            if a is None or b is None:
                return None
            try:
                return op(a, b)
            except (ZeroDivisionError, InvalidOperation):
                return None  # arithmetic faults are data conditions, not errors
        return strict
    if isinstance(e, Call):
        return _compiled_call(e, list(map(sub, e.args)), reference_time)
    raise TypeError(f"not an expression node: {e!r}")


def _compiled_call(e: Call, args: list, reference_time: datetime):
    impl = _FUNCS[e.func].impl
    if e.func == "in_set":  # null members never match, so _in_set sees them
        subject = args[0]
        if all(isinstance(m, Literal) for m in e.args[1:]):
            members = tuple(m.value for m in e.args[1:])
            return lambda i: impl(subject(i), *members)
        return lambda i: impl(*[a(i) for a in args])
    if e.func == "regex_match":
        match = re.compile(e.args[1].value).fullmatch
        text = args[0]
        return lambda i: None if (t := text(i)) is None else match(t) is not None
    if e.func == "age_days":  # age_days(t) is date_diff_days(reference_time, t)
        args.insert(0, lambda i: reference_time)
    if len(args) == 1:
        [arg] = args
        return lambda i: None if (v := arg(i)) is None else impl(v)

    def call(i):
        values = [a(i) for a in args]
        for v in values:  # by identity, as in _eval_call
            if v is None:
                return None
        return impl(*values)
    return call
