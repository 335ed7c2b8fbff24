from __future__ import annotations

import re
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import expr_reference as reference
from dqeval.errors import ParseError
from dqeval.expr import (_ARITH, _COMPARE, _FUNCS, MAX_EXPR_DEPTH, And, Arith,
                         Call, Column, Compare, ExprTypeError, Literal, Neg, Not,
                         Or, columns_referenced, compiled, evaluate, node_count,
                         parse_expr, typecheck, unparse, validate_pattern)

REF = datetime(2024, 6, 1, tzinfo=timezone.utc)

SCHEMA = {"name": "text", "age": "integer", "price": "decimal",
          "active": "boolean", "updated": "timestamp"}

ROW = {
    "name": "Smith",
    "age": 34,
    "price": Decimal("10.50"),
    "active": True,
    "updated": datetime(2024, 5, 30, 12, 0, tzinfo=timezone.utc),
}


def ev(source: str, row=None):
    return evaluate(parse_expr(source), row if row is not None else ROW, REF)


# --------------------------------------------------------------------------
# parsing

def test_precedence_or_and_not():
    e = parse_expr("true or false and not false")
    assert isinstance(e, Or)
    assert evaluate(e, {}, REF) is True


def test_parentheses_change_grouping():
    assert ev("(1 + 2) * 3") == 9
    assert ev("1 + 2 * 3") == 7


def test_string_escape():
    assert ev("'it''s'") == "it's"


def test_timestamp_literal_parses_and_compares():
    assert ev("updated < ts'2024-06-01T00:00:00Z'") is True


def test_timestamp_literal_requires_offset():
    with pytest.raises(ParseError):
        parse_expr("ts'2024-06-01T00:00:00'")


@pytest.mark.parametrize("text, value", [
    ("9" * 1000, int("9" * 1000)), ("1." + "5" * 1000, Decimal("1." + "5" * 1000)),
    ("9" * 1000 + ".5", Decimal("9" * 1000 + ".5"))],
    ids=["1000-digits", "1000-fraction-digits", "1000-integer-digits"])
def test_number_literals_up_to_1000_digits(text, value):
    assert parse_expr(f"x < {text}") == Compare("<", Column("x"), Literal(value))


@pytest.mark.parametrize("text", ["9" * 1001, "1." + "5" * 1001, "9" * 1001 + ".5"],
                         ids=["1001-digits", "1001-fraction-digits",
                              "1001-integer-digits"])
def test_number_literals_beyond_1000_digits_refused(text):
    with pytest.raises(ParseError, match=re.escape(
            f"number {text[:20]}... is out of range: at most 1000 digits")):
        parse_expr(f"x < {text}")


def test_unknown_function_rejected():
    with pytest.raises(ParseError, match="unknown function"):
        parse_expr("frobnicate(age)")


def test_arity_checked_at_parse():
    with pytest.raises(ParseError, match="argument"):
        parse_expr("len(name, name)")


def test_regex_pattern_must_be_literal():
    with pytest.raises(ParseError, match="text literal"):
        parse_expr("regex_match(name, name)")


def test_backreference_rejected():
    with pytest.raises(ValueError, match="backreferences"):
        validate_pattern(r"(a)\1")
    with pytest.raises(ParseError):
        parse_expr(r"regex_match(name, '(a)\1')")


@pytest.mark.parametrize("pattern", ["^(a+)+$", "(x*)*y", r"^(\d+)*$"])
def test_nested_unbounded_quantifiers_rejected(pattern):
    with pytest.raises(ValueError, match="nests unbounded quantifiers"):
        validate_pattern(pattern)
    with pytest.raises(ParseError, match="nests unbounded quantifiers"):
        parse_expr(f"regex_match(name, '{pattern}')")


def test_bundled_and_fixture_patterns_pass():
    """Criterion 8's octet pattern, a bounded quantifier over a group, and
    every pattern the bundled scenarios and the test fixtures use."""
    from dqeval.scenarios import SCENARIOS, build_scenario
    octet = "(25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)"
    bundled = {r.kind.pattern for name in SCENARIOS
               for r in build_scenario(name).ruleset.rules
               if hasattr(r.kind, "pattern")}
    assert "^[A-Z]{2}[0-9]{6}$" in bundled
    fixtures = {"^[0-9]{8}[A-Z]$", "^[0-9A-Za-z]+$", "^S[0-9]{4}$", "^F[0-9]{4}$",
                "^[0-9.]+$", "^a+$", "^[0-9]*$", "^.*$", ".*", "^$", "^[A-Z ]+$",
                "^C[0-9]+$", "(a+){3}", "(ab)*", "a*b*c+", *_PATTERNS}
    for pattern in {f"^{octet}(\\.{octet}){{3}}$", *bundled, *fixtures}:
        validate_pattern(pattern)


def test_unparsed_tail_is_error():
    with pytest.raises(ParseError, match="unparsed"):
        parse_expr("1 + 2 3")


def test_keyword_cannot_be_column():
    with pytest.raises(ParseError):
        parse_expr("not")


# the precedence table against the recursive-descent parser it replaced
# (tests/expr_reference.py), on token strings valid and invalid

_TOKENS = ["a", "b", "1", "2.5", "'x'", "ts'2024-01-01T00:00:00Z'", "ts'bad'",
           "true", "null", "and", "or", "not", "=", "!=", "<", ">=", "+", "-", "*",
           "/", "%", "(", ")", ",", "abs", "in_set", "regex_match", "nofunc", "$",
           "ts"]


def _parsed(parse, source: str):
    """The tree, or the ParseError's message and column."""
    try:
        return parse(source)
    except ParseError as exc:
        return str(exc), exc.column


@example("'x' or 'x' >= ts'2024-01-01T00:00:00Z' < 'x'")
@example("a < b < c")
@example("not a = b = c")
@example("a = not b")
@example("- not a")
@example("1 + 2 3")
@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=12).map(" ".join))
def test_parse_matches_reference(source):
    outcome = _parsed(parse_expr, source)
    assert outcome == _parsed(reference.parse_expr, source)
    if not isinstance(outcome, tuple):
        assert parse_expr(unparse(outcome)) == outcome


# Each shape nests `n` levels deep: as parentheses, as a chain of prefix
# operators, as a left-deep chain of `+`, and as calls; with its value on
# i1 = 3, b1 = true, and its node count at the limit.
_NESTED = {
    "parentheses": (lambda n: "(" * n + "i1" + ")" * n, 3, 1),
    "not": (lambda n: "not " * n + "b1", True, 101),
    "minus": (lambda n: "- " * n + "i1", 3, 101),
    "left-deep": (lambda n: " + ".join(["i1"] * (n + 1)), 303, 201),
    "calls": (lambda n: "abs(" * n + "i1" + ")" * n, 3, 101),
}


@pytest.mark.parametrize("shape", _NESTED)
def test_nesting_at_the_limit_is_accepted(shape):
    build, value, nodes = _NESTED[shape]
    e = parse_expr(build(MAX_EXPR_DEPTH))
    assert parse_expr(unparse(e)) == e
    assert node_count(e) == nodes
    typecheck(e, TYPED)
    row = {"i1": 3, "b1": True}
    assert evaluate(e, row, REF) == value
    assert compiled(e, lambda name: [row[name]], REF)(0) == value


@pytest.mark.parametrize("shape", _NESTED)
def test_nesting_beyond_the_limit_is_refused(shape):
    build = _NESTED[shape][0]
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_EXPR_DEPTH} levels"):
        parse_expr(build(MAX_EXPR_DEPTH + 1))


# --------------------------------------------------------------------------
# evaluation semantics

def test_comparisons():
    assert ev("age >= 34") is True
    assert ev("age != 34") is False
    assert ev("name = 'Smith'") is True
    assert ev("price <= 10.50") is True


def test_null_propagates_and_fails_predicates():
    row = dict(ROW, age=None)
    assert ev("age > 10", row) is None
    assert ev("age + 1 = 2", row) is None
    assert ev("len(name) > 0 and age > 10", row) is None
    assert ev("age > 10 or true", row) is True  # three-valued or


def test_not_of_null_is_null():
    row = dict(ROW, age=None)
    assert ev("not (age > 10)", row) is None


def test_division_by_zero_yields_null():
    assert ev("1 / (age - 34)") is None
    assert ev("1 % (age - 34)") is None


def test_modulo_takes_the_dividends_sign():
    # one rule whatever the operands' types, as Decimal's % and SQL MOD give
    for source, expected in [("-7 % 2", -1), ("-7 % 2.0", Decimal("-1.0")),
                             ("-7.5 % 2", Decimal("-1.5")), ("7 % -2", 1),
                             ("7 % 2", 1), ("-8 % 2", 0)]:
        got = ev(source)
        assert (got, type(got)) == (expected, type(expected)), source
    for source in ("7 % 0", "-7 % 0.0", "7.5 % 0"):
        assert ev(source) is None, source


_BIG = Decimal("123456789012345678901234567.01")  # 29 significant digits
_MINUS_BIG = Decimal("-123456789012345678901234567.01")  # `-_BIG` would round


@pytest.mark.parametrize("x", [_BIG, 10**27, _MINUS_BIG],
                         ids=["decimal", "integer", "negative"])
@pytest.mark.parametrize("source", [
    "x % 0.01 = 0", "x + 0 = x", "x - 0 = x", "x * 1 = x", "0 - (0 - x) = x",
    "-(-x) = x", "abs(x) - x = 0 or abs(x) + x = 0", "(x * 100) % 1 = 0",
    "x + 0.001 - x = 0.001",
])
def test_arithmetic_other_than_division_is_exact(source, x):
    assert ev(source, {"x": x}) is True


def test_exact_arithmetic_keeps_types_and_zero_divisors_null():
    row = {"x": _BIG, "n": 10**27}
    for source, expected in [
            ("x % 0.01", Decimal("0.00")), ("n % 0.01", Decimal("0.00")),
            ("-x", _MINUS_BIG), ("abs(-x)", _BIG), ("n * n", 10**54), ("n % 7", 10**27 % 7),
            ("-n", -10**27), ("abs(0 - n)", 10**27)]:
        got = ev(source, row)
        assert (got, type(got)) == (expected, type(expected)), source
    for source in ("x % 0", "x % 0.0", "n % 0"):
        assert ev(source, row) is None, source


def test_division_rounds_to_28_digits():
    assert ev("x / 1", {"x": _BIG}) == Decimal("1.234567890123456789012345670E+26")


def test_division_always_decimal():
    assert ev("7 / 2") == Decimal("3.5")


def test_integer_arithmetic_stays_integer():
    v = ev("2 + 3 * 4")
    assert v == 14 and isinstance(v, int)


def test_functions():
    assert ev("len(name)") == 5
    assert ev("upper(name)") == "SMITH"
    assert ev("lower(name)") == "smith"
    assert ev("substr(name, 1, 2)") == "Sm"
    assert ev("substr(name, 3)") == "ith"
    assert ev("abs(0 - age)") == 34
    assert ev("regex_match(name, '^[A-Z][a-z]+$')") is True
    assert ev("in_set(name, 'Smith', 'Jones')") is True
    assert ev("in_set(name, 'Jones')") is False


def test_age_days_uses_reference_time():
    assert ev("age_days(updated)") == Decimal("1.5")
    assert ev("date_diff_days(ts'2024-06-01T00:00:00Z', updated)") == Decimal("1.5")


def test_in_set_null_subject_is_null():
    assert ev("in_set(age, 1, 2)", dict(ROW, age=None)) is None


def test_evaluation_is_pure():
    e = parse_expr("age * 2 + len(name)")
    assert evaluate(e, ROW, REF) == evaluate(e, ROW, REF)


# --------------------------------------------------------------------------
# type checking

def test_typecheck_accepts_mixed_numerics():
    assert typecheck(parse_expr("age < price"), SCHEMA) == "boolean"


def test_typecheck_rejects_text_vs_number():
    with pytest.raises(ExprTypeError):
        typecheck(parse_expr("name < age"), SCHEMA)


def test_typecheck_rejects_boolean_ordering():
    with pytest.raises(ExprTypeError):
        typecheck(parse_expr("active < true"), SCHEMA)


def test_typecheck_unknown_column():
    with pytest.raises(ExprTypeError, match="unknown column"):
        typecheck(parse_expr("missing = 1"), SCHEMA)


def test_typecheck_function_signatures():
    with pytest.raises(ExprTypeError):
        typecheck(parse_expr("len(age)"), SCHEMA)
    with pytest.raises(ExprTypeError):
        typecheck(parse_expr("age_days(name)"), SCHEMA)
    assert typecheck(parse_expr("age_days(updated) > 3"), SCHEMA) == "boolean"


def test_columns_referenced():
    e = parse_expr("age > 1 and in_set(name, 'x') or len(lower(name)) = 2")
    assert columns_referenced(e) == {"age", "name"}


# --------------------------------------------------------------------------
# unparse round trip

@st.composite
def expr_trees(draw, depth: int = 0):
    if depth > 3:
        return draw(leaf_nodes)
    choice = draw(st.integers(0, 7))
    if choice <= 1:
        return draw(leaf_nodes)
    if choice == 2:
        return And(draw(expr_trees(depth + 1)), draw(expr_trees(depth + 1)))
    if choice == 3:
        return Or(draw(expr_trees(depth + 1)), draw(expr_trees(depth + 1)))
    if choice == 4:
        return Not(draw(expr_trees(depth + 1)))
    if choice == 5:
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return Compare(op, draw(arith_trees(depth + 1)), draw(arith_trees(depth + 1)))
    if choice == 6:
        return Call("in_set", (draw(arith_trees(depth + 1)), Literal(1), Literal("x")))
    op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
    return Arith(op, draw(arith_trees(depth + 1)), draw(arith_trees(depth + 1)))


@st.composite
def arith_trees(draw, depth: int = 0):
    if depth > 3:
        return draw(leaf_nodes)
    choice = draw(st.integers(0, 3))
    if choice <= 1:
        return draw(leaf_nodes)
    if choice == 2:
        return Neg(draw(arith_trees(depth + 1)))
    op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
    return Arith(op, draw(arith_trees(depth + 1)), draw(arith_trees(depth + 1)))


leaf_nodes = st.one_of(
    st.integers(0, 999).map(Literal),
    st.sampled_from(["Decim1", "a_col", "x9"]).map(Column),
    # every positional decimal the tokenizer reads: small ones and trailing zeros
    (st.sampled_from(["1.25", "0.5", "0.0000001", "0.00000000", "10.500", "7.0"])
     | st.from_regex(r"[0-9]{1,4}\.[0-9]{1,12}", fullmatch=True)).map(Decimal).map(Literal),
    st.sampled_from(["", "it's", "plain"]).map(Literal),
    st.sampled_from([True, False, None]).map(Literal),
    st.just(Literal(datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc))),
)


@given(expr_trees())
def test_unparse_parse_identity(tree):
    assert parse_expr(unparse(tree)) == tree


# --------------------------------------------------------------------------
# the operator and function tables against the reference ladders
# (tests/expr_reference.py), on rows with nulls, mixed int/Decimal operands
# and zero divisors

TYPED = {"t1": "text", "t2": "text", "i1": "integer", "i2": "integer",
         "d1": "decimal", "d2": "decimal", "b1": "boolean", "s1": "timestamp",
         "s2": "timestamp"}
_BY_TYPE = {t: [c for c, ct in TYPED.items() if ct == t] for t in set(TYPED.values())}
_VALUES = {
    "text": st.sampled_from(["", "a", "ab", "Abc", "cab", "ä"]),
    "integer": st.integers(-9, 9) | st.sampled_from([0, 10**30, -(10**30)]),
    "decimal": st.sampled_from([Decimal("0"), Decimal("0.00"), Decimal("-2.5"),
                                Decimal("1.10"), Decimal("3"), Decimal("7E+2"),
                                Decimal("0.333"), Decimal("-1E+30")]),
    "boolean": st.booleans(),
    "timestamp": st.sampled_from([
        datetime(2024, 5, 30, 12, 0, tzinfo=timezone.utc),
        datetime(2024, 6, 1, tzinfo=timezone.utc),
        datetime(2023, 1, 1, 3, 4, 5, 678901, tzinfo=timezone.utc)]),
}
_ORDERED = ["text", "integer", "decimal", "timestamp"]
_PATTERNS = ["a.*", "[a-c]+", "x?y*", ""]

rows = st.fixed_dictionaries({  # one cell in four null
    c: st.integers(0, 3).flatmap(lambda k, t=t: _VALUES[t] if k else st.none())
    for c, t in TYPED.items()})


def _leaf(draw, t: str):
    choice = draw(st.integers(0, 7))
    if choice == 0:
        return Literal(None)
    if choice <= 2:
        return Literal(draw(_VALUES[t]))
    return Column(draw(st.sampled_from(_BY_TYPE[t])))


# operands where `and`/`or`, and the sign of a remainder, are decided
_FALSY = st.sampled_from([Literal(False), Not(Literal(True)), Literal(None),
                          Column("b1"), Not(Column("b1"))])
_NEGATIVE = st.sampled_from([-2, -3, -7]).map(Literal) | st.just(Neg(Column("i2")))


@st.composite
def typed_trees(draw, t: str = "boolean", depth: int = 0):
    """A well-typed expression of datatype t, using every operator and
    function; a null operand may make it null, or integer arithmetic decimal.
    Connectives are drawn often, over operands that are often false or null,
    and `/` and `%` often over a negative divisor: the cases where
    three-valued logic and the remainder's sign show."""
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return _leaf(draw, t)
    sub = lambda u: typed_trees(u, depth + 1)  # noqa: E731
    numeric = st.sampled_from(["integer", "decimal"])
    if t == "boolean":
        choice = draw(st.integers(-2, 8))
        if choice <= 0:
            op = draw(st.sampled_from(sorted(_COMPARE)))
            u = draw(st.sampled_from(_ORDERED + ["boolean"] * (op in ("=", "!="))))
            v = draw(numeric) if u in ("integer", "decimal") else u
            return Compare(op, draw(sub(u)), draw(sub(v)))
        if choice in (1, 6, 7, 8):  # an operand is falsy two times in three
            operands = [draw(_FALSY) if draw(st.integers(0, 2)) else draw(sub("boolean"))
                        for _ in range(2)]
            return draw(st.sampled_from([And, Or]))(*operands)
        if choice == 2:
            return Not(draw(sub("boolean")))
        if choice == 3:
            return Call("regex_match", (draw(sub("text")),
                                        Literal(draw(st.sampled_from(_PATTERNS)))))
        u = draw(st.sampled_from(_ORDERED + ["boolean"]))
        members = st.sampled_from([u, "null"] + (["integer", "decimal"]
                                                 if u in ("integer", "decimal") else []))
        n = draw(st.integers(1, 4))
        return Call("in_set", (draw(sub(u)),) + tuple(
            Literal(None) if m == "null" else draw(sub(m))
            for m in draw(st.lists(members, min_size=n, max_size=n))))
    if t in ("integer", "decimal"):
        choice = draw(st.integers(0, 4))
        if choice in (0, 4):
            op = draw(st.sampled_from(["/", "%"]) | st.sampled_from(sorted(_ARITH)))
            u, v = (("integer", "integer") if t == "integer" and op != "/"
                    else (draw(numeric), draw(numeric)))
            if op == "%" and draw(st.booleans()):
                u = v = "integer"  # the remainder's sign shows on integers
            if op in ("/", "%") and draw(st.integers(0, 2)):  # two times in three
                return Arith(op, draw(sub(u)), draw(_NEGATIVE))
            return Arith(op, draw(sub(u)), draw(sub(v)))
        if choice == 1:
            return draw(st.sampled_from([Neg, lambda x: Call("abs", (x,))]))(draw(sub(t)))
        if t == "integer":
            return Call("len", (draw(sub("text")),))
        if choice == 2:
            return Call("date_diff_days", (draw(sub("timestamp")), draw(sub("timestamp"))))
        return Call("age_days", (draw(sub("timestamp")),))
    if t == "text":
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Call(draw(st.sampled_from(["upper", "lower"])), (draw(sub("text")),))
        # a null operand makes integer arithmetic decimal, which substr refuses
        ints = [draw(sub("integer")) for _ in range(choice)]
        ints = [i if reference.typecheck(i, TYPED) in ("integer", "null")
                else _leaf(draw, "integer") for i in ints]
        return Call("substr", (draw(sub("text")), *ints))
    return _leaf(draw, t)


@st.composite
def any_trees(draw, depth: int = 0):
    """Any expression over TYPED's columns (and one unknown column) whose
    calls have the shapes the parser lets through."""
    if depth >= 3 or draw(st.booleans()):
        t = draw(st.sampled_from(sorted(_VALUES)))
        if draw(st.integers(0, 9)) == 0:
            return Column("missing")
        return _leaf(draw, t)
    sub = any_trees(depth + 1)
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return Compare(draw(st.sampled_from(sorted(_COMPARE))), draw(sub), draw(sub))
    if choice == 1:
        return Arith(draw(st.sampled_from(sorted(_ARITH))), draw(sub), draw(sub))
    if choice == 2:
        return draw(st.sampled_from([And, Or]))(draw(sub), draw(sub))
    if choice == 3:
        return draw(st.sampled_from([Not, Neg]))(draw(sub))
    name = draw(st.sampled_from(sorted(_FUNCS)))
    func = _FUNCS[name]
    args = draw(st.lists(sub, min_size=func.lo, max_size=min(func.hi, 4)))
    if name == "regex_match":
        args[1] = Literal(draw(st.sampled_from(_PATTERNS)))
    return Call(name, tuple(args))


def _typecheck_outcome(check, tree):
    try:
        return "ok", check(tree, TYPED)
    except ExprTypeError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(any_trees())
def test_typecheck_and_columns_match_reference(tree):
    assert _typecheck_outcome(typecheck, tree) == _typecheck_outcome(reference.typecheck, tree)
    assert columns_referenced(tree) == reference.columns_referenced(tree)


def _cells(**values) -> dict:
    return {c: values.get(c) for c in TYPED}


# Pinned: `and` of true and false, and of null and false; `not` of true and of
# false. The operator tables that evaluate and compiled share are seen only
# against the reference.
@example(And(Compare(">", Column("i1"), Literal(0)), Literal(False)), _cells(i1=5))
@example(And(Column("b1"), Compare("<", Column("i1"), Literal(0))), _cells(i1=5))
@example(Not(Compare("=", Column("t1"), Literal("a"))), _cells(t1="a"))
@example(Not(Column("b1")), _cells(b1=False))
@settings(max_examples=600, deadline=None)
@given(st.sampled_from(["boolean", "boolean", "integer", "decimal", "text"])
       .flatmap(typed_trees),
       rows)
def test_evaluate_matches_reference(tree, row):
    assert reference.typecheck(tree, TYPED) == typecheck(tree, TYPED)
    got = evaluate(tree, row, REF)
    want = reference.evaluate(tree, row, REF)
    assert repr(got) == repr(want)  # value and type, Decimal exponent included


# Pinned: a false `or` false, a comparison with null, `%` against a negative
# divisor, age_days, and an in_set of literal members, one of them null.
@example(Or(Compare("<", Column("i1"), Literal(0)), Literal(False)), [_cells(i1=5)])
@example(Compare("=", Column("t1"), Literal(None)), [_cells(t1="a"), _cells()])
@example(Compare("=", Arith("%", Column("i1"), Literal(-2)), Literal(1)),
         [_cells(i1=7), _cells(i1=-7), _cells(i1=0)])
@example(Compare("<", Call("age_days", (Column("s1"),)), Literal(2)),
         [_cells(s1=datetime(2024, 5, 30, 12, 0, tzinfo=timezone.utc)), _cells()])
@example(Call("in_set", (Column("d1"), Literal(None), Literal(3),
                         Literal(Decimal("1.10")))),
         [_cells(d1=Decimal("3")), _cells(d1=Decimal("1.1")), _cells(d1=Decimal("0"))])
@settings(max_examples=1200, deadline=None)
@given(st.sampled_from(["boolean", "boolean", "integer", "decimal", "text"])
       .flatmap(typed_trees),
       st.lists(rows, min_size=1, max_size=4))
def test_compiled_matches_evaluate(tree, table):
    """The compiled expression gives evaluate's value, and type, on every row."""
    columns = {c: [row[c] for row in table] for c in TYPED}
    f = compiled(tree, columns.__getitem__, REF)
    assert repr([f(i) for i in range(len(table))]) == \
        repr([evaluate(tree, row, REF) for row in table])


def test_docs_name_exactly_the_functions():
    text = (Path(__file__).parents[1] / "docs" / "expression-language.md").read_text()
    ebnf = re.search(r"^function +=(.*?);", text, re.S | re.M).group(1)
    assert re.findall(r'"(\w+)"', ebnf) == list(_FUNCS)
    table = text.split("## Functions", 1)[1].split("\n## ", 1)[0]
    named = [re.findall(r"`(\w+)\(", line) for line in table.splitlines()
             if line.startswith("| `")]
    assert [n for names in named for n in names] == list(_FUNCS)
    assert f"v plus 1 to {_FUNCS['in_set'].hi - 1} members" in table
