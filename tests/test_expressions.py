import math
import random

import numpy as np
import pytest

from figp import ExpressionError, evaluate_expression, parse_expression
from figp import print_expression
from figp.expressions import BinOp, Call, Neg, Num, Var


def _ev(text, points):
    return evaluate_expression(parse_expression(text), points)


def test_precedence_mul_over_add():
    assert parse_expression("1+x1*x2") == BinOp(
        "+", Num(1.0), BinOp("*", Var(1), Var(2)))


def test_power_binds_tighter_than_unary_minus():
    assert parse_expression("-x1^2") == Neg(BinOp("^", Var(1), Num(2.0)))


def test_power_right_associative():
    pts = np.zeros((1, 1))
    assert _ev("2^3^2", pts)[0] == 512.0
    assert _ev("(2^3)^2", pts)[0] == 64.0


def test_subtraction_left_associative():
    assert _ev("2-3-4", np.zeros((1, 1)))[0] == -5.0


def test_unary_minus_inside_product():
    assert _ev("2*-3", np.zeros((1, 1)))[0] == -6.0


def test_call_parses_and_evaluates():
    e = parse_expression("sin(0.3*x1+0.4*x2)")
    assert isinstance(e, Call) and e.func == "sin"
    pts = np.array([[0.2, 0.7], [1.0, 0.0]])
    expect = np.sin(0.3 * pts[:, 0] + 0.4 * pts[:, 1])
    np.testing.assert_allclose(evaluate_expression(e, pts), expect, rtol=1e-14)


@pytest.mark.parametrize("text,fn", [
    ("exp(x1)", np.exp),
    ("sqrt(x1)", np.sqrt),
    ("abs(x1-0.5)", lambda x: np.abs(x - 0.5)),
    ("cos(x1)", np.cos),
])
def test_functions_match_numpy(text, fn):
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    np.testing.assert_allclose(_ev(text, pts), fn(pts[:, 0]), rtol=1e-14)


def test_matches_pointwise_oracle():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    got = _ev("1 - sin(x2) + x1^2*x2", pts)
    want = 1.0 - np.sin(pts[:, 1]) + pts[:, 0] ** 2 * pts[:, 1]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_whitespace_insensitive():
    assert parse_expression(" 1 + x1 ") == parse_expression("1+x1")


ROUND_TRIP_SAMPLES = [
    "1+x1*x2",
    "1+0.5*sin(2*x1)+0.5*x2",
    "-(x1+1)",
    "2-(3-4)",
    "(2^3)^2",
    "x1^2^3",
    "1/(1+x1)",
    "exp(-(x1^2+x2^2))",
    "abs(x1-0.5)",
    "2*-3",
]


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES)
def test_print_parse_round_trip(text):
    e = parse_expression(text)
    assert parse_expression(print_expression(e)) == e


def _random_ast(rnd, depth):
    if depth == 0 or rnd.random() < 0.3:
        if rnd.random() < 0.5:
            # printer only round-trips non-negative literals; negation is Neg
            return Num(float(rnd.choice([0.0, 1.0, 2.0, 0.5, 3.25, 10.0])))
        return Var(rnd.randint(1, 2))
    kind = rnd.choice(["bin", "bin", "neg", "call"])
    if kind == "bin":
        return BinOp(rnd.choice(["+", "-", "*", "/", "^"]),
                     _random_ast(rnd, depth - 1), _random_ast(rnd, depth - 1))
    if kind == "neg":
        return Neg(_random_ast(rnd, depth - 1))
    return Call(rnd.choice(["sin", "cos", "exp", "sqrt", "abs"]),
                _random_ast(rnd, depth - 1))


def test_round_trip_random_asts():
    rnd = random.Random(1234)
    for _ in range(1000):
        tree = _random_ast(rnd, 4)
        assert parse_expression(print_expression(tree)) == tree


@pytest.mark.parametrize("bad,offset", [
    ("", 0),
    ("   ", 0),
    ("(1+2", 4),
    (")", 0),
    ("sin x1", 4),
    ("foo(x1)", 0),
    ("1 @ 2", 2),
    ("1+2 3", 4),
    ("x0", 0),
])
def test_parse_errors_carry_offsets(bad, offset):
    with pytest.raises(ExpressionError) as exc:
        parse_expression(bad)
    assert exc.value.offset == offset
    assert f"(at offset {offset})" in str(exc.value)


def test_evaluate_rejects_undefined_variable():
    pts = np.zeros((3, 2))
    with pytest.raises(ExpressionError, match="x3"):
        _ev("x1+x3", pts)


def test_evaluate_requires_2d_points():
    with pytest.raises(ExpressionError):
        evaluate_expression(Num(1.0), np.zeros(3))


def test_evaluate_output_shape():
    pts = np.random.default_rng(1).uniform(size=(7, 2))
    assert _ev("x1*x2", pts).shape == (7,)


@pytest.mark.parametrize("text", ["x1.csv", "2.csv", "sin(x1).csv",
                                  "1e2.csv"])
def test_no_string_ending_in_csv_parses(text):
    # storage reads any reference ending in ".csv" as a path: a "." only
    # appears inside a number, and no token may follow a number directly
    with pytest.raises(ExpressionError):
        parse_expression(text)


def _pow(a, b):
    return BinOp("^", a, b)


# (source, parsed AST, printed AST); the expected values are those of the
# four-method recursive-descent parser and the printer this one replaced
BINDING_CASES = [
    ("-x1^2", Neg(_pow(Var(1), Num(2.0))), "-x1^2"),
    ("2^-3^2", _pow(Num(2.0), Neg(_pow(Num(3.0), Num(2.0)))), "2^-3^2"),
    ("2*-x1^2", BinOp("*", Num(2.0), Neg(_pow(Var(1), Num(2.0)))),
     "2*-x1^2"),
    ("x1^x2^x3", _pow(Var(1), _pow(Var(2), Var(3))), "x1^x2^x3"),
    ("8/2/2", BinOp("/", BinOp("/", Num(8.0), Num(2.0)), Num(2.0)), "8/2/2"),
    ("1-2+3", BinOp("+", BinOp("-", Num(1.0), Num(2.0)), Num(3.0)), "1-2+3"),
    ("--x1", Neg(Neg(Var(1))), "--x1"),
    ("-(x1)^2", Neg(_pow(Var(1), Num(2.0))), "-x1^2"),
    ("(x1)^2^3", _pow(Var(1), _pow(Num(2.0), Num(3.0))), "x1^2^3"),
    ("(-x1)^2", _pow(Neg(Var(1)), Num(2.0)), "(-x1)^2"),
    ("(x1^2)^3", _pow(_pow(Var(1), Num(2.0)), Num(3.0)), "(x1^2)^3"),
    ("-x1*x2", BinOp("*", Neg(Var(1)), Var(2)), "-x1*x2"),
    ("-(x1+x2)*x3", BinOp("*", Neg(BinOp("+", Var(1), Var(2))), Var(3)),
     "-(x1+x2)*x3"),
    ("x1-(x2-x3)", BinOp("-", Var(1), BinOp("-", Var(2), Var(3))),
     "x1-(x2-x3)"),
    ("x1/(x2*x3)", BinOp("/", Var(1), BinOp("*", Var(2), Var(3))),
     "x1/(x2*x3)"),
    ("sin(-x1)^-2", _pow(Call("sin", Neg(Var(1))), Neg(Num(2.0))),
     "sin(-x1)^-2"),
]


@pytest.mark.parametrize("text,tree,printed", BINDING_CASES,
                         ids=[case[0] for case in BINDING_CASES])
def test_operator_binding_is_pinned(text, tree, printed):
    assert parse_expression(text) == tree
    assert print_expression(tree) == printed


def test_a_300_deep_parenthesized_input_parses():
    assert parse_expression("(" * 300 + "x1" + ")" * 300) == Var(1)


@pytest.mark.parametrize("text", ["(" * 1000 + "x1" + ")" * 1000,
                                  "-" * 1000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_too_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match="nested too deeply") as exc:
        parse_expression(text)
    assert 0 < exc.value.offset < len(text)
