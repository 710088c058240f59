import numpy as np
import pytest

from figp import ExpressionError, evaluate_expression, parse_expression
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


# (source, parsed AST); the expected trees are those of the four-method
# recursive-descent parser this one replaced
BINDING_CASES = [
    ("-x1^2", Neg(_pow(Var(1), Num(2.0)))),
    ("2^-3^2", _pow(Num(2.0), Neg(_pow(Num(3.0), Num(2.0))))),
    ("2*-x1^2", BinOp("*", Num(2.0), Neg(_pow(Var(1), Num(2.0))))),
    ("x1^x2^x3", _pow(Var(1), _pow(Var(2), Var(3)))),
    ("8/2/2", BinOp("/", BinOp("/", Num(8.0), Num(2.0)), Num(2.0))),
    ("1-2+3", BinOp("+", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))),
    ("--x1", Neg(Neg(Var(1)))),
    ("-(x1)^2", Neg(_pow(Var(1), Num(2.0)))),
    ("(x1)^2^3", _pow(Var(1), _pow(Num(2.0), Num(3.0)))),
    ("(-x1)^2", _pow(Neg(Var(1)), Num(2.0))),
    ("(x1^2)^3", _pow(_pow(Var(1), Num(2.0)), Num(3.0))),
    ("-x1*x2", BinOp("*", Neg(Var(1)), Var(2))),
    ("-(x1+x2)*x3", BinOp("*", Neg(BinOp("+", Var(1), Var(2))), Var(3))),
    ("x1-(x2-x3)", BinOp("-", Var(1), BinOp("-", Var(2), Var(3)))),
    ("x1/(x2*x3)", BinOp("/", Var(1), BinOp("*", Var(2), Var(3)))),
    ("sin(-x1)^-2", _pow(Call("sin", Neg(Var(1))), Neg(Num(2.0)))),
]


@pytest.mark.parametrize("text,tree", BINDING_CASES,
                         ids=[case[0] for case in BINDING_CASES])
def test_operator_binding_is_pinned(text, tree):
    assert parse_expression(text) == tree


@pytest.mark.parametrize("value,kind", [(3, "int"), (None, "NoneType"),
                                        (Var(1), "Var")],
                         ids=["int", "None", "ast"])
def test_an_expression_that_is_not_text_is_refused_naming_its_type(value,
                                                                   kind):
    with pytest.raises(ExpressionError,
                       match=f"^an expression must be text, got {kind}$"):
        parse_expression(value)


def test_a_300_deep_parenthesized_input_parses():
    assert parse_expression("(" * 300 + "x1" + ")" * 300) == Var(1)


@pytest.mark.parametrize("text", ["(" * 1000 + "x1" + ")" * 1000,
                                  "-" * 1000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_too_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match="nested too deeply") as exc:
        parse_expression(text)
    assert 0 < exc.value.offset < len(text)
