import numpy as np
import pytest

from figp import (Domain, ExpressionError, build_grid, evaluate_expression,
                  sample_function)

# rows (x1, x2, x3) at which each binding case below and its other
# binding differ
POINTS = np.array([[2.0, 3.0, 2.0], [0.5, 1.5, 3.0], [3.0, 0.25, 0.5]])


def test_precedence_mul_over_add():
    x1, x2 = POINTS[:, 0], POINTS[:, 1]
    got = evaluate_expression("1+x1*x2", POINTS)
    np.testing.assert_array_equal(got, 1.0 + x1 * x2)
    assert np.all(got != (1.0 + x1) * x2)


def test_power_binds_tighter_than_unary_minus():
    assert evaluate_expression("-x1^2", np.full((1, 1), 3.0))[0] == -9.0


def test_power_right_associative():
    pts = np.zeros((1, 1))
    assert evaluate_expression("2^3^2", pts)[0] == 512.0
    assert evaluate_expression("(2^3)^2", pts)[0] == 64.0


def test_subtraction_left_associative():
    assert evaluate_expression("2-3-4", np.zeros((1, 1)))[0] == -5.0


def test_unary_minus_inside_product():
    assert evaluate_expression("2*-3", np.zeros((1, 1)))[0] == -6.0


def test_call_parses_and_evaluates():
    pts = np.array([[0.2, 0.7], [1.0, 0.0]])
    expect = np.sin(0.3 * pts[:, 0] + 0.4 * pts[:, 1])
    np.testing.assert_allclose(evaluate_expression("sin(0.3*x1+0.4*x2)", pts),
                               expect, rtol=1e-14)


@pytest.mark.parametrize("text,fn", [
    ("exp(x1)", np.exp),
    ("sqrt(x1)", np.sqrt),
    ("abs(x1-0.5)", lambda x: np.abs(x - 0.5)),
    ("cos(x1)", np.cos),
])
def test_functions_match_numpy(text, fn):
    pts = np.linspace(0.0, 1.0, 11)[:, None]
    np.testing.assert_allclose(evaluate_expression(text, pts), fn(pts[:, 0]),
                               rtol=1e-14)


def test_matches_pointwise_oracle():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(50, 2))
    got = evaluate_expression("1 - sin(x2) + x1^2*x2", pts)
    want = 1.0 - np.sin(pts[:, 1]) + pts[:, 0] ** 2 * pts[:, 1]
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_whitespace_insensitive():
    np.testing.assert_array_equal(evaluate_expression(" 1 + x1 ", POINTS),
                                  evaluate_expression("1+x1", POINTS))


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
        evaluate_expression(bad, np.zeros((2, 1)))
    assert exc.value.offset == offset
    assert f"(at offset {offset})" in str(exc.value)


def test_evaluate_rejects_undefined_variable():
    pts = np.zeros((3, 2))
    with pytest.raises(ExpressionError) as exc:
        evaluate_expression("x1+x3", pts)
    assert str(exc.value) == ("undefined variable x3 (domain has 2 "
                              "dimension(s)) (at offset 3)")
    assert exc.value.offset == 3


def test_evaluate_requires_2d_points():
    with pytest.raises(ExpressionError, match="2-d"):
        evaluate_expression("1", np.zeros(3))


def test_evaluate_output_shape():
    pts = np.random.default_rng(1).uniform(size=(7, 2))
    assert evaluate_expression("x1*x2", pts).shape == (7,)


@pytest.mark.parametrize("text", ["x1.csv", "2.csv", "sin(x1).csv",
                                  "1e2.csv"])
def test_no_string_ending_in_csv_parses(text):
    # storage reads any reference ending in ".csv" as a path: a "." only
    # appears inside a number, and no token may follow a number directly
    with pytest.raises(ExpressionError):
        evaluate_expression(text, np.zeros((2, 1)))


# (source, its values, the values of the other way to bind it) as
# functions of the columns x1, x2, x3.  For the two products led by a
# unary minus the other binding, -(a*b), is the same number in IEEE
# arithmetic (negation is exact and rounding is sign-symmetric), so
# those cases check the values alone.
BINDING_CASES = [
    ("-x1^2", lambda x1, x2, x3: -(x1 ** 2), lambda x1, x2, x3: (-x1) ** 2),
    ("2^-3^2", lambda x1, x2, x3: 2.0 ** -(3.0 ** 2),
     lambda x1, x2, x3: 2.0 ** (-3.0) ** 2),
    ("2*-x1^2", lambda x1, x2, x3: 2 * -(x1 ** 2),
     lambda x1, x2, x3: 2 * (-x1) ** 2),
    ("x1^x2^x3", lambda x1, x2, x3: x1 ** (x2 ** x3),
     lambda x1, x2, x3: (x1 ** x2) ** x3),
    ("8/2/2", lambda x1, x2, x3: 8 / 2 / 2, lambda x1, x2, x3: 8 / (2 / 2)),
    ("1-2+3", lambda x1, x2, x3: 1 - 2 + 3, lambda x1, x2, x3: 1 - (2 + 3)),
    # the other reading takes the two signs as one
    ("--x1", lambda x1, x2, x3: x1, lambda x1, x2, x3: -x1),
    ("-(x1)^2", lambda x1, x2, x3: -(x1 ** 2), lambda x1, x2, x3: x1 ** 2),
    ("(x1)^2^3", lambda x1, x2, x3: x1 ** 8, lambda x1, x2, x3: x1 ** 6),
    ("(-x1)^2", lambda x1, x2, x3: x1 ** 2, lambda x1, x2, x3: -(x1 ** 2)),
    ("(x1^2)^3", lambda x1, x2, x3: x1 ** 6, lambda x1, x2, x3: x1 ** 8),
    ("-x1*x2", lambda x1, x2, x3: (-x1) * x2, None),
    ("-x1+x2", lambda x1, x2, x3: (-x1) + x2, lambda x1, x2, x3: -(x1 + x2)),
    ("-(x1+x2)*x3", lambda x1, x2, x3: (-(x1 + x2)) * x3, None),
    ("x1-(x2-x3)", lambda x1, x2, x3: x1 - (x2 - x3),
     lambda x1, x2, x3: x1 - x2 - x3),
    ("x1/(x2*x3)", lambda x1, x2, x3: x1 / (x2 * x3),
     lambda x1, x2, x3: x1 / x2 * x3),
    ("sin(-x1)^-2", lambda x1, x2, x3: np.sin(-x1) ** -2.0,
     lambda x1, x2, x3: -(np.sin(-x1) ** 2)),
]


@pytest.mark.parametrize("text,values,other", BINDING_CASES,
                         ids=[case[0] for case in BINDING_CASES])
def test_operator_binding_is_pinned(text, values, other):
    got = evaluate_expression(text, POINTS)
    want = np.broadcast_to(values(*POINTS.T), got.shape)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    if other is not None:
        assert np.all(np.abs(other(*POINTS.T) - want) > 1e-6 * np.abs(want))


@pytest.mark.parametrize("value,kind", [(3, "int"), (None, "NoneType"),
                                        ({"op": "+"}, "dict")],
                         ids=["int", "None", "ast"])
def test_an_expression_that_is_not_text_is_refused_naming_its_type(value,
                                                                   kind):
    with pytest.raises(ExpressionError,
                       match=f"^an expression must be text, got {kind}$"):
        evaluate_expression(value, POINTS)


def test_a_300_deep_parenthesized_input_parses():
    np.testing.assert_array_equal(
        evaluate_expression("(" * 300 + "x1" + ")" * 300, POINTS),
        POINTS[:, 0])


@pytest.mark.parametrize("text", ["(" * 1000 + "x1" + ")" * 1000,
                                  "-" * 1000 + "x1"],
                         ids=["parentheses", "unary-minus"])
def test_too_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError, match="nested too deeply") as exc:
        evaluate_expression(text, POINTS)
    assert 0 < exc.value.offset < len(text)


def test_a_3000_term_sum_evaluates_through_sample_function():
    # a chain of left-associative operators is evaluated in a loop, so
    # its length is not bounded by Python's recursion limit
    grid = build_grid(Domain(((0.0, 1.0),)), 16)
    text = "+".join(["x1"] * 3000)
    g = sample_function(text, grid)
    assert g.label == text
    np.testing.assert_allclose(g.values, 3000 * grid.nodes[:, 0], rtol=1e-12)
