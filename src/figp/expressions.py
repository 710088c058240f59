"""Small analytic-expression language for defining functional inputs.

An expression is an operand followed by binary operators and their
operands; an operand is a number, ``FUNC(expr)``, a variable,
``(expr)`` or ``-operand``.  How operators bind is stated once, in
``_BINARY`` and ``_NEG``: ``^`` binds tightest and is right-associative,
its left operand is an atom and its right one may carry a unary minus,
so ``-x1^2`` is ``-(x1^2)`` and ``2^-3^2`` is ``2^(-(3^2))``; ``* /``
then ``+ -`` are left-associative.

Variables are ``x1 .. xd``; the supported functions are sin, cos, exp,
sqrt and abs.  An expression is evaluated at a set of points as it is
parsed, so no tree is built, and errors report the byte offset into the
source text.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .errors import ExpressionError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip trailing whitespace without complaint
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise ExpressionError(
                f"unexpected character {text[bad]!r}", offset=bad
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _divide(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


def _power(a, b):
    with np.errstate(invalid="ignore"):
        return np.power(a, b)


# Each binary operator's precedence, the least precedence its right
# operand may have without parentheses, and its operation; a unary
# minus and its operand sit at _NEG.
_BINARY = {"+": (1, 2, operator.add), "-": (1, 2, operator.sub),
           "*": (2, 3, operator.mul), "/": (2, 3, _divide),
           "^": (4, 3, _power)}
_NEG = 3


class _Parser:
    """Evaluates the expression `text` at the rows of `points` as it
    parses it: each method returns the values of what it consumed."""

    def __init__(self, text, points):
        self.points = points
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}", offset=off)
        self.advance()

    def parse(self):
        values = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {val!r}", offset=off)
        return values

    def expr(self, least=1):
        """An operand, then each binary operator of precedence `least` or
        more with its right operand: precedence climbing on _BINARY.  A
        chain of left-associative operators is a loop, not a recursion."""
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            values = -self.expr(_NEG)
        else:
            values = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in _BINARY or _BINARY[val][0] < least:
                return values
            self.advance()
            _, right, apply = _BINARY[val]
            values = apply(values, self.expr(right))

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return np.full(self.points.shape[0], float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return FUNCTIONS[val](arg)
            m = _VAR_RE.match(val)
            if m is None:
                raise ExpressionError(f"unknown identifier {val!r}",
                                      offset=off)
            index, d = int(m.group(1)), self.points.shape[1]
            if index > d:
                raise ExpressionError(f"undefined variable {val} (domain "
                                      f"has {d} dimension(s))", offset=off)
            return self.points[:, index - 1].copy()
        if kind == "op" and val == "(":
            values = self.expr()
            self.expect_op(")")
            return values
        if kind == "end":
            raise ExpressionError("unexpected end of expression", offset=off)
        raise ExpressionError(f"unexpected token {val!r}", offset=off)


def evaluate_expression(text: str, points: np.ndarray) -> np.ndarray:
    """Evaluate the expression `text` at each row of `points` (shape
    (n, d)).

    Raises ExpressionError naming the type of a value that is not text,
    and with a byte offset on malformed input, on a variable beyond
    x_d or on nesting too deep to parse.  Non-finite values are
    returned as-is; callers decide whether to reject them.
    """
    if not isinstance(text, str):
        raise ExpressionError(f"an expression must be text, got "
                              f"{type(text).__name__}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ExpressionError("points must be a 2-d array")
    if text.strip() == "":
        raise ExpressionError("empty expression", offset=0)
    parser = _Parser(text, points)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply",
                              offset=parser.peek()[2]) from None
