"""Small analytic-expression language for defining functional inputs.

An expression is an operand followed by binary operators and their
operands; an operand is a number, ``FUNC(expr)``, a variable,
``(expr)`` or ``-operand``.  How operators bind is stated once, in
``_BINARY`` and ``_NEG``: ``^`` binds tightest and is right-associative,
its left operand is an atom and its right one may carry a unary minus,
so ``-x1^2`` is ``-(x1^2)`` and ``2^-3^2`` is ``2^(-(3^2))``; ``* /``
then ``+ -`` are left-associative.

Variables are ``x1 .. xd``; the supported functions are sin, cos, exp,
sqrt and abs.  Parsing is deterministic and errors report the byte
offset into the source text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, so Var(2) is x2


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


Expression = Union[Num, Var, Call, Neg, BinOp]

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


# Each binary operator's precedence, and the least precedence its
# right operand may have without parentheses; a unary minus and its
# operand sit at _NEG.
_BINARY = {"+": (1, 2), "-": (1, 2), "*": (2, 3), "/": (2, 3), "^": (4, 3)}
_NEG = 3


class _Parser:
    def __init__(self, text):
        self.text = text
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
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected token {val!r}", offset=off)
        return node

    def expr(self, least=1):
        """An operand, then each binary operator of precedence `least` or
        more with its right operand: precedence climbing on _BINARY."""
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            node = Neg(self.expr(_NEG))
        else:
            node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in _BINARY or _BINARY[val][0] < least:
                return node
            self.advance()
            node = BinOp(val, node, self.expr(_BINARY[val][1]))

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            m = _VAR_RE.match(val)
            if m:
                return Var(int(m.group(1)))
            raise ExpressionError(f"unknown identifier {val!r}", offset=off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExpressionError("unexpected end of expression", offset=off)
        raise ExpressionError(f"unexpected token {val!r}", offset=off)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an AST, raising ExpressionError with a byte
    offset on malformed input or on nesting too deep to parse, and
    naming the type of a value that is not text."""
    if not isinstance(text, str):
        raise ExpressionError(f"an expression must be text, got "
                              f"{type(text).__name__}")
    if text.strip() == "":
        raise ExpressionError("empty expression", offset=0)
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionError("expression nested too deeply",
                              offset=parser.peek()[2]) from None


def evaluate_expression(node: Expression, points: np.ndarray) -> np.ndarray:
    """Evaluate the AST at each row of ``points`` (shape (n, d)).

    Raises ExpressionError if a variable index exceeds d.  Non-finite
    values are returned as-is; callers decide whether to reject them.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ExpressionError("points must be a 2-d array")
    d = points.shape[1]

    def ev(n):
        if isinstance(n, Num):
            return np.full(points.shape[0], n.value)
        if isinstance(n, Var):
            if n.index > d:
                raise ExpressionError(
                    f"undefined variable x{n.index} (domain has {d} dimension(s))"
                )
            return points[:, n.index - 1].copy()
        if isinstance(n, Call):
            return FUNCTIONS[n.func](ev(n.arg))
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, BinOp):
            a, b = ev(n.left), ev(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            if n.op == "/":
                with np.errstate(divide="ignore", invalid="ignore"):
                    return a / b
            with np.errstate(invalid="ignore"):
                return np.power(a, b)
        raise TypeError(f"not an expression node: {n!r}")

    return ev(node)
