"""Arithmetic expressions for right-hand sides f(x, y0, ..., y9) and exact
solutions.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x' | 'y0'..'y9' | NAME '(' expr ')' | '(' expr ')'
    NAME   := sin cos tan sec exp ln sqrt abs

``yk`` denotes the k-th derivative argument (y0 = y, y1 = y', ...).
Evaluation is in float64, at one point or over arrays of points; domain
errors (ln of a non-positive value, division by zero, ...) and function
overflow raise EvaluationError instead of producing NaN or escaping as a
raw math exception.
"""

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifierError

__all__ = ["parse", "evaluate", "to_source", "max_arg_index",
           "Num", "X", "Arg", "Neg", "BinOp", "Call"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class X:
    pass


@dataclass(frozen=True)
class Arg:
    index: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sec": lambda v: 1.0 / math.cos(v),
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(f"expected '{op}'", offset)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected '{text}'", offset)
        return e

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "x":
                return X()
            m = re.fullmatch(r"y(\d)", text)
            if m:
                return Arg(int(m.group(1)))
            if text in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"expected a number, variable, function, or '(', got {text!r}"
            if text else "unexpected end of input",
            offset,
        )


def parse(source):
    """Parse expression source text into an immutable syntax tree."""
    return _Parser(source).parse()


def to_source(e):
    """Fully parenthesized source text; parse(to_source(e)) == e."""
    if isinstance(e, Num):
        return f"{e.value:.17g}"
    if isinstance(e, X):
        return "x"
    if isinstance(e, Arg):
        return f"y{e.index}"
    if isinstance(e, Neg):
        return f"(-{to_source(e.operand)})"
    if isinstance(e, BinOp):
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def max_arg_index(e):
    """Largest yk index appearing in e, or -1 if none."""
    if isinstance(e, Arg):
        return e.index
    if isinstance(e, Neg):
        return max_arg_index(e.operand)
    if isinstance(e, BinOp):
        return max(max_arg_index(e.left), max_arg_index(e.right))
    if isinstance(e, Call):
        return max_arg_index(e.arg)
    return -1


def _is_integer(v):
    try:
        return v == int(v)
    except (OverflowError, ValueError):
        return False


def _power(base, exponent):
    if base < 0 and not _is_integer(exponent):
        raise EvaluationError(
            f"negative base {float(base)} with non-integer exponent {float(exponent)}",
            where=float(base),
        )
    if base == 0 and exponent < 0:
        raise EvaluationError("zero raised to a negative power", where=0.0)
    if _is_integer(exponent):
        exponent = int(exponent)
    try:
        return base**exponent
    except OverflowError:
        sign = -1.0 if (base < 0 and exponent % 2 == 1) else 1.0
        return sign * math.inf


def _call(fn, v):
    """The named function at the float v."""
    try:
        if fn in ("tan", "sec") and math.cos(v) == 0:
            raise EvaluationError(f"{fn} at a pole", where=v)
        return _FUNCS[fn](v)
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"{fn}({v}): {exc}", where=v) from exc


def _per_element(fn, *operands):
    """fn over the broadcast operands, element by element on Python floats
    (math and pow, whose results numpy's ufuncs do not always match)."""
    arrays = np.broadcast_arrays(*operands)
    values = [fn(*vs) for vs in zip(*(a.ravel().tolist() for a in arrays))]
    return np.array(values, dtype=float).reshape(arrays[0].shape)


def _check(bad, values, message):
    """EvaluationError at the first of values where bad holds, if any."""
    if np.any(bad):
        bad, values = np.broadcast_arrays(bad, values)
        where = float(values[bad][0])
        raise EvaluationError(message.format(where), where=where)


def evaluate(e, x, args=()):
    """Evaluate e at x with derivative arguments args = (y0, y1, ...).

    x and every argument are floats or numpy arrays that broadcast
    together; the value has their common shape, so it is a float when all
    of them are floats, and a constant e still fills the whole shape.  One
    walk of the tree serves every point: + - * / and negation are numpy
    operations, the functions and ^ run per element through math and
    Python's pow, so each element carries the same IEEE operations as a
    walk over floats.  Domain checks run over the whole array: the first
    operation in walk order that fails at some point raises
    EvaluationError, with ``where`` the failing operand at the first such
    point.
    """
    shape = np.broadcast_shapes(np.shape(x), *map(np.shape, args))
    with np.errstate(over="ignore", invalid="ignore"):
        out = _walk(e, np.asarray(x, dtype=float), args)
    if not shape:
        return float(out)
    return np.array(np.broadcast_to(out, shape))


def _walk(e, x, args):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, X):
        return x
    if isinstance(e, Arg):
        if e.index >= len(args):
            raise EvaluationError(
                f"missing argument y{e.index} (got {len(args)} arguments)"
            )
        return np.asarray(args[e.index], dtype=float)
    if isinstance(e, Neg):
        return -_walk(e.operand, x, args)
    if isinstance(e, BinOp):
        a = _walk(e.left, x, args)
        b = _walk(e.right, x, args)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            _check(b == 0, a, "division by zero")
            return a / b
        return _per_element(_power, a, b)
    if isinstance(e, Call):
        v = _walk(e.arg, x, args)
        if e.fn == "ln":
            _check(v <= 0, v, "ln of non-positive value {}")
        if e.fn == "sqrt":
            _check(v < 0, v, "sqrt of negative value {}")
        return _per_element(functools.partial(_call, e.fn), v)
    raise TypeError(f"not an expression node: {e!r}")
