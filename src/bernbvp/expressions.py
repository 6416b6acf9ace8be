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

Evaluating the same tree at the same points many times, with only the yk
changing, can bind the points first: bind(e, x) evaluates every maximal
subtree that contains x and no yk once and keeps its values in a Bound
node, so later evaluations at x walk only the rest.  The results have the
same bits, and the same errors, as evaluating e.
"""

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifierError

__all__ = ["parse", "evaluate", "bind", "bindable", "to_source", "max_arg_index",
           "Num", "X", "Arg", "Neg", "BinOp", "Call", "Bound"]


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


@dataclass(frozen=True, eq=False)
class Bound:
    """Values of an x-only subtree at the points bind was given (see bind)."""

    values: object


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


# Deepest syntax tree that parse accepts, and deepest nesting of
# parentheses (and, separately, of minus signs and ^) in its source.
# Evaluation, binding, to_source and max_arg_index recurse once per tree
# level and the parser at most five times per nesting level, so this keeps
# them all far below Python's recursion limit.  Every accepted tree's to_source
# nests no deeper than the tree, so it parses back.
MAX_DEPTH = 64


class _Parser:
    """Recursive descent; each rule returns its tree and the tree's depth.

    ``parens`` counts the parentheses open at the current token and
    ``operators`` the minus signs and ^ whose operand is being parsed; both
    bound the recursion before a tree deeper than MAX_DEPTH is complete.
    """

    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.parens = self.operators = 0

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
        e, _ = self.expr()
        kind, text, offset = self.peek()
        if kind != "eof":
            raise ExpressionSyntaxError(f"unexpected '{text}'", offset)
        return e

    def deeper(self, offset, *depths):
        """The depth of a node over subtrees of the given depths."""
        if max(depths) >= MAX_DEPTH:
            raise _too_deep(offset)
        return max(depths) + 1

    def operand(self, offset):
        """The unary after a minus sign or ^ at offset."""
        if self.operators >= MAX_DEPTH:
            raise _too_deep(offset)
        self.operators += 1
        node = self.unary()
        self.operators -= 1
        return node

    def group(self, offset):
        """The expr and closing parenthesis after the '(' at offset."""
        if self.parens >= MAX_DEPTH:
            raise _too_deep(offset)
        self.parens += 1
        node = self.expr()
        self.expect_op(")")
        self.parens -= 1
        return node

    def expr(self):
        node, depth = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in "+-":
                return node, depth
            self.advance()
            right, rdepth = self.term()
            node, depth = BinOp(text, node, right), self.deeper(offset, depth, rdepth)

    def term(self):
        node, depth = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in "*/":
                return node, depth
            self.advance()
            right, rdepth = self.unary()
            node, depth = BinOp(text, node, right), self.deeper(offset, depth, rdepth)

    def unary(self):
        kind, text, offset = self.peek()
        if kind != "op" or text != "-":
            return self.power()
        self.advance()
        operand, depth = self.operand(offset)
        return Neg(operand), self.deeper(offset, depth)

    def power(self):
        base, depth = self.atom()
        kind, text, offset = self.peek()
        if kind != "op" or text != "^":
            return base, depth
        self.advance()
        exponent, edepth = self.operand(offset)
        return BinOp("^", base, exponent), self.deeper(offset, depth, edepth)

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "name":
            if text == "x":
                return X(), 1
            m = re.fullmatch(r"y(\d)", text)
            if m:
                return Arg(int(m.group(1))), 1
            if text in _FUNCS:
                arg, depth = self.group(self.expect_op("(")[2])
                return Call(text, arg), self.deeper(offset, depth)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            return self.group(offset)
        raise ExpressionSyntaxError(
            f"expected a number, variable, function, or '(', got {text!r}"
            if text else "unexpected end of input",
            offset,
        )


def _too_deep(offset):
    return ExpressionSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", offset)


def parse(source):
    """Parse expression source text into an immutable syntax tree.

    ExpressionSyntaxError for malformed source, and for a tree deeper than
    MAX_DEPTH levels or source nested deeper than that.
    """
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


def _power(base, exponent):
    """base ^ exponent over the broadcast operands.

    The domain checks run as masks over the whole array, and the first
    failing element raises, as in an element-by-element walk; a constant
    exponent that is a non-negative integer cannot fail them and skips
    them.  The powers are Python pow mapped over the elements; only when
    one overflows are they taken again through ``_pow``, which gives a
    signed infinity there.  An integral exponent need not become an int
    first: float pow converts it back to the same double.
    """
    base = np.asarray(base, dtype=float)
    if isinstance(exponent, float) and exponent >= 0 and exponent.is_integer():
        exponents = itertools.repeat(exponent)
    else:
        base, exponent = np.broadcast_arrays(base, np.asarray(exponent, dtype=float))
        integer = np.isfinite(exponent) & (exponent == np.trunc(exponent))
        negative = (base < 0) & ~integer
        bad = negative | ((base == 0) & (exponent < 0))
        if bad.any():
            first = np.argmax(bad.ravel())
            b, e = base.ravel()[first].item(), exponent.ravel()[first].item()
            if negative.ravel()[first]:
                raise EvaluationError(f"negative base {b} with non-integer exponent {e}",
                                      where=b)
            raise EvaluationError("zero raised to a negative power", where=0.0)
        exponents = exponent.ravel().tolist()
    bases = base.ravel().tolist()
    try:
        values = list(map(pow, bases, exponents))
    except OverflowError:
        values = list(map(_pow, bases, exponents))
    return np.array(values, dtype=float).reshape(base.shape)


def _pow(base, exponent):
    try:
        return base**exponent
    except OverflowError:
        return -math.inf if base < 0 and exponent % 2 == 1 else math.inf


def _call(fn, v):
    """The named function at the float v."""
    try:
        if fn in ("tan", "sec") and math.cos(v) == 0:
            raise EvaluationError(f"{fn} at a pole", where=v)
        return _FUNCS[fn](v)
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"{fn}({v}): {exc}", where=v) from exc


def _check(bad, values, message):
    """EvaluationError at the first of values where bad holds, if any."""
    if np.asarray(bad).any():
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

    An array value is always a new array of its own, never x, an argument
    or the values of a Bound node; only a value of another shape (a
    constant, or operands of mixed shapes) is broadcast to the common one.
    """
    shape = np.shape(x)
    if any(np.shape(a) != shape for a in args):
        shape = np.broadcast_shapes(shape, *map(np.shape, args))
    with np.errstate(over="ignore", invalid="ignore"):
        out = _walk(e, np.asarray(x, dtype=float), args)
    if not shape:
        return float(out)
    if np.shape(out) == shape:
        return np.array(out, dtype=float)
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
    if isinstance(e, Bound):
        return e.values
    if isinstance(e, Neg):
        return -_walk(e.operand, x, args)
    if isinstance(e, BinOp):
        return _binop(e.op, _walk(e.left, x, args), _walk(e.right, x, args))
    if isinstance(e, Call):
        return _function(e.fn, _walk(e.arg, x, args))
    raise TypeError(f"not an expression node: {e!r}")


def _binop(op, a, b):
    """a op b over the operands' values, as the walk applies it."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        _check(b == 0, a, "division by zero")
        return a / b
    return _power(a, b)


def _function(fn, v):
    """The named function over the argument's values, as the walk applies it.

    The math function is mapped over the elements as Python floats
    (numpy's ufuncs do not always match math's results).  Only when an
    element fails, or tan or sec meets a pole, are they taken again one by
    one through ``_call``, which raises at the first failing element.
    """
    if fn == "ln":
        _check(v <= 0, v, "ln of non-positive value {}")
    if fn == "sqrt":
        _check(v < 0, v, "sqrt of negative value {}")
    v = np.asarray(v, dtype=float)
    points = v.ravel().tolist()
    try:
        values = list(map(_FUNCS[fn], points))
    except (ArithmeticError, ValueError):
        values = None
    if values is None or (fn in ("tan", "sec") and 0.0 in map(math.cos, points)):
        values = [_call(fn, p) for p in points]
    return np.array(values, dtype=float).reshape(v.shape)


def bindable(e):
    """Whether e has a subtree other than a bare x that contains x and no
    yk: whether bind(e, x) can take work out of later evaluations."""
    return _scan(e)[2]


def _scan(e):
    """(contains x, contains a yk, has a bindable subtree) for e."""
    if isinstance(e, X):
        return True, False, False
    if isinstance(e, Arg):
        return False, True, False
    if isinstance(e, Num):
        return False, False, False
    if isinstance(e, BinOp):
        lx, ly, lfound = _scan(e.left)
        rx, ry, rfound = _scan(e.right)
        has_x, has_y, found = lx or rx, ly or ry, lfound or rfound
    elif isinstance(e, Neg):
        has_x, has_y, found = _scan(e.operand)
    elif isinstance(e, Call):
        has_x, has_y, found = _scan(e.arg)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return has_x, has_y, found or (has_x and not has_y)


def bind(e, x):
    """e with every maximal subtree that contains x and no yk replaced by
    a Bound node holding that subtree's values at x.

    Only evaluate(bind(e, x), x, args), at the same x, is meaningful; its
    value has the same bits as evaluate(e, x, args), and it raises the
    same EvaluationError, because a subtree whose evaluation fails stays
    unbound and fails again at its own place in the walk.  One bottom-up
    walk applies each operator once, to its children's values, under the
    same floating-point error state as evaluate.  A bare x stays as it is:
    walking it costs nothing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        node, values, has_x = _bind(e, np.asarray(x, dtype=float))
    return _bound(node, values, has_x)


def _bind(e, x):
    """(tree, values, contains x) for e at x.

    values is e's value when e contains no yk and evaluates without error,
    and tree is then e itself; otherwise values is None and tree is e with
    its maximal x-only subtrees bound.
    """
    if isinstance(e, Num):
        return e, e.value, False
    if isinstance(e, X):
        return e, x, True
    if isinstance(e, Arg):
        return e, None, False
    if isinstance(e, BinOp):
        left, a, ax = _bind(e.left, x)
        right, b, bx = _bind(e.right, x)
        if a is not None and b is not None:
            try:
                return e, _binop(e.op, a, b), ax or bx
            except EvaluationError:
                pass
        left, right = _bound(left, a, ax), _bound(right, b, bx)
        if left is not e.left or right is not e.right:
            e = BinOp(e.op, left, right)
        return e, None, ax or bx
    if isinstance(e, Neg):
        operand, v, has_x = _bind(e.operand, x)
        if v is not None:
            return e, -v, has_x
        return (e if operand is e.operand else Neg(operand)), None, has_x
    if isinstance(e, Call):
        arg, v, has_x = _bind(e.arg, x)
        if v is not None:
            try:
                return e, _function(e.fn, v), has_x
            except EvaluationError:
                pass
        arg = _bound(arg, v, has_x)
        return (e if arg is e.arg else Call(e.fn, arg)), None, has_x
    raise TypeError(f"not an expression node: {e!r}")


def _bound(node, values, has_x):
    """node, or a Bound node for it if it is an x-only subtree beyond x."""
    if values is None or not has_x or isinstance(node, X):
        return node
    if isinstance(values, np.ndarray):
        values.setflags(write=False)
    return Bound(values)
