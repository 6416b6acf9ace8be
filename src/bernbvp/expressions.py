"""Arithmetic expressions for right-hand sides f(x, y0, ..., y9) and exact
solutions.

Grammar (whitespace-insensitive, no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom ('^' unary)?     # ^ is right-associative
    atom   := NUMBER | 'x' | 'y0'..'y9' | NAME '(' expr ')' | '(' expr ')'
    NAME   := sin cos tan sec exp ln sqrt abs
    NUMBER := a decimal literal (2, 0.5, .5, 3., 1e-3) finite in float64

``yk`` denotes the k-th derivative argument (y0 = y, y1 = y', ...).
Evaluation is in float64, at one point or over arrays of points; domain
errors (ln of a non-positive value, division by zero, ...) and function
overflow raise EvaluationError instead of producing NaN or escaping as a
raw math exception.

Evaluation runs a compiled tree (compile): one closure per node, in which
each maximal subtree that contains x and no yk keeps its values while the
same read-only x comes again.  So evaluating one compiled tree at the same
points many times, with only the yk changing, evaluates its x-only parts
once, with the same bits and the same errors as evaluating them each time.
"""

import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifierError

__all__ = ["parse", "evaluate", "compile", "to_source", "arg_indices", "max_arg_index",
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
    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


def _tokenize(source):
    """(kind, text, offset) per token, then an "eof" token, in one scan:
    whitespace matches nothing, and a character that starts no token is bad."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    tokens.append(("eof", "", len(source)))
    return tokens


# Deepest syntax tree that parse accepts, and deepest nesting of
# parentheses (and, separately, of minus signs and ^) in its source.
# Compiling, evaluation, to_source and arg_indices recurse once per tree
# level and the parser about eight times per nesting level (511 frames
# for 63 levels of "2^(", the deepest source it reads), so this keeps them
# all below Python's recursion limit of 1000.  Every accepted tree's
# to_source nests no deeper than the tree, so it parses back.
MAX_DEPTH = 64

# the left-associative binary operators, loosest first; ^ is in unary
_LEVELS = ("+-", "*/")
_LEAVES = {"x": X(), **{f"y{i}": Arg(i) for i in range(10)}}


class _Parser:
    """Recursive descent; each rule returns its tree and the tree's depth.

    ``parens`` counts the parentheses open at the current token and
    ``operators`` the minus signs and ^ whose operand is being parsed; both
    bound the recursion before a tree deeper than MAX_DEPTH is complete.
    """

    def __init__(self, source):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.parens = self.operators = 0

    def take(self, ops):
        """The next token, consumed, if it is an operator in ops; else None."""
        kind, text, _ = tok = self.tokens[self.pos]
        if kind != "op" or text not in ops:
            return None
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take(op)
        if tok is None:
            raise ExpressionSyntaxError(f"expected '{op}'", self.tokens[self.pos][2])
        return tok

    def parse(self):
        e, _ = self.binary()
        kind, text, offset = self.tokens[self.pos]
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
        """The expression and closing parenthesis after the '(' at offset."""
        if self.parens >= MAX_DEPTH:
            raise _too_deep(offset)
        self.parens += 1
        node = self.binary()
        self.expect_op(")")
        self.parens -= 1
        return node

    def binary(self, level=0):
        """operand (op operand)* for the operators of _LEVELS[level], as
        left-nested BinOps, where an operand is the next level's, and a
        unary past the last level."""
        if level == len(_LEVELS):
            return self.unary()
        node, depth = self.binary(level + 1)
        while tok := self.take(_LEVELS[level]):
            right, rdepth = self.binary(level + 1)
            node, depth = BinOp(tok[1], node, right), self.deeper(tok[2], depth, rdepth)
        return node, depth

    def unary(self):
        """'-' unary | atom ('^' unary)?"""
        if minus := self.take("-"):
            operand, depth = self.operand(minus[2])
            return Neg(operand), self.deeper(minus[2], depth)
        base, depth = self.atom()
        if not (power := self.take("^")):
            return base, depth
        exponent, edepth = self.operand(power[2])
        return BinOp("^", base, exponent), self.deeper(power[2], depth, edepth)

    def atom(self):
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            if math.isinf(value := float(text)):
                raise ExpressionSyntaxError(f"number {text} is beyond float64", offset)
            return Num(value), 1
        if kind == "name":
            if text in _LEAVES:
                return _LEAVES[text], 1
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


def arg_indices(e):
    """The set of yk indices appearing in e; TypeError for a non-node."""
    if isinstance(e, Arg):
        return frozenset((e.index,))
    if isinstance(e, Neg):
        return arg_indices(e.operand)
    if isinstance(e, BinOp):
        return arg_indices(e.left) | arg_indices(e.right)
    if isinstance(e, Call):
        return arg_indices(e.arg)
    if isinstance(e, (Num, X)):
        return frozenset()
    raise TypeError(f"not an expression node: {e!r}")


def max_arg_index(e):
    """Largest yk index appearing in e, or -1 if none; TypeError for a non-node.

    The package itself reads ``arg_indices``; this stays as a public name.
    """
    return max(arg_indices(e), default=-1)


def _power(base, exponent):
    """base ^ exponent over the broadcast operands.

    The domain checks run as masks over the whole array, and the first
    failing element raises, as in an element-by-element walk; a constant
    exponent that is a non-negative integer cannot fail them and skips
    them.  The powers are math.pow mapped over the elements (``_map``);
    only when one overflows are they taken again through ``_pow``, which
    gives a signed infinity there.  math.pow gives the bits of Python's
    float pow at less cost (half of it where bases are negative, which
    Python's pow takes through a path of its own): both take a finite
    power from the C library's pow and follow C99 where an operand is ±0,
    ±inf or nan, and they differ only in what they raise where pow
    returns a complex or divides by zero, which the domain checks leave
    no element to reach.
    An integral exponent need not become an int first: float pow converts
    it back to the same double.
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
    try:
        return _map(math.pow, base, exponents)
    except OverflowError:
        return _map(_pow, base, exponents)


def _pow(base, exponent):
    try:
        return base**exponent
    except OverflowError:
        return -math.inf if base < 0 and exponent % 2 == 1 else math.inf


def _call(fn, v):
    """The named function at the float v."""
    try:
        return _FUNCS[fn](v)
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"{fn}({v}): {exc}", where=v) from exc


def _check(bad, values, message):
    """EvaluationError at the first of values where bad holds, if any."""
    if np.count_nonzero(bad):
        bad, values = np.broadcast_arrays(bad, values)
        where = float(values[bad][0])
        raise EvaluationError(message.format(where), where=where)


def evaluate(e, x, args=()):
    """Evaluate e at x with derivative arguments args = (y0, y1, ...).

    e is a tree or ``compile(tree)``; a tree is compiled first.  x and
    every argument are floats or numpy arrays that broadcast together; the
    value has their common shape, so it is a float when all of them are
    floats, and a constant e still fills the whole shape.  One walk of the
    tree serves every point: + - * / and negation are numpy operations,
    the functions and ^ run per element through math (^ as math.pow, with
    the bits of Python's pow; ``_power``), so each element carries the
    same IEEE operations as a walk over floats.
    Domain checks run over the whole array: the first operation in walk
    order that fails at some point raises EvaluationError, with ``where``
    the failing operand at the first such point.  The walk runs under an
    np.errstate that ignores overflow and invalid operations, so an
    overflowing value is inf and warns nothing.

    An array value is always a new array of its own, never x, an argument
    or a value that a compiled tree keeps; only a value of another shape
    (a constant, or operands of mixed shapes) is broadcast to the common
    one.
    """
    shape = np.broadcast_shapes(np.shape(x), *map(np.shape, args))
    with np.errstate(over="ignore", invalid="ignore"):
        out = (e if callable(e) else compile(e))(np.asarray(x, dtype=float), args)
    if not shape:
        return float(out)
    return np.array(np.broadcast_to(out, shape), dtype=float)


def compile(e):
    """e as a function of (x, args) that evaluate takes in its place.

    One bottom-up pass turns each node into a closure that applies the
    node's operation to its children's values, so a call walks the tree
    in the same order, with the same operations and the same errors, as
    the tree's definition.  Each maximal subtree that contains x and no
    yk, other than a bare x, keeps its value for the last x it was given
    and returns it while the same x comes again: the same array object,
    and only while it is read-only (as a quadrature rule's nodes are),
    since a writable x may have changed in place.  (An x made writable,
    changed and made read-only again between two calls would not be
    seen.)  A subtree whose evaluation fails keeps nothing and fails
    again at its own place in the walk.  So evaluating one compiled tree
    at one rule's nodes, with only the yk changing, evaluates its x-only
    parts once.
    """
    f, has_x, has_y = _compile(e)
    return _keep(e, f, has_x, has_y)


def _compile(e):
    """(function of (x, args), contains x, contains a yk) for e; below e,
    each maximal x-only subtree keeps its value (``_keep``), e itself
    does not."""
    if isinstance(e, Num):
        value = e.value
        return (lambda x, args: value), False, False
    if isinstance(e, X):
        return (lambda x, args: x), True, False
    if isinstance(e, Arg):
        return _arg(e.index), False, True
    if isinstance(e, BinOp):
        a, ax, ay = _compile(e.left)
        b, bx, by = _compile(e.right)
        if ay or by:  # an x-only operand is a maximal x-only subtree
            a, b = _keep(e.left, a, ax, ay), _keep(e.right, b, bx, by)
        op = _BINOPS[e.op]
        return (lambda x, args: op(a(x, args), b(x, args))), ax or bx, ay or by
    # the operand of a unary node is x-only exactly when the node is
    if isinstance(e, Neg):
        f, has_x, has_y = _compile(e.operand)
        return (lambda x, args: -f(x, args)), has_x, has_y
    if isinstance(e, Call):
        f, has_x, has_y = _compile(e.arg)
        fn = e.fn
        return (lambda x, args: _function(fn, f(x, args))), has_x, has_y
    raise TypeError(f"not an expression node: {e!r}")


def _keep(node, f, has_x, has_y):
    """f, or, if node is an x-only subtree other than a bare x, f keeping
    its value for the last read-only array x it was given."""
    if has_y or not has_x or isinstance(node, X):
        return f
    kept = None, None

    def keep(x, args):
        nonlocal kept
        last, value = kept
        if x is last and not x.flags.writeable:
            return value
        value = f(x, args)
        if isinstance(x, np.ndarray) and not x.flags.writeable:
            kept = x, value
        return value
    return keep


def _arg(index):
    def arg(x, args):
        if index >= len(args):
            raise EvaluationError(f"missing argument y{index} (got {len(args)} arguments)")
        return np.asarray(args[index], dtype=float)
    return arg


def _divide(a, b):
    _check(b == 0, a, "division by zero")
    return a / b


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power}


def _function(fn, v):
    """The named function over the argument's values, as the walk applies it.

    The math function is mapped over the elements as Python floats
    (numpy's ufuncs do not always match math's results).  Only when an
    element fails are they taken again one by one through ``_call``, which
    raises at the first failing element.  tan and sec fail at no double,
    since cos vanishes at none.
    """
    if fn == "ln":
        _check(v <= 0, v, "ln of non-positive value {}")
    if fn == "sqrt":
        _check(v < 0, v, "sqrt of negative value {}")
    v = np.asarray(v, dtype=float)
    try:
        return _map(_FUNCS[fn], v)
    except (OverflowError, ValueError):
        return _map(lambda p: _call(fn, p), v)


def _map(fn, v, *rest):
    """fn mapped over the elements of the float64 array v, in C order, and
    of the iterables rest alongside, as a float64 array of v's shape."""
    return np.fromiter(map(fn, v.ravel().tolist(), *rest), float, v.size).reshape(v.shape)
