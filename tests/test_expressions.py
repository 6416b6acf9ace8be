import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bernbvp import expressions
from bernbvp.errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifierError
from bernbvp.expressions import (
    MAX_DEPTH,
    Arg,
    BinOp,
    Call,
    Neg,
    Num,
    X,
    arg_indices,
    compile,
    evaluate,
    max_arg_index,
    parse,
    to_source,
)


def shunting_yard_eval(source):
    """Reference evaluator for literal-only expressions.

    Standard two-stack algorithm with '^' right-associative above unary
    minus ('~'), then '*' '/', then '+' '-'.
    """
    prec = {"+": 1, "-": 1, "*": 2, "/": 2, "~": 3, "^": 4}
    right_assoc = {"^", "~"}

    def apply(op, stack):
        if op == "~":
            stack.append(-stack.pop())
            return
        b, a = stack.pop(), stack.pop()
        if op == "+":
            stack.append(a + b)
        elif op == "-":
            stack.append(a - b)
        elif op == "*":
            stack.append(a * b)
        elif op == "/":
            stack.append(a / b)
        else:
            stack.append(a**b)

    out, ops = [], []
    i, prev = 0, None
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(source) and (source[j].isdigit() or source[j] == "."):
                j += 1
            out.append(float(source[i:j]))
            prev = "num"
            i = j
            continue
        if ch == "(":
            ops.append(ch)
            prev = "("
        elif ch == ")":
            while ops[-1] != "(":
                apply(ops.pop(), out)
            ops.pop()
            prev = "num"
        else:
            op = "~" if ch == "-" and prev in (None, "(", "op") else ch
            while ops and ops[-1] != "(" and (
                prec[ops[-1]] > prec[op]
                or (prec[ops[-1]] == prec[op] and op not in right_assoc)
            ):
                apply(ops.pop(), out)
            ops.append(op)
            prev = "op"
        i += 1
    while ops:
        apply(ops.pop(), out)
    assert len(out) == 1
    return out[0]


def _read_only(x):
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x


class TestParse:
    def test_nonlinear_first_order_square(self):
        assert parse("y1^2 + 1") == BinOp("+", BinOp("^", Arg(1), Num(2.0)), Num(1.0))

    def test_linear_combination(self):
        assert parse("-2*y2 - y0") == BinOp(
            "-", BinOp("*", Neg(Num(2.0)), Arg(2)), Arg(0))

    def test_unbalanced_parenthesis_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("x^(1")
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("foo(x)")
        with pytest.raises(UnknownIdentifierError):
            parse("x + t")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("2x")

    def test_unexpected_character(self):
        # NUMBER takes the ASCII digits only, not every Unicode decimal
        # digit (here ARABIC-INDIC DIGIT THREE)
        for source, offset in (("1 + $", 4), ("\u0663", 0), ("1\u0663", 1), ("1.5e\u0663", 4)):
            with pytest.raises(ExpressionSyntaxError) as err:
                parse(source)
            assert err.value.offset == offset
            assert str(err.value).startswith(f"unexpected character {source[offset]!r}")

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_whitespace_insensitive(self):
        assert parse(" y1 ^ 2+1 ") == parse("y1^2+1")

    def test_deterministic_trees(self):
        assert parse("sin(x)*2 - y0/4") == parse("sin(x)*2 - y0/4")

    @pytest.mark.parametrize("source,offset", [
        ("(" * 5000, MAX_DEPTH),
        ("-" * 5000 + "x", MAX_DEPTH),
        ("^".join(["2"] * 3000), 2 * MAX_DEPTH + 1),
        ("+".join(["x"] * 3000), 2 * MAX_DEPTH - 1),
        ("sin(" * 5000, 4 * MAX_DEPTH + 3),
    ], ids=["parentheses", "unary-minus", "power-chain", "sum-chain", "calls"])
    def test_too_deep_is_a_syntax_error(self, source, offset):
        with pytest.raises(ExpressionSyntaxError, match="nested deeper") as err:
            parse(source)
        assert err.value.offset == offset

    def test_deepest_accepted_trees_walk(self):
        # MAX_DEPTH parentheses and trees of MAX_DEPTH levels parse;
        # compiling, evaluation (twice at one read-only x, so kept values
        # serve the second), to_source and max_arg_index walk the trees
        # from deep in a call stack, and to_source parses back
        d = MAX_DEPTH
        x = _read_only([0.5, 0.5])
        trees = [parse("(" * d + "x" + ")" * d),
                 parse("-" * (d - 1) + "x"),
                 parse("^".join(["1"] * d)),
                 parse("+".join(["y0"] * d)),
                 parse("sin(" * (d - 1) + "x" + ")" * (d - 1))]

        def compiled(e):
            f = compile(e)
            return [evaluate(f, x, (np.ones(2),)).tolist() for _ in range(2)]

        def from_depth(frames):
            if frames:
                return from_depth(frames - 1)
            return [(evaluate(e, 0.5, (1.0,)), max_arg_index(e), to_source(e), compiled(e))
                    for e in trees]

        walked = from_depth(sys.getrecursionlimit() - 300)
        assert [w[0] for w in walked[:4]] == [0.5, 0.5 * (-1) ** (d - 1), 1.0, float(d)]
        assert [w[1] for w in walked] == [-1, -1, -1, 0, -1]
        assert [parse(w[2]) for w in walked] == trees
        assert [w[3] for w in walked] == [[[w[0]] * 2] * 2 for w in walked]


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-2^2"), 0.0) == -4.0
        assert evaluate(parse("(-2)^2"), 0.0) == 4.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse("2^-3"), 0.0) == 0.125

    def test_mul_over_add(self):
        assert evaluate(parse("2+3*4"), 0.0) == 14.0
        assert evaluate(parse("(2+3)*4"), 0.0) == 20.0

    def test_matches_shunting_yard_oracle(self):
        rng = np.random.default_rng(41)

        def random_source(depth):
            if depth == 0 or rng.random() < 0.3:
                return f"{rng.integers(1, 9)}.{rng.integers(0, 99):02d}"
            op = rng.choice(["+", "-", "*", "/", "^"])
            a, b = random_source(depth - 1), random_source(depth - 1)
            if op == "^":
                b = f"{rng.integers(1, 3)}"  # keep magnitudes sane
            if rng.random() < 0.25:
                a = f"-{a}"
            if rng.random() < 0.5:
                return f"({a}) {op} {b}"
            return f"{a} {op} ({b})"

        checked = 0
        for _ in range(300):
            src = random_source(3)
            try:
                expected = shunting_yard_eval(src)
            except ZeroDivisionError:
                continue  # exact cancellation in a denominator; not the point here
            assert evaluate(parse(src), 0.0) == expected
            checked += 1
        assert checked > 250


class TestEvaluate:
    def test_square_plus_one(self):
        assert evaluate(parse("y1^2 + 1"), 0.0, (0.0, 2.0)) == 5.0

    def test_ratio_of_derivatives(self):
        e = parse("y3^2 / y2")
        assert evaluate(e, 0.0, (0.0, 0.0, 3.0, 1.0)) == pytest.approx(1 / 3)

    def test_third_order_linear(self):
        e = parse("4*x*y1 + 2*y0")
        assert evaluate(e, 0.5, (1.0, 1.0, 0.0)) == pytest.approx(4.0)

    def test_functions(self):
        assert evaluate(parse("sin(x)^2 + cos(x)^2"), 0.7) == pytest.approx(1.0)
        assert evaluate(parse("sec(x)"), 1.0) == pytest.approx(1 / math.cos(1.0))
        assert evaluate(parse("ln(exp(x))"), 0.3) == pytest.approx(0.3)
        assert evaluate(parse("sqrt(abs(0 - 9))"), 0.0) == pytest.approx(3.0)
        assert evaluate(parse("tan(x)"), 0.4) == pytest.approx(math.tan(0.4))

    def test_missing_argument(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("y2"), 0.5, (1.0,))

    def test_domain_errors(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("ln(x - 1)"), 0.5)
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(0 - x)"), 0.5)
        with pytest.raises(EvaluationError):
            evaluate(parse("1 / y0"), 0.0, (0.0,))
        with pytest.raises(EvaluationError):
            evaluate(parse("(0 - 2)^x"), 0.5)
        with pytest.raises(EvaluationError):
            evaluate(parse("y0^-1"), 0.0, (0.0,))

    def test_function_overflow_is_evaluation_error(self):
        # math.exp raises OverflowError and sin(inf) raises ValueError; both
        # must surface as EvaluationError carrying the offending argument
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("exp(1000)"), 0.0)
        assert err.value.where == 1000.0
        for fn in ("sin", "cos", "tan", "sec"):
            with pytest.raises(EvaluationError) as err:
                evaluate(parse(f"{fn}(10^400)"), 0.0)
            assert err.value.where == math.inf

    def test_overflow_through_arguments(self):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("exp(40*y0)"), 0.5, (20.0,))
        assert err.value.where == 800.0

    def test_arrays_broadcast_and_constants_fill_the_shape(self):
        xs = np.linspace(0.0, 1.0, 5)
        got = evaluate(parse("6"), xs)
        assert got.shape == (5,) and np.all(got == 6.0)
        ys = np.arange(6.0).reshape(2, 3)
        assert evaluate(parse("2*y0 + 1"), 0.5, (ys,)).tolist() == (2 * ys + 1).tolist()
        assert type(evaluate(parse("6"), 0.5)) is float
        assert type(evaluate(parse("x*y0"), 0.5, (2.0,))) is float

    def test_domain_error_names_the_first_failing_point(self):
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("ln(x - 0.5)"), np.array([0.9, 0.75, 0.25, 0.0]))
        assert err.value.where == -0.25
        assert str(err.value) == "ln of non-positive value -0.25"
        with pytest.raises(EvaluationError) as err:
            evaluate(parse("x / y0"), np.array([0.5, 0.25, 0.125]), (np.array([1.0, 0.0, 0.0]),))
        assert err.value.where == 0.25

    def test_array_values_are_owned_and_writable(self):
        # the value is never x, an argument or a value a compiled tree
        # keeps, so writing to it changes neither them nor a later
        # evaluation; x is read-only, so the compiled trees keep exp(x)
        x, y0 = _read_only(np.linspace(0.0, 1.0, 5)), np.linspace(-1.0, 1.0, 5)
        inputs = x.copy(), y0.copy()
        for e in (parse("x"), parse("y0"), compile(parse("exp(x)")),
                  compile(parse("exp(x) + y0")), parse("2")):
            got = evaluate(e, x, (y0,))
            want = got.tolist()
            assert got.flags.writeable and got.flags.owndata
            got[:] = 7.0
            assert evaluate(e, x, (y0,)).tolist() == want
        assert (x.tolist(), y0.tolist()) == tuple(a.tolist() for a in inputs)

    def test_array_failures_match_a_loop_over_points(self):
        # each case fails (or overflows) at a point in the middle and again
        # later; the array raises what evaluating the points one by one
        # raises first
        x = np.array([0.25, 0.5, 0.75, 0.125, 0.875])
        y0 = np.array([1.0, -2.0, 1e200, -1e200, 3.0])
        outcomes = {}
        for source in ("exp(1000*x)", "(-8)^(4*x)", "y0^3"):
            outcomes[source] = whole = _outcome(parse(source), x, (y0,))
            assert whole == _pointwise(parse(source), x, (y0,))[0], source
        assert outcomes["exp(1000*x)"] == ("exp(750.0): math range error", "750.0")
        assert outcomes["(-8)^(4*x)"] == (
            "negative base -8.0 with non-integer exponent 0.5", "-8.0")
        assert np.frombuffer(outcomes["y0^3"]).tolist() == [1.0, -8.0, math.inf, -math.inf, 27.0]

    def test_tan_and_sec_are_finite_at_the_doubles_nearest_their_poles(self):
        # cos vanishes at no double, so tan and sec give math's finite values
        # at the doubles nearest -pi/2, pi/2 and 3pi/2
        points = np.array([-math.pi / 2, math.pi / 2, 3 * math.pi / 2])
        for fn, want in (("tan", math.tan), ("sec", lambda v: 1.0 / math.cos(v))):
            got = evaluate(parse(f"{fn}(x)"), points)
            assert got.tolist() == [want(p) for p in points.tolist()], fn
            assert np.isfinite(got).all() and (np.abs(got) > 1e15).all(), fn
            assert [evaluate(parse(f"{fn}(x)"), p) for p in points.tolist()] == got.tolist()

    def test_power_over_arrays(self):
        # overflow keeps the sign of an odd power; an infinite or NaN
        # exponent is not an integer; the first failing point raises
        e = parse("y0^y1")
        got = evaluate(e, 0.0, (np.array([-10.0, -10.0, 1e-300, 2.0]),
                                np.array([401.0, 400.0, -2.0, 0.5])))
        assert got.tolist() == [-math.inf, math.inf, math.inf, math.sqrt(2.0)]
        for bad in (math.inf, math.nan, 0.5):
            with pytest.raises(EvaluationError) as err:
                evaluate(e, 0.0, (np.array([2.0, -3.0]), np.array([bad, bad])))
            assert err.value.where == -3.0
            assert str(err.value) == f"negative base -3.0 with non-integer exponent {bad}"
        with pytest.raises(EvaluationError) as err:
            evaluate(e, 0.0, (np.array([1.0, 0.0, -1.0]), np.array([-1.0, -1.0, 0.5])))
        assert str(err.value) == "zero raised to a negative power"

    # signed zeros, infinities, nan, subnormals, integers of both parities
    # and magnitudes that overflow or underflow a power
    HOSTILE = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310,
               1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 3.0, -3.0, 1.5, -7.25, 1e-300, -1e300, 1e300,
               1023.0, 1024.0, 1075.0, -1075.0, 1e300 + 2**970]

    @staticmethod
    def _loop_pow(b, e):
        """Python's pow at one element, a signed inf where it overflows, and
        None where the domain checks of ^ reject it: a negative base with
        an exponent that is not a finite integer, or 0 to a negative power."""
        if (b < 0 and not (math.isfinite(e) and e.is_integer())) or (b == 0 and e < 0):
            return None
        try:
            return pow(b, e)
        except OverflowError:
            return math.copysign(math.inf, b) if e % 2 == 1 else math.inf

    def test_power_over_hostile_arrays_matches_a_loop_of_pow(self, monkeypatch):
        # _power maps math.pow, which must give the bits of Python's pow at
        # every element the domain checks let through: on a libm where the
        # two differ, this fails rather than letting the bits drift.  An
        # overflow anywhere takes every element again through ** (_pow)
        rng = np.random.default_rng(35)
        pairs = [(b, e) for b in self.HOSTILE for e in self.HOSTILE]
        bases = np.ldexp(rng.uniform(-1, 1, 4000), rng.integers(-1080, 1024, 4000))
        exponents = np.where(rng.random(4000) < 0.5, rng.integers(-400, 400, 4000),
                             rng.uniform(-300, 300, 4000) * 10.0 ** rng.integers(-3, 2, 4000))
        pairs += zip(bases.tolist(), exponents.tolist())
        good = [(b, e) for b, e in pairs if self._loop_pow(b, e) is not None]
        finite = [(b, e) for b, e in good if not math.isinf(self._loop_pow(b, e))
                  or math.isinf(b) or math.isinf(e)]
        assert len(good) > len(finite) > 2000

        def check(chosen):  # 1-D, 2-D and at a single point
            b, e = map(np.array, zip(*chosen))
            want = np.array([self._loop_pow(*p) for p in chosen])
            assert expressions._power(b, e).tobytes() == want.tobytes()
            assert expressions._power(b[:1000].reshape(50, 20), e[:1000].reshape(50, 20)) \
                .tobytes() == want[:1000].tobytes()
            assert expressions._power(b[3], e[3]).tobytes() == want[3].tobytes()

        with monkeypatch.context() as patch:  # math.pow alone, no fallback
            patch.setattr(expressions, "_pow", None)
            check(finite)
        check(good)
        for b, e in set(pairs) - set(good):
            with pytest.raises(EvaluationError):
                expressions._power(np.array([2.0, b]), np.array([1.0, e]))
        # a constant exponent that is a non-negative integer skips the checks
        values = np.array(self.HOSTILE + bases.tolist())
        for e in (0.0, 1.0, 2.0, 3.0, 1024.0, 1075.0):
            want = np.array([self._loop_pow(b, e) for b in values.tolist()])
            assert expressions._power(values, e).tobytes() == want.tobytes(), e

    @pytest.mark.parametrize("fn", ["sin", "cos", "tan", "sec", "exp", "ln", "sqrt", "abs"])
    def test_functions_over_hostile_arrays_match_a_loop_of_math(self, fn):
        # _function maps math's function over the elements: the bits of a
        # loop, in 1-D, 2-D and at a single point, and EvaluationError where
        # the loop fails (exp overflows, sin of an infinity, ln of 0, ...)
        rng = np.random.default_rng(36)
        randoms = np.ldexp(rng.uniform(-1, 1, 2000), rng.integers(-1080, 1024, 2000))
        scalar = expressions._FUNCS[fn]

        def loop(v):
            try:
                return scalar(v)
            except (OverflowError, ValueError):
                return None

        values = self.HOSTILE + randoms.tolist() + rng.uniform(-800, 800, 500).tolist()
        good = [v for v in values if loop(v) is not None]
        assert len(good) > 1000
        v = np.array(good)
        want = np.array([loop(p) for p in good])
        assert expressions._function(fn, v).tobytes() == want.tobytes()
        grid = v[:1000].reshape(20, 50)
        assert expressions._function(fn, grid).tobytes() == want[:1000].tobytes()
        assert expressions._function(fn, v[7]).tobytes() == want[7].tobytes()
        for p in set(values) - set(good):
            with pytest.raises(EvaluationError):
                expressions._function(fn, np.array([1.0, p]))


class TestRoundTrip:
    CASES = ["y1^2 + 1", "-2*y2 - y0", "4*x*y1 + 2*y0", "y3^2 / y2",
             "-(x + 2)^2 * y0", "sin(cos(x)) - sqrt(x)/3", "2^-3^2"]

    @pytest.mark.parametrize("src", CASES)
    def test_parse_print_parse(self, src):
        tree = parse(src)
        assert parse(to_source(tree)) == tree

    def test_max_arg_index(self):
        assert max_arg_index(parse("x + 1")) == -1
        assert max_arg_index(parse("y0 * y3 - y1")) == 3

    def test_arg_indices(self):
        assert arg_indices(parse("x + 1")) == frozenset()
        assert arg_indices(parse("-y2 * y0^sin(y0) / y2")) == {0, 2}
        for walk in (arg_indices, max_arg_index, to_source, compile):
            with pytest.raises(TypeError, match="not an expression node: 'y1'"):
                walk(BinOp("+", Arg(0), "y1"))


def _outcome(e, x, args):
    """evaluate's value as bytes, or its error's message and where."""
    try:
        return np.asarray(evaluate(e, x, args)).tobytes()
    except EvaluationError as exc:
        return str(exc), repr(exc.where)


def _pointwise(e, x, args):
    """evaluate's outcome over x as a loop over its points gives it: the
    values of all points as bytes, or the first error with its where; and
    the outcome at each point."""
    if np.ndim(x) == 0:
        points = [_outcome(e, x, args)]
    else:
        points = [_outcome(e, xi, tuple(a[i].item() for a in args))
                  for i, xi in enumerate(x.tolist())]
    errors = [p for p in points if not isinstance(p, bytes)]
    return (errors[0] if errors else b"".join(points)), points


# trees over x, y0..y2, numbers, every operator and every function; half
# the leaves are x, so most trees have x-only subtrees, 0 and negatives put
# domain failures among them, and 1000, 700 and -1e200 overflows (of exp,
# and of odd and even powers)
_trees = st.recursive(
    st.sampled_from([X(), X(), X(), Arg(0), Arg(1), Arg(2)])
    | st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, -3.0, 1000.0]).map(Num),
    lambda inner: inner.map(Neg)
    | st.builds(BinOp, st.sampled_from("+-*/^"), inner, inner)
    | st.builds(Call, st.sampled_from(["sin", "cos", "tan", "sec", "exp", "ln", "sqrt", "abs"]),
                inner),
    max_leaves=12)
_points = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, 2.0, -2.5, 1e-300, 700.0, -1e200,
                          math.pi / 2])
_nodes = st.lists(_points, min_size=1, max_size=6).map(np.array) | _points


class TestCompile:
    @settings(max_examples=400, deadline=None)
    @given(e=_trees, x=_nodes,
           argsets=st.lists(st.lists(st.lists(_points, min_size=6, max_size=6), max_size=3),
                            min_size=1, max_size=4))
    def test_compiled_tree_evaluates_to_the_same_bits_or_error(self, e, x, argsets):
        # one compiled tree, evaluated at one read-only x (a 0-d array for
        # a single point) with each argument set in turn, keeps its x-only
        # values from the first evaluation that succeeds there; each time,
        # the value or the first error in walk order, with its where, must
        # be what a freshly compiled tree gives, and that is what a loop
        # over the points gives: its values, or, when it fails, the error
        # of one of its points (the first operation in walk order that
        # fails anywhere need not fail at the first point)
        x = _read_only(x)
        compiled = compile(e)
        for ys in argsets:
            args = tuple(np.array(y[:x.size]) if x.ndim else y[0] for y in ys)
            whole = _outcome(compiled, x, args)
            assert whole == _outcome(e, x, args)
            first, points = _pointwise(e, x, args)
            if isinstance(whole, bytes):
                assert whole == first
            else:
                assert not isinstance(first, bytes) and whole in points

    def test_walk_order_decides_the_error(self):
        # ln(x - 2) fails at every node, so it keeps nothing, and ln(y0),
        # first in walk order, still raises first when y0 <= 0, however
        # often the compiled tree is evaluated
        e = parse("ln(y0) + ln(x - 2)")
        x = _read_only([0.25, 0.5])
        compiled = compile(e)
        for y0, message, where in ((np.array([1.0, -0.5]), "ln of non-positive value -0.5", -0.5),
                                   (np.array([1.0, 2.0]), "ln of non-positive value -1.75", -1.75)):
            for tree in (e, compiled, compiled):
                with pytest.raises(EvaluationError) as err:
                    evaluate(tree, x, (y0,))
                assert (str(err.value), err.value.where) == (message, where)

    def test_keeps_maximal_x_only_subtrees(self, monkeypatch):
        # each function call over the points is recorded: a subtree with x
        # and no yk runs once per read-only x, a subtree with a yk every
        # time, and a new x runs the x-only subtrees again
        calls, function = [], expressions._function
        monkeypatch.setattr(expressions, "_function",
                            lambda fn, v: calls.append(fn) or function(fn, v))
        x, other = _read_only([0.0, 0.5, 1.0]), _read_only([0.25, 0.75, 1.0])
        ys = np.array([1.0, 2.0, 3.0])
        for source, first, again in (
                ("sin(cos(x))*y0 + exp(y0) + sqrt(x + 2)^2*y1", ["cos", "sin", "exp", "sqrt"],
                 ["exp"]),
                ("sin(x) + 1", ["sin"], []),
                ("sin(y0 + x)", ["sin"], ["sin"])):
            compiled = compile(parse(source))
            for at, want in ((x, first), (x, again), (other, first), (other, again)):
                calls.clear()
                got = evaluate(compiled, at, (ys, ys))
                assert calls == want, source
                assert got.tolist() == evaluate(parse(source), at, (ys, ys)).tolist()

    def test_a_changed_x_gives_new_values(self):
        # values are kept only for a read-only x: a writable x, or a
        # read-only one made writable, may change in place between calls
        e = parse("exp(x)*y0 + sin(x)")
        compiled = compile(e)
        x, y0 = np.array([0.0, 0.5]), np.array([1.0, 2.0])
        for read_only_first in (False, True):
            x[:] = [0.0, 0.5]
            x.setflags(write=not read_only_first)
            evaluate(compiled, x, (y0,))
            x.setflags(write=True)
            x[:] = [1.0, 2.0]
            assert evaluate(compiled, x, (y0,)).tolist() == evaluate(e, x, (y0,)).tolist()
            assert evaluate(compiled, x, (y0,)).tolist() == [
                math.exp(1.0) + math.sin(1.0), 2 * math.exp(2.0) + math.sin(2.0)]
