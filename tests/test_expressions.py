import math

import numpy as np
import pytest

from bernbvp.errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifierError
from bernbvp.expressions import (
    Arg,
    BinOp,
    Call,
    Neg,
    Num,
    X,
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
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("1 + $")
        assert err.value.offset == 4

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("   ")

    def test_whitespace_insensitive(self):
        assert parse(" y1 ^ 2+1 ") == parse("y1^2+1")

    def test_deterministic_trees(self):
        assert parse("sin(x)*2 - y0/4") == parse("sin(x)*2 - y0/4")


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
