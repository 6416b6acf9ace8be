"""Property tests: the array walk of expressions.evaluate against the
scalar walk in helpers.py on random trees and random points, the parser
on random token strings, the non-finite-sample error of the moment kernel,
and the boundary conditions of random boundary data."""

import math
from math import comb

import numpy as np
import pytest
from helpers import expression_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernbvp.bernstein import BernsteinPoly, endpoint_derivative, falling_factorial
from bernbvp.errors import EvaluationError, ExpressionSyntaxError
from bernbvp.expressions import (_FUNCS, Arg, BinOp, Call, Neg, Num, X, evaluate, parse,
                                 to_source)
from bernbvp.quadrature import gauss_rule, legendre_moments
from bernbvp.solver import BVProblem, outer_coefficients

PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)

# operands that reach every failure: zero divisors and bases, negative
# bases and ln/sqrt arguments, exp and pow overflow, sin(inf)
SPECIAL = [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, -2.5, 1e-300, 1e300, 710.0, -710.0]
values = st.one_of(st.sampled_from(SPECIAL + [math.inf]),
                   st.floats(-1e3, 1e3, allow_nan=False))
leaves = st.one_of(
    st.builds(Num, st.one_of(st.sampled_from(SPECIAL), st.floats(-10, 10, allow_nan=False))),
    st.just(X()),
    st.builds(Arg, st.integers(0, 3)),
)
trees = st.recursive(leaves, lambda sub: st.one_of(
    st.builds(Neg, sub),
    st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
    st.builds(Call, st.sampled_from(sorted(_FUNCS)), sub),
), max_leaves=10)


def same_bits(got, want):
    """Equal bit for bit, except that any NaN equals any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(got)
    return (np.array_equal(nan, np.isnan(want))
            and got[~nan].tobytes() == want[~nan].tobytes())


def failure(exc):
    where = exc.where
    return str(exc), None if where is None else float(where).hex()


@PROPERTY
@given(tree=trees, data=st.data())
def test_array_walk_matches_scalar_walk(tree, data):
    size = data.draw(st.integers(1, 8))
    xs = np.array(data.draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    ys = np.array(data.draw(st.lists(st.lists(values, min_size=size, max_size=size),
                                     min_size=4, max_size=4)))
    want, failures = [], []
    for t in range(size):
        try:
            want.append(expression_reference(tree, xs[t].item(), ys[:, t].tolist()))
        except EvaluationError as exc:
            failures.append(failure(exc))
    if failures:
        # the first operation (in walk order) failing at any node raises,
        # as the scalar walk raises at some node for that operation
        with pytest.raises(EvaluationError) as err:
            evaluate(tree, xs, ys)
        assert failure(err.value) in failures
    else:
        got = evaluate(tree, xs, ys)
        assert got.shape == xs.shape
        assert same_bits(got, want)
    # the same walk over floats gives a float or the scalar walk's error
    try:
        first = expression_reference(tree, xs[0].item(), ys[:, 0].tolist())
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as err:
            evaluate(tree, xs[0].item(), ys[:, 0].tolist())
        assert failure(err.value) == failure(exc)
    else:
        got = evaluate(tree, xs[0].item(), ys[:, 0].tolist())
        assert type(got) is float and same_bits(got, first)


# the grammar's tokens, a literal beyond float64, an argument past y9, an
# unknown name and characters that start no token, with whitespace
_TOKENS = ["x", "y0", "y9", "2", "0.5", ".5", "3.", "1e-3", "1e999", "y12", "foo",
           *sorted(_FUNCS), *"+-*/^()", " ", "\t", "$", ",", "\u00e9"]
_atoms = st.sampled_from(_TOKENS[:11])
_grammar = st.recursive(_atoms, lambda sub: st.one_of(
    st.builds("{}{}{}".format, sub, st.sampled_from(["+", " - ", "*", "/", "^"]), sub),
    sub.map("-{}".format), sub.map("( {} )".format),
    st.builds("{}({})".format, st.sampled_from(sorted(_FUNCS)), sub)), max_leaves=8)
# an opener repeated up to past the 64 levels parse accepts, a source from
# the grammar, and up to as many closing parentheses, independently drawn
_nested = st.builds(lambda opener, depth, inner, closers: opener * depth + inner + ")" * closers,
                    st.sampled_from(["(", "-", "2^", "2^(", "sin(", "x+(", "-("]),
                    st.integers(0, 80), _grammar, st.integers(0, 80))
_sources = st.one_of(_grammar, st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
                     _nested)


@PROPERTY
@given(source=_sources)
def test_parse_round_trips_or_raises_a_syntax_error(source):
    # every tree parse returns prints back to the same tree; every source
    # it refuses is an ExpressionSyntaxError at an offset inside the source
    # (or at its end), never another exception
    try:
        tree = parse(source)
    except ExpressionSyntaxError as exc:
        assert 0 <= exc.offset <= len(source)
    else:
        assert parse(to_source(tree)) == tree


@settings(max_examples=100, deadline=None, derandomize=True)
@given(order=st.integers(1, 30), panels=st.integers(1, 3), data=st.data())
def test_nonfinite_sample_names_the_first_node(order, panels, data):
    rule = gauss_rule(order, panels)
    size = rule.nodes.size
    bad = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
    samples = np.ones(size)
    samples[bad] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    with pytest.raises(EvaluationError) as err:
        legendre_moments(lambda xs: samples, 3, rule)
    first = rule.nodes[min(bad)].item()
    assert err.value.where == first
    assert str(err.value) == f"right-hand side returned non-finite value at x={first}"


# boundary values: zero, or 0.1..1 in size times 10^-9..10^9
_boundary_values = st.builds(lambda sign, a, e: sign * a * 10.0**e,
                             st.sampled_from((-1.0, 0.0, 1.0)), st.floats(0.1, 1),
                             st.integers(-9, 9))


@PROPERTY
@given(m=st.integers(1, 8), data=st.data())
def test_boundary_values_hold_to_the_rounding_of_their_derivatives(m, data):
    # the outer coefficients give back every boundary value through
    # endpoint_derivative within 4 eps n!/(n-r)! sum_h C(r, h) |c_h|, the
    # rounding scale of the r-th derivative's sum over the r + 1 end
    # coefficients c_h.  A bound relative to the value alone does not hold:
    # at m = k = 8, n = 60 with values of size 1 the error reaches 1.9e-4
    k = data.draw(st.integers(0, m))
    n = data.draw(st.integers(m, 60))
    values = data.draw(st.lists(_boundary_values, min_size=m, max_size=m))
    problem = BVProblem(tuple(values[:k]), tuple(values[k:]), parse("0"))
    left, right = outer_coefficients(problem, n)
    coeffs = np.zeros(n + 1)
    coeffs[:k] = left
    coeffs[n - (m - k) + 1:] = right[::-1]
    poly = BernsteinPoly(coeffs)
    eps = np.finfo(float).eps
    for end, wants in (("left", problem.left_values), ("right", problem.right_values)):
        for r, want in enumerate(wants):
            near = coeffs[:r + 1] if end == "left" else coeffs[n - r:]
            scale = sum(comb(r, h) * abs(c) for h, c in enumerate(near.tolist()))
            bound = 4 * eps * falling_factorial(n, r) * scale
            assert abs(endpoint_derivative(poly, r, end) - want) <= bound, (k, n, end, r)


# finite values of every size, and values within 1% below the float64
# limit, where the partial sums of the outer recurrence overflow
_wide_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda sign, a: sign * a, st.sampled_from((-1.0, 1.0)),
              st.floats(0.99 * 1.7976931348623157e308, 1.7976931348623157e308)),
)


def _outer_or_none(left, right, n):
    try:
        return outer_coefficients(BVProblem(left, right, parse("0")), n)
    except EvaluationError:
        return None


@PROPERTY
@example(values=[1.7e308, 1.7e308, 1.7e308], raise_by=0)
@given(values=st.lists(_wide_values, min_size=1, max_size=12), raise_by=st.integers(0, 20))
def test_mirror_image_boundary_data_give_the_same_outer_coefficients(values, raise_by):
    # data v at x = 1 and their mirror image (-1)^j v_j at x = 0 have the
    # same outer coefficients, bit for bit, or both leave float64; the
    # @example's c_2 = 8.5e307 at the seed's degree is finite though its
    # partial sums overflow in some orders
    n = len(values) - 1 + raise_by
    mirror = tuple(-v if j % 2 else v for j, v in enumerate(values))
    right = _outer_or_none((), tuple(values), n)
    left = _outer_or_none(mirror, (), n)
    assert (right is None) == (left is None)
    if right is not None:
        assert right[1].tobytes() == left[0].tobytes()
