"""Property tests: the array walk of expressions.evaluate against the
scalar walk in helpers.py on random trees and random points, and the
non-finite-sample error of the moment kernel."""

import math

import numpy as np
import pytest
from helpers import expression_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from bernbvp.errors import EvaluationError
from bernbvp.expressions import _FUNCS, Arg, BinOp, Call, Neg, Num, X, evaluate
from bernbvp.quadrature import _exact_moments, gauss_rule

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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(order=st.integers(1, 30), panels=st.integers(1, 3), data=st.data())
def test_nonfinite_sample_names_the_first_node(order, panels, data):
    rule = gauss_rule(order, panels)
    size = rule.nodes.size
    bad = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=4))
    samples = np.ones(size)
    samples[bad] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    with pytest.raises(EvaluationError) as err:
        _exact_moments(lambda xs: samples, 3, rule)
    first = rule.nodes[min(bad)].item()
    assert err.value.where == first
    assert str(err.value) == f"right-hand side returned non-finite value at x={first}"
