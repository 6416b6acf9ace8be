"""The exact route against its direct reference implementations in
helpers.py: the same exact moments, the system right-hand side v bit for
bit, and Bernstein evaluation bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import assemble_rhs_reference, evaluate_reference, exact_moments_reference

from bernbvp.bandsolve import assemble_rhs
from bernbvp.bernstein import BernsteinPoly, evaluate
from bernbvp.dual import dual_coefficients
from bernbvp.quadrature import QuadratureRule, _exact_moments, gauss_rule


def random_g(rng):
    """A smooth random integrand with a random scale."""
    a, b, c = rng.uniform(-3, 3, 3)
    scale = 10.0 ** rng.integers(-5, 6)
    return lambda x: scale * (a * math.exp(b * x) + math.sin(c * x + a))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("order,panels", [(1, 1), (5, 1), (20, 2), (62, 2), (7, 3)])
def test_exact_moments_match_reference_on_gauss_rules(order, panels):
    rng = np.random.default_rng(order * 10 + panels)
    rule = gauss_rule(order, panels)
    for nu in (0, 1, 2, int(rng.integers(3, 40)), 58):
        g = random_g(rng)
        moments, gvals = _exact_moments(g, nu, rule)
        expect, expect_g = exact_moments_reference(g, nu, rule)
        assert [Fraction(p, q) for p, q in moments] == expect, nu
        assert gvals == expect_g


def test_exact_moments_match_reference_with_nodes_at_the_ends():
    # x = 0 and x = 1 give X = 0 and 2^e - X = 0, and all-integer nodes e = 0
    rng = np.random.default_rng(5)
    rules = [QuadratureRule(3, 1, [0.0, 0.375, 1.0], [0.25, 0.5, 0.25]),
             QuadratureRule(2, 1, [0.0, 1.0], [0.5, 0.5])]
    for rule in rules:
        for nu in (0, 1, 7, 30):
            g = random_g(rng)
            moments, _ = _exact_moments(g, nu, rule)
            expect, _ = exact_moments_reference(g, nu, rule)
            assert [Fraction(p, q) for p, q in moments] == expect, (rule.nodes, nu)


@pytest.mark.parametrize("m", range(1, 9))
def test_rhs_bit_identical_for_every_shape(m):
    rng = np.random.default_rng(100 + m)
    rule = gauss_rule(20, 2)
    for k in range(m + 1):
        l = m - k
        for nu in (0, int(rng.integers(1, 58)), 58):
            n = nu + m
            duals = dual_coefficients(nu)
            exact, _ = _exact_moments(random_g(rng), nu, rule)
            fractions = [Fraction(p, q) for p, q in exact]
            floats = [p / q for p, q in exact]
            outer = (rng.uniform(-1, 1, k) * 10.0 ** rng.integers(-8, 9, k),
                     rng.uniform(-1, 1, l) * 10.0 ** rng.integers(-8, 9, l))
            expect = assemble_rhs_reference(n, m, k, l, duals, fractions, outer)
            for moments in (exact, fractions):
                got = assemble_rhs(n, m, k, l, duals, moments, outer)
                assert bits(got) == bits(expect), (m, k, nu)
            got = assemble_rhs(n, m, k, l, duals, floats, outer)
            expect = assemble_rhs_reference(n, m, k, l, duals, floats, outer)
            assert bits(got) == bits(expect), (m, k, nu, "float moments")


def test_evaluate_bit_identical():
    rng = np.random.default_rng(17)
    for n in list(range(0, 8)) + [20, 39, 59, 60]:
        coeffs = rng.uniform(-1, 1, n + 1) * 10.0 ** rng.integers(-10, 11, n + 1)
        p = BernsteinPoly(coeffs)
        xs = [0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0**-53] + rng.uniform(0, 1, 40).tolist()
        for x in xs:
            assert bits(evaluate(p, x)) == bits(evaluate_reference(p, x)), (n, x)
            assert bits(evaluate(p, np.float64(x))) == bits(evaluate_reference(p, x)), (n, x)
