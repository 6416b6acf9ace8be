"""The exact route against its direct reference implementations in
helpers.py: the same exact moments, the system right-hand side v bit for
bit, Bernstein evaluation over arrays against the scalar Horner loop bit
for bit, and the compact band LU against the dense elimination bit for
bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import (assemble_rhs_reference, banded_lu_reference, evaluate_reference,
                     exact_moments_reference)

from bernbvp.bandsolve import _PIVOT_RTOL, BandedToeplitz, assemble_matrix, assemble_rhs, solve
from bernbvp.bernstein import BernsteinPoly, derivative, evaluate
from bernbvp.dual import dual_coefficients
from bernbvp.errors import SingularSystemError
from bernbvp.quadrature import QuadratureRule, _exact_moments, gauss_rule


def random_g(rng):
    """A smooth random integrand with a random scale."""
    a, b, c = rng.uniform(-3, 3, 3)
    scale = 10.0 ** rng.integers(-5, 6)
    return lambda x: scale * (a * math.exp(b * x) + math.sin(c * x + a))


def over_nodes(g):
    """The scalar g mapped over a node array, as _exact_moments samples it."""
    return lambda xs: [g(x) for x in xs.tolist()]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("order,panels", [(1, 1), (5, 1), (20, 2), (62, 2), (7, 3)])
def test_exact_moments_match_reference_on_gauss_rules(order, panels):
    rng = np.random.default_rng(order * 10 + panels)
    rule = gauss_rule(order, panels)
    for nu in (0, 1, 2, int(rng.integers(3, 40)), 58):
        g = random_g(rng)
        moments, gvals = _exact_moments(over_nodes(g), nu, rule)
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
            moments, _ = _exact_moments(over_nodes(g), nu, rule)
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
            exact, _ = _exact_moments(over_nodes(random_g(rng)), nu, rule)
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


def random_coeffs(rng, n):
    """Degree-n coefficients over many scales, some of them +-0."""
    c = rng.uniform(-1, 1, n + 1) * 10.0 ** rng.integers(-10, 11, n + 1)
    c[rng.random(n + 1) < 0.1] = 0.0
    c[rng.random(n + 1) < 0.1] = -0.0
    return c


def edge_points():
    """Both ends, the midpoint and their float neighbours."""
    pts = [0.0, 5e-324, 2.0**-1022, 1e-300, 0.5, 1.0]
    pts += [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0),
            np.nextafter(np.nextafter(1.0, 0.0), 0.0)]
    return np.array(pts, dtype=float)


@pytest.mark.parametrize("n", range(0, 61))
def test_evaluate_over_arrays_matches_scalar_horner(n):
    # the nodes of the rule the solver uses at degree n (orders 20..62, two
    # panels), the 201-point grid and the edge points
    rng = np.random.default_rng(1000 + n)
    p = BernsteinPoly(random_coeffs(rng, n))
    for xs in (gauss_rule(max(n + 2, 20), 2).nodes, np.arange(201) / 200, edge_points()):
        want = [evaluate_reference(p, x) for x in xs.tolist()]
        assert bits(evaluate(p, xs)) == bits(want), n
    xs = edge_points().reshape(2, 5)
    assert evaluate(p, xs).shape == (2, 5)
    assert bits(evaluate(p, xs)) == bits(evaluate(p, xs.ravel()))


@pytest.mark.parametrize("m", range(1, 9))
def test_stacked_derivatives_match_scalar_horner(m):
    # the solver's call: derivatives 0..m-1 of one iterate, of degrees
    # n-1 down to n-m, in one evaluation over the rule's nodes
    rng = np.random.default_rng(2000 + m)
    for n in (m, m + 1, int(rng.integers(m + 2, 61)), 60):
        prev = BernsteinPoly(random_coeffs(rng, n - 1))
        derivs = [derivative(prev, r) for r in range(m)]
        xs = np.concatenate([gauss_rule(max(n + 2, 20), 2).nodes, edge_points()])
        got = evaluate(derivs, xs)
        assert got.shape == (m, xs.size)
        for r, d in enumerate(derivs):
            want = [evaluate_reference(d, x) for x in xs.tolist()]
            assert bits(got[r]) == bits(want), (m, n, r)


def test_stacked_polynomials_of_any_degrees():
    # padding a lower degree must not touch a signed zero: rows of -0.0 and
    # +-0 mixes keep their sign, as in the scalar loop
    rng = np.random.default_rng(2100)
    zeros = [BernsteinPoly([-0.0] * 3), BernsteinPoly([-0.0]), BernsteinPoly([0.0, -0.0])]
    polys = zeros + [BernsteinPoly(random_coeffs(rng, int(n)))
                     for n in rng.integers(0, 61, 8)]
    xs = np.concatenate([np.arange(201) / 200, edge_points()])
    got = evaluate(polys, xs)
    for r, p in enumerate(polys):
        want = [evaluate_reference(p, x) for x in xs.tolist()]
        assert bits(got[r]) == bits(want), (r, p.degree)


def test_evaluate_scalar_returns_python_float():
    p = BernsteinPoly([0.25, -0.5, 1.0, 0.75])
    for x in (0.0, 0.3, 0.5, 1.0, np.float64(0.7)):
        got = evaluate(p, x)
        assert type(got) is float
        assert bits(got) == bits(evaluate_reference(p, float(x)))
        assert bits(p(x)) == bits(got)
    with pytest.raises(ValueError, match="outside"):
        evaluate(p, np.array([0.5, 1.5]))


def solve_or_row(solve_fn, system):
    """The solution's bits, or the row of the SingularSystemError."""
    try:
        return bits(solve_fn(system))
    except SingularSystemError as exc:
        return exc.row


@pytest.mark.parametrize("m", range(1, 9))
def test_band_lu_matches_dense_elimination(m):
    # the solver's matrices and random small-integer Toeplitz bands (ties
    # in the pivot search, zero pivots, singular systems) at sizes 1..61
    rng = np.random.default_rng(3000 + m)
    singular = 0
    for k in range(m + 1):
        l = m - k
        for size in range(1, 62):
            rhs = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-3, 4, size)
            bands = [assemble_matrix(size + m - 1, m, k, l).diagonals,
                     rng.integers(-3, 4, m + 1).astype(float)]
            for diags in bands:
                system = BandedToeplitz(size, k, l, diags, rhs)
                tol = _PIVOT_RTOL * max(float(np.abs(system.diagonals).max()), 1.0)
                want = solve_or_row(lambda s: banded_lu_reference(s, tol), system)
                assert solve_or_row(solve, system) == want, (k, l, size, diags)
                singular += isinstance(want, int)
    assert singular > 0
