"""Fast forms against their direct reference implementations in
helpers.py: the Legendre moments against exact ones, the system
right-hand side v bit for bit, one iterate against the iterate solved
exactly in Fractions on grid values, Bernstein evaluation over arrays
against a loop over the points bit for bit and against the scalar
Horner loop within a bound, the
solver's basis-matrix derivatives against Horner within that bound, the
band solve's exact residual against one in Fractions bit for bit, the
step's matrix-vector products against their @ form bit for bit, and the
band solve of every stencil shape against its residual bound."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from helpers import (dense_from_banded, evaluate_reference, exact_route_iterate,
                     legendre_moments_reference, route_inputs, stencil)

from bernbvp import bandsolve
from bernbvp.bandsolve import assemble_matrix, assemble_rhs, solve
from bernbvp.bernstein import BernsteinPoly, derivative, evaluate, falling_factorial
from bernbvp.dual import dual_coefficients
from bernbvp.quadrature import QuadratureRule, gauss_rule, legendre_moments
from bernbvp.solver import _derivative_terms, _node_derivatives, iterate


def random_g(rng):
    """A smooth random integrand with a random scale."""
    a, b, c = rng.uniform(-3, 3, 3)
    scale = 10.0 ** rng.integers(-5, 6)
    return lambda x: scale * (a * math.exp(b * x) + math.sin(c * x + a))


def over_nodes(g):
    """The scalar g mapped over a node array, as the moment step samples it."""
    return lambda xs: [g(x) for x in xs.tolist()]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_legendre_moments_match_reference(g, nu, rule):
    # Tolerance: over ten seeds of these rules and degrees the worst
    # difference was 2.6 eps (2j + 1) sum_t |w_t g(x_t)|, the bound on the
    # terms of L_j (|P_j| <= 1)
    got, gvals = legendre_moments(over_nodes(g), nu, rule)
    expect, expect_g = legendre_moments_reference(over_nodes(g), nu, rule)
    assert gvals.tolist() == expect_g
    size = math.fsum(abs(w * y) for w, y in zip(rule.weights.tolist(), expect_g))
    for j, (a, b) in enumerate(zip(got.tolist(), expect)):
        assert abs(Fraction(a) - b) <= 16 * 2.0**-52 * (2 * j + 1) * size, (nu, j)


@pytest.mark.parametrize("order,panels", [(1, 1), (5, 1), (20, 2), (62, 2), (7, 3)])
def test_exact_moments_match_reference_on_gauss_rules(order, panels):
    rng = np.random.default_rng(order * 10 + panels)
    rule = gauss_rule(order, panels)
    for nu in (0, 1, 2, int(rng.integers(3, 40)), 58):
        assert_legendre_moments_match_reference(random_g(rng), nu, rule)


def test_exact_moments_match_reference_with_nodes_at_the_ends():
    # x = 0 and x = 1, where P_j(2x - 1) = (-1)^j and 1
    rng = np.random.default_rng(5)
    rules = [QuadratureRule(3, 1, [0.0, 0.375, 1.0], [0.25, 0.5, 0.25]),
             QuadratureRule(2, 1, [0.0, 1.0], [0.5, 0.5])]
    for rule in rules:
        for nu in (0, 1, 7, 30):
            assert_legendre_moments_match_reference(random_g(rng), nu, rule)


@pytest.mark.parametrize("m", range(1, 9))
def test_rhs_bit_identical_for_every_shape(m):
    # every row of v is the float64 product of M's row with the moments
    # over n!/nu!, bit for bit
    rng = np.random.default_rng(200 + m)
    for k in range(m + 1):
        l = m - k
        for nu in (0, int(rng.integers(1, 58)), 58):
            n = nu + m
            duals = dual_coefficients(nu)
            moments = rng.uniform(-1, 1, nu + 1) * 10.0 ** rng.integers(-16, 3, nu + 1)
            got = assemble_rhs(assemble_matrix(n, k, l), duals, moments)
            scale = math.factorial(n) // math.factorial(nu)
            assert bits(got) == bits(duals.legendre @ moments / scale), (k, nu)


def route_differences(m, seed):
    """For every k and nu in (0, random, 58): one iterate by iterate()
    against the true iterate (``exact_route_iterate``: the same samples,
    everything after them exact), as max |difference| / (1 + max |w|) on
    the 201-point grid, from the inputs of ``route_inputs``."""
    grid = np.arange(201) / 200
    out = {}
    for k, nu, problem, prev, rule in route_inputs(m, seed):
        n = nu + m
        got = evaluate(iterate(problem, prev, n, rule), grid)
        want = evaluate(BernsteinPoly(exact_route_iterate(problem, prev, n, rule)), grid)
        out[k, nu] = np.abs(got - want).max() / (1 + np.abs(want).max())
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_legendre_route_matches_exact_route_on_grid_values(m):
    # Tolerance: over seeds 0..14 and m = 1..8 the worst difference was
    # 1.3e-14 (seed 10, m = 8, k = 0, nu = 0), on one-sided and two-sided
    # shapes alike.  A step that subtracted the stencil terms of the
    # float64 outer coefficients from v read up to 6.8e-7 here (seeds 0
    # and 1, m = 8, k = 0, nu = 58): the one-sided stencils' inverse
    # spreads that rounding inward.
    worst = max(route_differences(m, 0).values())
    assert worst <= 1e-13


def horner_bound(q, x):
    """4 (d + 1) eps sum_i |q_i| B_i^d(x) for the degree-d BernsteinPoly q
    at one point: the most the sum over the basis may differ from the
    Horner oracle (measured worst: 0.93 of it without the 4)."""
    return 4 * (q.degree + 1) * 2.0**-52 * evaluate_reference(BernsteinPoly(np.abs(q.coeffs)), x)


def assert_near_horner(q, xs, got):
    for x, value in zip(xs.tolist(), np.asarray(got).tolist()):
        assert abs(value - evaluate_reference(q, x)) <= horner_bound(q, x), (q.degree, x)


def test_evaluate_bit_identical():
    # a Python float, an np.float64 and a one-point array give the same bits
    rng = np.random.default_rng(17)
    for n in list(range(0, 8)) + [20, 39, 59, 60]:
        coeffs = rng.uniform(-1, 1, n + 1) * 10.0 ** rng.integers(-10, 11, n + 1)
        p = BernsteinPoly(coeffs)
        xs = np.array([0.0, 0.5, 1.0, 5e-324, 1.0 - 2.0**-53] + rng.uniform(0, 1, 40).tolist())
        for x in xs.tolist():
            got = evaluate(p, x)
            assert bits(evaluate(p, np.float64(x))) == bits(got), (n, x)
            assert bits(evaluate(p, np.array([x]))) == bits(got), (n, x)
        assert_near_horner(p, xs, evaluate(p, xs))


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
    # at the nodes of the rule the solver uses at degree n (orders 20..62,
    # two panels), the 201-point grid and the edge points: an array gives
    # the bits of a loop over its points, within the bound of Horner
    rng = np.random.default_rng(1000 + n)
    p = BernsteinPoly(random_coeffs(rng, n))
    for xs in (gauss_rule(max(n + 2, 20), 2).nodes, np.arange(201) / 200, edge_points()):
        got = evaluate(p, xs)
        assert bits(got) == bits([evaluate(p, x) for x in xs.tolist()]), n
        assert_near_horner(p, xs, got)
    xs = edge_points().reshape(2, 5)
    assert evaluate(p, xs).shape == (2, 5)
    assert bits(evaluate(p, xs)) == bits(evaluate(p, xs.ravel()))


@pytest.mark.parametrize("m", range(1, 9))
def test_node_derivatives_match_horner_within_the_basis_bound(m):
    # the solver's evaluator: derivative r of a degree-n polynomial at the
    # nodes is one product with the rule's basis matrix of degree d = n - r,
    # checked against the Horner oracle on the same derivative coefficients
    # q within horner_bound, at the default rules (their outer nodes are
    # the ones nearest 0 and 1) and at nodes on both ends
    rng = np.random.default_rng(2050 + m)
    ends = QuadratureRule(5, 1, [0.0, 1e-3, 0.5, 1 - 1e-3, 1.0], [0.2] * 5)
    for n in (m, m + 1, int(rng.integers(m + 2, 60)), 60):
        coeffs = random_coeffs(rng, n)
        for rule in (gauss_rule(max(n + 2, 20), 2), ends):
            got = _node_derivatives(coeffs, _derivative_terms(rule, n, range(m + 1)))
            for r in range(m + 1):
                assert_near_horner(derivative(BernsteinPoly(coeffs), r), rule.nodes, got[r])
                # differences taken order after order give the bits of np.diff's
                once = rule.bernstein_basis(n - r) @ (falling_factorial(n, r) * np.diff(coeffs, r))
                assert bits(got[r]) == bits(once), (m, n, r)
                # positioned by order, with None at each order not asked for
                *unread, alone = _node_derivatives(coeffs, _derivative_terms(rule, n, (r,)))
                assert bits(alone) == bits(once) and unread == [None] * r, (m, n, r)


def test_evaluate_scalar_returns_python_float():
    p = BernsteinPoly([0.25, -0.5, 1.0, 0.75])
    for x in (0.0, 0.3, 0.5, 1.0, np.float64(0.7), np.array(0.7)):
        got = evaluate(p, x)
        assert type(got) is float
        assert bits(got) == bits(evaluate(p, np.array([x]))[0])
        assert bits(p(x)) == bits(got)
    with pytest.raises(ValueError, match="outside"):
        evaluate(p, np.array([0.5, 1.5]))
    assert evaluate(p, np.empty((0, 3))).shape == (0, 3)


def factor_and_apply(system, v):
    """One solve with the system's inverse, before the refinement step."""
    return system.inverse @ v


def exact_residual(system, v, p):
    """v - G p in Fractions from the stencil of the system's order, each
    entry rounded once by float(); OverflowError where one leaves
    float64."""
    padded = [0] * system.lower_bw + list(map(Fraction, p.tolist())) + [0] * system.upper_bw
    row = stencil(system)
    return [float(Fraction(x) - sum(map(operator.mul, row, padded[i:i + len(row)])))
            for i, x in enumerate(v.tolist())]


@pytest.mark.parametrize("m", [*range(1, 9), 30, 55])
def test_exact_residual_matches_fractions(m):
    # the refinement step's residual v - G p, rounded once per entry from
    # its exact value, for p near a solution (heavy cancellation), p over
    # 2^-968..2^992 with entries 0 and -0 (and that p times 2^-m, whose
    # product with G stays below the float64 limit at every order), v at
    # the float64 limit, single entries of p from 2^1010 down to the least
    # subnormal, and p spanning more than 300 binades.  Where the exact
    # residual leaves float64 the residual raises OverflowError too
    rng = np.random.default_rng(3100 + m)
    finite = []

    def check(system, v, p):
        try:
            want = exact_residual(system, v, p)
        except OverflowError:
            with pytest.raises(OverflowError):
                bandsolve._residual(system, v, p)
            return
        assert bits(bandsolve._residual(system, v, p)) == bits(want), (m, k, p)
        finite.append(system.size)

    for k in range(m + 1):
        for n in (m, int(rng.integers(m + 1, 60)), 60):
            size = n - m + 1
            matrix = assemble_matrix(n, k, m - k)
            near = np.ldexp(rng.uniform(-1, 1, size), rng.integers(-60, 60, size))
            check(matrix, near, factor_and_apply(matrix, near))
            v = np.ldexp(rng.uniform(-1, 1, size), rng.integers(-1074, 1000, size))
            p = np.ldexp(rng.uniform(0.5, 1, size) * rng.choice((-1, 1), size),
                         rng.integers(-968, 993, size))
            p[rng.random(size) < 0.2] = rng.choice((0.0, -0.0))
            check(matrix, v, p)
            check(matrix, v, np.ldexp(p, -m))
            near_limit = v.copy()
            near_limit[rng.integers(size)] = 1.7e308 * rng.choice((-1, 1))
            check(matrix, near_limit, p)
            for extreme in (2.0**1010, -(2.0**1005), 2.0**-1000, 5e-324):
                q = p.copy()
                q[rng.integers(size)] = extreme
                check(matrix, v, q)
            # seven magnitudes 60 binades apart, 2^0 down to 2^-360
            wide = np.ldexp(rng.uniform(0.5, 1, size) * rng.choice((-1, 1), size),
                            -60 * (np.arange(size) % 7))
            check(matrix, v, wide)
    # every shape compares finite residuals, not only overflows
    assert len(finite) >= 6 * 3 * (m + 1), len(finite)


@pytest.mark.parametrize("m", range(1, 9))
def test_step_products_bit_identical_to_matmul_for_every_shape(m, monkeypatch):
    # the step's matrix-vector products run through ndarray.dot and must
    # give the bits of @: the derivatives at the nodes, the step's (of the
    # degree n - 1 iterate, orders 0..m-1) and the residual's (degree n,
    # order m), and the band solve's, p = G^-1 v and then p + G^-1 r for
    # the exact residual r = v - G p of each refinement step
    rng = np.random.default_rng(5200 + m)
    steps, residual = [], bandsolve._residual

    def recorded(system, v, p):
        steps.append((p, residual(system, v, p)))
        return steps[-1][1]

    monkeypatch.setattr(bandsolve, "_residual", recorded)
    most = 0
    for nu in (0, int(rng.integers(1, 58)), 58):
        n = nu + m
        rule = gauss_rule(max(n + 2, 20), 2)
        for coeffs, orders in ((random_coeffs(rng, n - 1), range(m)),
                               (random_coeffs(rng, n), (m,))):
            d = coeffs.size - 1
            got = _node_derivatives(coeffs, _derivative_terms(rule, d, orders))
            for r in orders:
                want = rule.bernstein_basis(d - r) @ (falling_factorial(d, r) * np.diff(coeffs, r))
                assert bits(got[r]) == bits(want), (nu, r)
        for k in range(m + 1):
            system = assemble_matrix(n, k, m - k)
            v = rng.uniform(-1, 1, nu + 1) * 10.0 ** rng.integers(-8, 9, nu + 1)
            steps.clear()
            got = solve(system, v)
            want = system.inverse @ v
            for p, r in steps:
                assert bits(p) == bits(want), (k, nu)
                want = p + system.inverse @ np.array(r)
            assert bits(got) == bits(want), (k, nu)
            most = max(most, len(steps))
    # from m = 7 on, the one-sided shapes at nu = 58 take a second step
    assert (most > 1) == (m >= 7), most


@pytest.mark.parametrize("m", range(1, 9))
def test_band_solve_raises_only_near_the_condition_limit_else_small_residual(m):
    # the solver's matrices at sizes 1..61: refinement stops contracting
    # only where the condition number nears 1/eps, far above the worst of
    # these shapes (1.9e12 at m = 8, k = 0, size 61), so none raises
    # SingularSystemError, and every solve meets test_residual_small's
    # bound scaled by its condition number (measured worst:
    # 1.8e-16 (1 + |v|) cond)
    rng = np.random.default_rng(3000 + m)
    for k in range(m + 1):
        l = m - k
        for size in range(1, 62):
            rhs = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-3, 4, size)
            system = assemble_matrix(size + m - 1, k, l)
            dense = dense_from_banded(system)
            cond = np.linalg.cond(dense, np.inf)
            p = solve(system, rhs)
            bound = 1e-10 * (1.0 + np.abs(rhs).max()) * cond
            assert np.abs(dense @ p - rhs).max() <= bound, (k, l, size)
