"""Fast forms against their direct reference implementations in
helpers.py: the Legendre moments against exact ones, the system
right-hand side v bit for bit, one iterate of the float64 Legendre route
against the exact route (exact Bernstein moments and dual table) on grid
values, Bernstein evaluation over arrays against the scalar Horner loop
bit for bit, the solver's basis-matrix derivatives against Horner within
a bound, the split exact residual against the integer one bit for bit,
and the cached band LU factors against the dense elimination bit for
bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from helpers import (banded_lu_reference, evaluate_reference, exact_route_iterate,
                     legendre_moments_reference)

from bernbvp import bandsolve
from bernbvp.bandsolve import _PIVOT_RTOL, BandedToeplitz, _factor, assemble_matrix, assemble_rhs
from bernbvp.bernstein import BernsteinPoly, derivative, evaluate
from bernbvp.dual import dual_coefficients
from bernbvp.errors import SingularSystemError
from bernbvp.expressions import parse
from bernbvp.quadrature import QuadratureRule, gauss_rule, legendre_moments
from bernbvp.solver import BVProblem, _node_derivatives, iterate


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
    # the k + l rows of v with boundary stencil terms are the exact value
    # of M's row times the float moments over n!/nu!, minus the stencil
    # terms, rounded once; the other rows are the float64 product
    rng = np.random.default_rng(200 + m)
    for k in range(m + 1):
        l = m - k
        for nu in (0, int(rng.integers(1, 58)), 58):
            n = nu + m
            duals = dual_coefficients(nu)
            moments = rng.uniform(-1, 1, nu + 1) * 10.0 ** rng.integers(-16, 3, nu + 1)
            outer = (rng.uniform(-1, 1, k) * 10.0 ** rng.integers(-8, 9, k),
                     rng.uniform(-1, 1, l) * 10.0 ** rng.integers(-8, 9, l))
            got = assemble_rhs(n, m, k, l, duals, moments, outer)
            fixed = [Fraction(0)] * (n + 1)
            fixed[:k] = map(Fraction, outer[0])
            for j, x in enumerate(outer[1]):
                fixed[n - j] = Fraction(x)
            scale = math.factorial(n) // math.factorial(nu)
            interior = duals.legendre @ moments / scale
            for i in range(nu + 1):
                if k <= i <= nu - l:
                    assert bits(got[i]) == bits(interior[i]), (k, nu, i)
                    continue
                dot = sum(a * Fraction(y) for a, y in zip(duals.legendre_numerators[i], moments))
                corr = sum((-1) ** (m - h) * math.comb(m, h) * fixed[i + h]
                           for h in range(m + 1))
                want = float(dot / (math.comb(nu, i) * scale) - corr)
                assert bits(got[i]) == bits(want), (k, nu, i)


def route_differences(m, seed):
    """For every k and nu in (0, random, 58): one iterate by the float64
    Legendre route against the exact route (exact Bernstein moments and
    dual table, v rounded once), as max |difference| / (1 + max |w|) on
    the 201-point grid.  The rhs is smooth in x and y0, and so is the
    previous iterate."""
    rng = np.random.default_rng(4000 + m + 100 * seed)
    grid = np.arange(201) / 200
    out = {}
    for k in range(m + 1):
        for nu in (0, int(rng.integers(1, 58)), 58):
            n = nu + m
            a, b, c, d, e, f, h = rng.uniform(-2, 2, 7)
            rhs = parse(f"{a:.17g}*sin({b:.17g}*x + {c:.17g}) + {d:.17g}*y0")
            problem = BVProblem(tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, m - k)),
                                rhs)
            prev = BernsteinPoly(e * np.sin(f * np.linspace(0, 1, n) + h))
            rule = gauss_rule(max(n + 2, 20), 2)
            got = evaluate(iterate(problem, prev, n, rule), grid)
            want = evaluate(BernsteinPoly(exact_route_iterate(problem, prev, n, rule)), grid)
            out[k, nu] = np.abs(got - want).max() / (1 + np.abs(want).max())
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_legendre_route_matches_exact_route_on_grid_values(m):
    # Tolerance: over seeds 0..14 the worst difference was 1.3e-9 (seed 9,
    # m = k = 6, nu = 58), and the two-sided shapes (0 < k < m) stayed
    # below 4e-13.  The one-sided shapes at nu = 58 are ill-conditioned for
    # both routes: in that worst case the iterate solved exactly in
    # Fractions from the exact v differs from the exact route by 3.0e-9
    # and from the Legendre route by 5.3e-9.
    worst = max(route_differences(m, 0).values())
    assert worst <= 1e-8


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
    # derivatives 0..m-1 of one iterate, of degrees n-1 down to n-m, in one
    # evaluation over a rule's nodes
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


@pytest.mark.parametrize("m", range(1, 9))
def test_node_derivatives_match_horner_within_the_basis_bound(m):
    # the solver's evaluator: derivative r of a degree-n polynomial at the
    # nodes is one product with the rule's basis matrix of degree d = n - r,
    # checked against the Horner loop of evaluate on the same derivative
    # coefficients q.  Bound: 4 (d + 1) eps sum_i |q_i| B_i^d(x), at the
    # default rules (their outer nodes are the ones nearest 0 and 1) and at
    # nodes on both ends; the worst measured was 0.93 (d + 1) eps sum_i
    # |q_i| B_i^d(x) over degrees <= 60
    rng = np.random.default_rng(2050 + m)
    ends = QuadratureRule(5, 1, [0.0, 1e-3, 0.5, 1 - 1e-3, 1.0], [0.2] * 5)
    for n in (m, m + 1, int(rng.integers(m + 2, 60)), 60):
        coeffs = random_coeffs(rng, n)
        for rule in (gauss_rule(max(n + 2, 20), 2), ends):
            got = _node_derivatives(coeffs, range(m + 1), rule)
            for r in range(m + 1):
                q = derivative(BernsteinPoly(coeffs), r)
                want = evaluate(q, rule.nodes)
                scale = evaluate(BernsteinPoly(np.abs(q.coeffs)), rule.nodes)
                bound = 4 * (q.degree + 1) * 2.0**-52 * scale
                assert (np.abs(got[r] - want) <= bound).all(), (m, n, r, rule.order)


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


def factor_and_apply(system):
    """One solve with the cached factors, before the refinement step."""
    return _factor(system).apply(system.rhs.tolist())


@pytest.mark.parametrize("m", range(1, 9))
def test_split_residual_matches_integer_route(m, monkeypatch):
    # the refinement step's residual v - G p: the Veltkamp split summed by
    # fsum gives the bits of the exact integer route.  p near a solution
    # (heavy cancellation) and p over the whole range the split serves take
    # the split; an entry of p beyond it, huge or tiny (subnormal
    # included), or a non-integer diagonal falls back to the integer route
    rng = np.random.default_rng(3100 + m)
    integer_route = bandsolve._integer_residual
    fallbacks = []

    def counted(system, p):
        fallbacks.append(system.size)
        return integer_route(system, p)

    monkeypatch.setattr(bandsolve, "_integer_residual", counted)

    def check(system, p, falls_back):
        before = len(fallbacks)
        got = bandsolve._residual(system, p)
        assert bits(got) == bits(integer_route(system, p)), (system.diagonals, p)
        assert len(fallbacks) - before == falls_back

    for k in range(m + 1):
        for n in (m, int(rng.integers(m + 1, 60)), 60):
            size = n - m + 1
            matrix = assemble_matrix(n, m, k, m - k)
            near = matrix.with_rhs(np.ldexp(rng.uniform(-1, 1, size), rng.integers(-60, 60, size)))
            check(near, factor_and_apply(near), 0)
            system = matrix.with_rhs(
                np.ldexp(rng.uniform(-1, 1, size), rng.integers(-1074, 1000, size)))
            # |p| from 2^-969 to 2^992, some entries 0 or -0
            p = np.ldexp(rng.uniform(0.5, 1, size) * rng.choice((-1, 1), size),
                         rng.integers(-968, 993, size))
            p[rng.random(size) < 0.2] = rng.choice((0.0, -0.0))
            check(system, p, 0)
            for extreme in (2.0**1010, -(2.0**1005), 2.0**-1000, 5e-324):
                q = p.copy()
                q[rng.integers(size)] = extreme
                check(system, q, 1)
            halves = BandedToeplitz(size, k, m - k, system.diagonals + 0.5, system.rhs)
            check(halves, p, 1)


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
                assert solve_or_row(factor_and_apply, system) == want, (k, l, size, diags)
                singular += isinstance(want, int)
    assert singular > 0
