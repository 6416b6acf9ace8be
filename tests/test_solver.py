import math
import sys
import threading
import warnings

import numpy as np
import pytest
from helpers import manufactured_polynomial, monomial_bernstein_coeffs
from mpmath import mp

from bernbvp import bandsolve, solver
from bernbvp.bandsolve import _band, assemble_matrix
from bernbvp.bernstein import BernsteinPoly, endpoint_derivative, evaluate
from bernbvp.dual import _dual_table
from bernbvp.errors import EvaluationError, IterationError
from bernbvp.expressions import parse
from bernbvp.problems import error_curve, example, max_error
from bernbvp.quadrature import _gauss_rule, gauss_rule
from bernbvp.solver import BVProblem, SolveOptions, iterate, outer_coefficients, seed, solve


def line_problem():
    return BVProblem((0.0,), (1.0,), parse("0"))


def parabola_problem():
    return BVProblem((0.0,), (0.0,), parse("-2"))


def random_linear_problem(rng, m, k):
    """Random boundary data with a linear rhs in x and the derivatives."""
    terms = [f"{rng.uniform(-1, 1):.6f}", f"{rng.uniform(-1, 1):.6f}*x"]
    terms += [f"{rng.uniform(-1, 1):.6f}*y{r}" for r in range(m)]
    left = tuple(rng.uniform(-2, 2, k))
    right = tuple(rng.uniform(-2, 2, m - k))
    return BVProblem(left, right, parse(" + ".join(terms)))


class TestBVProblem:
    def test_orders(self):
        p = BVProblem((1.0, 2.0), (3.0,), parse("y0"))
        assert (p.k, p.l, p.m) == (2, 1, 3)

    def test_rejects_empty_conditions(self):
        with pytest.raises(ValueError):
            BVProblem((), (), parse("0"))

    def test_rejects_nonfinite_boundary(self):
        with pytest.raises(ValueError):
            BVProblem((np.inf,), (0.0,), parse("0"))

    def test_rejects_excess_derivative_index(self):
        with pytest.raises(ValueError):
            BVProblem((0.0,), (0.0,), parse("y2"))


class TestRightHandSides:
    def test_callable_gets_floats_one_node_at_a_time(self):
        calls = []

        def f(x, y0, y1):
            calls.append((x, y0, y1))
            return y1 ** 2 + 1

        solve(BVProblem((0.0,), (0.0,), f), SolveOptions(degree=4))
        assert all(type(v) is float for call in calls for v in call)
        nodes = [gauss_rule(max(n + 2, 20), 2).nodes.tolist() for n in range(2, 5)]
        assert [x for x, _, _ in calls] == [x for rule in nodes for x in rule]

    @pytest.mark.parametrize("ex_id,fn", [
        (1, lambda x, y0, y1: y1 ** 2 + 1),
        (2, lambda x, y0, y1, y2, y3: -2.0 * y2 - y0),
        (3, lambda x, y0, y1, y2, y3: y3 ** 2 / y2),
    ])
    def test_callable_mirroring_the_expression_gives_the_same_bytes(self, ex_id, fn):
        # the array walk over the nodes and the per-node callable do the
        # same float operations at every node
        problem = example(ex_id).problem
        mirror = BVProblem(problem.left_values, problem.right_values, fn)
        options = SolveOptions(degree=24)
        want, got = solve(problem, options), solve(mirror, options)
        assert got.solution.coeffs.tobytes() == want.solution.coeffs.tobytes()
        assert got.residuals.tobytes() == want.residuals.tobytes()

    def test_constant_rhs_solves(self):
        # y'' = 6 with y(0) = y(1) = 0: y = 3x^2 - 3x, exact from degree 2
        report = solve(BVProblem((0.0,), (0.0,), parse("6")), SolveOptions(degree=5))
        xs = np.linspace(0.0, 1.0, 11)
        assert np.abs(evaluate(report.solution, xs) - (3 * xs**2 - 3 * xs)).max() < 1e-14
        assert np.all(report.residuals[1:] < 1e-12)


class TestBoundRhs:
    # y'' = f with forcing terms in x alone, one of them nonlinear in y0
    FORCED = BVProblem((0.4,), (-1.1,), parse(
        "0.3*y0 - 0.2*y1 + 0.1*y0^2 + 0.5*exp(0.7*x) - 2*sin(1.3*x + 0.4)"
        " + (x + 2)^2 - 0.1*(cos(x) - x^2)^2"))

    def test_solve_never_binds_without_x_only_subtrees(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "bind", lambda e, x: calls.append(x) or e)
        solve(example(1).problem, SolveOptions(degree=24))
        assert calls == []

    def test_solve_binds_once_per_rule(self, monkeypatch):
        # only a rule that serves a second degree is bound.  Example 4
        # (m = 3) to N = 24 with the default rules: order 20 serves
        # n = 3..18 and is bound once, at its 40 nodes; each degree from 19
        # on has a rule of its own and evaluates the rhs unbound.  A fixed
        # order serves every degree and is bound once.
        bind, calls = solver.bind, []
        monkeypatch.setattr(solver, "bind", lambda e, x: calls.append(x) or bind(e, x))
        solve(example(4).problem, SolveOptions(degree=24))
        assert [x.size for x in calls] == [40]
        calls.clear()
        solve(example(4).problem, SolveOptions(degree=24, quad_order=30))
        assert [x.size for x in calls] == [60]
        calls.clear()
        solve(example(4).problem, SolveOptions(degree=3))
        assert calls == []

    @pytest.mark.parametrize("quad_order", [None, 30])
    def test_x_forcing_matches_a_chain_of_unbound_iterates(self, quad_order):
        p = self.FORCED
        report = solve(p, SolveOptions(degree=26, quad_order=quad_order,
                                       record_iterates=True))
        w = seed(p)
        for n, got in zip(range(p.m, 27), report.iterates[1:]):
            rule = gauss_rule(quad_order, 2) if quad_order else None
            w = iterate(p, w, n, rule)
            assert got.coeffs.tobytes() == w.coeffs.tobytes()


class TestOuterCoefficients:
    def test_single_left_value(self):
        p = BVProblem((5.0,), (), parse("0"))
        left, right = outer_coefficients(p, 4)
        assert left.tolist() == [5.0]
        assert right.size == 0

    def test_homogeneous_is_exactly_zero(self):
        p = BVProblem((0.0, 0.0), (0.0, 0.0), parse("0"))
        left, right = outer_coefficients(p, 9)
        assert np.all(left == 0.0) and np.all(right == 0.0)

    def test_taylor_cubic_seed_block(self):
        p = BVProblem((2.0, -1.0, 3.0, 1.0), (), parse("0"))
        left, _ = outer_coefficients(p, 3)
        assert left == pytest.approx([2.0, 5 / 3, 11 / 6, 8 / 3], rel=1e-14)

    def test_endpoint_derivatives_reproduced(self):
        # 1e-11*(1+|v|) is the boundary-exactness gate; the float64 endpoint
        # formula scales an alternating sum by n!/(n-r)!, so a tighter bound
        # is not reachable for high-order conditions even with correctly
        # rounded coefficients.
        rng = np.random.default_rng(77)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            k = int(rng.integers(0, m + 1))
            prob = random_linear_problem(rng, m, k)
            n = int(rng.integers(m, m + 8))
            left, right = outer_coefficients(prob, n)
            coeffs = rng.uniform(-1, 1, n + 1)
            coeffs[:k] = left
            for j in range(m - k):
                coeffs[n - j] = right[j]
            poly = BernsteinPoly(coeffs)
            for i in range(k):
                want = prob.left_values[i]
                got = endpoint_derivative(poly, i, "left")
                assert abs(got - want) <= 1e-11 * (1 + abs(want))
            for j in range(m - k):
                want = prob.right_values[j]
                got = endpoint_derivative(poly, j, "right")
                assert abs(got - want) <= 1e-11 * (1 + abs(want))

    def test_endpoint_derivatives_tight_for_low_orders(self):
        rng = np.random.default_rng(78)
        for _ in range(40):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(0, m + 1))
            prob = random_linear_problem(rng, m, k)
            n = int(rng.integers(m, m + 8))
            left, right = outer_coefficients(prob, n)
            coeffs = rng.uniform(-1, 1, n + 1)
            coeffs[:k] = left
            for j in range(m - k):
                coeffs[n - j] = right[j]
            poly = BernsteinPoly(coeffs)
            for i in range(k):
                want = prob.left_values[i]
                assert abs(endpoint_derivative(poly, i, "left") - want) <= 1e-12 * (1 + abs(want))
            for j in range(m - k):
                want = prob.right_values[j]
                assert abs(endpoint_derivative(poly, j, "right") - want) <= 1e-12 * (1 + abs(want))


class TestSeed:
    def test_line(self):
        assert seed(line_problem()).coeffs.tolist() == [0.0, 1.0]

    def test_taylor_cubic(self):
        p = BVProblem((2.0, -1.0, 3.0, 1.0), (), parse("y3^2 / y2"))
        assert seed(p).coeffs == pytest.approx([2.0, 5 / 3, 11 / 6, 8 / 3], rel=1e-14)

    def test_homogeneous(self):
        p = BVProblem((0.0,), (0.0,), parse("y1^2 + 1"))
        assert seed(p).coeffs.tolist() == [0.0, 0.0]


class TestIterate:
    def test_line_hand_case(self):
        p = line_problem()
        w2 = iterate(p, seed(p), 2)
        assert w2.coeffs == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)

    def test_parabola_hand_case(self):
        p = parabola_problem()
        w2 = iterate(p, seed(p), 2)
        assert w2.coeffs == pytest.approx([0.0, 0.5, 0.0], abs=1e-15)

    def test_line_stays_exact_at_any_degree(self):
        p = line_problem()
        w = seed(p)
        for n in range(2, 9):
            w = iterate(p, w, n)
            for x in (0.0, 0.3, 0.77, 1.0):
                assert evaluate(w, x) == pytest.approx(x, abs=1e-13)

    def test_degree_validation(self):
        p = line_problem()
        with pytest.raises(ValueError):
            iterate(p, seed(p), 1)
        with pytest.raises(ValueError):
            iterate(p, seed(p), 3)  # previous has degree 1, not 2

    def test_hand_built_rule_iterates(self):
        # any QuadratureRule works, not only gauss_rule() output: two-point
        # Gauss written out by hand, and the trapezoid rule with nodes on
        # both endpoints, reproduce the parabola steps
        from bernbvp.quadrature import QuadratureRule

        p = parabola_problem()
        r = 0.5 / np.sqrt(3.0)
        gauss2 = QuadratureRule(order=2, panels=1, nodes=[0.5 - r, 0.5 + r],
                                weights=[0.5, 0.5])
        trapezoid = QuadratureRule(order=2, panels=1, nodes=[0.0, 1.0],
                                   weights=[0.5, 0.5])
        for rule in (gauss2, trapezoid):
            w2 = iterate(p, seed(p), 2, rule)
            assert w2.coeffs == pytest.approx([0.0, 0.5, 0.0], abs=1e-15)
            w3 = iterate(p, w2, 3, rule)
            assert w3.coeffs == pytest.approx([0.0, 1 / 3, 1 / 3, 0.0], abs=1e-15)


class TestSolve:
    def test_target_below_order_rejected(self):
        with pytest.raises(ValueError):
            solve(line_problem(), SolveOptions(degree=1))

    def test_line_report(self):
        r = solve(line_problem(), SolveOptions(degree=10))
        assert r.solution.degree == 10
        assert r.residuals.size == 9
        assert np.all(r.residuals <= 1e-12)
        for x in (0.1, 0.5, 0.9):
            assert evaluate(r.solution, x) == pytest.approx(x, abs=1e-12)

    def test_iterates_recorded_from_seed(self):
        r = solve(parabola_problem(), SolveOptions(degree=5, record_iterates=True))
        assert len(r.iterates) == 5  # seed w_1 plus w_2..w_5
        assert r.iterates[0].degree == 1
        assert r.iterates[-1] is r.solution

    def test_iterates_not_recorded_by_default(self):
        r = solve(parabola_problem(), SolveOptions(degree=4))
        assert r.iterates is None

    def test_manufactured_cubic_exact(self):
        # y = x^3 - x with y'' = 6x and zero boundary values
        p = BVProblem((0.0,), (0.0,), parse("6*x"))
        r = solve(p, SolveOptions(degree=8, record_iterates=True))
        for w in r.iterates[2:]:  # n >= 3
            expect = monomial_bernstein_coeffs([0.0, -1.0, 0.0, 1.0], w.degree)
            assert np.abs(w.coeffs - expect).max() < 1e-10

    def test_callable_rhs(self):
        p = BVProblem((0.0,), (0.0,), lambda x, y0, y1: 6 * x)
        r = solve(p, SolveOptions(degree=5))
        expect = monomial_bernstein_coeffs([0.0, -1.0, 0.0, 1.0], 5)
        assert np.abs(r.solution.coeffs - expect).max() < 1e-12

    def test_determinism(self):
        p = BVProblem((0.3, -1.2), (0.7,), parse("y1 - x*y0 + sin(x)"))
        r1 = solve(p, SolveOptions(degree=9))
        r2 = solve(p, SolveOptions(degree=9))
        assert np.array_equal(r1.solution.coeffs, r2.solution.coeffs)
        assert np.array_equal(r1.residuals, r2.residuals)

    def test_quadrature_overrides_respected(self):
        p = parabola_problem()
        r1 = solve(p, SolveOptions(degree=4, quad_order=30, quad_panels=1))
        r2 = solve(p, SolveOptions(degree=4))
        assert np.allclose(r1.solution.coeffs, r2.solution.coeffs, atol=1e-13)

    def test_singular_rhs_fails_with_iteration_index(self):
        # all-zero seed makes y0 vanish identically: division at n = m
        p = BVProblem((0.0, 0.0), (0.0,), parse("y2 / y0"))
        with pytest.raises(IterationError) as err:
            solve(p, SolveOptions(degree=5))
        assert err.value.n == 3

    def test_divergent_rhs_fails_with_iteration_index(self):
        # the iterates blow up until exp(40*y0) overflows float64 at n = 6;
        # that must surface as IterationError before the band solve sees inf
        p = BVProblem((0.0,), (0.0,), parse("exp(40*y0) + 300*y1^3"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IterationError) as err:
                solve(p, SolveOptions(degree=20))
            assert err.value.n == 6
            assert isinstance(err.value.cause, EvaluationError)
            w5 = solve(p, SolveOptions(degree=5)).solution
            with pytest.raises(IterationError) as err:
                iterate(p, w5, 6)
            assert err.value.n == 6

    def test_overflowing_system_rhs_fails_with_iteration_index(self):
        # g stays finite, but its dual-basis combination v exceeds float64
        p = BVProblem((0.0,), (), lambda x, y0: 1e308 * math.cos(20 * math.pi * x))
        with pytest.raises(IterationError) as err:
            iterate(p, BernsteinPoly(np.zeros(20)), 20)
        assert err.value.n == 20
        assert isinstance(err.value.cause, EvaluationError)
        assert "overflows float64" in str(err.value.cause)

    def test_overflowing_residual_fails_with_iteration_index(self):
        # v and the band solve stay finite, but (w'' - f)^2 overflows
        p = BVProblem((0.0,), (0.0,), parse("1e160*sin(1000*x)"))
        with pytest.raises(IterationError) as err:
            solve(p, SolveOptions(degree=4))
        assert err.value.n == 2
        assert isinstance(err.value.cause, EvaluationError)
        assert "L2 residual" in str(err.value.cause)

    def test_nonfinite_band_solve_fails_with_iteration_index(self, monkeypatch):
        # the iteration works on coefficient arrays, so nothing else checks
        # that the inner coefficients are finite
        monkeypatch.setattr(bandsolve, "solve", lambda system: np.full(system.size, np.inf))
        with pytest.raises(IterationError) as err:
            solve(parabola_problem(), SolveOptions(degree=4))
        assert err.value.n == 2
        assert isinstance(err.value.cause, EvaluationError)
        assert "band solve" in str(err.value.cause)

    def test_overflowing_derivatives_fail_without_warnings(self, monkeypatch):
        # alternating coefficients near the float64 limit: their forward
        # differences overflow, and the basis product gives nan, in the
        # derivative arguments of f (from the previous iterate) and in the
        # L2 residual (the band solve is faked); both fail the iteration,
        # and pytest turns any RuntimeWarning into a failure
        huge = 9e307 * (-1.0) ** np.arange(9)
        p = BVProblem((0.0,), (0.0,), parse("y1 + sin(x)"))
        with pytest.raises(IterationError) as err:
            iterate(p, BernsteinPoly(huge[:8]), 8)
        assert isinstance(err.value.cause, EvaluationError)
        assert "non-finite value" in str(err.value.cause)
        monkeypatch.setattr(bandsolve, "solve", lambda system: huge[:system.size])
        with pytest.raises(IterationError) as err:
            iterate(p, BernsteinPoly(np.zeros(8)), 8)
        assert isinstance(err.value.cause, EvaluationError)
        assert "L2 residual" in str(err.value.cause)

    def test_library_solve_is_not_degree_capped(self):
        assert solve(line_problem(), SolveOptions(degree=61)).solution.degree == 61

    @pytest.mark.parametrize("ex_id", [1, 5])
    def test_examples_at_degree_60(self, ex_id):
        # the CLI's degree cap: the error on the 201-point grid stays at the
        # float64 level instead of growing with the dual coefficients
        ex = example(ex_id)
        w = solve(ex.problem, SolveOptions(degree=60)).solution
        assert max_error(error_curve(w, ex.reference, 200)) <= 1e-12

    @pytest.mark.parametrize("ex_id", range(1, 6))
    def test_every_example_at_degree_60_within_the_precision_floor(self, ex_id):
        # the refinement step of the band solve: without it example 3
        # (k = 4, l = 0) read 7.7e-11 here, worst at x = 1
        ex = example(ex_id)
        w = solve(ex.problem, SolveOptions(degree=60)).solution
        assert max_error(error_curve(w, ex.reference, 200)) <= 1e-11

    @pytest.mark.parametrize("m", range(1, 9))
    def test_manufactured_polynomials_at_degree_30(self, m):
        # The rhs p^(m)(x) ignores y, so w_30 does not depend on w_29: one
        # iterate from zero gives the degree-30 solve, for every split
        # k + l = m.  Tolerance: the worst error over these inputs was 6.5e-9
        # (m = k = 8) with 40-digit nodes and right-hand side.  With both in
        # float64 the worst is 4.3e-8 (m = 1; 3.5e-8 with the exact
        # projection): the per-node rounding reaches the coefficients
        # through the dual basis, ~2^(n-m), while the polynomial's values
        # stay within 1e-12 of p for m <= 3.
        rng = np.random.default_rng(30 + m)
        for k in range(m + 1):
            problem, c = manufactured_polynomial(m, k, rng)
            w = iterate(problem, BernsteinPoly(np.zeros(30)), 30)
            err = np.abs(w.coeffs - monomial_bernstein_coeffs(c, 30)).max()
            assert err <= 1e-7, (m, k, err)

    def test_concurrent_solves_match_serial(self):
        # two solves in threads while a third keeps switching mpmath's
        # global precision: the solver must not see it
        problems = [example(i).problem for i in (1, 3)]
        opts = SolveOptions(degree=24)
        serial = [solve(p, opts).solution.coeffs for p in problems]
        threaded = [None, None]
        stop = threading.Event()

        def meddle():
            while not stop.is_set():
                with mp.workdps(15):
                    pass

        def run(i):
            threaded[i] = solve(problems[i], opts).solution.coeffs

        meddler = threading.Thread(target=meddle)
        workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        meddler.start()
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            stop.set()
            meddler.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers + [meddler])
        for got, expect in zip(threaded, serial):
            assert np.array_equal(got, expect)

    def test_memos_do_not_change_results(self):
        # cold (caches cleared) and warm solves give the same bytes
        problems = [example(i).problem for i in range(1, 6)]
        opts = SolveOptions(degree=30)
        _gauss_rule.cache_clear()
        _dual_table.cache_clear()
        _band.cache_clear()
        assemble_matrix.cache_clear()
        cold = [solve(p, opts) for p in problems]
        warm = [solve(p, opts) for p in problems]
        for a, b in zip(cold, warm):
            assert a.solution.coeffs.tobytes() == b.solution.coeffs.tobytes()
            assert a.residuals.tobytes() == b.residuals.tobytes()

    def test_threads_filling_the_memos_match_serial(self):
        # more threads than cores build the same rules, basis matrices and
        # tables at once: the examples and random (k, l) problems
        rng = np.random.default_rng(24)
        problems = [example(i).problem for i in (1, 2, 3, 4, 5, 1)]
        problems += [random_linear_problem(rng, int(m), int(rng.integers(m + 1)))
                     for m in rng.integers(1, 9, 4)]
        opts = SolveOptions(degree=24)
        serial = [solve(p, opts).solution.coeffs for p in problems]
        threaded = [None] * len(problems)

        def run(i):
            threaded[i] = solve(problems[i], opts).solution.coeffs

        workers = [threading.Thread(target=run, args=(i,)) for i in range(len(problems))]
        _gauss_rule.cache_clear()
        _dual_table.cache_clear()
        _band.cache_clear()
        assemble_matrix.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        for got, expect in zip(threaded, serial):
            assert got.tobytes() == expect.tobytes()

    def test_first_order_initial_value(self):
        # y' = y, y(0) = 1: exact solution e^x
        p = BVProblem((1.0,), (), parse("y0"))
        r = solve(p, SolveOptions(degree=15))
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert evaluate(r.solution, x) == pytest.approx(np.exp(x), rel=1e-12)

    def test_first_order_terminal_value(self):
        # y' = 2x, y(1) = 1: exact solution x^2, hit exactly from degree 2 on
        p = BVProblem((), (1.0,), parse("2*x"))
        r = solve(p, SolveOptions(degree=6))
        expect = monomial_bernstein_coeffs([0.0, 0.0, 1.0], 6)
        assert np.abs(r.solution.coeffs - expect).max() < 1e-13

    def test_optimality_against_normal_equations_spot(self):
        # one small frozen-rhs step checked against dense normal equations
        from test_acceptance import inner_by_normal_equations

        rng = np.random.default_rng(5)
        prob = random_linear_problem(rng, 2, 1)
        r = solve(prob, SolveOptions(degree=4, record_iterates=True))
        w_prev, w_cur = r.iterates[-2], r.iterates[-1]
        assert (w_prev.degree, w_cur.degree) == (3, 4)
        expect = inner_by_normal_equations(prob, w_prev, 4)
        got = w_cur.coeffs[prob.k : 4 - prob.l + 1]
        assert np.abs(got - expect).max() <= 1e-8 * (1 + np.abs(expect).max())
