import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import manufactured_polynomial, monomial_bernstein_coeffs
from mpmath import mp

from bernbvp import bandsolve, expressions, solver
from bernbvp.bandsolve import assemble_matrix
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

    def test_rejects_an_rhs_that_is_neither_expression_nor_callable(self):
        with pytest.raises(TypeError):
            BVProblem((0.0,), (0.0,), "y1^2 + 1")


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

    @pytest.mark.parametrize("m", range(1, 9))
    def test_an_expression_reading_some_orders_matches_a_callable(self, m):
        # the step evaluates only the derivative orders an expression
        # reads, a callable reads every one: for each subset, none (a
        # constant, or x alone), y0, y(m-1) and a gap, and every (k, l),
        # the two give the same iterates and residuals, bit for bit.  Each
        # read order enters as c*yr^p, a power through ^ and through **
        const, line = ("2", lambda x: 2.0), ("x - 0.5", lambda x: x - 0.5)
        subsets = [(const, ()), (line, ()), (line, ((0.25, 0, 1.0),)),
                   (line, ((0.25, m - 1, 2.0),))]
        if m >= 3:
            subsets.append((line, ((0.25, 0, 1.0), (0.125, 2, 1.0))))
        rng = np.random.default_rng(4400 + m)
        for k in range(m + 1):
            left, right = tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, m - k))
            for (base, g), terms in subsets:
                source = base + "".join(f" + {c}*y{r}^{p}" for c, r, p in terms)

                def f(x, *y, g=g, terms=terms):
                    value = g(x)
                    for c, r, p in terms:
                        value = value + c * y[r] ** p
                    return value

                problem, mirror = BVProblem(left, right, parse(source)), BVProblem(left, right, f)
                assert problem.reads == tuple(r for _, r, _ in terms), source
                assert mirror.reads == tuple(range(m))
                options = SolveOptions(degree=m + 4)
                want, got = solve(problem, options), solve(mirror, options)
                for a, b in zip(got.iterates, want.iterates, strict=True):
                    assert a.coeffs.tobytes() == b.coeffs.tobytes(), (k, source)
                assert got.residuals.tobytes() == want.residuals.tobytes(), (k, source)

    def test_callable_goes_through_the_expression_hook_once_per_iteration(self, monkeypatch):
        # every right-hand side takes the one evaluator of the step
        eval_expr, calls = solver.eval_expr, []
        monkeypatch.setattr(solver, "eval_expr",
                            lambda *a: calls.append(1) or eval_expr(*a))
        report = solve(BVProblem((0.0,), (0.0,), lambda x, y0, y1: y1 ** 2 + 1),
                       SolveOptions(degree=9))
        assert len(calls) == len(report.residuals) == 8

    @pytest.mark.parametrize("left,fn,n,kind", [
        ((0.0, 0.0), lambda x, y0, y1, y2: y2 / y0, 3, ZeroDivisionError),
        ((0.0,), lambda x, y0, y1: math.exp(1000 * (x + 1)), 2, OverflowError),
        ((0.0,), lambda x, y0, y1: math.log(y0 - 1), 2, ValueError),
    ])
    def test_a_failing_callable_leaves_through_the_step(self, left, fn, n, kind):
        # the callable's own error becomes an EvaluationError at the first
        # node, where it fails, and the step's IterationError
        with pytest.raises(IterationError) as err:
            solve(BVProblem(left, (0.0,), fn), SolveOptions(degree=5))
        assert err.value.n == n
        cause = err.value.cause
        assert isinstance(cause, EvaluationError)
        assert isinstance(cause.__cause__, kind)
        assert cause.where == gauss_rule(20, 2).nodes[0]

    def test_a_callable_with_the_wrong_arity_still_raises_type_error(self):
        with pytest.raises(TypeError):
            solve(BVProblem((0.0,), (0.0,), lambda x, y0: y0), SolveOptions(degree=3))

    def test_rhs_value_of_a_callable_at_a_point_is_a_float(self):
        # converted with float(), as at the nodes: an mpf result too
        def f(x, y0, y1):
            return mp.mpf(x) * y0 - mp.exp(y1)

        value = BVProblem((0.0,), (0.0,), f).rhs_value(0.3, (0.5, -1.25))
        assert type(value) is float
        assert value == float(f(0.3, 0.5, -1.25))

    def test_rhs_value_of_a_callable_broadcasts_like_an_expression(self):
        # x and the arguments of differing shapes broadcast together, as
        # for an expression, and f is called once per point of the result
        calls = []

        def f(x, y0, y1):
            calls.append((x, y0, y1))
            return y1 ** 2 + 1

        got = BVProblem((0.0,), (0.0,), f).rhs_value(np.array([0.1, 0.2]), (1.0, 2.0))
        want = expressions.evaluate(parse("y1^2 + 1"), np.array([0.1, 0.2]), (1.0, 2.0))
        assert got.tolist() == want.tolist() == [5.0, 5.0]
        assert calls == [(0.1, 1.0, 2.0), (0.2, 1.0, 2.0)]
        got = BVProblem((0.0,), (0.0,), f).rhs_value(0.5, (np.array([[1.0], [3.0]]), [2.0, 0.0]))
        assert got.tolist() == [[5.0, 1.0], [5.0, 1.0]]

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

    def test_solve_compiles_the_rhs_once_per_call(self, monkeypatch):
        # solve compiles an expression rhs once and keeps nothing across
        # calls; iterate compiles per call; a callable is not compiled
        compile, calls = solver.compile, []
        monkeypatch.setattr(solver, "compile", lambda e: calls.append(e) or compile(e))
        problem = example(4).problem
        for _ in range(2):
            solve(problem, SolveOptions(degree=24))
        assert calls == [problem.rhs] * 2
        calls.clear()
        iterate(problem, iterate(problem, seed(problem), 3), 4)
        assert calls == [problem.rhs] * 2
        calls.clear()
        solve(BVProblem((0.0,), (0.0,), lambda x, y0, y1: x + y0), SolveOptions(degree=4))
        assert calls == []

    def test_solve_evaluates_x_only_parts_once_per_rule(self, monkeypatch):
        # exp(0.7*x) is the rhs's one exp, so its calls count the x-only
        # work.  To N = 26 with the default rules, order 20 serves
        # n = 2..18 and each degree from 19 on has a rule of its own: one
        # call per distinct rule, at its 40, 42, ..., 56 nodes.  A fixed
        # order serves every degree: one call
        function, sizes = expressions._function, []
        monkeypatch.setattr(expressions, "_function", lambda fn, v: (
            fn == "exp" and sizes.append(np.size(v))) or function(fn, v))
        solve(self.FORCED, SolveOptions(degree=26))
        assert sizes == list(range(40, 57, 2))
        sizes.clear()
        solve(self.FORCED, SolveOptions(degree=26, quad_order=30))
        assert sizes == [60]

    @pytest.mark.parametrize("quad_order", [None, 30])
    def test_x_forcing_matches_a_chain_of_unbound_iterates(self, quad_order):
        # solve's ladder steps against the same steps, each with a freshly
        # compiled rhs: the x-only values kept per rule change no bit
        p = self.FORCED
        options = SolveOptions(degree=26, quad_order=quad_order)
        report = solve(p, options)
        start = w = seed(p).coeffs
        for n, got in zip(range(p.m, 27), report.iterates[1:]):
            rule = solver._default_rule(n, options)
            with np.errstate(over="ignore", invalid="ignore"):
                w, _ = solver._iterate_core(p, start, w, n, rule, solver._compiled_rhs(p),
                                            float_pass=True)
            assert got.coeffs.tobytes() == w.tobytes()


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

    def test_degree_that_cannot_hold_the_data_rejected(self):
        # k = l = 2 at degree 2 would put left[1] and right[1] both at
        # index 1; degree m - 1 = 3, the seed's, is the least that holds them
        p = BVProblem((1.0, 2.0), (3.0, 4.0), parse("0"))
        with pytest.raises(ValueError, match=r"degree 2 too small for k=2, l=2: need n >= m - 1"):
            outer_coefficients(p, 2)
        left, right = outer_coefficients(p, 3)
        assert left.size == right.size == 2

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

    def test_huge_boundary_data_fail_as_the_seed_iteration(self):
        # finite boundary values whose degree-3 coefficients meet inf - inf
        # in the recurrence: the seed is iterate m - 1, and its failure is
        # a numerical one at that degree, from seed, solve and iterate
        # alike, whatever degree iterate steps to
        p = BVProblem((1e308, 1e308, 0.0, 0.0), (), parse("y0"))
        with pytest.raises(EvaluationError, match="outer coefficients are not finite"):
            outer_coefficients(p, 3)
        for run in (lambda: seed(p), lambda: solve(p, SolveOptions(degree=8)),
                    lambda: iterate(p, BernsteinPoly(np.zeros(4)), 6)):
            with pytest.raises(IterationError) as err:
                run()
            assert err.value.n == 3
            assert isinstance(err.value.cause, EvaluationError)
            assert str(err.value.cause) == "outer coefficients are not finite in float64"

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
            iterate(p, BernsteinPoly([0.0]), 3)  # degree 0 < m - 1 = 1

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
        r = solve(parabola_problem(), SolveOptions(degree=5))
        assert len(r.iterates) == 5  # seed w_1 plus w_2..w_5
        assert r.iterates[0].degree == 1
        assert r.iterates[-1] is r.solution

    def test_iterates_are_built_once_from_read_only_arrays(self):
        # N - m + 2 iterates with no option set; a second access returns
        # the same tuple, and the stored coefficient arrays cannot change
        r = solve(example(3).problem, SolveOptions(degree=12))
        iterates = r.iterates
        assert len(iterates) == 12 - 4 + 2
        assert iterates[-1] is r.solution
        assert r.iterates is iterates
        for coeffs, w in zip(r.previous, iterates):
            assert coeffs.tobytes() == w.coeffs.tobytes()
            with pytest.raises(ValueError):
                coeffs[0] = 1.0

    @pytest.mark.parametrize("override", [{"quad_order": 0}, {"quad_panels": 0}])
    def test_quadrature_below_one_rejected(self, override):
        with pytest.raises(ValueError):
            solve(parabola_problem(), SolveOptions(degree=4, **override))

    def test_manufactured_cubic_exact(self):
        # y = x^3 - x with y'' = 6x and zero boundary values
        p = BVProblem((0.0,), (0.0,), parse("6*x"))
        r = solve(p, SolveOptions(degree=8))
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

    def test_a_failing_step_raises_iteration_error_with_its_degree(self):
        # the step itself is the one failure exit: y0 vanishes identically
        # on the all-zero seed, so y2 / y0 divides by zero at the nodes
        problem = BVProblem((0.0, 0.0), (0.0,), parse("y2 / y0"))
        with pytest.raises(IterationError) as err:
            iterate(problem, seed(problem), 5)
        assert err.value.n == 5
        assert isinstance(err.value.cause, EvaluationError)
        assert err.value.__cause__ is err.value.cause

    def test_outer_coefficients_beyond_float64_fail_with_iteration_index(self):
        # the seed (degree 2) is finite, but at degree 3 the recurrence
        # overflows: the step fails as a numerical failure of degree 3.
        # Data at x = 1 and their mirror image (-1)^j v_j at x = 0 have the
        # same outer coefficients, so they fail at the same degree: at
        # degree 2 the partial sums of c_2 = 8.5e307 overflow in some
        # orders, but its exact sum does not
        for p in (BVProblem((1.7e308, -1.7e308, 1.7e308), (), parse("y0")),
                  BVProblem((), (1.7e308, 1.7e308, 1.7e308), parse("y0"))):
            assert np.isfinite(seed(p).coeffs).all()
            with pytest.raises(IterationError) as err:
                solve(p, SolveOptions(degree=8))
            assert err.value.n == 3
            assert isinstance(err.value.cause, EvaluationError)
            assert str(err.value.cause) == "outer coefficients are not finite in float64"

    def test_overflowing_moments_fail_with_iteration_index(self):
        # every sample is finite, but 3 sum_t w_t g(x_t) P_1(2 x_t - 1) is
        # about 1.5 * 1.7e308: the moment is inf, and v's check catches it
        p = BVProblem((0.0,), (0.0,), lambda x, y0, y1: math.copysign(1.7e308, x - 0.5))
        with pytest.raises(IterationError) as err:
            iterate(p, BernsteinPoly(np.zeros(4)), 4)
        assert err.value.n == 4
        assert isinstance(err.value.cause, EvaluationError)
        assert str(err.value.cause) == "system right-hand side overflows float64"

    def test_overflowing_system_rhs_fails_with_iteration_index(self):
        # g stays finite, but its dual-basis combination v exceeds float64
        p = BVProblem((0.0,), (), lambda x, y0: 1e308 * math.cos(20 * math.pi * x))
        with pytest.raises(IterationError) as err:
            iterate(p, BernsteinPoly(np.zeros(20)), 20)
        assert err.value.n == 20
        assert isinstance(err.value.cause, EvaluationError)
        assert "overflows float64" in str(err.value.cause)

    def test_overflowing_residual_fails_with_iteration_index(self):
        # v and the band solve stay finite, but w'' - f itself overflows at
        # the nodes near x = 1, where f is near -1e308 and the constant w''
        # of degree 2 near +0.9e308
        p = BVProblem((0.0,), (0.0,), parse("1e308*(1 - 2*x^16)"))
        with pytest.raises(IterationError) as err:
            solve(p, SolveOptions(degree=4))
        assert err.value.n == 2
        assert isinstance(err.value.cause, EvaluationError)
        assert "L2 residual" in str(err.value.cause)

    @pytest.mark.parametrize("ex_id", [None, 2, 4])
    @pytest.mark.parametrize("e", [600, -600])
    def test_boundary_data_times_2_pm600_scale_every_output_exactly(self, e, ex_id):
        # linear homogeneous operators (y'' = y and those of examples 2 and
        # 4): boundary data times 2^e scale every float64 operation of a
        # step by 2^e exactly, so the coefficients and the L2 residuals,
        # whose squares overflow (e = 600) or underflow (e = -600) float64,
        # are 2^e times the unit problem's, through solve and through a
        # chain of iterate() steps
        unit = BVProblem((1.0,), (0.0,), parse("y0")) if ex_id is None else example(ex_id).problem
        scaled = BVProblem(tuple(np.ldexp(unit.left_values, e).tolist()),
                           tuple(np.ldexp(unit.right_values, e).tolist()), unit.rhs)
        want, got = solve(unit, SolveOptions(degree=20)), solve(scaled, SolveOptions(degree=20))
        assert np.array_equal(got.solution.coeffs, np.ldexp(want.solution.coeffs, e))
        assert np.array_equal(got.residuals, np.ldexp(want.residuals, e))
        # |exponent| > 512: the square of the largest residual leaves float64
        assert abs(math.frexp(got.residuals.max())[1]) > 512
        w, v = seed(unit), seed(scaled)
        for n in range(unit.m, 21):
            w, v = iterate(unit, w, n), iterate(scaled, v, n)
            assert np.array_equal(v.coeffs, np.ldexp(w.coeffs, e)), n

    def test_nonfinite_band_solve_fails_with_iteration_index(self, monkeypatch):
        # the iteration works on coefficient arrays, so nothing else checks
        # that the inner coefficients are finite
        monkeypatch.setattr(bandsolve, "solve",
                            lambda system, v, float_pass=False: np.full(system.size, np.inf))
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
        # and pytest turns any RuntimeWarning into a failure.  Both public
        # entries to the step hold its np.errstate: iterate from a given
        # previous iterate, and solve from a seed of boundary values near
        # the limit
        huge = 9e307 * (-1.0) ** np.arange(9)
        p = BVProblem((0.0,), (0.0,), parse("y1 + sin(x)"))
        near_limit = BVProblem((9e307,), (-9e307,), parse("y1 + sin(x)"))
        derivative_failures = [(8, lambda: iterate(p, BernsteinPoly(huge[:8]), 8)),
                               (2, lambda: solve(near_limit, SolveOptions(degree=4)))]
        residual_failures = [(8, lambda: iterate(p, BernsteinPoly(np.zeros(8)), 8)),
                             (2, lambda: solve(p, SolveOptions(degree=4)))]
        for n, run in derivative_failures:
            with pytest.raises(IterationError) as err:
                run()
            assert err.value.n == n
            assert isinstance(err.value.cause, EvaluationError)
            assert "non-finite value" in str(err.value.cause)
        monkeypatch.setattr(bandsolve, "solve",
                            lambda system, v, float_pass=False: huge[:system.size])
        for n, run in residual_failures:
            with pytest.raises(IterationError) as err:
                run()
            assert err.value.n == n
            assert isinstance(err.value.cause, EvaluationError)
            assert "L2 residual" in str(err.value.cause)

    def test_library_solve_is_not_degree_capped(self):
        assert solve(line_problem(), SolveOptions(degree=61)).solution.degree == 61

    @pytest.mark.parametrize("ex_id", [1, 3, 5])
    def test_examples_above_the_degree_cap(self, ex_id):
        # the ladder never evaluates its base's m-th derivative, so the
        # rounding that float64 derivatives gain at high degree stays out of
        # v: measured 6.8e-13, 5.5e-14 and 6.7e-12 at N = 70 (2.1e-12,
        # 3.3e-11 and 3.3e-9 when the ladder subtracted that derivative of
        # the raised previous iterate).  At N = 80 the error is large, but
        # examples 1 and 3 no longer fail
        ex = example(ex_id)
        w = solve(ex.problem, SolveOptions(degree=70)).solution
        assert max_error(error_curve(w, ex.reference, 200)) <= 1e-10
        if ex_id != 5:
            assert solve(ex.problem, SolveOptions(degree=80)).solution.degree == 80

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

    @pytest.mark.parametrize("ex_id", range(1, 6))
    def test_ladder_steps_match_the_direct_step(self, ex_id):
        # each step of the ladder and iterate() from the same iterate solve
        # for the correction to the same base, the raised seed, and differ
        # only in the band solve's refinement: the ladder's float64 pass,
        # iterate()'s exact residuals.  On the 201-point grid to N = 40 they
        # differ by at most 1.2e-14 (example 5), 8.4e-15 for example 2 and
        # 3.1e-15 for the others (5.8e-12 for example 3, k = 4, l = 0, when
        # the ladder corrected the raised previous iterate instead)
        problem = example(ex_id).problem
        report = solve(problem, SolveOptions(degree=40))
        x = np.arange(201) / 200
        for n, (before, got) in enumerate(zip(report.iterates, report.iterates[1:]), problem.m):
            want = iterate(problem, before, n)
            assert np.abs(evaluate(got, x) - evaluate(want, x)).max() <= 1e-13, n

    @staticmethod
    def roots_of_unity_problem(m):
        # y^(m) = y with y(0) = 1 and y'(0) = ... = y^(m-1)(0) = 0, solved
        # by (1/m) sum exp(w x) over the m-th roots of unity w
        return BVProblem((1.0,) + (0.0,) * (m - 1), (), parse("y0"))

    def roots_of_unity_error(self, m, degree, w=None):
        """Max error of w, by default the degree-N solve, of y^(m) = y on
        the 201-point grid."""
        if w is None:
            w = solve(self.roots_of_unity_problem(m), SolveOptions(degree=degree)).solution
        x = np.arange(201) / 200
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        exact = (np.exp(np.outer(x, roots)).sum(axis=1) / m).real
        return np.abs(evaluate(w, x) - exact).max()

    @pytest.mark.parametrize("m,degree", [(30, 36), (55, 59), (30, 37), (55, 60)])
    def test_high_order_refines_by_the_integer_route(self, m, degree, monkeypatch):
        # the max error of the solve is 2.2e-16, 5.6e-16, 3.3e-16 and
        # 5.6e-16 here.  The ladder's band solves stop at the float64
        # pass; iterate()'s step refines with the exact (integer)
        # residual, so every step of a chain of iterate() calls takes it
        # once, one degree up from 36 and 59 too, where the one-sided
        # stencils' condition numbers pass 2e13
        assert self.roots_of_unity_error(m, degree) <= 1e-13
        calls = []
        exact = bandsolve._residual
        monkeypatch.setattr(bandsolve, "_residual", lambda *a: calls.append(1) or exact(*a))
        problem = self.roots_of_unity_problem(m)
        w = seed(problem)
        for n in range(m, degree + 1):
            w = iterate(problem, w, n)
        assert len(calls) == degree - m + 1

    @pytest.mark.parametrize("m,degree,bound", [(8, 60, 1e-14), (9, 60, 1e-14),
                                                (10, 60, 1e-14), (12, 40, 1e-14),
                                                (16, 60, 1e-14)])
    def test_ill_conditioned_orders_solve_by_refinement(self, m, degree, bound):
        # the one-sided stencils of these solves reach condition numbers of
        # 6.6e11, 7.6e12, 7.7e13, 2.3e13 and (numpy's estimate) 2e18.  Both
        # the ladder and a chain of iterate() steps from the seed solve each
        # step for a correction to the raised seed, whose outer coefficients
        # are those of degree n, so v subtracts no stencil terms of rounded
        # ones:
        # measured max error 4.4e-16 for the first four and 2.2e-16 for
        # order 16, both ways (6.4e-7, 1.6e-6, 2.4e-7 and 2.1e-9 when each
        # step subtracted them, whose rounding these stencils spread
        # inward; order 16 stopped contracting at n = 57 when the ladder
        # corrected the raised previous iterate)
        assert self.roots_of_unity_error(m, degree) <= bound
        problem = self.roots_of_unity_problem(m)
        w = seed(problem)
        for n in range(m, degree + 1):
            w = iterate(problem, w, n)
        assert self.roots_of_unity_error(m, degree, w) <= bound

    def test_every_benchmarked_band_solve_refines_once(self, monkeypatch):
        # the five examples to N = 60 and the manufactured specs of the
        # benchmark's seeds 1-3: every band solve of the ladder takes the
        # float64 pass first, and that one pass reaches rounding level in
        # all of them, so none takes an exact residual
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import specgen

        residuals, band_solve, exact = [], bandsolve.solve, []
        counted = bandsolve._residual
        monkeypatch.setattr(bandsolve, "_residual",
                            lambda *a: residuals.append(1) or counted(*a))

        def solve_counted(system, v, float_pass=False):
            assert float_pass
            before = len(residuals)
            p = band_solve(system, v, float_pass)
            if len(residuals) > before:
                exact.append((system.size, system.lower_bw, len(residuals) - before))
            return p

        monkeypatch.setattr(bandsolve, "solve", solve_counted)
        for i in range(1, 6):
            solve(example(i).problem, SolveOptions(degree=60))
        assert exact == []
        for seed_ in (1, 2, 3):
            for _, spec, _, degree in specgen.generate(seed_):
                problem = BVProblem(tuple(spec["left"]), tuple(spec["right"]), parse(spec["rhs"]))
                solve(problem, SolveOptions(degree=degree))
        assert exact == []

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
        # cold (caches cleared) and warm solves give the same bytes.
        # Examples 2 (k = l = 2) and 3 (k = 4, l = 0) share m = 4 and every
        # rule, by default and with a fixed quad_order, but read y0, y2 and
        # y2, y3: the rule keeps their derivative terms per orders read and
        # their shape terms are kept per (n, k, l), so warm solves of the
        # two, one after the other, match cold ones
        assert [example(i).problem.reads for i in (2, 3)] == [(0, 2), (2, 3)]
        runs = [(example(i).problem, SolveOptions(degree=30)) for i in range(1, 6)]
        runs += [(example(i).problem, SolveOptions(degree=30, quad_order=40)) for i in (2, 3)]
        cold = []
        for problem, opts in runs:
            _gauss_rule.cache_clear()
            _dual_table.cache_clear()
            assemble_matrix.cache_clear()
            solver._shape_terms.cache_clear()
            cold.append(solve(problem, opts))
        assert gauss_rule(40, 2) is gauss_rule(40, 2)
        warm = [solve(problem, opts) for problem, opts in runs + runs[::-1]]
        for a, b in zip(cold + cold[::-1], warm):
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
        assemble_matrix.cache_clear()
        solver._shape_terms.cache_clear()
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

    def test_steps_at_a_fixed_degree_sweep_the_error_down(self):
        # a step takes a previous iterate of any degree: six more steps at
        # degree 8 from example 3's degree-8 iterate take its max error
        # from 2.2e-7 to 2.0e-12 (a solve to N = 14 reads 1.2e-13)
        ex = example(3)
        problem = ex.problem
        w = solve(problem, SolveOptions(degree=8)).solution
        for _ in range(6):
            w = iterate(problem, w, 8)
        assert w.degree == 8
        assert max_error(error_curve(w, ex.reference, 200)) <= 1e-11

    def test_one_step_from_the_seed_to_a_higher_degree(self):
        # from the degree-3 seed of example 3 straight to degree 8: the
        # new iterate meets the boundary data as criterion 5 asks
        problem = example(3).problem
        w = iterate(problem, seed(problem), 8)
        assert w.degree == 8
        for i, want in enumerate(problem.left_values):
            got = endpoint_derivative(w, i, "left")
            assert abs(got - want) <= 1e-11 * (1 + abs(want)), i

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
        r = solve(prob, SolveOptions(degree=4))
        w_prev, w_cur = r.iterates[-2], r.iterates[-1]
        assert (w_prev.degree, w_cur.degree) == (3, 4)
        expect = inner_by_normal_equations(prob, w_prev, 4)
        got = w_cur.coeffs[prob.k : 4 - prob.l + 1]
        assert np.abs(got - expect).max() <= 1e-8 * (1 + np.abs(expect).max())
