from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from bernbvp.bernstein import basis_value
from bernbvp.errors import EvaluationError
from bernbvp.quadrature import MomentVector, basis_row, gauss_rule, moment_integrals


def exact_monomial_moment(d, nu, q):
    """integral of x^d B_q^nu over [0,1] as an exact rational."""
    return Fraction(comb(nu, q) * factorial(d + q) * factorial(nu - q),
                    factorial(d + nu + 1))


class TestGaussRule:
    def test_midpoint_rule(self):
        rule = gauss_rule(1, 1)
        assert rule.nodes.tolist() == pytest.approx([0.5], abs=1e-15)
        assert rule.weights.tolist() == pytest.approx([1.0], abs=1e-15)

    def test_two_point_on_x_squared(self):
        rule = gauss_rule(2, 1)
        val = float(np.sum(rule.weights * rule.nodes**2))
        assert val == pytest.approx(1 / 3, rel=1e-14)

    def test_five_point_on_x_ninth(self):
        rule = gauss_rule(5, 1)
        val = float(np.sum(rule.weights * rule.nodes**9))
        assert val == pytest.approx(0.1, rel=1e-13)

    def test_weights_sum_to_one(self):
        for order, panels in ((3, 1), (8, 2), (20, 2), (13, 3)):
            rule = gauss_rule(order, panels)
            assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)

    def test_nodes_strictly_increasing_inside_interval(self):
        for order, panels in ((1, 1), (7, 1), (12, 4)):
            rule = gauss_rule(order, panels)
            assert np.all(np.diff(rule.nodes) > 0)
            assert rule.nodes[0] > 0 and rule.nodes[-1] < 1

    def test_polynomial_exactness_through_2g_minus_1(self):
        for order in (2, 4, 7, 11):
            rule = gauss_rule(order, 1)
            for d in range(2 * order):
                val = float(np.sum(rule.weights * rule.nodes**d))
                assert val == pytest.approx(1 / (d + 1), abs=1e-13), (order, d)

    def test_against_numpy_leggauss(self):
        for order in (2, 5, 16, 31, 64):
            rule = gauss_rule(order, 1)
            x, w = np.polynomial.legendre.leggauss(order)
            assert np.allclose(rule.nodes, (x + 1) / 2, atol=1e-14)
            assert np.allclose(rule.weights, w / 2, atol=1e-14)

    def test_large_order_converges(self):
        rule = gauss_rule(128, 1)
        assert rule.nodes.size == 128
        assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gauss_rule(0, 1)
        with pytest.raises(ValueError):
            gauss_rule(3, 0)

    def test_memoized_rule_is_shared_and_read_only(self):
        rule = gauss_rule(23, 2)
        assert gauss_rule(23, 2) is rule
        assert gauss_rule(23, panels=2) is rule
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_non_integer_arguments_rejected_even_when_memoized(self):
        # 22.0 hashes like 22: the memo must not let it through
        gauss_rule(22, 2)
        with pytest.raises(TypeError):
            gauss_rule(22.0, 2)
        with pytest.raises(TypeError):
            gauss_rule(22, 2.0)


class TestBasisRow:
    def test_known_rows(self):
        assert basis_row(1, 0.25).tolist() == pytest.approx([0.75, 0.25])
        assert basis_row(2, 0.5).tolist() == pytest.approx([0.25, 0.5, 0.25])
        assert basis_row(3, 0.2).tolist() == pytest.approx(
            [0.512, 0.384, 0.096, 0.008], rel=1e-14)

    def test_matches_basis_value(self):
        rng = np.random.default_rng(2)
        for n in (0, 1, 4, 9, 17):
            x = float(rng.uniform(0, 1))
            row = basis_row(n, x)
            for i in range(n + 1):
                assert row[i] == pytest.approx(basis_value(n, i, x), rel=1e-12, abs=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        for n in (1, 6, 15, 33):
            for x in rng.uniform(0, 1, 10):
                assert float(basis_row(n, x).sum()) == pytest.approx(1.0, abs=1e-13)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            basis_row(3, 1.2)


class TestMomentIntegrals:
    def test_constant_one(self):
        rule = gauss_rule(10, 1)
        mv = moment_integrals(lambda x: 1.0, 5, 2, rule)
        assert mv.values.tolist() == pytest.approx([0.25] * 4, rel=1e-13)

    def test_zero_function(self):
        rule = gauss_rule(6, 2)
        mv = moment_integrals(lambda x: 0.0, 7, 3, rule)
        assert np.all(mv.values == 0.0)

    def test_constant_minus_two_order_two(self):
        rule = gauss_rule(4, 1)
        mv = moment_integrals(lambda x: -2.0, 2, 2, rule)
        assert mv.values.tolist() == pytest.approx([-2.0], rel=1e-14)

    def test_monomials_match_exact_moments(self):
        for d in (0, 1, 3, 6, 10):
            for nu in (0, 2, 5, 10):
                order = (d + nu) // 2 + 1
                rule = gauss_rule(max(order, 1), 1)
                mv = moment_integrals(lambda x, d=d: x**d, nu + 3, 3, rule)
                for q in range(nu + 1):
                    exact = float(exact_monomial_moment(d, nu, q))
                    assert mv.values[q] == pytest.approx(exact, rel=1e-12, abs=1e-16)

    def test_panel_doubling_stability(self, benchmark_sweep):
        # composing each example's rhs with its degree-19 iterate gives the
        # n = 20 integrand; doubling panels moves no moment by more than 1e-12
        from bernbvp.bernstein import derivative, evaluate

        for ex_id, (ex, report) in benchmark_sweep.items():
            w19 = report.iterates[19 - (ex.problem.m - 1)]
            assert w19.degree == 19
            derivs = [derivative(w19, r) for r in range(ex.problem.m)]

            def g(x):
                args = [evaluate(d, x) for d in derivs]
                return ex.problem.rhs_value(x, args)

            n, m = 20, ex.problem.m
            base = moment_integrals(g, n, m, gauss_rule(22, 2))
            fine = moment_integrals(g, n, m, gauss_rule(22, 4))
            assert np.abs(base.values - fine.values).max() < 1e-12, ex_id

    def test_g_called_once_per_node(self):
        rule = gauss_rule(7, 3)
        calls = []

        def g(x):
            calls.append(x)
            return 1.0

        moment_integrals(g, 9, 2, rule)
        assert len(calls) == rule.nodes.size
        assert calls == rule.nodes.tolist()

    def test_nonfinite_rhs_reports_node(self):
        rule = gauss_rule(5, 1)
        with pytest.raises(EvaluationError) as err:
            moment_integrals(lambda x: float("nan"), 4, 2, rule)
        assert err.value.where is not None
        assert 0 < err.value.where < 1

    def test_requires_n_at_least_m(self):
        rule = gauss_rule(3, 1)
        with pytest.raises(ValueError):
            moment_integrals(lambda x: 1.0, 2, 3, rule)

    def test_moment_vector_length_validation(self):
        with pytest.raises(ValueError):
            MomentVector(n=5, m=2, values=[1.0, 2.0])
