import numpy as np
import pytest

from bernbvp.bernstein import basis_value
from bernbvp.quadrature import basis_row, gauss_rule, legendre_moments


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
    def test_panel_doubling_stability(self, benchmark_sweep):
        # composing each example's rhs with its degree-19 iterate gives the
        # n = 20 integrand; doubling panels moves no Legendre moment by more
        # than 1e-12
        from bernbvp.bernstein import derivative, evaluate

        for ex_id, (ex, report) in benchmark_sweep.items():
            w19 = report.iterates[19 - (ex.problem.m - 1)]
            assert w19.degree == 19
            derivs = [derivative(w19, r) for r in range(ex.problem.m)]

            def g(x):
                args = [evaluate(d, x) for d in derivs]
                return ex.problem.rhs_value(x, args)

            nu = 20 - ex.problem.m
            base, _ = legendre_moments(g, nu, gauss_rule(22, 2))
            fine, _ = legendre_moments(g, nu, gauss_rule(22, 4))
            assert np.abs(base - fine).max() < 1e-12, ex_id
