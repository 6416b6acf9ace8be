import math
import warnings

import numpy as np
import pytest

from bernbvp.bernstein import basis_value
from bernbvp.quadrature import QuadratureRule, basis_row, gauss_rule, legendre_moments


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


class TestBernsteinBasis:
    # the solver's default rules at n = 2, 40 and 60, and one with nodes at
    # both ends, where x^i and (1 - x)^(d - i) vanish
    RULES = [gauss_rule(20, 2), gauss_rule(42, 2), gauss_rule(62, 2),
             QuadratureRule(5, 1, [0.0, 0.25, 0.5, 0.7, 1.0], [0.2] * 5)]

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: f"order{r.order}")
    def test_rows_are_a_partition_of_unity(self, rule):
        # measured: every row sums to 1 within 1 ulp at these rules and degrees
        for d in (0, 1, 2, 7, 20, 41, 60):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = rule.bernstein_basis(d)
            assert table.shape == (rule.nodes.size, d + 1)
            assert (table >= 0).all()
            for row in table.tolist():
                assert abs(math.fsum(row) - 1.0) <= 4 * 2.0**-52, d

    def test_matches_basis_value(self):
        rule = gauss_rule(20, 2)
        for d in (0, 3, 17):
            table = rule.bernstein_basis(d)
            for t, x in enumerate(rule.nodes.tolist()):
                for i in range(d + 1):
                    assert table[t, i] == pytest.approx(basis_value(d, i, x), rel=1e-14)

    def test_end_nodes_give_unit_rows(self):
        rule = self.RULES[-1]
        table = rule.bernstein_basis(9)
        assert table[0].tolist() == [1.0] + [0.0] * 9
        assert table[-1].tolist() == [0.0] * 9 + [1.0]

    def test_kept_per_degree_and_read_only(self):
        rule = gauss_rule(23, 2)
        table = rule.bernstein_basis(12)
        assert rule.bernstein_basis(12) is table
        assert gauss_rule(23, 2).bernstein_basis(12) is table
        assert rule.bernstein_basis(11) is not table
        with pytest.raises(ValueError):
            table[0, 0] = 0.5

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            gauss_rule(5, 1).bernstein_basis(-1)


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
