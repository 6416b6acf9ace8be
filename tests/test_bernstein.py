import math
import warnings
from math import comb

import numpy as np
import pytest
from helpers import de_casteljau

from bernbvp.bernstein import (
    BernsteinPoly,
    basis_matrix,
    binomial_row,
    derivative,
    endpoint_derivative,
    evaluate,
    falling_factorial,
)


def random_poly(rng, n, scale=1.0):
    return BernsteinPoly(rng.uniform(-scale, scale, n + 1))


class TestBinomialRow:
    def test_correctly_rounded_through_degree_60(self):
        # C(n, i) exceeds 2^53 from n = 57 on; every entry must still be
        # the float nearest the exact integer
        for n in range(61):
            assert binomial_row(n).tolist() == [float(comb(n, i)) for i in range(n + 1)], n

    def test_beyond_float64_is_one_value_error(self):
        # C(1100, 550) is about 1e330: evaluating at degree 1100 names the
        # degree, where degree 1000 still evaluates
        assert BernsteinPoly(np.ones(1001))(0.5) == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(ValueError, match="degree 1100 are beyond float64"):
            BernsteinPoly(np.ones(1101))(0.5)


class TestBasisValue:
    # the values of basis_matrix at one point
    def test_known_values(self):
        assert basis_matrix(2, 0.5)[1] == pytest.approx(0.5, abs=1e-15)
        assert basis_matrix(5, 0.0)[0] == 1.0
        assert basis_matrix(4, 0.25)[3] == pytest.approx(0.046875, rel=1e-14)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 11, 17, 30):
            for x in rng.uniform(0, 1, 20):
                assert math.fsum(basis_matrix(n, x).tolist()) == pytest.approx(1.0, abs=1e-13)

    def test_endpoint_cardinality_exact(self):
        for n in range(0, 13):
            assert basis_matrix(n, 0.0).tolist() == [1.0] + [0.0] * n
            assert basis_matrix(n, 1.0).tolist() == [0.0] * n + [1.0]

    def test_shape_follows_x(self):
        for shape in ((), (0,), (3,), (2, 5)):
            x = np.full(shape, 0.25)
            assert basis_matrix(4, x).shape == shape + (5,)
        with pytest.raises(ValueError):
            basis_matrix(-1, 0.5)


class TestEvaluate:
    def test_linear_coefficients(self):
        p = BernsteinPoly([0.0, 0.5, 1.0])
        assert evaluate(p, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_constant_partition_of_unity(self):
        p = BernsteinPoly([2.5] * 7)
        for x in (0.0, 0.123, 0.5, 0.987, 1.0):
            assert evaluate(p, x) == pytest.approx(2.5, rel=1e-15)

    def test_right_endpoint_is_last_coefficient(self):
        p = BernsteinPoly([2.0, 5.0 / 3.0, 11.0 / 6.0, 8.0 / 3.0])
        assert evaluate(p, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_domain_check(self):
        p = BernsteinPoly([1.0, 2.0])
        with pytest.raises(ValueError):
            evaluate(p, -0.1)

    def test_against_de_casteljau(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(0, 41))
            p = random_poly(rng, n)
            x = float(rng.uniform(0, 1))
            ours = evaluate(p, x)
            ref = de_casteljau(p.coeffs, x)
            assert ours == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_against_de_casteljau_well_conditioned(self):
        # with positive coefficients there is no cancellation, so the two
        # algorithms must agree to a few tens of ulp even at degree 40
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(0, 41))
            p = BernsteinPoly(rng.uniform(0.1, 2.0, n + 1))
            x = float(rng.uniform(0, 1))
            ref = de_casteljau(p.coeffs, x)
            assert abs(evaluate(p, x) - ref) <= 32 * np.spacing(abs(ref))

    def test_callable_form(self):
        p = BernsteinPoly([0.0, 1.0])
        assert p(0.75) == pytest.approx(0.75)


class TestPolyValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            BernsteinPoly([0.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BernsteinPoly([])

    def test_coeffs_read_only(self):
        p = BernsteinPoly([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 3.0


class TestDerivative:
    def test_derivative_of_x(self):
        d = derivative(BernsteinPoly([0.0, 0.5, 1.0]), 1)
        assert d.degree == 1
        assert d.coeffs.tolist() == [1.0, 1.0]

    def test_identity_for_r_zero(self):
        p = BernsteinPoly([1.0, 4.0, 2.0])
        assert derivative(p, 0) is p

    def test_second_derivative_of_x_squared(self):
        d = derivative(BernsteinPoly([0.0, 0.0, 1.0]), 2)
        assert d.coeffs.tolist() == [2.0]

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            derivative(BernsteinPoly([1.0, 2.0]), 2)

    @pytest.mark.parametrize("r", [150, 171])
    def test_derivative_beyond_float64_is_one_value_error(self, r):
        # r = 150 overflows the coefficients, r = 171 the factor 171! itself
        p = BernsteinPoly(np.linspace(0.0, 1.0, 172))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"derivative of order {r} of degree 171"):
                derivative(p, r)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(25):
            n = int(rng.integers(1, 16))
            p = random_poly(rng, n)
            d = derivative(p, 1)
            for x in rng.uniform(0.01, 0.99, 5):
                fd = (evaluate(p, x + h) - evaluate(p, x - h)) / (2 * h)
                assert evaluate(d, x) == pytest.approx(fd, abs=1e-5)

    def test_falling_factorial_is_correctly_rounded(self):
        # n!/(n-r)! from exact integers, rounded once; a running float
        # product misses it on 753 pairs with n <= 60, from r = 12 up
        for n in range(61):
            for r in range(n + 1):
                want = float(math.factorial(n) // math.factorial(n - r))
                assert falling_factorial(n, r) == want, (n, r)

    def test_order_additivity(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 13))
            p = random_poly(rng, n)
            r1 = int(rng.integers(0, n))
            r2 = int(rng.integers(0, n - r1 + 1))
            once = derivative(derivative(p, r1), r2)
            both = derivative(p, r1 + r2)
            assert np.allclose(once.coeffs, both.coeffs, rtol=1e-12, atol=1e-12)


class TestEndpointDerivative:
    def test_slope_of_x(self):
        assert endpoint_derivative(BernsteinPoly([0.0, 1.0]), 1, "left") == pytest.approx(1.0)

    def test_cubic_second_derivative_left(self):
        p = BernsteinPoly([2.0, 5.0 / 3.0, 11.0 / 6.0, 8.0 / 3.0])
        assert endpoint_derivative(p, 2, "left") == pytest.approx(3.0, rel=1e-13)

    def test_value_at_right_is_last_coefficient(self):
        p = BernsteinPoly([3.0, -1.0, 7.0])
        assert endpoint_derivative(p, 0, "right") == 7.0

    def test_matches_derivative_eval(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            p = random_poly(rng, n)
            r = int(rng.integers(0, n + 1))
            d = derivative(p, r)
            assert endpoint_derivative(p, r, "left") == pytest.approx(
                evaluate(d, 0.0), rel=1e-10, abs=1e-10)
            assert endpoint_derivative(p, r, "right") == pytest.approx(
                evaluate(d, 1.0), rel=1e-10, abs=1e-10)

    def test_bad_end_label(self):
        with pytest.raises(ValueError):
            endpoint_derivative(BernsteinPoly([1.0, 2.0]), 1, "middle")

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            endpoint_derivative(BernsteinPoly([1.0, 2.0]), 5, "left")
