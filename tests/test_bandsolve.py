import math

import numpy as np
import pytest
from helpers import dense_from_banded

from bernbvp import bandsolve
from bernbvp.bandsolve import assemble_matrix, assemble_rhs, solve
from bernbvp.dual import dual_coefficients
from bernbvp.errors import EvaluationError, SingularSystemError
from bernbvp.quadrature import gauss_rule, legendre_moments


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestAssembleMatrix:
    def test_second_difference_tridiagonal(self):
        s = assemble_matrix(4, 1, 1)
        assert s.size == 3
        expect = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
        assert dense_from_banded(s).tolist() == s.dense.tolist() == expect

    def test_one_by_one_all_left(self):
        s = assemble_matrix(3, 3, 0)
        assert s.size == 1
        assert dense_from_banded(s).tolist() == [[1.0]]

    def test_upper_triangular_shape(self):
        s = assemble_matrix(5, 0, 2)
        assert s.size == 4
        assert s.dense[0].tolist() == [1, -2, 1, 0]
        dense = dense_from_banded(s)
        assert np.all(dense[np.tril_indices(4, -1)] == 0.0)

    def test_band_structure_and_toeplitz(self):
        from math import comb
        for m, k in ((3, 1), (4, 2), (5, 0), (6, 6)):
            l = m - k
            s = assemble_matrix(m + 7, k, l)
            for i in range(s.size):
                for j in range(s.size):
                    d = j - i
                    if -k <= d <= l:
                        assert s.dense[i, j] == (-1.0) ** (l - d) * comb(m, d + k)
                    else:
                        assert s.dense[i, j] == 0.0

    def test_bandwidth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="need k, l >= 0"):
            assemble_matrix(5, -1, 3)
        with pytest.raises(ValueError, match="need n >= m"):
            assemble_matrix(1, 1, 1)

    def test_one_system_per_shape_solves_any_rhs_of_its_length(self):
        # the cached system of a shape, with its read-only matrix and
        # inverse, serves every rhs; solve checks only the rhs's length
        s0 = assemble_matrix(5, 1, 1)
        assert assemble_matrix(5, 1, 1) is s0
        assert not (s0.dense.flags.writeable or s0.inverse.flags.writeable)
        assert s0.dense.tolist() == dense_from_banded(s0).tolist()
        got = solve(s0, [1, 2, 3, 4])
        assert got == pytest.approx(np.linalg.solve(s0.dense, [1.0, 2.0, 3.0, 4.0]), rel=1e-14)
        for bad in ([1.0, 2.0, 3.0], np.zeros(5)):
            with pytest.raises(ValueError, match="length 4"):
                solve(s0, bad)


class TestSolve:
    def test_tridiagonal_hand_case(self):
        s = assemble_matrix(4, 1, 1)
        assert solve(s, [-1.0, 0.0, 0.0]).tolist() == pytest.approx([0.75, 0.5, 0.25], rel=1e-14)

    def test_back_substitution_case(self):
        s, rhs = assemble_matrix(5, 0, 2), [0.0, 0.0, 0.0, 1.0]
        expect = np.linalg.solve(dense_from_banded(s), rhs)
        got = solve(s, rhs)
        assert got == pytest.approx(expect, rel=1e-13)
        assert got.tolist() == pytest.approx([4.0, 3.0, 2.0, 1.0], rel=1e-13)

    def test_forward_substitution_case(self):
        s, rhs = assemble_matrix(9, 3, 0), np.arange(7.0)
        expect = np.linalg.solve(dense_from_banded(s), rhs)
        assert solve(s, rhs) == pytest.approx(expect, rel=1e-12)

    def test_general_band_matches_dense_solve(self):
        rng = np.random.default_rng(17)
        s, rhs = assemble_matrix(20, 2, 3), rng.standard_normal(16)
        expect = np.linalg.solve(dense_from_banded(s), rhs)
        assert solve(s, rhs) == pytest.approx(expect, rel=1e-11)

    def test_dispatch_paths_agree_with_dense(self):
        rng = np.random.default_rng(99)
        for m in range(1, 7):
            for k in range(m + 1):
                l = m - k
                for n in (m, m + 4, 18):
                    s0 = assemble_matrix(n, k, l)
                    dense = dense_from_banded(s0)
                    for _ in range(3):
                        rhs = rng.uniform(-1, 1, s0.size)
                        expect = np.linalg.solve(dense, rhs)
                        got = solve(s0, rhs)
                        scale = np.abs(expect).max() + 1.0
                        assert np.abs(got - expect).max() <= 1e-11 * scale

    def test_residual_small(self):
        rng = np.random.default_rng(31)
        s, rhs = assemble_matrix(30, 2, 2), rng.uniform(-1, 1, 27)
        p = solve(s, rhs)
        res = dense_from_banded(s) @ p - rhs
        assert np.abs(res).max() <= 1e-10 * (1.0 + np.abs(rhs).max())

    def test_residual_contract_largest_supported_shapes(self):
        # residual bound through order 8 and degree 60, with right-hand
        # sides produced by bounded solutions (the shape they take in the
        # iteration).  For random rhs at this corner the solution reaches
        # ~2e5 and its float64 quantization alone leaves a ~1e-9 residual,
        # so no solver output could meet the bound there.
        import math

        rng = np.random.default_rng(63)
        for m in range(1, 9):
            for k in range(m + 1):
                for n in (m, m + 3, 30, 60):
                    s0 = assemble_matrix(n, k, m - k)
                    p_true = rng.uniform(-1, 1, s0.size)
                    dense = dense_from_banded(s0)
                    rhs = np.array([math.fsum(dense[i] * p_true)
                                    for i in range(s0.size)])
                    p = solve(s0, rhs)
                    res = dense @ p - rhs
                    bound = 1e-10 * (1.0 + np.abs(rhs).max())
                    assert np.abs(res).max() <= bound, (m, k, n)

    def test_refinement_reaches_float64_optimum_on_hard_corner(self):
        # random rhs at the worst-conditioned supported shape: the float64
        # representation floor dominates, and the solver's answer must land
        # at the same residual level as the exactly-solved-then-rounded one
        # (about 2e-9 here; see dense oracle via numpy at float64)
        rng = np.random.default_rng(63)
        s, rhs = assemble_matrix(60, 4, 4), rng.uniform(-1, 1, 53)
        p = solve(s, rhs)
        res = dense_from_banded(s) @ p - rhs
        np_res = dense_from_banded(s) @ np.linalg.solve(dense_from_banded(s), rhs) - rhs
        assert np.abs(res).max() <= max(10 * np.abs(np_res).max(), 1e-8)

    @pytest.mark.parametrize("shape,sign", [((40, 4, 0), -1.0), ((8, 1, 1), 1.0)])
    def test_product_beyond_float64_is_returned_unrefined(self, shape, sign):
        # a finite rhs whose product with the inverse overflows: that first
        # product is checked once and returned as it is, not split for the
        # refinement step; the solver's check of the result then fails
        system = assemble_matrix(*shape)
        with np.errstate(over="ignore", invalid="ignore"):
            p = solve(system, 1.7e308 * sign ** np.arange(system.size))
        assert p.shape == (system.size,) and not np.isfinite(p).all()

    def test_refinement_near_the_float64_limit_stops_without_overflow(self):
        # p of entries near 1.7e308, whose 2-norm is beyond float64: the
        # stop test's norms must neither overflow with a warning nor keep
        # the refinement going.  Here p is the running sum of v
        rng = np.random.default_rng(11)
        s = assemble_matrix(40, 1, 0)
        v = rng.uniform(-1, 1, s.size) * 1e290
        v[0] = 1.7e308
        p = solve(s, v)
        exact = np.array([math.fsum(v[:i + 1]) for i in range(s.size)])
        assert np.abs(p - exact).max() <= 2.0**-52 * 1.7e308

    def test_ill_conditioned_system_raises(self):
        # (m, k) = (30, 15) at n = 60, condition number about 8e16: the
        # refinement's corrections stall instead of halving.  The one-sided
        # order-10 stencil at n = 50 (1.1e13) solves
        rng = np.random.default_rng(5)
        with pytest.raises(SingularSystemError, match="does not contract"):
            solve(assemble_matrix(60, 15, 15), rng.standard_normal(31))
        s = assemble_matrix(50, 10, 0)
        p = solve(s, np.ones(41))
        assert np.abs(s.dense @ p - 1.0).max() <= 1e-12 * np.abs(p).max()

    def test_correction_solve_of_a_well_conditioned_stencil_is_float64(self, monkeypatch):
        # with float_pass, one float64 refinement pass reaches rounding
        # level on these stencils, so no exact residual is taken
        def exact_residual(*args):
            raise AssertionError("exact residual taken")

        monkeypatch.setattr(bandsolve, "_residual", exact_residual)
        rng = np.random.default_rng(12)
        for shape in ((20, 2, 2), (40, 1, 1), (30, 0, 1), (40, 1, 2)):
            system = assemble_matrix(*shape)
            v = rng.uniform(-1, 1, system.size) * 1e-9
            p = solve(system, v, float_pass=True)
            first = system.inverse @ v
            assert bits(p) == bits(first + system.inverse @ (v - system.dense @ first)), shape

    def test_correction_solve_beyond_the_float64_pass_is_the_default_solve(self):
        # where the float64 pass stops short of rounding level (the
        # one-sided order-10 stencil at n = 50, condition number 1.1e13) or
        # its norms leave float64, the solve with float_pass refines with
        # exact residuals from the first product on, as the default solve
        # does
        rng = np.random.default_rng(13)
        s = assemble_matrix(50, 10, 0)
        near_limit = assemble_matrix(40, 1, 0)
        big = rng.uniform(-1, 1, near_limit.size) * 1e290
        big[0] = 1.7e308
        for system, v in ((s, np.ones(41)), (s, rng.uniform(-1, 1, 41)), (near_limit, big)):
            assert bits(solve(system, v, float_pass=True)) == bits(solve(system, v))

    def test_correction_solve_refuses_what_does_not_contract(self):
        rng = np.random.default_rng(5)
        with pytest.raises(SingularSystemError, match="does not contract"):
            solve(assemble_matrix(60, 15, 15), rng.standard_normal(31), float_pass=True)

    def test_failed_inverse_raises_singular_system(self, monkeypatch):
        # no stencil of the CLI's range makes numpy's inverse fail, but one
        # that did would leave its system without an inverse: every solve
        # with it raises instead of using it
        def fail(a):
            raise np.linalg.LinAlgError("Singular matrix")

        assemble_matrix.cache_clear()
        monkeypatch.setattr(np.linalg, "inv", fail)
        try:
            s = assemble_matrix(9, 1, 2)
            assert s.inverse is None
            with pytest.raises(SingularSystemError, match="singular system"):
                solve(s, np.ones(7))
        finally:
            assemble_matrix.cache_clear()


class TestAssembleRhs:
    def test_all_zero_problem(self):
        # a zero rhs projects to zero: no correction to the base
        duals = dual_coefficients(2)
        moments = [0.0, 0.0, 0.0]
        v = assemble_rhs(assemble_matrix(4, 1, 1), duals, moments)
        assert v.tolist() == [0.0, 0.0, 0.0]

    def test_straight_line_hand_case(self):
        # y'' = 0, y(0)=0, y(1)=1 at n=2: the base, the line raised to
        # degree 2, has inner coefficient 1/2, and v = [0] corrects nothing
        duals = dual_coefficients(0)
        moments = [0.0]
        system = assemble_matrix(2, 1, 1)
        v = assemble_rhs(system, duals, moments)
        assert v.tolist() == [0.0]
        assert (0.5 + solve(system, v)).tolist() == [0.5]

    def test_parabola_hand_case(self):
        # y'' = -2 with zero boundary values: v = [-2/2] = [-1], p_1 = 1/2,
        # w(x) = x(1-x)
        duals = dual_coefficients(0)
        moments = [-2.0]
        system = assemble_matrix(2, 1, 1)
        v = assemble_rhs(system, duals, moments)
        assert v.tolist() == [-1.0]
        assert solve(system, v).tolist() == pytest.approx([0.5], abs=1e-15)

    def test_dimension_mismatches(self):
        duals = dual_coefficients(2)
        good = [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            assemble_rhs(assemble_matrix(5, 1, 1), duals, good)
        with pytest.raises(ValueError):
            assemble_rhs(assemble_matrix(4, 1, 1), duals, good[:2])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_moments_raise_evaluation_error(self, bad):
        # a non-finite moment shows as a non-finite v, v's one check
        moments = [0.0, bad, 0.0]
        with pytest.raises(EvaluationError, match="system right-hand side overflows float64"), \
                np.errstate(invalid="ignore"):
            assemble_rhs(assemble_matrix(4, 1, 1), dual_coefficients(2), moments)

    def test_without_outer_coefficients_v_is_the_float_product(self):
        # the outer coefficients sit in the solver's base, so v has no
        # stencil terms on any shape, one-sided ones included
        rng = np.random.default_rng(14)
        for shape in ((12, 2, 2), (12, 4, 0), (12, 0, 4)):
            system, duals = assemble_matrix(*shape), dual_coefficients(8)
            moments = rng.uniform(-1, 1, 9)
            assert bits(assemble_rhs(system, duals, moments)) == bits(
                duals.legendre @ moments / system.scale)

    def test_legendre_moments_of_a_polynomial(self):
        # g = x^2 lies in the degree-3 space, so M times its Legendre
        # moments gives its Bernstein coefficients [0, 0, 1/3, 1], and v is
        # those over n!/nu! = 20.  Bernstein moments in their place would
        # give other values for nu >= 1.
        duals = dual_coefficients(3)
        moments, _ = legendre_moments(lambda xs: xs**2, 3, gauss_rule(8))
        v = assemble_rhs(assemble_matrix(5, 1, 1), duals, moments)
        assert v.tolist() == pytest.approx([0.0, 0.0, 1 / 60, 1 / 20], abs=1e-14)
