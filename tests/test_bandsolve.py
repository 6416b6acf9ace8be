import numpy as np
import pytest
from helpers import dense_from_banded

from bernbvp.bandsolve import BandedToeplitz, assemble_matrix, assemble_rhs, solve
from bernbvp.dual import dual_coefficients
from bernbvp.errors import SingularSystemError
from bernbvp.quadrature import gauss_rule, legendre_moments


class TestAssembleMatrix:
    def test_second_difference_tridiagonal(self):
        s = assemble_matrix(4, 2, 1, 1)
        assert s.size == 3
        assert s.diagonals.tolist() == [1.0, -2.0, 1.0]
        expect = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
        assert dense_from_banded(s).tolist() == expect

    def test_one_by_one_all_left(self):
        s = assemble_matrix(3, 3, 3, 0)
        assert s.size == 1
        assert dense_from_banded(s).tolist() == [[1.0]]

    def test_upper_triangular_shape(self):
        s = assemble_matrix(5, 2, 0, 2)
        assert s.size == 4
        assert s.diagonals.tolist() == [1.0, -2.0, 1.0]
        dense = dense_from_banded(s)
        assert np.all(dense[np.tril_indices(4, -1)] == 0.0)

    def test_band_structure_and_toeplitz(self):
        from math import comb
        for m, k in ((3, 1), (4, 2), (5, 0), (6, 6)):
            l = m - k
            s = assemble_matrix(m + 7, m, k, l)
            for i in range(s.size):
                for j in range(s.size):
                    d = j - i
                    if -k <= d <= l:
                        assert s.entry(i, j) == (-1.0) ** (l - d) * comb(m, d + k)
                    else:
                        assert s.entry(i, j) == 0.0

    def test_bandwidth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble_matrix(5, 2, 2, 1)
        with pytest.raises(ValueError):
            assemble_matrix(1, 2, 1, 1)

    def test_with_rhs_checks_only_the_new_rhs(self):
        # the copy shares the validated diagonals and keeps the matrix
        # it came from unchanged
        s0 = assemble_matrix(5, 2, 1, 1)
        s = s0.with_rhs([1, 2, 3, 4])
        assert s.diagonals is s0.diagonals and s0.rhs.tolist() == [0.0] * 4
        assert s.rhs.tolist() == [1.0, 2.0, 3.0, 4.0] and s.rhs.dtype == float
        assert not s.rhs.flags.writeable
        for bad in ([1.0, 2.0, 3.0], np.zeros(5)):
            with pytest.raises(ValueError, match="length 4"):
                s0.with_rhs(bad)


class TestSolve:
    def test_nonfinite_diagonals_rejected(self):
        # a NaN band would make the condition number NaN, so a singular
        # matrix could not be told from a regular one
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                BandedToeplitz(3, 1, 1, [1.0, bad, 1.0], [0.0, 0.0, 0.0])

    def test_one_by_one(self):
        s = BandedToeplitz(1, 0, 0, [4.0], [2.0])
        assert solve(s).tolist() == [0.5]

    def test_tridiagonal_hand_case(self):
        s = assemble_matrix(4, 2, 1, 1).with_rhs([-1.0, 0.0, 0.0])
        assert solve(s).tolist() == pytest.approx([0.75, 0.5, 0.25], rel=1e-14)

    def test_back_substitution_case(self):
        s = assemble_matrix(5, 2, 0, 2).with_rhs([0.0, 0.0, 0.0, 1.0])
        expect = np.linalg.solve(dense_from_banded(s), s.rhs)
        got = solve(s)
        assert got == pytest.approx(expect, rel=1e-13)
        assert got.tolist() == pytest.approx([4.0, 3.0, 2.0, 1.0], rel=1e-13)

    def test_forward_substitution_case(self):
        s = assemble_matrix(9, 3, 3, 0).with_rhs(np.arange(7.0))
        expect = np.linalg.solve(dense_from_banded(s), s.rhs)
        assert solve(s) == pytest.approx(expect, rel=1e-12)

    def test_general_band_with_pivoting(self):
        rng = np.random.default_rng(17)
        s = assemble_matrix(20, 5, 2, 3).with_rhs(rng.standard_normal(16))
        expect = np.linalg.solve(dense_from_banded(s), s.rhs)
        assert solve(s) == pytest.approx(expect, rel=1e-11)

    def test_dispatch_paths_agree_with_dense(self):
        rng = np.random.default_rng(99)
        for m in range(1, 7):
            for k in range(m + 1):
                l = m - k
                for n in (m, m + 4, 18):
                    s0 = assemble_matrix(n, m, k, l)
                    dense = dense_from_banded(s0)
                    for _ in range(3):
                        rhs = rng.uniform(-1, 1, s0.size)
                        s = s0.with_rhs(rhs)
                        expect = np.linalg.solve(dense, rhs)
                        got = solve(s)
                        scale = np.abs(expect).max() + 1.0
                        assert np.abs(got - expect).max() <= 1e-11 * scale

    def test_direct_system_solves_like_an_assembled_one(self):
        # a system built directly forms its own cache key, and solves to
        # the bits of the assembled matrix's copy with the same rhs
        rng = np.random.default_rng(5)
        for n, m, k in ((9, 3, 0), (9, 3, 3), (12, 2, 1), (30, 6, 2)):
            assembled = assemble_matrix(n, m, k, m - k)
            v = rng.uniform(-1, 1, assembled.size)
            direct = BandedToeplitz(assembled.size, k, m - k, assembled.diagonals.tolist(), v)
            assert solve(direct).tobytes() == solve(assembled.with_rhs(v)).tobytes()

    def test_residual_small(self):
        rng = np.random.default_rng(31)
        s = assemble_matrix(30, 4, 2, 2).with_rhs(rng.uniform(-1, 1, 27))
        p = solve(s)
        res = dense_from_banded(s) @ p - s.rhs
        assert np.abs(res).max() <= 1e-10 * (1.0 + np.abs(s.rhs).max())

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
                    s0 = assemble_matrix(n, m, k, m - k)
                    p_true = rng.uniform(-1, 1, s0.size)
                    dense = dense_from_banded(s0)
                    rhs = np.array([math.fsum(dense[i] * p_true)
                                    for i in range(s0.size)])
                    p = solve(s0.with_rhs(rhs))
                    res = dense @ p - rhs
                    bound = 1e-10 * (1.0 + np.abs(rhs).max())
                    assert np.abs(res).max() <= bound, (m, k, n)

    def test_refinement_reaches_float64_optimum_on_hard_corner(self):
        # random rhs at the worst-conditioned supported shape: the float64
        # representation floor dominates, and the solver's answer must land
        # at the same residual level as the exactly-solved-then-rounded one
        # (about 2e-9 here; see dense oracle via numpy at float64)
        rng = np.random.default_rng(63)
        s = assemble_matrix(60, 8, 4, 4).with_rhs(rng.uniform(-1, 1, 53))
        p = solve(s)
        res = dense_from_banded(s) @ p - s.rhs
        np_res = dense_from_banded(s) @ np.linalg.solve(dense_from_banded(s), s.rhs) - s.rhs
        assert np.abs(res).max() <= max(10 * np.abs(np_res).max(), 1e-8)

    def test_zero_main_diagonal_needs_pivoting(self):
        # nonsingular systems whose diagonal entries are all zero:
        # elimination without row exchanges would fail on them
        s = BandedToeplitz(2, 1, 1, [1.0, 0.0, 1.0], [3.0, 5.0])
        assert solve(s).tolist() == [5.0, 3.0]
        s = BandedToeplitz(4, 1, 1, [1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        assert solve(s).tolist() == pytest.approx([-2.0, 1.0, 4.0, 2.0], abs=1e-14)

    def test_singular_lower_triangular(self):
        with pytest.raises(SingularSystemError):
            solve(BandedToeplitz(3, 1, 0, [1.0, 0.0], [1.0, 1.0, 1.0]))

    def test_singular_systems_raise(self):
        with pytest.raises(SingularSystemError, match="singular system"):
            solve(BandedToeplitz(3, 0, 0, [0.0], [1.0, 1.0, 1.0]))
        with pytest.raises(SingularSystemError):
            solve(BandedToeplitz(3, 1, 1, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
        with pytest.raises(SingularSystemError):
            solve(BandedToeplitz(4, 2, 2, [0.0] * 5, [1.0, 0.0, 0.0, 0.0]))

    def test_ill_conditioned_system_raises(self):
        # determinant 1, but the inverse has entries up to 2^49: the
        # condition number, about 3 * 2^50, is beyond what the solve accepts
        with pytest.raises(SingularSystemError, match="condition number"):
            solve(BandedToeplitz(50, 0, 1, [1.0, -2.0], np.ones(50)))


class TestAssembleRhs:
    def test_all_zero_problem(self):
        # homogeneous boundary data and zero rhs: no work needed
        duals = dual_coefficients(2)
        moments = [0.0, 0.0, 0.0]
        v = assemble_rhs(4, 2, 1, 1, duals, moments, ([0.0], [0.0]))
        assert v.tolist() == [0.0, 0.0, 0.0]

    def test_straight_line_hand_case(self):
        # y'' = 0, y(0)=0, y(1)=1 at n=2: v = [-1], giving p_1 = 1/2
        duals = dual_coefficients(0)
        moments = [0.0]
        v = assemble_rhs(2, 2, 1, 1, duals, moments, ([0.0], [1.0]))
        assert v.tolist() == pytest.approx([-1.0], abs=1e-15)
        system = assemble_matrix(2, 2, 1, 1).with_rhs(v)
        assert solve(system).tolist() == pytest.approx([0.5], abs=1e-15)

    def test_parabola_hand_case(self):
        # y'' = -2 with zero boundary values: v = [-1], w(x) = x(1-x)
        duals = dual_coefficients(0)
        moments = [-2.0]
        v = assemble_rhs(2, 2, 1, 1, duals, moments, ([0.0], [0.0]))
        assert v.tolist() == pytest.approx([-1.0], abs=1e-15)

    def test_dimension_mismatches(self):
        duals = dual_coefficients(2)
        good = [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            assemble_rhs(5, 2, 1, 1, duals, good, ([0.0], [0.0]))
        with pytest.raises(ValueError):
            assemble_rhs(4, 2, 1, 1, duals, good, ([0.0, 1.0], [0.0]))

    def test_legendre_moments_of_a_polynomial(self):
        # g = x^2 lies in the degree-3 space, so M times its Legendre
        # moments gives its Bernstein coefficients [0, 0, 1/3, 1]; with
        # zero outer coefficients v is those over n!/nu! = 20.  Bernstein
        # moments in their place would give other values for nu >= 1.
        duals = dual_coefficients(3)
        moments, _ = legendre_moments(lambda xs: xs**2, 3, gauss_rule(8))
        v = assemble_rhs(5, 2, 1, 1, duals, moments, ([0.0], [0.0]))
        assert v.tolist() == pytest.approx([0.0, 0.0, 1 / 60, 1 / 20], abs=1e-14)
