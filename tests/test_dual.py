import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from helpers import bernstein_gram_entry, dual_table, dual_table_array
from mpmath import mp, mpf

from bernbvp import dual
from bernbvp.dual import dual_coefficients


def exact_gram(n):
    return [
        [Fraction(comb(n, i) * comb(n, j), (2 * n + 1) * comb(2 * n, i + j))
         for j in range(n + 1)]
        for i in range(n + 1)
    ]


def gram_inverse(n):
    """Exact inverse of the Bernstein Gram matrix by Fraction elimination."""
    g = exact_gram(n)
    size = n + 1
    aug = [row[:] + [Fraction(int(i == j)) for j in range(size)]
           for i, row in enumerate(g)]
    for col in range(size):
        piv = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


class TestGramEntry:
    def test_known_values(self):
        assert bernstein_gram_entry(0, 0, 0) == 1.0
        assert bernstein_gram_entry(1, 0, 0) == pytest.approx(1 / 3, rel=1e-15)
        assert bernstein_gram_entry(1, 0, 1) == pytest.approx(1 / 6, rel=1e-15)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bernstein_gram_entry(2, 3, 0)

    def test_matches_exact_rationals(self):
        for n in (2, 5, 9):
            g = exact_gram(n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert bernstein_gram_entry(n, i, j) == pytest.approx(
                        float(g[i][j]), rel=1e-15)


class TestDualCoefficients:
    def test_degree_zero(self):
        assert dual_table_array(0).tolist() == [[1.0]]

    def test_degree_one(self):
        assert np.allclose(dual_table_array(1), [[4.0, -2.0], [-2.0, 4.0]], rtol=1e-12)

    def test_starting_row_closed_form(self):
        # c_{0,j} = (-1)^j (n+1) C(n+1, j+1), an exact integer
        for n in (2, 5, 10):
            t = dual_table_array(n)
            expect = [(-1.0) ** j * (n + 1) * comb(n + 1, j + 1) for j in range(n + 1)]
            assert np.allclose(t[0], expect, rtol=1e-13)

    def test_against_exact_gram_inverse(self):
        for n in (1, 2, 3, 4, 6):
            inv = gram_inverse(n)
            t = dual_table_array(n)
            for i in range(n + 1):
                for j in range(n + 1):
                    assert t[i][j] == pytest.approx(float(inv[i][j]), rel=1e-11)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            dual_coefficients(-1)

    def test_memoized_table_is_shared_and_immutable(self):
        t = dual_coefficients(9)
        assert dual_coefficients(9) is t
        with pytest.raises(FrozenInstanceError):
            t.legendre_numerators = ()
        with pytest.raises(TypeError):
            t.legendre_numerators[0] = ()
        with pytest.raises(TypeError):
            t.legendre_numerators[2][3] = 0
        with pytest.raises(TypeError):
            dual_coefficients(9.0)

    def test_duality_against_gram(self):
        # dual table times the exact Gram is the identity (max entry 1e-9)
        for n in range(0, 21):
            t = dual_table(n)
            g = exact_gram(n)
            with mp.workdps(40):
                worst = 0.0
                for i in range(n + 1):
                    for j in range(n + 1):
                        acc = mpf(0)
                        for q in range(n + 1):
                            gq = g[q][j]
                            acc += t[i][q] * mpf(gq.numerator) / gq.denominator
                        target = 1.0 if i == j else 0.0
                        worst = max(worst, abs(float(acc - target)))
            assert worst < 1e-9, f"duality failed at n={n}: {worst}"

    def test_exact_duality_at_degree_58(self):
        # near the CLI's degree cap: rows of the table times the exact Gram
        # matrix are exactly rows of the identity
        n = 58
        t = dual_table(n)
        g = exact_gram(n)
        for i in (0, 29, 58):
            row = [sum(t[i][q] * g[q][j] for q in range(n + 1)) for j in range(n + 1)]
            assert row == [int(i == j) for j in range(n + 1)], i

    def test_legendre_factorization_is_exact(self):
        # M diag(2j+1) M^T, with M[r, j] the Bernstein coefficients of the
        # shifted Legendre polynomial P_j, is the table, and the table times
        # the exact Gram matrix is the identity, entry for entry
        for n in range(0, 21):
            t = dual_coefficients(n)
            mat = [[Fraction(a, comb(n, r)) for a in row]
                   for r, row in enumerate(t.legendre_numerators)]
            prod = [[sum(mat[i][j] * (2 * j + 1) * mat[q][j] for j in range(n + 1))
                     for q in range(n + 1)] for i in range(n + 1)]
            assert prod == [list(row) for row in dual_table(n)], n
            g = exact_gram(n)
            ident = [[sum(prod[i][q] * g[q][j] for q in range(n + 1)) for j in range(n + 1)]
                     for i in range(n + 1)]
            assert ident == [[int(i == j) for j in range(n + 1)] for i in range(n + 1)], n

    def test_legendre_rows_are_correctly_rounded_and_read_only(self):
        for n in (0, 1, 7, 30, 58):
            t = dual_coefficients(n)
            rows = t.legendre_numerators
            assert all(type(a) is int for row in rows for a in row)
            # P_j(0) = (-1)^j and P_j(1) = 1 at the first and last rows
            assert rows[0] == tuple((-1) ** j for j in range(n + 1))
            assert rows[n] == (1,) * (n + 1)
            want = [[a / comb(n, r) for a in row] for r, row in enumerate(rows)]
            assert t.legendre.tolist() == want
            with pytest.raises(ValueError):
                t.legendre[0, 0] = 0.0

    def test_pascal_numerators_match_the_closed_form(self):
        # N[r, j] = sum_i (-1)^(i+j) C(j, i)^2 C(n-j, r-i), built cold (no
        # table cached, so up from degree 0) and elevated from the degree
        # below, in an order that skips up and down
        def closed(n):
            return tuple(tuple(sum((-1) ** (i + j) * comb(j, i) ** 2 * comb(n - j, r - i)
                                   for i in range(min(j, r) + 1))
                               for j in range(n + 1))
                         for r in range(n + 1))

        want = [closed(n) for n in range(61)]
        for n in range(61):
            dual._dual_table.cache_clear()
            assert dual_coefficients(n).legendre_numerators == want[n], n
        dual._dual_table.cache_clear()
        for n in (5, 4, 30, 31, 60, 17, 59, 0, 1, 2, 45):
            assert dual_coefficients(n).legendre_numerators == want[n], n
        assert [t.legendre_numerators for t in map(dual_coefficients, range(61))] == want

    def test_cold_table_recursion_is_bounded(self):
        # a cold table of degree 200 under a recursion limit of 300 climbs
        # in bounded steps and equals the table of a climb from degree 0
        import bernbvp

        code = """if True:
            import sys
            sys.setrecursionlimit(300)
            from bernbvp import dual
            cold = dual.dual_coefficients(200)
            dual._dual_table.cache_clear()
            climbed = [dual.dual_coefficients(n) for n in range(201)][-1]
            assert cold.legendre_numerators == climbed.legendre_numerators
            assert cold.legendre.tobytes() == climbed.legendre.tobytes()
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bernbvp.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert out.returncode == 0, out.stderr

    def test_symmetries(self):
        for n in (3, 8, 14, 20):
            a = dual_table_array(n)
            scale = np.abs(a).max()
            assert np.abs(a - a.T).max() <= 1e-10 * scale
            assert np.abs(a - a[::-1, ::-1]).max() <= 1e-10 * scale

    def test_projection_reproduces_polynomials(self):
        # <p, D_i> recovers p's own coefficients (moments via the exact Gram)
        rng = np.random.default_rng(23)
        for n in (1, 4, 9, 15):
            coeffs = rng.uniform(-1, 1, n + 1)
            g = np.array([[bernstein_gram_entry(n, i, j) for j in range(n + 1)]
                          for i in range(n + 1)])
            moments = g @ coeffs
            table = dual_table_array(n)
            recovered = table @ moments
            assert np.allclose(recovered, coeffs, atol=1e-9)
