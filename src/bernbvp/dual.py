"""Dual Bernstein basis connection coefficients.

The dual basis D_0^n..D_n^n satisfies <D_i^n, B_j^n> = delta_ij under the
L2 inner product on [0, 1].  Each D_i^n = sum_j c_ij B_j^n, and the table
C = (c_ij) factors through the shifted Legendre polynomials P_j(2x - 1),
whose squared norm on [0, 1] is 1/(2j + 1):

    C = M diag(2j + 1) M^T,
    M[r, j] = sum_i (-1)^(i+j) C(j,i)^2 C(n-j, r-i) / C(n,r),

where column j of M holds the degree-n Bernstein coefficients of P_j
(Farouki, J. Comput. Appl. Math. 119, 2000).  So sum_q c_rq <g, B_q^n>,
the r-th Bernstein coefficient of the L2 projection of g, is the r-th row
of M applied to the Legendre moments (2j + 1) <g, P_j>.  The solver uses
exactly that: ``DualCoeffTable.legendre`` holds M rounded to float64 and
``legendre_numerators`` the integers N[r, j] = C(n,r) M[r, j], for the
few rows it combines exactly.  |M| stays below about 2^n, while the c_ij
grow like 4^n (about 8.8e10 at n = 18), so C itself rounded to float64
loses its duality property beyond n ~ 14 and is never formed by the
solver.

The table itself, ``numerators``/``denominators``, ``table`` and
``as_array()``, comes from Juettler's closed form (Adv. Comput. Math. 8,
1998) in exact integer arithmetic,

    (-1)^(i+j) C(n,i) C(n,j) c_ij = sum_{k <= min(i,j)} (2k+1) a_ik a_jk,
    a_ik = C(n+k+1, n-i) C(n-k, n-i),

and is built on first access only: O(n^3) multiplications of O(n)-digit
integers.  It is the reference the factorization is tested against.

Tables are memoized per degree, so each degree is built once per process.
"""

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import numpy as np

__all__ = ["DualCoeffTable", "dual_coefficients", "bernstein_gram_entry"]


@dataclass(frozen=True)
class DualCoeffTable:
    """Connection coefficients c_ij for the dual basis of degree n.

    ``legendre_numerators[r][j] / C(n, r)`` is the Legendre-to-Bernstein
    entry M[r, j] exactly, and ``legendre`` the float64 matrix of those
    entries, each correctly rounded (read-only).  The entries c_ij are
    ``numerators[i][j] / denominators[i]`` exactly, each denominator the
    lcm of its row's reduced denominators.
    """

    degree: int
    legendre_numerators: tuple = field(repr=False)
    legendre: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def _exact_rows(self):
        n = self.degree
        a = [[comb(n + k + 1, n - i) * comb(n - k, n - i) for k in range(i + 1)]
             for i in range(n + 1)]
        b = [[(2 * k + 1) * x for k, x in enumerate(row)] for row in a]
        binom = [comb(n, i) for i in range(n + 1)]
        c = [[None] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(i, n + 1):
                s = sum(x * y for x, y in zip(a[i], b[j]))  # k = 0..i
                c[i][j] = c[j][i] = Fraction(-s if (i + j) % 2 else s,
                                             binom[i] * binom[j])
        dens = tuple(lcm(*(x.denominator for x in row)) for row in c)
        nums = tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                     for row, d in zip(c, dens))
        return nums, dens

    @property
    def numerators(self):
        """Row i of the table as integers over ``denominators[i]``."""
        return self._exact_rows[0]

    @property
    def denominators(self):
        return self._exact_rows[1]

    @functools.cached_property
    def table(self):
        """``table[i][j]`` is c_ij as an exact ``fractions.Fraction``."""
        return tuple(tuple(Fraction(a, d) for a in row)
                     for row, d in zip(self.numerators, self.denominators))

    def as_array(self):
        """The table rounded to a float64 matrix."""
        return np.array([[a / d for a in row]
                         for row, d in zip(self.numerators, self.denominators)])


def dual_coefficients(n):
    """Connection-coefficient table of the dual Bernstein basis of degree n.

    n must be an integer (``operator.index``; TypeError otherwise).
    Memoized: equal degrees return the same immutable table, with its
    Legendre factor built and the table entries built on first access.
    """
    return _dual_table(operator.index(n))


# one entry per degree n - m, with room for every degree the CLI's range
# (n <= 60) reaches
@functools.lru_cache(maxsize=128)
def _dual_table(n):
    if n < 0:
        raise ValueError("degree must be non-negative")
    # column j of N: the coefficients of P_j in degree j, (-1)^(i+j) C(j,i)
    # times the elevation weight C(j,i), convolved with C(n-j, .)
    cols = [np.convolve(np.array([(-1) ** (i + j) * comb(j, i) ** 2 for i in range(j + 1)],
                                 dtype=object),
                        np.array([comb(n - j, s) for s in range(n - j + 1)], dtype=object))
            for j in range(n + 1)]
    rows = tuple(tuple(int(col[r]) for col in cols) for r in range(n + 1))
    legendre = np.array([[a / comb(n, r) for a in row] for r, row in enumerate(rows)])
    legendre.setflags(write=False)
    return DualCoeffTable(degree=n, legendre_numerators=rows, legendre=legendre)


def bernstein_gram_entry(n, i, j):
    """Exact L2 inner product <B_i^n, B_j^n> on [0, 1].

    Closed form C(n,i) C(n,j) / ((2n+1) C(2n, i+j)); the single float
    division is the only rounding.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range for degree {n}")
    return comb(n, i) * comb(n, j) / ((2 * n + 1) * comb(2 * n, i + j))
