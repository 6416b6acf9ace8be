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

The table itself, ``table`` as exact ``fractions.Fraction``s and
``as_array()`` as their float64 roundings, is that product formed exactly
from the integers N,

    c_iq = sum_j (2j + 1) N[i, j] N[q, j] / (C(n,i) C(n,q)),

on first access only: about n^3 / 2 multiplications of O(n)-digit
integers, as the table is symmetric and only the entries with q >= i are
formed.  The solver never forms it; the tests check it against the exact
inverse of the Bernstein Gram matrix.

Tables are memoized per degree, so each degree is built once per process.
The integers N of a new degree are elevated, by Pascal's rule
N_n[r, j] = N_(n-1)[r-1, j] + N_(n-1)[r, j] (j < n) plus the column of
P_n, from the highest degree below it whose table is still alive: one
degree of integer additions when the solver raises the degree by one.
"""

import functools
import operator
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

__all__ = ["DualCoeffTable", "dual_coefficients", "bernstein_gram_entry"]


@dataclass(frozen=True)
class DualCoeffTable:
    """Connection coefficients c_ij for the dual basis of degree n.

    ``legendre_numerators[r][j] / C(n, r)`` is the Legendre-to-Bernstein
    entry M[r, j] exactly, and ``legendre`` the float64 matrix of those
    entries, each correctly rounded (read-only).
    """

    degree: int
    legendre_numerators: tuple = field(repr=False)
    legendre: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def table(self):
        """``table[i][j]`` is c_ij as an exact ``fractions.Fraction``.

        The table is symmetric: the entries with q >= i are formed and
        mirrored, so each entry below the diagonal is the same object as
        its transpose.
        """
        n, rows = self.degree, self.legendre_numerators
        weighted = [[(2 * j + 1) * a for j, a in enumerate(row)] for row in rows]
        upper = [[Fraction(sum(map(operator.mul, wi, rows[q])), comb(n, i) * comb(n, q))
                  for q in range(i, n + 1)]
                 for i, wi in enumerate(weighted)]
        return tuple(tuple(upper[q][i - q] for q in range(i)) + tuple(upper[i])
                     for i in range(n + 1))

    def as_array(self):
        """The table, each entry correctly rounded to float64."""
        return np.array([[float(c) for c in row] for row in self.table])


def dual_coefficients(n):
    """Connection-coefficient table of the dual Bernstein basis of degree n.

    n must be an integer (``operator.index``; TypeError otherwise).
    Memoized: equal degrees return the same immutable table, with its
    Legendre factor built and the table entries built on first access.
    """
    return _dual_table(operator.index(n))


# every table alive, by degree: a new degree is elevated from the highest
# one below it
_tables = weakref.WeakValueDictionary()


# one entry per degree n - m, with room for every degree the CLI's range
# (n <= 60) reaches
@functools.lru_cache(maxsize=128)
def _dual_table(n):
    if n < 0:
        raise ValueError("degree must be non-negative")
    rows, d = ((1,),), 0
    for below in range(n - 1, 0, -1):
        table = _tables.get(below)
        if table is not None:
            rows, d = table.legendre_numerators, below
            break
    # elevate to degree d by Pascal's rule, N_d[r, j] = N_(d-1)[r-1, j] +
    # N_(d-1)[r, j] for j < d, and append the column of P_d, (-1)^(r+d) C(d, r)^2
    for d in range(d + 1, n + 1):
        padded = ((0,) * d, *rows, (0,) * d)
        rows = tuple((*map(operator.add, a, b), (-1) ** (r + d) * comb(d, r) ** 2)
                     for r, (a, b) in enumerate(zip(padded, padded[1:])))
    binomials = [comb(n, r) for r in range(n + 1)]
    legendre = np.array([[a / c for a in row] for c, row in zip(binomials, rows)])
    legendre.setflags(write=False)
    table = DualCoeffTable(degree=n, legendre_numerators=rows, legendre=legendre)
    _tables[n] = table
    return table


def bernstein_gram_entry(n, i, j):
    """Exact L2 inner product <B_i^n, B_j^n> on [0, 1].

    Closed form C(n,i) C(n,j) / ((2n+1) C(2n, i+j)); the single float
    division is the only rounding.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range for degree {n}")
    return comb(n, i) * comb(n, j) / ((2 * n + 1) * comb(2 * n, i + j))
