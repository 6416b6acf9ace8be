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
``legendre_numerators`` the integers N[r, j] = C(n,r) M[r, j], from
which the rows are rounded and each degree's table is elevated to the
next.  |M| stays below about 2^n, while the c_ij
grow like 4^n (about 8.8e10 at n = 18), so C itself rounded to float64
loses its duality property beyond n ~ 14.  The solver never forms C; the
tests form it exactly from N and check it against the exact inverse of
the Bernstein Gram matrix.

Tables are memoized per degree, so each degree is built once per process.
The integers N of degree n are elevated from those of degree n - 1 by
Pascal's rule, N_n[r, j] = N_(n-1)[r-1, j] + N_(n-1)[r, j] (j < n), plus
the column of P_n: one degree of integer additions when the solver raises
the degree by one.  A cold table of degree n builds every degree below it
first, in steps of 64 degrees, so the recursion stays 64 levels deep.
"""

import functools
import operator
from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = ["DualCoeffTable", "dual_coefficients"]

# most degrees a cold table builds by recursion; the LRU below holds twice
# as many
_CLIMB = 64


@dataclass(frozen=True)
class DualCoeffTable:
    """The Legendre factor M of the dual basis's connection coefficients
    C = M diag(2j + 1) M^T at degree n.

    ``legendre_numerators[r][j] / C(n, r)`` is the Legendre-to-Bernstein
    entry M[r, j] exactly, and ``legendre`` the float64 matrix of those
    entries, each correctly rounded (read-only).
    """

    degree: int
    legendre_numerators: tuple = field(repr=False)
    legendre: np.ndarray = field(repr=False, compare=False)


def dual_coefficients(n):
    """Connection-coefficient table of the dual Bernstein basis of degree n.

    n must be an integer (``operator.index``; TypeError otherwise).
    Memoized: equal degrees return the same immutable table.
    """
    n = operator.index(n)
    # a cold build recurses once per missing degree: climb to n in steps
    for d in range(n % _CLIMB, n, _CLIMB):
        _dual_table(d)
    return _dual_table(n)


# one entry per degree n - m, with room for every degree the CLI's range
# (n <= 60) reaches
@functools.lru_cache(maxsize=128)
def _dual_table(n):
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n == 0:
        rows = ((1,),)
    else:
        # N_n[r, j] = N_(n-1)[r-1, j] + N_(n-1)[r, j] for j < n, then the
        # column of P_n, (-1)^(r+n) C(n, r)^2
        padded = ((0,) * n, *_dual_table(n - 1).legendre_numerators, (0,) * n)
        rows = tuple((*map(operator.add, a, b), (-1) ** (r + n) * comb(n, r) ** 2)
                     for r, (a, b) in enumerate(zip(padded, padded[1:])))
    binomials = [comb(n, r) for r in range(n + 1)]
    legendre = np.array([[a / c for a in row] for c, row in zip(binomials, rows)])
    legendre.setflags(write=False)
    return DualCoeffTable(degree=n, legendre_numerators=rows, legendre=legendre)
