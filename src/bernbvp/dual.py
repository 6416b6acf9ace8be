"""Dual Bernstein basis connection coefficients.

The dual basis D_0^n..D_n^n satisfies <D_i^n, B_j^n> = delta_ij under the
L2 inner product on [0, 1].  Each D_i^n = sum_j c_ij B_j^n, and the table
comes from Juettler's closed form (Adv. Comput. Math. 8, 1998):

    (-1)^(i+j) C(n,i) C(n,j) c_ij = sum_{k <= min(i,j)} (2k+1) a_ik a_jk,
    a_ik = C(n+k+1, n-i) C(n-k, n-i),

in exact integer arithmetic: O(n^3) multiplications of O(n)-digit
integers.  The O(n^2) three-term recurrence for the same table is not
used because at any fixed precision it loses digits (about 22 of 40 by
n = 40).

The entries grow like 4^n (about 8.8e10 at n = 18), so a table rounded to
float64 loses its duality property beyond n ~ 14.  The table is therefore
kept exact, each row as integer numerators over the lcm of the row's
denominators: the form the solver's exact dot products with the moments
need.  ``DualCoeffTable.table`` gives the entries as ``Fraction``s and
``as_array()`` a float64 view for callers that can live with the rounding.

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

    c_ij is exactly ``numerators[i][j] / denominators[i]``; each
    denominator is the lcm of its row's reduced denominators.
    """

    degree: int
    numerators: tuple = field(repr=False)
    denominators: tuple = field(repr=False)

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
    Memoized: equal degrees return the same immutable table.
    """
    return _dual_table(operator.index(n))


# one entry per degree n - m the CLI's degree range (n <= 60) reaches
@functools.lru_cache(maxsize=64)
def _dual_table(n):
    if n < 0:
        raise ValueError("degree must be non-negative")
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
    return DualCoeffTable(degree=n, numerators=nums, denominators=dens)


def bernstein_gram_entry(n, i, j):
    """Exact L2 inner product <B_i^n, B_j^n> on [0, 1].

    Closed form C(n,i) C(n,j) / ((2n+1) C(2n, i+j)); the single float
    division is the only rounding.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range for degree {n}")
    return comb(n, i) * comb(n, j) / ((2 * n + 1) * comb(2 * n, i + j))
