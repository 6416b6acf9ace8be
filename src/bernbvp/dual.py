"""Dual Bernstein basis connection coefficients.

The dual basis D_0^n..D_n^n satisfies <D_i^n, B_j^n> = delta_ij under the
L2 inner product on [0, 1].  Each D_i^n = sum_j c_ij B_j^n, and the full
(n+1) x (n+1) coefficient table is produced row-by-row in O(n^2) by a
three-term recurrence.

The entries grow like 4^n (about 8.8e10 at n = 18), so a table rounded to
float64 loses its duality property beyond n ~ 14.  The table is therefore
computed and stored at extended precision; ``DualCoeffTable.as_array()``
gives a float64 view for callers that can live with the rounding.
"""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from ._mp import ctx

__all__ = ["DualCoeffTable", "dual_coefficients", "bernstein_gram_entry"]


@dataclass(frozen=True)
class DualCoeffTable:
    """Connection coefficients c_ij for the dual basis of degree n.

    ``table[i][j]`` is an mpf of the solver's private mpmath context
    (``_mp.ctx``, working precision).  It is not an instance of
    ``mpmath.mpf``, but ``float()`` and mixed arithmetic work as usual.
    """

    degree: int
    table: tuple = field(repr=False)

    def as_array(self):
        """The table rounded to a float64 matrix."""
        return np.array([[float(x) for x in row] for row in self.table])


def _dual_rows(nu):
    """The recurrence at working precision; returns a list of mpf rows."""
    c = [[ctx.mpf(0)] * (nu + 1) for _ in range(nu + 1)]
    for j in range(nu + 1):  # an exact integer, rounded once
        c[0][j] = ctx.mpf((-1) ** j * (nu + 1) * comb(nu + 1, j + 1))

    def a(u):
        return ctx.mpf((u - nu) * (u + 1))

    def b(u):
        return ctx.mpf(u * (u - nu - 1))

    # a(i) = (i-nu)(i+1) never vanishes for i = 0..nu-1
    for i in range(nu):
        for j in range(nu + 1):
            t = 2 * (i - j) * (i + j - nu) * c[i][j]
            if j > 0:
                t += b(j) * c[i][j - 1]
            if j < nu:
                t += a(j) * c[i][j + 1]
            if i > 0:
                t -= b(i) * c[i - 1][j]
            c[i + 1][j] = t / a(i)
    return c


def dual_coefficients(n):
    """Connection-coefficient table of the dual Bernstein basis of degree n."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    rows = _dual_rows(n)
    return DualCoeffTable(degree=n, table=tuple(tuple(row) for row in rows))


def bernstein_gram_entry(n, i, j):
    """Exact L2 inner product <B_i^n, B_j^n> on [0, 1].

    Closed form C(n,i) C(n,j) / ((2n+1) C(2n, i+j)); the single float
    division is the only rounding.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range for degree {n}")
    return comb(n, i) * comb(n, j) / ((2 * n + 1) * comb(2 * n, i + j))
