"""Banded Toeplitz systems for the inner Bernstein coefficients.

The matrix couples each row of the m-th forward-difference stencil to the
unknown inner coefficients: entry (i, j) is nonzero only for -k <= j-i <= l
and depends on j-i alone.  One banded LU with partial pivoting solves
every shape in O(size * k * (k+l)) elimination steps.  The solve is plain
float64: the matrices have small integer entries.  The right-hand side
(assemble_rhs) is computed exactly and rounded once per entry, because the
dual coefficients grow like 4^(n-m).
"""

from dataclasses import dataclass
from math import comb, factorial, lcm
from operator import mul

import numpy as np

from .errors import SingularSystemError

__all__ = ["BandedToeplitz", "assemble_matrix", "assemble_rhs", "solve"]

# A pivot below this times the matrix scale signals a singular system; the
# assembled matrices have integer entries, so tiny pivots mean caller bugs.
_PIVOT_RTOL = 1e-13


@dataclass(frozen=True)
class BandedToeplitz:
    """System G p = v with constant diagonals.

    ``diagonals[d + lower_bw]`` is the matrix value on offset d = j - i for
    d in -lower_bw..upper_bw; entries outside that band are zero.
    """

    size: int
    lower_bw: int
    upper_bw: int
    diagonals: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        diags = np.asarray(self.diagonals, dtype=float)
        if diags.size != self.lower_bw + self.upper_bw + 1:
            raise ValueError("diagonals must hold lower_bw + upper_bw + 1 values")
        if not np.all(np.isfinite(diags)):
            raise ValueError("diagonals must be finite")
        rhs = np.asarray(self.rhs, dtype=float)
        if rhs.size != self.size:
            raise ValueError(f"rhs must have length {self.size}")
        diags.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "diagonals", diags)
        object.__setattr__(self, "rhs", rhs)

    def entry(self, i, j):
        """Matrix entry (i, j); zero outside the band."""
        d = j - i
        if -self.lower_bw <= d <= self.upper_bw:
            return float(self.diagonals[d + self.lower_bw])
        return 0.0

    def with_rhs(self, v):
        """Copy of the system carrying a new right-hand side."""
        return BandedToeplitz(self.size, self.lower_bw, self.upper_bw,
                              self.diagonals, np.asarray(v, dtype=float))


def assemble_matrix(n, m, k, l):
    """System matrix for degree n, order m = k + l; rhs zeroed.

    The diagonal at offset d carries (-1)^(l-d) C(m, d+k): the signed
    binomial row of the m-th forward difference.
    """
    if k < 0 or l < 0 or k + l != m:
        raise ValueError(f"need k + l = m with k, l >= 0; got k={k}, l={l}, m={m}")
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    size = n - m + 1
    diags = np.array([(-1.0) ** (l - d) * comb(m, d + k) for d in range(-k, l + 1)])
    return BandedToeplitz(size=size, lower_bw=k, upper_bw=l,
                          diagonals=diags, rhs=np.zeros(size))


def assemble_rhs(n, m, k, l, duals, moments, outer):
    """Right-hand side v of the inner-coefficient system.

    v_i = (n-m)!/n! * sum_q c_iq I_q, minus the stencil terms that touch
    the fixed outer coefficients; the correction sums are empty except in
    the first k rows and the last l rows.

    ``duals`` is the DualCoeffTable of degree n - m.  ``moments`` is a
    MomentVector or a sequence of exact values: floats, ints, ``Fraction``s
    or integer pairs (numerator, denominator) as the solver's moment kernel
    returns them.  ``outer`` is the pair (left, right) with right[j] the
    coefficient at index n - j.  Because the c_iq grow like 4^(n-m), each
    v_i is computed exactly and rounded once to float64: the dot product
    of the table row's integer numerators with the moment numerators (both
    over common denominators) and the stencil terms (over one power of
    two) combine into one integer fraction, and CPython's int/int true
    division rounds it correctly.  OverflowError if it exceeds the float64
    range.
    """
    nu = n - m
    if duals.degree != nu:
        raise ValueError(f"dual table degree {duals.degree} != n - m = {nu}")
    values = getattr(moments, "values", moments)
    if len(values) != nu + 1:
        raise ValueError(f"expected {nu + 1} moments, got {len(values)}")
    left, right = outer
    if len(left) != k or len(right) != l:
        raise ValueError("outer coefficient blocks must have lengths k and l")
    # degree-n coefficients with the inner ones zero: the stencil terms on
    # the outer ones move to the right-hand side
    fixed = np.zeros(n + 1)
    fixed[:k] = left
    fixed[n - l + 1:] = np.asarray(right, dtype=float)[::-1]
    fnum, fden = _over_common_denominator([x.as_integer_ratio() for x in fixed.tolist()])
    stencil = [(-1) ** (m - h) * comb(m, h) for h in range(m + 1)]
    mnum, mden = _over_common_denominator(
        [x if isinstance(x, tuple) else x.as_integer_ratio() for x in values])
    scale = mden * (factorial(n) // factorial(nu))
    v = np.empty(nu + 1)
    for i, (row, den) in enumerate(zip(duals.numerators, duals.denominators)):
        dot = sum(map(mul, row, mnum))
        corr = sum(map(mul, stencil, fnum[i:i + m + 1]))
        v[i] = (dot * fden - corr * den * scale) / (den * scale * fden)
    return v


def _over_common_denominator(ratios):
    """Numerators over the lcm of the denominators of (p, q) pairs."""
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def solve(system):
    """Solve G p = v by banded LU with partial pivoting.

    One elimination serves every band shape: the upper bandwidth grows to
    k + l during elimination, and for k = 0 it reduces to back
    substitution.  The elimination runs on compact band rows of Python
    floats (2k + l + 1 entries each) and the back substitution on numpy
    rows of U, so no dense matrix is formed.  For right-hand sides of
    bounded solutions the residual |G p - v|_inf is well within
    1e-10 * (1 + |v|_inf) for every split k + l = m <= 8 at every n <= 60
    (the README gives the measured margin).
    """
    if system.size < 1:
        raise ValueError("system must have size >= 1")
    k, l = system.lower_bw, system.upper_bw
    tol = _PIVOT_RTOL * max(float(np.abs(system.diagonals).max()), 1.0)
    if k == 0:
        return _back_substitution(system, tol)
    if l == 0:
        return _forward_substitution(system, tol)
    if k == 1 and l == 1:
        return _tridiagonal(system, tol)
    return _banded_lu(system, tol)


def _banded_lu(system, tol):
    s, k, l = system.size, system.lower_bw, system.upper_bw
    width = k + l  # fill-in extends the upper bandwidth to k + l
    diags = system.diagonals.tolist()
    # row i holds columns i - k .. i + width at indices 0 .. k + width;
    # entries outside the band or the matrix are 0
    a = [[diags[d + k] if d <= l and 0 <= i + d < s else 0.0
          for d in range(-k, width + 1)] for i in range(s)]
    v = system.rhs.tolist()
    # only a column with band rows below it is eliminated and pivoted
    for col in range(s - 1 if k else 0):
        lo = min(col + k, s - 1)
        # the first largest |entry|, as np.argmax picks it (NaN first)
        piv, big = col, abs(a[col][k])
        for r in range(col + 1, lo + 1):
            cand = abs(a[r][col - r + k])
            if big == big and not cand <= big:
                piv, big = r, cand
        if big <= tol:
            raise SingularSystemError(col)
        span = min(width + 1, s - col)  # columns col .. col + span - 1
        if piv != col:
            o = col - piv + k
            a[col][k:k + span], a[piv][o:o + span] = a[piv][o:o + span], a[col][k:k + span]
            v[col], v[piv] = v[piv], v[col]
        pivot_row = a[col][k:k + span]
        for r in range(col + 1, lo + 1):
            row, o = a[r], col - r + k
            f = row[o] / pivot_row[0]
            if f != 0.0:
                row[o:o + span] = [x - f * y for x, y in zip(row[o:o + span], pivot_row)]
                v[r] -= f * v[col]
    # numpy's dot on contiguous rows of U: a Python sum would add in a
    # different order than BLAS and change the last bits
    upper = np.array([row[k:] for row in a])
    p = np.zeros(s)
    for i in range(s - 1, -1, -1):
        if abs(upper[i, 0]) <= tol:
            raise SingularSystemError(i)
        h = min(width, s - 1 - i)
        p[i] = (v[i] - upper[i, 1:h + 1] @ p[i + 1:i + h + 1]) / upper[i, 0]
    return p


# perfbench/tracing.py counts solves by these four names, one per band
# shape; they all bind the single elimination above.
_back_substitution = _forward_substitution = _tridiagonal = _banded_lu
