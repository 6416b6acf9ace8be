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
    substitution.  For right-hand sides of bounded solutions the residual
    |G p - v|_inf is well within 1e-10 * (1 + |v|_inf) for every split
    k + l = m <= 8 at every n <= 60 (the README gives the measured margin).
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
    offset = np.arange(s) - np.arange(s)[:, None]  # j - i
    a = np.where((offset >= -k) & (offset <= l),
                 system.diagonals[np.clip(offset + k, 0, width)], 0.0)
    v = np.array(system.rhs)
    # only a column with band rows below it is eliminated and pivoted
    for col in range(s - 1 if k else 0):
        lo = min(col + k, s - 1)
        piv = col + int(np.argmax(np.abs(a[col:lo + 1, col])))
        if abs(a[piv, col]) <= tol:
            raise SingularSystemError(col)
        hi = min(col + width + 1, s)
        if piv != col:
            a[[col, piv], col:hi] = a[[piv, col], col:hi]
            v[col], v[piv] = v[piv], v[col]
        for r in range(col + 1, lo + 1):
            f = a[r, col] / a[col, col]
            if f != 0.0:
                a[r, col:hi] -= f * a[col, col:hi]
                v[r] -= f * v[col]
    p = np.zeros(s)
    for i in range(s - 1, -1, -1):
        if abs(a[i, i]) <= tol:
            raise SingularSystemError(i)
        hi = min(i + width, s - 1)
        p[i] = (v[i] - a[i, i + 1:hi + 1] @ p[i + 1:hi + 1]) / a[i, i]
    return p


# perfbench/tracing.py counts solves by these four names, one per band
# shape; they all bind the single elimination above.
_back_substitution = _forward_substitution = _tridiagonal = _banded_lu
