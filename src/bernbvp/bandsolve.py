"""Banded Toeplitz systems for the inner Bernstein coefficients.

The matrix couples each row of the m-th forward-difference stencil to the
unknown inner coefficients: entry (i, j) is nonzero only for -k <= j-i <= l
and depends on j-i alone.  Gaussian elimination specialised to the band is
exact-cost O(size * k * (k+l)); the triangular and tridiagonal shapes get
dedicated paths.  The solve is plain float64: the matrices have small
integer entries, and extended precision is spent only on the right-hand
side (assemble_rhs), where the dual coefficients grow like 4^(n-m).
"""

from dataclasses import dataclass
from math import comb, factorial

import numpy as np
from mpmath import mpf

from ._mp import workprec
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

    ``duals`` is the DualCoeffTable of degree n - m, ``moments`` a
    MomentVector (or plain sequence, possibly of mpf values), ``outer``
    the pair (left, right) with right[j] the coefficient at index n - j.
    The combination runs at extended precision because the c_iq grow like
    4^(n-m); the returned vector is float64.
    """
    nu = n - m
    ctab = duals.table
    if duals.degree != nu:
        raise ValueError(f"dual table degree {duals.degree} != n - m = {nu}")
    values = getattr(moments, "values", moments)
    if len(values) != nu + 1:
        raise ValueError(f"expected {nu + 1} moments, got {len(values)}")
    left, right = outer
    if len(left) != k or len(right) != l:
        raise ValueError("outer coefficient blocks must have lengths k and l")

    def outer_coeff(idx):
        if idx < k:
            return float(left[idx])
        return float(right[n - idx])

    with workprec():
        scale = mpf(factorial(nu)) / factorial(n)
        mvals = [mpf(v) if not isinstance(v, mpf) else v for v in values]
        v = np.empty(nu + 1)
        for i in range(nu + 1):
            acc = mpf(0)
            row = ctab[i]
            for q in range(nu + 1):
                acc += row[q] * mvals[q]
            acc *= scale
            for h in range(0, k - i):
                acc -= (-1) ** (m - h) * comb(m, h) * mpf(outer_coeff(i + h))
            for h in range(n - l - i + 1, m + 1):
                acc -= (-1) ** (m - h) * comb(m, h) * mpf(outer_coeff(i + h))
            v[i] = float(acc)
    return v


def solve(system):
    """Solve G p = v, dispatching on the band shape.

    k = 0 gives back substitution, l = 0 forward substitution, k = l = 1
    tridiagonal elimination; anything else goes through banded LU with
    partial pivoting (the upper bandwidth grows to k + l during
    elimination).  For right-hand sides of bounded solutions the residual
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


def _back_substitution(system, tol):
    s, l = system.size, system.upper_bw
    diag = system.diagonals  # offsets 0..l
    if abs(diag[0]) <= tol:
        raise SingularSystemError(s - 1)
    p = np.zeros(s)
    for i in range(s - 1, -1, -1):
        acc = system.rhs[i]
        for d in range(1, min(l, s - 1 - i) + 1):
            acc -= diag[d] * p[i + d]
        p[i] = acc / diag[0]
    return p


def _forward_substitution(system, tol):
    s, k = system.size, system.lower_bw
    diag = system.diagonals  # offsets -k..0
    if abs(diag[k]) <= tol:
        raise SingularSystemError(0)
    p = np.zeros(s)
    for i in range(s):
        acc = system.rhs[i]
        for d in range(1, min(k, i) + 1):
            acc -= diag[k - d] * p[i - d]
        p[i] = acc / diag[k]
    return p


def _tridiagonal(system, tol):
    s = system.size
    lo, dg, up = system.diagonals
    b = np.full(s, dg)
    v = np.array(system.rhs)
    for i in range(1, s):
        if abs(b[i - 1]) <= tol:
            raise SingularSystemError(i - 1)
        w = lo / b[i - 1]
        b[i] -= w * up
        v[i] -= w * v[i - 1]
    if abs(b[s - 1]) <= tol:
        raise SingularSystemError(s - 1)
    p = np.zeros(s)
    p[s - 1] = v[s - 1] / b[s - 1]
    for i in range(s - 2, -1, -1):
        p[i] = (v[i] - up * p[i + 1]) / b[i]
    return p


def _banded_lu(system, tol):
    s, k, l = system.size, system.lower_bw, system.upper_bw
    width = k + l  # fill-in extends the upper bandwidth to k + l
    offset = np.arange(s) - np.arange(s)[:, None]  # j - i
    a = np.where((offset >= -k) & (offset <= l),
                 system.diagonals[np.clip(offset + k, 0, width)], 0.0)
    v = np.array(system.rhs)
    for col in range(s):
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
        hi = min(i + width, s - 1)
        p[i] = (v[i] - a[i, i + 1:hi + 1] @ p[i + 1:hi + 1]) / a[i, i]
    return p
