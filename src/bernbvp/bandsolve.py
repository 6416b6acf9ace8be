"""Banded Toeplitz systems for the inner Bernstein coefficients.

The matrix couples each row of the m-th forward-difference stencil to the
unknown inner coefficients: entry (i, j) is nonzero only for -k <= j-i <= l
and depends on j-i alone.  One banded LU with partial pivoting solves
every shape in O(size * k * (k+l)) elimination steps.  The factors depend
on the matrix alone, so each (size, band) is factored once per process and
every later system of that shape only applies them.  Each solve then takes
one refinement step: the residual v - G p is computed exactly (every
entry of G, p and v is a float64, so a dyadic rational) and rounded once,
and the correction solved with the same factors is added.

The right-hand side (assemble_rhs) combines Legendre moments with the
Legendre-to-Bernstein matrix in float64, except in the k + l rows that
also carry the boundary stencil terms: those cancel digits, so they are
computed exactly and rounded once.
"""

import functools
from dataclasses import dataclass
from math import comb, factorial
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
    return BandedToeplitz(size=size, lower_bw=k, upper_bw=l,
                          diagonals=np.array(_stencil(k, l)), rhs=np.zeros(size))


def _stencil(k, l):
    """The diagonals of the stencil matrices of band (k, l)."""
    return [(-1.0) ** (l - d) * comb(k + l, d + k) for d in range(-k, l + 1)]


def assemble_rhs(n, m, k, l, duals, legendre_moments, outer):
    """Right-hand side v of the inner-coefficient system.

    v_i = (n-m)!/n! * sum_j M_ij L_j, minus the stencil terms that touch
    the fixed outer coefficients; the correction sums are empty except in
    the first k rows and the last l rows.

    ``duals`` is the DualCoeffTable of degree nu = n - m, whose Legendre
    factor M turns the Legendre moments L_j = (2j+1) <g, P_j> (j = 0..nu,
    from ``quadrature.legendre_moments``) into the Bernstein coefficients
    of the projection of g: sum_j M_ij L_j = sum_q c_iq <g, B_q^nu>.
    ``legendre_moments`` is a sequence of those nu + 1 floats (Bernstein
    moments, as ``quadrature.moment_integrals`` returns them, do not fit
    here); ``outer`` is the pair (left, right) with right[j] the
    coefficient at index n - j.

    Every row is one float64 product with the rows of M, except the rows
    with stencil terms, whose two parts cancel: each of those is computed
    exactly, from M's integer numerators, the moments and the stencil
    terms as dyadic rationals, and rounded once.  OverflowError if an
    entry of v is not finite.
    """
    nu = n - m
    if duals.degree != nu:
        raise ValueError(f"dual table degree {duals.degree} != n - m = {nu}")
    values = np.asarray(legendre_moments, dtype=float)
    if values.shape != (nu + 1,):
        raise ValueError(f"expected {nu + 1} moments, got {values.size}")
    left, right = outer
    if len(left) != k or len(right) != l:
        raise ValueError("outer coefficient blocks must have lengths k and l")
    if not np.isfinite(values).all():
        raise OverflowError("moments are not finite")
    scale = factorial(n) // factorial(nu)
    with np.errstate(over="ignore", invalid="ignore"):
        v = (duals.legendre @ values) / float(scale)
    # degree-n coefficients with the inner ones zero: the stencil terms on
    # the outer ones move to the right-hand side
    fixed = np.zeros(n + 1)
    fixed[:k] = left
    fixed[n - l + 1:] = np.asarray(right, dtype=float)[::-1]
    fnum, fs = _dyadic(fixed.tolist())
    lnum, ls = _dyadic(values.tolist())
    stencil = [(-1) ** (m - h) * comb(m, h) for h in range(m + 1)]
    for i in (i for i in range(nu + 1) if i < k or i > nu - l):
        den = comb(nu, i) * scale
        dot = sum(map(mul, duals.legendre_numerators[i], lnum))
        corr = sum(map(mul, stencil, fnum[i:i + m + 1]))
        v[i] = ((dot << fs) - ((corr * den) << ls)) / (den << (ls + fs))
    if not np.isfinite(v).all():
        raise OverflowError("system right-hand side overflows float64")
    return v


def _dyadic(values):
    """Integers N_t and s with N_t / 2^s == values[t], for finite floats."""
    ratios = [x.as_integer_ratio() for x in values]
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


def solve(system):
    """Solve G p = v by banded LU with partial pivoting and one refinement
    step.

    One elimination serves every band shape: the upper bandwidth grows to
    k + l during elimination, and for k = 0 it reduces to back
    substitution.  The factors of the stencil matrices that
    ``assemble_matrix`` builds are cached per (size, k, l)
    (``_band_factors``), so a solve applies them twice, to v and to the
    exactly computed residual, at O(size * (k + l)) cost each; any other
    diagonals are factored afresh.  For
    right-hand sides of bounded solutions the residual |G p - v|_inf is
    well within 1e-10 * (1 + |v|_inf) for every split k + l = m <= 8 at
    every n <= 60 (the README gives the measured margin).
    """
    if system.size < 1:
        raise ValueError("system must have size >= 1")
    k, l = system.lower_bw, system.upper_bw
    if k == 0:
        return _back_substitution(system)
    if l == 0:
        return _forward_substitution(system)
    if k == 1 and l == 1:
        return _tridiagonal(system)
    return _banded_lu(system)


def _banded_lu(system):
    factors = _factor(system)
    v = system.rhs.tolist()
    p = factors.apply(v)
    if not (np.isfinite(p).all() and np.isfinite(system.rhs).all()):
        return p
    return p + factors.apply(_residual(system, p))


def _residual(system, p):
    """v - G p, exact on the float64 entries, rounded once per entry."""
    k, l = system.lower_bw, system.upper_bw
    dnum, ds = _dyadic(system.diagonals.tolist())
    pnum, ps = _dyadic(p.tolist())
    vnum, vs = _dyadic(system.rhs.tolist())
    e = max(vs, ds + ps)
    sv, sp, den = e - vs, e - ds - ps, 1 << e
    pnum = [0] * k + pnum + [0] * l  # row i meets pnum[i:i + k + l + 1]
    w = k + l + 1
    return [((x << sv) - (sum(map(mul, dnum, pnum[i:i + w])) << sp)) / den
            for i, x in enumerate(vnum)]


def _factor(system):
    """The LU factors of the system's matrix, cached for stencil matrices."""
    k, l = system.lower_bw, system.upper_bw
    diags = system.diagonals.tolist()
    if diags == _stencil(k, l):
        return _band_factors(system.size, k, l)
    return _factorize(system.size, k, l, diags)


class _BandFactors:
    """Row exchanges, multipliers and U rows of one banded LU."""

    def __init__(self, size, steps, rows):
        self.size = size
        self.steps = steps  # (col, pivot row, ((row, multiplier), ...))
        # (i, U_ii, dot with U_i,i+1..U_i,i+h, i + 1, i + h + 1), bottom up
        self.rows = rows

    def apply(self, v):
        """Solve with the factors for the right-hand side v, a sequence
        of floats: the same operations, in the same order, as eliminating
        with v attached."""
        v = list(v)
        for col, piv, mults in self.steps:
            if piv != col:
                v[col], v[piv] = v[piv], v[col]
            x = v[col]
            for r, f in mults:
                v[r] -= f * x
        # numpy's dot on contiguous rows of U: a Python sum would add in a
        # different order than BLAS and change the last bits
        p = np.zeros(self.size)
        for i, d, dot, lo, hi in self.rows:
            p[i] = (v[i] - dot(p[lo:hi])) / d if hi > lo else v[i] / d
        return p


# a solve to degree N uses one shape per degree, N - m + 1 of them; an
# examples-n40 pass uses 190, all kept
@functools.lru_cache(maxsize=1024)
def _band_factors(size, k, l):
    return _factorize(size, k, l, _stencil(k, l))


def _factorize(size, k, l, diags):
    s, width = size, k + l  # fill-in extends the upper bandwidth to k + l
    # a pivot below this signals a singular matrix
    tol = _PIVOT_RTOL * max(max(map(abs, diags)), 1.0)
    # row i holds columns i - k .. i + width at indices 0 .. k + width;
    # entries outside the band or the matrix are 0
    a = [[diags[d + k] if d <= l and 0 <= i + d < s else 0.0
          for d in range(-k, width + 1)] for i in range(s)]
    steps = []
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
        pivot_row = a[col][k:k + span]
        mults = []
        for r in range(col + 1, lo + 1):
            row, o = a[r], col - r + k
            f = row[o] / pivot_row[0]
            if f != 0.0:
                row[o:o + span] = [x - f * y for x, y in zip(row[o:o + span], pivot_row)]
                mults.append((r, f))
        steps.append((col, piv, tuple(mults)))
    upper = np.array([row[k:] for row in a])
    rows = []
    for i in range(s - 1, -1, -1):
        if abs(upper[i, 0]) <= tol:
            raise SingularSystemError(i)
        h = min(width, s - 1 - i)
        rows.append((i, upper[i, 0].item(), upper[i, 1:h + 1].copy().dot, i + 1, i + h + 1))
    return _BandFactors(s, tuple(steps), tuple(rows))


# perfbench/tracing.py counts solves by these four names, one per band
# shape; they all bind the single elimination above.
_back_substitution = _forward_substitution = _tridiagonal = _banded_lu
