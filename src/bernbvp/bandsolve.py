"""Banded Toeplitz systems for the inner Bernstein coefficients.

The matrix couples each row of the m-th forward-difference stencil to the
unknown inner coefficients: entry (i, j) is nonzero only for -k <= j-i <= l
and depends on j-i alone.  Every shape is solved the same way: the matrix
and its inverse, which depend on its size and diagonals alone, are built
once per process and cached, and a solve is one product with the inverse
followed by one refinement step.  The step computes the residual v - G p
exactly (every entry of G, p and v is a float64, so a dyadic rational),
rounds it once and adds the correction that the same inverse gives.  For
the stencil matrices, whose diagonals are small integers, p is split into
a few parts whose products with G are exact, and ``math.fsum`` rounds
each row of v minus those products once.

The right-hand side (assemble_rhs) combines Legendre moments with the
Legendre-to-Bernstein matrix in float64, except in the k + l rows that
also carry the boundary stencil terms: those cancel digits, so they are
computed exactly and rounded once.
"""

import functools
import math
from dataclasses import dataclass
from math import comb, factorial
from operator import mul

import numpy as np

from .errors import SingularSystemError

__all__ = ["BandedToeplitz", "assemble_matrix", "assemble_rhs", "solve"]

# A matrix whose infinity-norm condition number |G| |G^-1| reaches this is
# treated as singular: its inverse leaves too few digits for the refinement
# step to recover.  The stencil matrices stay below 7e11 up to m = 8 and
# n = 60 (m = k = 8, n = 60 is the worst).
_MAX_CONDITION = 1e13


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
        if not np.isfinite(diags).all():
            raise ValueError("diagonals must be finite")
        diags.setflags(write=False)
        object.__setattr__(self, "diagonals", diags)
        object.__setattr__(self, "rhs", self._rhs_array(self.rhs))

    def _rhs_array(self, v):
        """v as a read-only float64 array, checked to have length size."""
        rhs = np.asarray(v, dtype=float)
        if rhs.size != self.size:
            raise ValueError(f"rhs must have length {self.size}")
        rhs.setflags(write=False)
        return rhs

    def entry(self, i, j):
        """Matrix entry (i, j); zero outside the band."""
        d = j - i
        if -self.lower_bw <= d <= self.upper_bw:
            return float(self.diagonals[d + self.lower_bw])
        return 0.0

    def with_rhs(self, v):
        """Copy of the system carrying a new right-hand side.

        The diagonals were validated when self was built, so only the new
        rhs is checked; the copy shares them.
        """
        system = object.__new__(BandedToeplitz)
        system.__dict__.update(self.__dict__, rhs=self._rhs_array(v))
        return system


# one matrix per degree and (k, l): 190 in an examples-n40 pass
@functools.lru_cache(maxsize=1024)
def assemble_matrix(n, m, k, l):
    """System matrix for degree n, order m = k + l; rhs zeroed.

    The diagonal at offset d carries (-1)^(l-d) C(m, d+k): the signed
    binomial row of the m-th forward difference.
    """
    if k < 0 or l < 0 or k + l != m:
        raise ValueError(f"need k + l = m with k, l >= 0; got k={k}, l={l}, m={m}")
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    diags = [(-1.0) ** (l - d) * comb(m, d + k) for d in range(-k, l + 1)]
    return BandedToeplitz(n - m + 1, k, l, np.array(diags), np.zeros(n - m + 1))


def assemble_rhs(n, m, k, l, duals, legendre_moments, outer):
    """Right-hand side v of the inner-coefficient system.

    v_i = (n-m)!/n! * sum_j M_ij L_j, minus the stencil terms that touch
    the fixed outer coefficients; the correction sums are empty except in
    the first k rows and the last l rows.

    ``duals`` is the DualCoeffTable of degree nu = n - m, whose Legendre
    factor M turns the Legendre moments L_j = (2j+1) <g, P_j> (j = 0..nu,
    from ``quadrature.legendre_moments``) into the Bernstein coefficients
    of the projection of g: sum_j M_ij L_j = sum_q c_iq <g, B_q^nu>.
    ``legendre_moments`` is a sequence of those nu + 1 floats;
    ``outer`` is the pair (left, right) with right[j] the coefficient at
    index n - j.

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
    scale, stencil, rows = _exact_rows(n, m, k, l)
    with np.errstate(over="ignore", invalid="ignore"):
        v = (duals.legendre @ values) / float(scale)
    # degree-n coefficients with the inner ones zero: the stencil terms on
    # the outer ones move to the right-hand side
    onum, fs = _dyadic(np.asarray(left, dtype=float).tolist()
                       + np.asarray(right, dtype=float)[::-1].tolist())
    fnum = onum[:k] + [0] * (n + 1 - m) + onum[k:]
    lnum, ls = _dyadic(values.tolist())
    for i, den in rows:
        dot = sum(map(mul, duals.legendre_numerators[i], lnum))
        corr = sum(map(mul, stencil, fnum[i:i + m + 1]))
        v[i] = ((dot << fs) - ((corr * den) << ls)) / (den << (ls + fs))
    if not np.isfinite(v).all():
        raise OverflowError("system right-hand side overflows float64")
    return v


# one entry per degree and (k, l), like assemble_matrix
@functools.lru_cache(maxsize=1024)
def _exact_rows(n, m, k, l):
    """What assemble_rhs needs of the shape alone: the scale n!/(n-m)!,
    the m-th difference stencil, and the pairs (i, C(n-m, i) n!/(n-m)!)
    for the rows i of v with stencil terms."""
    nu = n - m
    scale = factorial(n) // factorial(nu)
    stencil = tuple((-1) ** (m - h) * comb(m, h) for h in range(m + 1))
    rows = tuple((i, comb(nu, i) * scale) for i in range(nu + 1) if i < k or i > nu - l)
    return scale, stencil, rows


def _dyadic(values):
    """Integers N_t and s with N_t / 2^s == values[t], for finite floats."""
    ratios = [x.as_integer_ratio() for x in values]
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


def solve(system):
    """Solve G p = v with the cached inverse of G and one refinement step.

    The matrix and its inverse are built once per (size, k, l, diagonals)
    (``_band``), so a solve applies the inverse twice, to v and to the
    exactly computed residual, at O(size^2) cost each.
    SingularSystemError if G is singular or its condition number is at
    least 1e13.  For right-hand sides of bounded solutions the residual
    |G p - v|_inf is well within 1e-10 * (1 + |v|_inf) for every split
    k + l = m <= 8 at every n <= 60 (the README gives the measured margin).
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
    size, k, l = system.size, system.lower_bw, system.upper_bw
    _, inv, cond, _ = _band(size, k, l, tuple(system.diagonals.tolist()))
    if not cond < _MAX_CONDITION:
        raise SingularSystemError(f"singular system: {size} x {size} matrix of band "
                                  f"({k}, {l}), condition number {cond:.1e}")
    p = inv @ system.rhs
    if not (np.isfinite(p).all() and np.isfinite(system.rhs).all()):
        return p
    return p + inv @ _residual(system, p)


def _residual(system, p):
    """v - G p, exact on the float64 entries, rounded once per entry.

    When the diagonals are integers with sum |d| <= 2^b <= 2^26 (2^m for
    the stencils), -p splits into parts whose products with G are exact
    (``_split``), and ``math.fsum`` rounds each v_i plus those products
    once.  Other diagonals, and p or v too large for the grids, take the
    integer route (``_integer_residual``): both round the same exact values.
    """
    dense, _, _, bits = _band(system.size, system.lower_bw, system.upper_bw,
                              tuple(system.diagonals.tolist()))
    parts = None if bits is None else _split(-p, bits)
    v = system.rhs.tolist()
    if parts is None or max(map(abs, v)) > 2.0**1000:
        return _integer_residual(system, p)
    return list(map(math.fsum, zip(v, *(parts @ dense.T).tolist())))


def _split(p, bits):
    """Rows that sum to p exactly, or None if p is beyond 2^(1000 - bits).

    Each row is the ExtractVector step of Rump, Ogita and Oishi ("Accurate
    floating-point summation part I", SIAM J. Sci. Comput. 31, 2008): for
    sigma = 2^e >= 2^bits max|rest|, (sigma + rest) - sigma holds multiples
    of 2^(e-53) of size at most 2^(e-bits) and leaves at most 2^(e-53) for
    the next row.  Its products with integer diagonals of sum |d| <= 2^bits,
    and all their partial sums, are multiples of 2^(e-53) of size at most
    2^e, so exact in any order of summation, with fused multiply-adds or not.
    """
    sigma = math.ldexp(1.0, math.frexp(np.abs(p).max())[1] + bits)
    if sigma > 2.0**1000:
        return None
    parts, rest = [], p
    while np.count_nonzero(rest):
        parts.append((sigma + rest) - sigma)
        rest = rest - parts[-1]
        sigma *= 2.0 ** (bits - 53)
    return np.array(parts).reshape(-1, p.size)


def _integer_residual(system, p):
    """v - G p as exact integers over a common power of two, each entry
    rounded once by the true division."""
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


# a solve to degree N uses one shape per degree, N - m + 1 of them; an
# examples-n40 pass uses 190, all kept (1.5 MB)
@functools.lru_cache(maxsize=1024)
def _band(size, k, l, diagonals):
    """(matrix, inverse, condition number, bits) of the size x size matrix
    with the given diagonals (offsets -k..l): the arrays read-only, the
    inverse None and |G|_inf |G^-1|_inf infinite if it is singular, and
    bits b with sum |d| <= 2^b <= 2^26 for integer diagonals, else None."""
    offset = np.arange(size) - np.arange(size)[:, None]  # j - i
    band = (offset >= -k) & (offset <= l)
    dense = np.where(band, np.array(diagonals)[np.clip(offset + k, 0, k + l)], 0.0)
    dense.setflags(write=False)
    try:
        inv = np.linalg.inv(dense)
    except np.linalg.LinAlgError:
        inv, cond = None, math.inf
    else:
        inv.setflags(write=False)
        with np.errstate(over="ignore", invalid="ignore"):
            cond = np.abs(dense).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    total = sum(map(abs, diagonals))
    small = total <= 2**26 and all(d.is_integer() for d in diagonals)
    return dense, inv, cond, max(int(total) - 1, 0).bit_length() if small else None


# perfbench/tracing.py counts solves by these four names, one per band
# shape; they all bind the single solve above.
_back_substitution = _forward_substitution = _tridiagonal = _banded_lu
