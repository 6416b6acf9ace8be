"""The stencil systems of the inner Bernstein coefficients.

At degree n and order m = k + l, the m-th forward-difference stencil
couples the inner coefficients: entry (i, j) of the matrix G is
(-1)^(l-d) C(m, d+k) for d = j - i in -k..l, and zero outside that band.
``assemble_matrix`` builds one StencilSystem per shape (n, k, l), in an
LRU of 1024 entries, the one cache of this module: the dense matrix and
its inverse, formed once in float64 (its binomials are exact there up to
m = 56), and the scale n!/(n-m)! that assemble_rhs needs
(``falling_factorial``).  A solve to degree N uses N - m + 1 shapes; an
examples-n40 pass uses 190, 1.5 MB.

A solve is one product with the inverse, refined until the correction d
is at rounding level, |d|^2 <= eps |p|^2; a correction that does not
halve the one before makes the system singular.  Each step rounds the
exact residual v - G p once (p and v are float64, so dyadic rationals)
and adds the correction that the same inverse gives.  The residual takes
one route for every order: v and p as integers over one power of two,
and G p as the m-th forward difference of p, which is the stencil's
product.  A non-finite p is returned as it is, for the caller to find.

A solve with ``float_pass`` (the solver's ladder) first takes one
float64 pass, d = G^-1 (v - G p), and returns p + d when d passes the
same stop test; only otherwise does it refine as above, from the first
product on, so a stencil that needs the exact residual, or does not
contract, meets it as before.

The right-hand side (assemble_rhs) combines Legendre moments with the
Legendre-to-Bernstein matrix in float64.  The solver fixes the outer
coefficients in a base, the raised seed, and solves for the correction
to its inner ones, so v has no boundary stencil terms: it is the float64
product alone, whose one check is that every entry is finite.
"""

import functools
import math
from dataclasses import dataclass
from math import comb
from operator import sub

import numpy as np

from .bernstein import falling_factorial
from .errors import EvaluationError, SingularSystemError

__all__ = ["StencilSystem", "assemble_matrix", "assemble_rhs", "solve"]

_ROUNDING = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class StencilSystem:
    """The system G p = v of one shape (n, k, l), from ``assemble_matrix``.

    ``size`` = n - m + 1 unknowns; ``lower_bw`` = k and ``upper_bw`` = l,
    the band's extent below and above the diagonal; ``dense``, the matrix,
    and ``inverse``, its inverse (both read-only; None if inverting fails);
    ``scale`` = n!/(n-m)! correctly rounded (``falling_factorial``), for
    assemble_rhs.
    """

    size: int
    lower_bw: int
    upper_bw: int
    dense: np.ndarray
    inverse: np.ndarray
    scale: float


# the one cache per shape: 1024 systems hold the 190 shapes of an
# examples-n40 pass (1.5 MB) and every shape of a solve to the CLI's cap
@functools.lru_cache(maxsize=1024)
def assemble_matrix(n, k, l):
    """System matrix for degree n, order m = k + l, as a StencilSystem.

    The diagonal at offset d carries (-1)^(l-d) C(m, d+k): the signed
    binomial row of the m-th forward difference.  Memoized per shape, so
    each shape's inverse is formed once per process.
    """
    if k < 0 or l < 0:
        raise ValueError(f"need k, l >= 0; got k={k}, l={l}")
    m = k + l
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    nu = n - m
    stencil = np.array([(-1) ** (m - h) * comb(m, h) for h in range(m + 1)], dtype=float)
    offset = np.arange(nu + 1) - np.arange(nu + 1)[:, None]  # j - i
    dense = np.where((offset >= -k) & (offset <= l), stencil[np.clip(offset + k, 0, m)], 0.0)
    dense.setflags(write=False)
    try:
        inverse = np.linalg.inv(dense)
        inverse.setflags(write=False)
    except np.linalg.LinAlgError:
        inverse = None
    return StencilSystem(nu + 1, k, l, dense, inverse, falling_factorial(n, m))


def assemble_rhs(system, duals, legendre_moments):
    """Right-hand side v of the inner-coefficient system ``system``, the
    StencilSystem of degree n and order m = k + l from ``assemble_matrix``,
    for outer coefficients that the caller has fixed at zero (the solver
    solves for a correction to a base that carries them):
    v_i = (n-m)!/n! * sum_j M_ij L_j, one float64 product with the rows of
    M.

    ``duals`` is the DualCoeffTable of degree nu = n - m, whose Legendre
    factor M turns the Legendre moments L_j = (2j+1) <g, P_j> (j = 0..nu,
    from ``quadrature.legendre_moments``) into the Bernstein coefficients
    of the projection of g: sum_j M_ij L_j = sum_q c_iq <g, B_q^nu>.
    ``legendre_moments`` is a sequence of those nu + 1 floats.

    An entry of v that is not finite, as a non-finite moment gives,
    raises EvaluationError ("system right-hand side overflows float64").
    An overflow in the product warns unless the caller ignores it
    (``np.errstate``), as the solver does.
    """
    nu = system.size - 1
    if duals.degree != nu:
        raise ValueError(f"dual table degree {duals.degree} != n - m = {nu}")
    values = np.asarray(legendre_moments, dtype=float)
    if values.shape != (nu + 1,):
        raise ValueError(f"expected {nu + 1} moments, got {values.size}")
    v = duals.legendre.dot(values) / system.scale
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise EvaluationError("system right-hand side overflows float64")
    return v


def _dyadic(values):
    """Integers N_t and s >= 0 with N_t / 2^s == values[t], for a
    non-empty sequence of floats; OverflowError for an infinite one and
    ValueError for a nan, from ``float.as_integer_ratio``."""
    ratios = [x.as_integer_ratio() for x in values]
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


def solve(system, rhs, float_pass=False):
    """Solve G p = rhs for the StencilSystem G = ``system``, with its
    inverse, refined with exact residuals until the correction is at
    rounding level; with ``float_pass``, by one float64 refinement pass
    when that reaches it.

    Each product with the inverse, of rhs and then of each exactly computed
    residual, costs O(size^2); the inverse is formed once per system
    (``assemble_matrix`` keeps one system per shape).  SingularSystemError
    if G has no inverse or refinement does not halve the correction.  For
    right-hand sides of bounded solutions the residual
    |G p - rhs|_inf is well within 1e-10 * (1 + |rhs|_inf) for every split
    k + l = m <= 8 at every n <= 60 (the README gives the measured margin).
    A non-finite rhs, or a product with the inverse that overflows, gives
    a non-finite p, returned unrefined.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.size,):
        raise ValueError(f"rhs must have length {system.size}")
    k, l = system.lower_bw, system.upper_bw
    if k == 0:
        return _back_substitution(system, rhs, float_pass)
    if l == 0:
        return _forward_substitution(system, rhs, float_pass)
    if k == 1 and l == 1:
        return _tridiagonal(system, rhs, float_pass)
    return _banded_lu(system, rhs, float_pass)


def _banded_lu(system, rhs, float_pass):
    if system.inverse is None:
        raise SingularSystemError(f"singular system: {system.size} x {system.size}, no inverse")
    p, last = system.inverse.dot(rhs), math.inf
    if float_pass and np.count_nonzero(np.isfinite(p)) == p.size:
        # one float64 pass; a non-finite or overflowing norm fails the test
        d = system.inverse.dot(rhs - system.dense.dot(p))
        q = p + d
        if math.hypot(*d.tolist()) <= _ROUNDING * math.hypot(*q.tolist()) < math.inf:
            return q
    # a non-finite rhs shows in p, returned as it is: the exact residual
    # takes finite floats only.  math.hypot scales: no norm overflows
    while np.count_nonzero(np.isfinite(p)) == p.size:
        d = system.inverse.dot(_residual(system, rhs, p))
        p, norm = p + d, math.hypot(*d.tolist())
        if norm <= _ROUNDING * math.hypot(*p.tolist()):
            break
        if norm > last / 2:
            raise SingularSystemError(f"singular system: refinement of band ({system.lower_bw}, "
                                      f"{system.upper_bw}), size {system.size}, does not contract")
        last = norm
    return p


def _residual(system, v, p):
    """v - G p, exact on the float64 entries v and p (finite), rounded
    once per entry: v and p as integers over one power of two
    (``_dyadic``), G p as the m-th forward difference of p with k zeros
    before it and l after (the stencil's product), each entry rounded by
    the true division."""
    k, l = system.lower_bw, system.upper_bw
    ints, s = _dyadic(v.tolist() + p.tolist())
    diff = [0] * k + ints[v.size:] + [0] * l
    for _ in range(k + l):
        diff = list(map(sub, diff[1:], diff[:-1]))
    den = 1 << s
    return [(x - y) / den for x, y in zip(ints, diff)]


# perfbench/tracing.py counts solves by these four names, one per band
# shape; they all bind the single solve above.
_back_substitution = _forward_substitution = _tridiagonal = _banded_lu
