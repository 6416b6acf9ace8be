"""Polynomials in Bernstein form on [0, 1]: the basis values, evaluation,
derivatives and endpoint derivatives.

Coefficients p_0..p_n represent w(x) = sum_i p_i * B_i^n(x) with
B_i^n(x) = C(n,i) x^i (1-x)^(n-i).  ``basis_matrix`` is the one evaluator
of that basis: ``evaluate`` sums over its values, and each quadrature rule
keeps its values at the rule's nodes for the solver.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BernsteinPoly",
    "basis_matrix",
    "evaluate",
    "derivative",
    "endpoint_derivative",
]


@functools.lru_cache(maxsize=None)
def binomial_row(n):
    """All C(n, i) for i = 0..n, each the correctly rounded float of the
    exact integer (exact while C(n, i) < 2^53, i.e. for n <= 56).

    Memoized per degree; the returned array is read-only.  ValueError
    beyond float64 (n above about 1030).
    """
    try:
        row = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    except OverflowError as exc:
        raise ValueError(f"binomial coefficients of degree {n} are beyond float64") from exc
    row.setflags(write=False)
    return row


def falling_factorial(n, r):
    """n!/(n-r)! = n * (n-1) * ... * (n-r+1), correctly rounded to a float."""
    return float(math.perm(n, r))


@dataclass(frozen=True, eq=False)
class BernsteinPoly:
    """Immutable polynomial of degree len(coeffs)-1 in Bernstein form."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self):
        return self.coeffs.size - 1

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"BernsteinPoly(degree={self.degree}, coeffs={self.coeffs.tolist()})"


def basis_matrix(d, x):
    """Values B_i^d(x) = C(d, i) x^i (1 - x)^(d - i) for i = 0..d at every
    point of x, as an array of shape x.shape + (d + 1,).

    Each entry is within a few roundings of its exact value at the float
    point: s = 1 - x rounds below x = 1/2, and its rounding error e, which
    (s - 1) + x gives exactly, is corrected to first order,
    (1 - x)^j = s^j (1 - j e / s); above 1/2, e = 0 (the quotient takes
    max(s, 1/2), so x = 1 divides by no zero).  So the values at a point
    sum to 1 within a few ulps, and a sum over the basis, whose entries are
    nonnegative, is as well conditioned as de Casteljau's algorithm
    (Farouki and Rajan, CAGD 4, 1987).  Every operation is elementwise, so
    a point gives the same values alone as within an array.
    """
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    j = d - np.arange(d + 1)  # the power of 1 - x
    x = np.asarray(x, dtype=float)[..., None]
    s = 1.0 - x
    rel = ((s - 1.0) + x) / np.maximum(s, 0.5)  # e / s
    return binomial_row(d) * x ** (d - j) * s ** j * (1.0 - j * rel)


def evaluate(p, x):
    """Evaluate the BernsteinPoly p at x in [0, 1]: a float for a float x,
    an array of x's shape otherwise.

    Sums p_i B_i^n(x) over ``basis_matrix``'s values, per point along the
    last axis, so an array gives the same bits as a loop over its points.
    Cost O(n) per point.
    """
    xs = np.asarray(x, dtype=float)
    inside = (xs >= 0.0) & (xs <= 1.0)
    if not inside.all():
        raise ValueError(f"x={xs[~inside].flat[0]} outside [0, 1]")
    out = (basis_matrix(p.degree, xs) * p.coeffs).sum(axis=-1)
    return float(out) if xs.ndim == 0 else out


def derivative(p, r):
    """r-th derivative of p as a Bernstein polynomial of degree n - r.

    Coefficients are n!/(n-r)! times the r-fold forward differences of p's
    coefficients.  r = 0 returns p itself.  ValueError beyond float64.
    """
    n = p.degree
    if not 0 <= r <= n:
        raise ValueError(f"derivative order {r} outside 0..{n}")
    if r == 0:
        return p
    try:
        with np.errstate(all="ignore"):
            return BernsteinPoly(falling_factorial(n, r) * np.diff(p.coeffs, r))
    except (OverflowError, ValueError) as exc:
        raise ValueError(f"derivative of order {r} of degree {n} is beyond float64") from exc


def endpoint_derivative(p, r, end):
    """r-th derivative of p at x = 0 ('left') or x = 1 ('right').

    Evaluated directly from the first (last) r + 1 coefficients, so no
    intermediate polynomial is formed.  The alternating sum cancels heavily
    and is then scaled by n!/(n-r)!, so it is accumulated with fsum.
    """
    n = p.degree
    if not 0 <= r <= n:
        raise ValueError(f"derivative order {r} outside 0..{n}")
    if end not in ("left", "right"):
        raise ValueError(f"end must be 'left' or 'right', got {end!r}")
    c = p.coeffs
    binom = binomial_row(r)
    terms = []
    for h in range(r + 1):
        term = binom[h] * (c[h] if end == "left" else c[n - r + h])
        terms.append(term if (r - h) % 2 == 0 else -term)
    return falling_factorial(n, r) * math.fsum(terms)
