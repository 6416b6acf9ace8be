"""Polynomials in Bernstein form on [0, 1]: evaluation, derivatives and
endpoint derivatives.

Coefficients p_0..p_n represent w(x) = sum_i p_i * B_i^n(x) with
B_i^n(x) = C(n,i) x^i (1-x)^(n-i).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BernsteinPoly",
    "basis_value",
    "evaluate",
    "derivative",
    "endpoint_derivative",
]


@functools.lru_cache(maxsize=None)
def binomial_row(n):
    """All C(n, i) for i = 0..n, each the correctly rounded float of the
    exact integer (exact while C(n, i) < 2^53, i.e. for n <= 56).

    Memoized per degree; the returned array is read-only.
    """
    row = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    row.setflags(write=False)
    return row


def falling_factorial(n, r):
    """n * (n-1) * ... * (n-r+1) as a float; equals n!/(n-r)!."""
    out = 1.0
    for t in range(r):
        out *= n - t
    return out


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


def basis_value(n, i, x):
    """Value of the i-th Bernstein basis polynomial of degree n at x."""
    if not 0 <= i <= n:
        raise ValueError(f"basis index {i} out of range for degree {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return binomial_row(n)[i] * x**i * (1.0 - x) ** (n - i)


def evaluate(p, x):
    """Evaluate p at x in [0, 1]; x is a float or a numpy array of points.

    p is one BernsteinPoly, giving a float for a float x and an array of
    x's shape otherwise, or a sequence of them (say the derivatives of an
    iterate), giving one row of values per polynomial.

    Uses a Horner scheme in t = x/(1-x) for x <= 1/2 and the mirrored
    scheme in (1-x)/x otherwise, so no significance is lost near either
    endpoint.  Cost O(n) per point and polynomial.  One numpy loop serves
    every point and polynomial: each point takes its coefficients c_i C(n,i)
    in its own order, and lower degrees are padded with leading -0.0, which
    leaves the sum unchanged (-0.0 * t + c == c for every c, as t is finite
    and >= 0).  The factor s^n or x^n is a Python pow per element.  So every
    value carries the same IEEE operations as the scalar loop, bit for bit.
    """
    polys = [p] if isinstance(p, BernsteinPoly) else list(p)
    xs = np.asarray(x, dtype=float)
    inside = (xs >= 0.0) & (xs <= 1.0)
    if not inside.all():
        raise ValueError(f"x={xs[~inside].flat[0]} outside [0, 1]")
    flat = xs.ravel()
    low = flat <= 0.5
    s = 1.0 - flat
    base = np.where(low, s, flat)
    t = np.where(low, flat, s) / base
    degrees = [q.degree for q in polys]
    top = max(degrees)
    down = np.full((top + 1, len(polys)), -0.0)  # cb[n]..cb[0], for x <= 1/2
    up = np.full((top + 1, len(polys)), -0.0)    # cb[0]..cb[n], for x > 1/2
    for r, (q, n) in enumerate(zip(polys, degrees)):
        cb = q.coeffs * binomial_row(n)
        down[top - n:, r] = cb[::-1]
        up[top - n:, r] = cb
    seq = np.where(low, down[:, :, None], up[:, :, None])
    acc = seq[0]
    for step in seq[1:]:
        acc = acc * t + step
    bases = base.tolist()
    scale = np.array([[b ** n for b in bases] for n in degrees])
    out = (acc * scale).reshape((len(polys),) + xs.shape)
    if not isinstance(p, BernsteinPoly):
        return out
    return float(out[0]) if xs.ndim == 0 else out[0]


def derivative(p, r):
    """r-th derivative of p as a Bernstein polynomial of degree n - r.

    Coefficients are n!/(n-r)! times the r-fold forward differences of p's
    coefficients.  r = 0 returns p itself.
    """
    n = p.degree
    if not 0 <= r <= n:
        raise ValueError(f"derivative order {r} outside 0..{n}")
    if r == 0:
        return p
    return BernsteinPoly(falling_factorial(n, r) * np.diff(p.coeffs, r))


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
