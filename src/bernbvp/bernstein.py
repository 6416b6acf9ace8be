"""Polynomials in Bernstein form on [0, 1]: evaluation, forward-difference
tables, derivatives, and endpoint derivatives.

Coefficients p_0..p_n represent w(x) = sum_i p_i * B_i^n(x) with
B_i^n(x) = C(n,i) x^i (1-x)^(n-i).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BernsteinPoly",
    "DiffTable",
    "basis_value",
    "evaluate",
    "diff_table",
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


@dataclass(frozen=True)
class DiffTable:
    """Forward differences of a coefficient sequence.

    rows[r][j] holds the r-fold difference of the source coefficients at
    index j; row 0 is the source itself, row r has n - r + 1 entries.
    """

    base_degree: int
    rows: tuple = field(repr=False)


def basis_value(n, i, x):
    """Value of the i-th Bernstein basis polynomial of degree n at x."""
    if not 0 <= i <= n:
        raise ValueError(f"basis index {i} out of range for degree {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return binomial_row(n)[i] * x**i * (1.0 - x) ** (n - i)


def evaluate(p, x):
    """Evaluate p at x in [0, 1].

    Uses a Horner scheme in t = x/(1-x) for x <= 1/2 and the mirrored
    scheme in (1-x)/x otherwise, so no significance is lost near either
    endpoint.  Cost O(n).  The loop runs on Python floats (the products
    c_i C(n,i) are formed once in numpy); it performs the same IEEE
    operations as the loop on numpy scalars, so the result is the same.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    n = p.degree
    cb = (p.coeffs * binomial_row(n)).tolist()
    if x <= 0.5:
        s = 1.0 - x
        t = x / s if s else 0.0
        acc = cb[n]
        for i in range(n - 1, -1, -1):
            acc = acc * t + cb[i]
        return acc * s**n
    u = (1.0 - x) / x
    acc = cb[0]
    for i in range(1, n + 1):
        acc = acc * u + cb[i]
    return acc * x**n


def diff_table(p, r_max):
    """Forward differences of p's coefficients for orders 0..r_max."""
    n = p.degree
    if not 0 <= r_max <= n:
        raise ValueError(f"r_max={r_max} outside 0..{n}")
    rows = [np.array(p.coeffs)]
    for _ in range(r_max):
        prev = rows[-1]
        rows.append(prev[1:] - prev[:-1])
    return DiffTable(base_degree=n, rows=tuple(rows))


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
