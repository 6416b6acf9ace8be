"""Composite Gauss-Legendre quadrature on [0, 1] and the moment integrals
of a function against a Bernstein basis row.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64.  The moments are
exact: every float64 node, weight and sample of the integrand is a dyadic
rational, so the quadrature sum is computed in integer arithmetic over one
power of two.  The solver combines them with dual-basis coefficients that
grow like 4^(n-m), which would amplify any rounding here by that factor.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EvaluationError

__all__ = ["QuadratureRule", "MomentVector", "gauss_rule", "basis_row", "moment_integrals"]


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on [0, 1] with float64 nodes/weights."""

    order: int
    panels: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def gauss_rule(order, panels=1):
    """Composite Gauss-Legendre rule with ``panels`` equal panels on [0, 1]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    h = 1.0 / panels
    starts = np.arange(panels) * h
    return QuadratureRule(
        order=order,
        panels=panels,
        nodes=(starts[:, None] + (x + 1) / 2 * h).ravel(),
        weights=np.tile(w * h / 2, panels),
    )


def basis_row(n, x):
    """All Bernstein basis values B_0^n(x)..B_n^n(x) in O(n^2).

    Degree-raising recurrence (n passes over the row); the row sums to 1
    up to roundoff.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    b = np.zeros(n + 1)
    b[0] = 1.0
    for d in range(1, n + 1):
        b[d] = x * b[d - 1]
        for i in range(d - 1, 0, -1):
            b[i] = x * b[i - 1] + (1.0 - x) * b[i]
        b[0] = (1.0 - x) * b[0]
    return b


@dataclass(frozen=True)
class MomentVector:
    """Moments I_q = <g, B_q^(n-m)> for q = 0..n-m."""

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.size != self.n - self.m + 1:
            raise ValueError(
                f"expected {self.n - self.m + 1} moments, got {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _sample(g, rule):
    """g at every node of the rule, once each, as a list of floats."""
    out = []
    for x in rule.nodes.tolist():
        val = float(g(x))
        if not math.isfinite(val):
            raise EvaluationError(
                f"right-hand side returned non-finite value at x={x}", where=x
            )
        out.append(val)
    return out


def _over_power_of_two(ratios):
    """Integers N_t and s with N_t / 2^s == p_t / d_t, for (p_t, d_t) pairs
    whose d_t are powers of two (as from ``float.as_integer_ratio``)."""
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


def _exact_moments(g, nu, rule):
    """Exact quadrature moments sum_t w_t g(x_t) B_q^nu(x_t), q = 0..nu.

    g is sampled once per node in float64.  With x_t = X_t / 2^e, 1 - x_t =
    (2^e - X_t) / 2^e and w_t g(x_t) = P_t / 2^d, every term
    C(nu,q) P_t X_t^q (2^e - X_t)^(nu-q) is an integer over 2^(d + e nu),
    so the sums carry no rounding.  Returns (moments as Fractions, g
    values as floats) so the caller can reuse the node values.
    """
    gvals = _sample(g, rule)
    xs, e = _over_power_of_two([x.as_integer_ratio() for x in rule.nodes.tolist()])
    wgs, d = _over_power_of_two([(Fraction(w) * Fraction(gx)).as_integer_ratio()
                                 for w, gx in zip(rule.weights.tolist(), gvals)])
    sums = [0] * (nu + 1)
    for x, term in zip(xs, wgs):
        y = (1 << e) - x
        ypow = [1]
        for _ in range(nu):
            ypow.append(ypow[-1] * y)
        for q in range(nu + 1):
            sums[q] += term * ypow[nu - q]
            term *= x
    den = 1 << (d + e * nu)
    return [Fraction(math.comb(nu, q) * s, den) for q, s in enumerate(sums)], gvals


def moment_integrals(g, n, m, rule):
    """Moments of g against the Bernstein basis row of degree n - m.

    g is evaluated exactly once per quadrature node; each moment is the
    exact quadrature sum of those float samples, rounded once.  Cost
    O(nodes * (n - m)) integer operations.
    """
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    moments, _ = _exact_moments(g, n - m, rule)
    return MomentVector(n=n, m=m, values=[float(x) for x in moments])
