"""Composite Gauss-Legendre quadrature on [0, 1] and the moment integrals
of a function against a Bernstein basis row.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64.  Only the
solver's moment kernel (``_moment_integrals_mp``) runs at extended
precision: its per-(node, basis index) products feed the dual-basis
combination, whose coefficients grow like 4^(n-m) (see _mp).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._mp import ctx
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


def moment_integrals(g, n, m, rule):
    """Moments of g against the Bernstein basis row of degree n - m.

    g is evaluated exactly once per quadrature node and shared across all
    basis indices; the basis rows make the total cost O(nodes * n^2).
    """
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    gvals = np.array(_sample(g, rule))
    rows = np.array([basis_row(n - m, x) for x in rule.nodes])
    values = (rule.weights * gvals) @ rows
    return MomentVector(n=n, m=m, values=values)


def _moment_integrals_mp(g, nu, rule):
    """Extended-precision moments against the degree-nu basis row.

    g is sampled in float64; the products w_t g(x_t) B_q(x_t) and their sums
    over the nodes run at working precision, with B_q(x) = C(nu,q) x^q
    (1-x)^(nu-q) built from running powers of x/(1-x) (of (1-x)/x, walking
    q downwards, for x > 1/2), O(nu) per node.  Returns (moments as mpf,
    g values as floats) so the caller can reuse the node values.  This is
    the solver's private path; the public contract is ``moment_integrals``.
    """
    gvals = _sample(g, rule)
    sums = [ctx.mpf(0)] * (nu + 1)
    for x, w, gx in zip(rule.nodes.tolist(), rule.weights.tolist(), gvals):
        wg = ctx.mpf(w) * gx
        x = ctx.mpf(x)
        s = 1 - x
        if x <= 0.5:
            term, ratio, qs = wg * s**nu, x / s, range(nu + 1)
        else:
            term, ratio, qs = wg * x**nu, s / x, range(nu, -1, -1)
        for q in qs:
            sums[q] += term
            term *= ratio
    moments = [math.comb(nu, q) * total for q, total in enumerate(sums)]
    return moments, gvals
