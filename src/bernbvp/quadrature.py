"""Composite Gauss-Legendre quadrature on [0, 1] and the moment integrals
of a function against a polynomial basis.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64, and are memoized
per (order, panels).  The solver's moments are Legendre moments
(2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1): one float64 product of the
samples of g with a weighted Legendre Vandermonde that each rule builds on
first use and keeps.  ``dual.DualCoeffTable.legendre`` turns them into the
Bernstein coefficients of the projection of g.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError

__all__ = ["QuadratureRule", "MomentVector", "gauss_rule", "basis_row", "moment_integrals",
           "legendre_moments"]


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

    def legendre_vander(self, nu):
        """Entries (2j + 1) w_t P_j(2 x_t - 1) for every node t and
        j = 0..nu, as a read-only (nodes, nu + 1) view.

        Built on first use with max(nu, order - 1) columns, which covers
        every degree the solver's default rule of this order serves, and
        rebuilt wider when a larger nu asks for it.
        """
        table = self.__dict__.get("_legendre_vander")
        if table is None or table.shape[1] <= nu:
            deg = max(nu, self.order - 1)
            scale = self.weights[:, None] * (2 * np.arange(deg + 1) + 1)
            table = np.polynomial.legendre.legvander(2 * self.nodes - 1, deg) * scale
            table.setflags(write=False)
            object.__setattr__(self, "_legendre_vander", table)
        return table[:, :nu + 1]


def gauss_rule(order, panels=1):
    """Composite Gauss-Legendre rule with ``panels`` equal panels on [0, 1].

    Both arguments must be integers (``operator.index``; TypeError
    otherwise).  Rules are memoized, so equal arguments return the same
    immutable rule.
    """
    return _gauss_rule(operator.index(order), operator.index(panels))


# one entry per rule order the CLI's degree range (n <= 60) reaches
@functools.lru_cache(maxsize=64)
def _gauss_rule(order, panels):
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
    """g over the rule's node array, as a float array; EvaluationError
    names the first node where a sample is not finite."""
    vals = np.broadcast_to(np.asarray(g(rule.nodes), dtype=float), rule.nodes.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        x = rule.nodes[bad][0].item()
        raise EvaluationError(
            f"right-hand side returned non-finite value at x={x}", where=x
        )
    return vals


def legendre_moments(g, nu, rule):
    """Legendre moments L_j = (2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1) for
    j = 0..nu, in float64.

    g maps the rule's node array to float64 samples, one per node (the
    solver passes one array evaluation of the right-hand side).  Returns
    (moments, samples), the caller reusing the samples.  Cost: one
    (nodes x (nu + 1)) matrix-vector product.
    """
    gvals = _sample(g, rule)
    return gvals @ rule.legendre_vander(nu), gvals


def moment_integrals(g, n, m, rule):
    """Moments of g against the Bernstein basis row of degree n - m.

    g is evaluated exactly once per quadrature node; each moment is the
    float64 quadrature sum sum_t w_t g(x_t) B_q(x_t).  Cost O(nodes (n - m)^2).
    """
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    gvals = _sample(lambda xs: [float(g(x)) for x in xs.tolist()], rule)
    basis = np.array([basis_row(n - m, x) for x in rule.nodes.tolist()])
    return MomentVector(n=n, m=m, values=(rule.weights * gvals) @ basis)
