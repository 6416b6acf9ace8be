"""Composite Gauss-Legendre quadrature on [0, 1] and the Legendre moments
of a function.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64, and are memoized
per (order, panels).  The solver's moments are Legendre moments
(2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1): one float64 product of the
samples of g with a weighted Legendre Vandermonde that each rule builds on
first use and keeps.  ``dual.DualCoeffTable.legendre`` turns them into the
Bernstein coefficients of the projection of g.  Beside the Vandermonde,
each rule keeps one Bernstein basis matrix per degree d, the values
B_i^d(x_t) at its nodes, so a polynomial of degree d (a derivative of the
solver's iterate) is evaluated at every node by one matrix-vector product
with its coefficients.  ``basis_row`` gives the Bernstein basis values at
one point, for references that project onto the Bernstein basis directly.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .bernstein import binomial_row
from .errors import EvaluationError

__all__ = ["QuadratureRule", "gauss_rule", "basis_row", "legendre_moments"]


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
        object.__setattr__(self, "_bernstein_bases", {})

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

    def bernstein_basis(self, d):
        """Entries B_i^d(x_t) = C(d, i) x_t^i (1 - x_t)^(d - i) for every
        node t and i = 0..d, as a read-only (nodes, d + 1) array.

        Built on first use for each degree and kept, so later calls return
        the same array.  Each entry is within a few roundings of its exact
        value at the float node: s = 1 - x_t rounds below x_t = 1/2, and
        its rounding error e, which (s - 1) + x_t gives exactly, is
        corrected to first order, (1 - x_t)^j = s^j (1 - j e / s); above
        1/2, e = 0 (the quotient takes max(s, 1/2), so x_t = 1 divides by
        no zero).  So the rows sum to 1 within a few ulps, and a sum over
        the basis, whose entries are nonnegative, is as well conditioned as
        de Casteljau's algorithm (Farouki and Rajan, CAGD 4, 1987).  Threads
        that build the same degree at once build equal arrays, and all of
        them get the one that is kept.
        """
        if d < 0:
            raise ValueError(f"degree must be non-negative, got {d}")
        table = self._bernstein_bases.get(d)
        if table is None:
            j = d - np.arange(d + 1)  # the power of 1 - x
            x = self.nodes[:, None]
            s = 1.0 - x
            rel = ((s - 1.0) + x) / np.maximum(s, 0.5)  # e / s
            table = binomial_row(d) * x ** (d - j) * s ** j * (1.0 - j * rel)
            table.setflags(write=False)
            table = self._bernstein_bases.setdefault(d, table)
        return table


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


def legendre_moments(g, nu, rule):
    """Legendre moments L_j = (2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1) for
    j = 0..nu, in float64.

    g maps the rule's node array to float64 samples, one per node (the
    solver passes one array evaluation of the right-hand side).  Returns
    (moments, samples), the caller reusing the samples.  Cost: one
    (nodes x (nu + 1)) matrix-vector product.  EvaluationError names the
    first node where a sample is not finite.
    """
    gvals = np.broadcast_to(np.asarray(g(rule.nodes), dtype=float), rule.nodes.shape)
    bad = ~np.isfinite(gvals)
    if bad.any():
        x = rule.nodes[bad][0].item()
        raise EvaluationError(
            f"right-hand side returned non-finite value at x={x}", where=x
        )
    return gvals @ rule.legendre_vander(nu), gvals
