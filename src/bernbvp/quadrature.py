"""Composite Gauss-Legendre quadrature on [0, 1] and the Legendre moments
of a function.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64, and are memoized
per (order, panels).  The solver's moments are Legendre moments
(2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1): one float64 product of the
samples of g with a weighted Legendre Vandermonde that each rule builds on
first use and keeps.  ``dual.DualCoeffTable.legendre`` turns them into the
Bernstein coefficients of the projection of g.  Beside the Vandermonde,
each rule keeps one ``bernstein.basis_matrix`` per degree d, the values
B_i^d(x_t) at its nodes, so a polynomial of degree d (a derivative of the
solver's iterate) is evaluated at every node by one matrix-vector product
with its coefficients.
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .bernstein import basis_matrix
from .errors import EvaluationError

__all__ = ["QuadratureRule", "gauss_rule", "legendre_moments"]


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
        """``basis_matrix(d, self.nodes)``: B_i^d(x_t) for every node t and
        i = 0..d, as a read-only (nodes, d + 1) array.

        Built on first use for each degree and kept, so later calls return
        the same array.  Threads that build the same degree at once build
        equal arrays, and all of them get the one that is kept.
        """
        table = self._bernstein_bases.get(d)
        if table is None:
            table = basis_matrix(d, self.nodes)
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


def legendre_moments(g, nu, rule):
    """Legendre moments L_j = (2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1) for
    j = 0..nu, in float64.

    g maps the rule's node array to float64 samples, one per node (the
    solver passes one array evaluation of the right-hand side).  Returns
    (moments, samples), the caller reusing the samples.  Cost: one
    (nodes x (nu + 1)) matrix-vector product.  The samples are g's own
    array when it has one value per node, and a constant g is broadcast to
    the nodes.  EvaluationError names the first node where a sample is not
    finite.
    """
    gvals = np.asarray(g(rule.nodes), dtype=float)
    if gvals.shape != rule.nodes.shape:
        gvals = np.broadcast_to(gvals, rule.nodes.shape)
    bad = ~np.isfinite(gvals)
    if bad.any():
        x = rule.nodes[bad][0].item()
        raise EvaluationError(
            f"right-hand side returned non-finite value at x={x}", where=x
        )
    return gvals @ rule.legendre_vander(nu), gvals
