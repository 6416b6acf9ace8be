"""Composite Gauss-Legendre quadrature on [0, 1] and the Legendre moments
of a function.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64, and are memoized
per (order, panels).  The solver's moments are Legendre moments
(2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1): one float64 product of the
samples of g with a weighted Legendre Vandermonde of the rule, which
``dual.DualCoeffTable.legendre`` turns into the Bernstein coefficients of
the projection of g.  Beside the Vandermonde, each rule keeps one
``bernstein.basis_matrix`` per degree d, the values B_i^d(x_t) at its
nodes, so a polynomial of degree d (a derivative of the solver's iterate)
is evaluated at every node by one matrix-vector product.  These tables and
the solver's derivative terms are its one memo (``QuadratureRule.memo``).
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
        object.__setattr__(self, "_memo", {})

    def legendre_vander(self, nu):
        """Entries (2j + 1) w_t P_j(2 x_t - 1) for every node t and
        j = 0..nu, as a read-only (nodes, nu + 1) view of a table of
        max(nu, order - 1) + 1 columns, kept (``memo``): one table serves
        every degree the solver's default rule of this order serves."""
        width = max(nu, self.order - 1)
        table = self.memo(("legendre", width), _legendre_vander, self.nodes, self.weights, width)
        return table[:, :nu + 1]

    def bernstein_basis(self, d):
        """``basis_matrix(d, self.nodes)``: B_i^d(x_t) for every node t and
        i = 0..d, as a read-only (nodes, d + 1) array, kept (``memo``)."""
        return self.memo(("bernstein", d), basis_matrix, d, self.nodes)

    def memo(self, key, build, *args):
        """build(*args), built on the first call with this key and kept, so
        later calls return the same object; an array is kept read-only.

        For values that depend on the rule and the key alone.  Threads that
        build the same key at once build equal values, and all of them get
        the one that is kept.
        """
        value = self._memo.get(key)
        if value is None:
            value = build(*args)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            value = self._memo.setdefault(key, value)
        return value


def _legendre_vander(nodes, weights, deg):
    scale = weights[:, None] * (2 * np.arange(deg + 1) + 1)
    return np.polynomial.legendre.legvander(2 * nodes - 1, deg) * scale


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

    g maps the rule's node array to float64 samples, one per node, a
    constant f too (the solver passes one array evaluation of the
    right-hand side).  Returns (moments, samples), the caller reusing the
    samples.  Cost: one (nodes x (nu + 1)) matrix-vector product.  The
    samples are checked once, by counting their finite entries:
    EvaluationError names the first node where a sample is not finite.
    The moments themselves are not checked here; a product that
    overflows is inf or nan, for the caller to find
    (``bandsolve.assemble_rhs`` does, in v).
    """
    gvals = np.asarray(g(rule.nodes), dtype=float)
    if np.count_nonzero(np.isfinite(gvals)) != gvals.size:
        x = rule.nodes[~np.isfinite(gvals)][0].item()
        raise EvaluationError(
            f"right-hand side returned non-finite value at x={x}", where=x
        )
    # @, not ndarray.dot as the solver's other products: on this strided
    # view .dot is slower, and .dot on a contiguous copy moves some bits
    return gvals @ rule.legendre_vander(nu), gvals
