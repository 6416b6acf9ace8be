"""Composite Gauss-Legendre quadrature on [0, 1] and the moment integrals
of a function against a Bernstein basis row.

The single-panel rule comes from ``numpy.polynomial.legendre.leggauss``;
composite rules are affine images of it, all in float64, and are memoized
per (order, panels).  The moments are exact: every float64 node, weight
and sample of the integrand is a dyadic rational, so the quadrature sum is
computed in integer arithmetic over one power of two.  The solver combines
them with dual-basis coefficients that grow like 4^(n-m), which would
amplify any rounding here by that factor.
"""

import functools
import math
import operator
from dataclasses import dataclass

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

    @functools.cached_property
    def _node_integers(self):
        """Integers X_t and e with x_t = X_t / 2^e at every node."""
        xs, e = _over_power_of_two([x.as_integer_ratio() for x in self.nodes.tolist()])
        return tuple(xs), e


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
    """g over the rule's node array, as a list of floats; EvaluationError
    names the first node where a sample is not finite."""
    vals = np.broadcast_to(np.asarray(g(rule.nodes), dtype=float), rule.nodes.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        x = rule.nodes[bad][0].item()
        raise EvaluationError(
            f"right-hand side returned non-finite value at x={x}", where=x
        )
    return vals.tolist()


def _over_power_of_two(ratios):
    """Integers N_t and s with N_t / 2^s == p_t / d_t, for (p_t, d_t) pairs
    whose d_t are powers of two (as from ``float.as_integer_ratio``)."""
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


def _exact_moments(g, nu, rule):
    """Exact quadrature moments sum_t w_t g(x_t) B_q^nu(x_t), q = 0..nu.

    g maps the rule's node array to float64 samples, one per node (the
    solver passes one array evaluation of the right-hand side).  With the
    rule's node integers x_t = X_t / 2^e, 1 - x_t = (2^e - X_t) / 2^e and
    w_t g(x_t) = P_t / 2^d, each moment is C(nu,q) S_q / 2^(d + e nu)
    with the integer
    S_q = sum_t P_t X_t^q (2^e - X_t)^(nu-q).  The power sums
    T_j = sum_t P_t X_t^j take one small-by-big product per (node, j);
    every S_q then follows by nu - q differencing steps
    U_j <- (U_j << e) - U_(j+1), which cost O(nu^2) shifts and
    subtractions whatever the node count.  No step rounds.

    Returns (moments, g values as floats): the moments as unreduced
    integer pairs (numerator, 2^(d + e nu)), the caller reusing the node
    values.
    """
    gvals = _sample(g, rule)
    xs, e = rule._node_integers
    wgs = []
    for w, gx in zip(rule.weights.tolist(), gvals):
        (pw, qw), (pg, qg) = w.as_integer_ratio(), gx.as_integer_ratio()
        wgs.append((pw * pg, qw * qg))
    ps, d = _over_power_of_two(wgs)
    u = [0] * (nu + 1)  # T_j
    for x, term in zip(xs, ps):
        for j in range(nu + 1):
            u[j] += term
            term *= x
    # step s leaves u[j] = sum_t P_t X_t^j (2^e - X_t)^s for j <= nu - s;
    # u[nu - s] is then final, S_(nu-s)
    for s in range(1, nu + 1):
        for j in range(nu + 1 - s):
            u[j] = (u[j] << e) - u[j + 1]
    den = 1 << (d + e * nu)
    return [(math.comb(nu, q) * sq, den) for q, sq in enumerate(u)], gvals


def moment_integrals(g, n, m, rule):
    """Moments of g against the Bernstein basis row of degree n - m.

    g is evaluated exactly once per quadrature node; each moment is the
    exact quadrature sum of those float samples, rounded once.  Cost
    O(nodes * (n - m) + (n - m)^2) integer operations.
    """
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    moments, _ = _exact_moments(lambda xs: [float(g(x)) for x in xs.tolist()],
                                n - m, rule)
    return MomentVector(n=n, m=m, values=[p / q for p, q in moments])
