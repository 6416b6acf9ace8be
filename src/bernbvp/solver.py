"""Iterative Bernstein least-squares solution of two-point boundary value
problems on [0, 1].

For y^(m) = f(x, y, y', ..., y^(m-1)) with k derivative values prescribed at
x = 0 and l = m - k at x = 1, the degree-(m-1) seed polynomial is fixed by
the boundary data alone.  Each subsequent degree n raises the previous
iterate: the k + l outer Bernstein coefficients are recomputed from the
boundary data, and the n - m + 1 inner ones minimize the L2 residual of the
equation with the right-hand side frozen at the previous iterate, via dual
basis moments and one banded Toeplitz solve.

Derivatives of the previous iterate, the right-hand side at the quadrature
nodes and the L2 residual are float64, each one evaluation over the whole
node array per iteration.  The x-only parts of an expression right-hand
side, forcing terms such as exp(a*x), depend on the nodes alone, so solve
evaluates them once per quadrature rule that serves several degrees
(``expressions.bind``) and each iteration only the parts that involve the
iterate.  A derivative's values at the nodes are one product of its
coefficients (forward differences of the iterate's) with the Bernstein
basis matrix that the quadrature rule keeps per degree, so the iteration
works on coefficient arrays and never builds a BernsteinPoly before the
end.  The projection goes through the Legendre
factorization of the dual table, C = M diag(2j+1) M^T: the Legendre
moments of the samples are one float64 product with the rule's weighted
Legendre Vandermonde, and the float rows of M combine them into the
system right-hand side v.  Only the k + l rows of v that subtract the
boundary stencil terms are exact, rounded once, since their two parts
cancel.  The band solve multiplies by the cached inverse of each matrix
and takes one refinement step with an exact residual; the iterates a
solve returns are ordinary float64 BernsteinPolys.
"""

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import bandsolve
from .bernstein import BernsteinPoly, falling_factorial
from .dual import dual_coefficients
from .errors import EvaluationError, IterationError, SingularSystemError
from .expressions import bind, bindable, evaluate as eval_expr, max_arg_index
from .quadrature import gauss_rule, legendre_moments

__all__ = ["BVProblem", "SolveOptions", "SolveReport",
           "outer_coefficients", "seed", "iterate", "solve"]


def _node_derivatives(p, orders, rule):
    """Values at the rule's nodes of the derivatives of the given orders
    (ascending) of the polynomial with Bernstein coefficients p, one array
    per order.

    Derivative r has the coefficients n!/(n-r)! times the r-fold forward
    differences of p, taken once, order after order, and its values are
    one product with the rule's basis matrix of degree n - r.  A value
    that overflows is inf or nan, with no warning; the caller checks the
    values it uses.
    """
    n = p.size - 1
    values, q = [], p
    with np.errstate(over="ignore", invalid="ignore"):
        for r in orders:
            while q.size > n + 1 - r:
                q = q[1:] - q[:-1]
            values.append(rule.bernstein_basis(n - r) @ (falling_factorial(n, r) * q))
    return values


# perfbench/tracing.py wraps these names: _eval_mp, the node evaluator
# above, to time the derivative arguments (one call per iteration, inside
# the moment kernel, which samples g) apart from the residual's m-th
# derivative (one call per iteration, outside it), _moment_integrals_mp as
# the moment layer and dual_coefficients as the per-degree lookup of the
# Legendre factor.  The names stay because the tracer looks them up; the
# "_mp" suffixes are historical: neither runs in mpmath any more.
_eval_mp = _node_derivatives
_moment_integrals_mp = legendre_moments


@dataclass(frozen=True)
class BVProblem:
    """Problem data: y^(m) = f(x, y, ..., y^(m-1)) on [0, 1] with
    y^(i)(0) = left_values[i] and y^(j)(1) = right_values[j].

    ``rhs`` is either a parsed expression over x, y0..y(m-1) or a callable
    f(x, y0, ..., y(m-1)).  An expression is evaluated over all the nodes
    at once; a callable is called once per node with floats, and its
    result is converted with float(), so returning an mpf is fine.
    """

    left_values: tuple
    right_values: tuple
    rhs: object

    def __post_init__(self):
        left = tuple(float(v) for v in self.left_values)
        right = tuple(float(v) for v in self.right_values)
        object.__setattr__(self, "left_values", left)
        object.__setattr__(self, "right_values", right)
        if self.m < 1:
            raise ValueError("need at least one boundary condition (m >= 1)")
        if not all(np.isfinite(v) for v in left + right):
            raise ValueError("boundary values must be finite")
        idx = max_arg_index(self.rhs) if not callable(self.rhs) else -1
        if idx >= self.m:
            raise ValueError(
                f"rhs references y{idx} but the equation order is {self.m}"
            )

    @property
    def k(self):
        return len(self.left_values)

    @property
    def l(self):
        return len(self.right_values)

    @property
    def m(self):
        return self.k + self.l

    def rhs_value(self, x, args):
        """f at x, a float or an array of points, where args[r] holds the
        r-th derivative value(s)."""
        if not callable(self.rhs):
            return eval_expr(self.rhs, x, args)
        if np.ndim(x) == 0:
            return self.rhs(x, *args)
        points = zip(np.asarray(x).tolist(), *(np.asarray(a).tolist() for a in args))
        return np.array([float(self.rhs(*point)) for point in points])


@dataclass(frozen=True)
class SolveOptions:
    """Target degree and quadrature overrides.

    quad_order None means the per-iteration default max(n + 2, 20);
    record_iterates keeps every iterate w_(m-1)..w_N in the report.
    """

    degree: int
    quad_order: int = None
    quad_panels: int = 2
    record_iterates: bool = False


@dataclass(frozen=True)
class SolveReport:
    """Final polynomial, per-iteration L2 residuals, optional iterates."""

    solution: BernsteinPoly
    residuals: np.ndarray
    iterates: tuple = None

    def __post_init__(self):
        arr = np.asarray(self.residuals, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "residuals", arr)


def outer_coefficients(problem, n):
    """Bernstein coefficients of degree n pinned by the boundary data.

    Returns (left, right): left[i] is the coefficient at index i
    (i = 0..k-1) and right[j] the one at index n - j (j = 0..l-1).  Both
    recurrences peel the highest-order endpoint-derivative formula.  Staying
    in float64 is deliberate: each coefficient is computed from the already
    rounded earlier ones, so its own rounding compensates theirs and the
    boundary conditions verify more tightly than independently rounded exact
    values would.
    """
    k, l = problem.k, problem.l
    if n < max(k, l) - 1:
        raise ValueError(f"degree {n} too small for k={k}, l={l}")
    left = np.zeros(k)
    for i in range(k):
        terms = [problem.left_values[i] / falling_factorial(n, i)]
        terms += [-((-1.0) ** (i - h)) * comb(i, h) * left[h] for h in range(i)]
        left[i] = math.fsum(terms)
    right = np.zeros(l)
    for j in range(l):
        terms = [(-1.0) ** j * problem.right_values[j] / falling_factorial(n, j)]
        terms += [-((-1.0) ** h) * comb(j, h) * right[j - h] for h in range(1, j + 1)]
        right[j] = math.fsum(terms)
    return left, right


def seed(problem):
    """The degree m-1 starting polynomial; it satisfies all boundary
    conditions and involves no least-squares step."""
    m = problem.m
    left, right = outer_coefficients(problem, m - 1)
    return BernsteinPoly(_full_coeffs(m - 1, problem.k, problem.l,
                                      left, right, np.empty(0)))


def _full_coeffs(n, k, l, left, right, inner):
    p = np.empty(n + 1)
    p[:k] = left
    p[k:n - l + 1] = inner
    for j in range(l):
        p[n - j] = right[j]
    return p


def _iterate_core(problem, prev, n, rule, bound_rhs=None):
    """One degree-raising step from the coefficients prev of the degree
    n - 1 iterate; returns (coefficients, L2 residual).

    bound_rhs, when given, is problem.rhs bound to rule.nodes, and is
    evaluated in its place.
    """
    m, k, l = problem.m, problem.k, problem.l
    left, right = outer_coefficients(problem, n)

    def g(x):  # x is rule.nodes: the moment kernel samples g at the nodes
        args = _eval_mp(prev, range(m), rule)
        if bound_rhs is None:
            return problem.rhs_value(x, args)
        return eval_expr(bound_rhs, x, args)

    moments, gvals = _moment_integrals_mp(g, n - m, rule)
    duals = dual_coefficients(n - m)
    try:
        v = bandsolve.assemble_rhs(n, m, k, l, duals, moments, (left, right))
    except OverflowError as exc:
        raise EvaluationError("system right-hand side overflows float64") from exc
    system = bandsolve.assemble_matrix(n, m, k, l).with_rhs(v)
    inner = bandsolve.solve(system)
    if not np.isfinite(inner).all():
        raise EvaluationError("band solve result is not finite in float64")
    coeffs = _full_coeffs(n, k, l, left, right, inner)

    # L2 residual of the new iterate against the frozen right-hand side
    [deriv_m] = _eval_mp(coeffs, (m,), rule)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = rule.weights * (deriv_m - gvals) ** 2
    try:
        res2 = math.fsum(terms.tolist())
    except OverflowError:
        res2 = math.inf
    if not math.isfinite(res2):
        raise EvaluationError("L2 residual is not finite in float64")
    return coeffs, math.sqrt(res2)


def _rule_args(n, options=None):
    """(order, panels) of the quadrature rule for degree n."""
    order = options.quad_order if options and options.quad_order else max(n + 2, 20)
    panels = options.quad_panels if options else 2
    return order, panels


def _default_rule(n, options=None):
    return gauss_rule(*_rule_args(n, options))


def iterate(problem, previous, n, rule=None):
    """Compute the degree-n iterate from the degree-(n-1) one.

    The outer coefficients come from the boundary data; the inner ones solve
    the banded Toeplitz system with the right-hand side frozen at
    ``previous``.  Numerical failures carry the iteration index.
    """
    if n < problem.m:
        raise ValueError(f"need n >= m = {problem.m}, got {n}")
    if previous.degree != n - 1:
        raise ValueError(
            f"previous iterate must have degree {n - 1}, got {previous.degree}"
        )
    if rule is None:
        rule = _default_rule(n)
    try:
        coeffs, _ = _iterate_core(problem, previous.coeffs, n, rule)
    except (EvaluationError, SingularSystemError) as exc:
        raise IterationError(n, exc) from exc
    return BernsteinPoly(coeffs)


def solve(problem, options):
    """Run the iteration from the seed up to degree options.degree.

    Deterministic for fixed inputs; residuals are recorded for every
    n = m..N, iterates only when options.record_iterates is set.

    An expression rhs with x-only subtrees beyond a bare x is bound to
    the nodes of each quadrature rule that serves more than one degree
    (``expressions.bind``), at the first of them, so each iteration
    evaluates only its y-dependent rest; a rule that serves one degree
    evaluates the rhs unbound, which costs less than binding it.  The
    iterates are the same bits as iterate() gives.
    """
    N = options.degree
    m = problem.m
    if N < m:
        raise ValueError(f"target degree {N} below equation order {m}")
    if options.quad_order is not None and options.quad_order < 1:
        raise ValueError("quad_order must be >= 1")
    if options.quad_panels < 1:
        raise ValueError("quad_panels must be >= 1")

    start = seed(problem)
    coeffs = start.coeffs
    iterates = [start] if options.record_iterates else None
    residuals = []
    binds = not callable(problem.rhs) and bindable(problem.rhs)
    rule = bound_rhs = None
    for n in range(m, N + 1):
        previous_rule, rule = rule, _default_rule(n, options)
        if rule is not previous_rule:
            reused = n < N and _rule_args(n + 1, options) == _rule_args(n, options)
            bound_rhs = bind(problem.rhs, rule.nodes) if binds and reused else None
        try:
            coeffs, res = _iterate_core(problem, coeffs, n, rule, bound_rhs)
        except (EvaluationError, SingularSystemError) as exc:
            raise IterationError(n, exc) from exc
        residuals.append(res)
        if iterates is not None:
            iterates.append(BernsteinPoly(coeffs))
    return SolveReport(
        solution=iterates[-1] if iterates else BernsteinPoly(coeffs),
        residuals=np.array(residuals),
        iterates=tuple(iterates) if iterates is not None else None,
    )
