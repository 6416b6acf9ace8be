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
node array per iteration, an expression and a callable right-hand side
alike (``_compiled_rhs``).  The x-only parts of an expression right-hand
side, forcing terms such as exp(a*x), depend on the nodes alone: solve
compiles the right-hand side once (``expressions.compile``), and the
compiled tree keeps their values per rule, so they are evaluated once per
quadrature rule and each iteration evaluates only the parts that involve
the iterate.  A derivative's values at the nodes are one product of its
coefficients (forward differences of the iterate's) with the Bernstein
basis matrix that the quadrature rule keeps per degree, so the iteration
works on coefficient arrays and never builds a BernsteinPoly before the
end.  The step takes only the derivatives that the right-hand side reads
(``BVProblem.reads``: the yk of an expression, every order of a
callable), each with the bits it has when every order is taken, and
passes None for the others.  The L2 residual is one scaled norm
(``math.hypot``) of the residual at the nodes times the roots of the
weights, exact in scale where its squares would leave float64.  The
projection goes through the Legendre factorization of the dual table,
C = M diag(2j+1) M^T: the Legendre moments of the samples are one
float64 product with the rule's weighted Legendre Vandermonde, and the
float rows of M combine them into the system right-hand side v.  The
band solve multiplies by the cached inverse of each matrix and refines
(``bandsolve.solve``); a report turns the kept coefficient arrays into
float64 BernsteinPolys when first read.

Each step solves for its correction to a base, the seed raised to degree
n with the boundary coefficients of degree n as its outer ones (defect
correction), so v has no boundary stencil terms, cancels nothing, and is
float64 throughout.  The base's m-th derivative is zero, so it is not
evaluated: the samples are projected as they are, whatever the degree of
the previous iterate.  solve's ladder and iterate() take this one step
and differ only in the band solve: the ladder tries one float64
refinement pass first and refines with exact residuals only when that
pass falls short, while iterate() always refines with exact residuals.

Each constant of a step is kept once, under what it depends on: the
basis matrices and falling factorials of the derivatives on the rule
(``QuadratureRule.memo``), by the degree of the polynomial and the
orders read, with the roots of the rule's weights; the constants of the
outer coefficients and the rows that raise the seed to degree n, both by
(n, k, l) (``_shape_terms``); the band system of each shape, with its
inverse, by ``bandsolve.assemble_matrix``; and the dual table by its
degree.  So a warm iteration derives no constant again, whatever the
degree of the iterate it starts from.

A step is dominated by the entry cost of small numpy calls, not by their
arithmetic, so its products with C-contiguous matrices are ndarray.dot
(the same bits as @, with about half its overhead) and its finiteness
checks count the finite entries (``np.count_nonzero``).

solve and iterate() step through one loop (``_drive``), which enters one
``np.errstate`` per call for every step; each step checks every value it
makes once, in the layer that makes it (``_iterate_core``), and leaves as
one IterationError on a numerical failure.  Boundary data whose outer
coefficients leave float64 fail the same way, at the step's degree or at
the seed's, m - 1, from ``seed``, where solve and iterate both start.
"""

import functools
import math
from dataclasses import dataclass
from math import comb
from operator import mul

import numpy as np

from . import bandsolve
from .bernstein import BernsteinPoly, falling_factorial
from .dual import dual_coefficients
from .errors import EvaluationError, IterationError, SingularSystemError
from .expressions import arg_indices, compile, evaluate
from .quadrature import gauss_rule, legendre_moments

__all__ = ["BVProblem", "SolveOptions", "SolveReport",
           "outer_coefficients", "seed", "iterate", "solve"]


def _node_derivatives(p, terms):
    """Values at a rule's nodes of derivatives of the polynomial with
    Bernstein coefficients p, positioned by order: entry r is the values
    of derivative r, or None for an order that terms skips.

    terms holds (steps, skipped, B, n!/(n-r)!) per derivative order r
    wanted, ascending, where n = p.size - 1, B is the rule's basis matrix
    of degree n - r, steps is the range of forward differences that lead
    to r from the previous order wanted (from p itself for the first),
    and skipped holds a None for each order on the way that is not
    wanted (``_derivative_terms``).  Derivative r has the
    coefficients n!/(n-r)! times the r-fold forward differences of p,
    taken once, order after order, so each has the bits it has when every
    order is wanted; its values are one product with B.  A value that
    overflows is inf or nan, with a warning unless the caller ignores it
    (``np.errstate``, as ``_drive`` does); the caller checks the
    values it uses.
    """
    values = []
    for steps, skipped, basis, scale in terms:
        for _ in steps:
            p = p[1:] - p[:-1]
        values += skipped
        values.append(basis.dot(scale * p))
    return values


def _derivative_terms(rule, n, orders):
    """The terms of ``_node_derivatives`` for the derivatives of the given
    ascending orders of a polynomial of degree n."""
    return tuple((range(r - max(q, 0)), (None,) * (r - q - 1),
                  rule.bernstein_basis(n - r), falling_factorial(n, r))
                 for q, r in zip((-1, *orders), orders))


def _rhs_at_nodes(rhs, x, args):
    """The compiled right-hand side rhs (``_compiled_rhs``) at the node
    array x, with args the derivative values there: its value array as it
    comes, which the caller must not write to, or a constant broadcast to
    x's shape.  Unlike ``expressions.evaluate`` it checks no shapes and
    copies nothing, and it runs under the caller's np.errstate."""
    values = rhs(x, args)
    return values if np.ndim(values) else np.full(x.shape, values)


# perfbench/tracing.py wraps these names: _eval_mp, the node evaluator
# above, to time the derivative arguments (one call per iteration, inside
# the moment kernel, which samples g) apart from the m-th derivative
# outside it (the residual's),
# _moment_integrals_mp as the moment layer, eval_expr as the expression
# layer, and dual_coefficients as the per-degree lookup of the Legendre
# factor.  The iteration calls each through these names.  The "_mp"
# suffixes are historical: neither runs in mpmath any more.  eval_expr is
# the step's own evaluator of the right-hand side, ``_rhs_at_nodes``; every
# right-hand side goes through it, from ``_compiled_rhs``.
_eval_mp = _node_derivatives
_moment_integrals_mp = legendre_moments
eval_expr = _rhs_at_nodes


@dataclass(frozen=True)
class BVProblem:
    """Problem data: y^(m) = f(x, y, ..., y^(m-1)) on [0, 1] with
    y^(i)(0) = left_values[i] and y^(j)(1) = right_values[j].

    ``rhs`` is a parsed expression over x, y0..y(m-1), evaluated over all
    the nodes at once, or a callable f(x, y0, ..., y(m-1)), called once per
    node with floats (``_compiled_rhs``); anything else raises TypeError.
    ``reads`` is the ascending tuple of the derivative orders rhs reads:
    the yk of an expression, found by one walk of its tree, and every
    order 0..m-1 of a callable.  A step evaluates only these.
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
        # every order of a callable; TypeError for a non-node
        reads = tuple(range(self.m) if callable(self.rhs) else sorted(arg_indices(self.rhs)))
        if reads and reads[-1] >= self.m:
            raise ValueError(f"rhs references y{reads[-1]} but the equation order is {self.m}")
        object.__setattr__(self, "reads", reads)

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
        r-th derivative value(s), as the iteration evaluates it."""
        return evaluate(_compiled_rhs(self), x, args)


@dataclass(frozen=True)
class SolveOptions:
    """Target degree and quadrature overrides.

    quad_order None means the per-iteration default of ``rule_order``;
    ``quadrature.gauss_rule`` checks both quadrature fields.
    """

    degree: int
    quad_order: int = None
    quad_panels: int = 2

    def rule_order(self, n):
        """The Gauss order of the rule at degree n: quad_order, or max(n + 2, 20)."""
        return max(n + 2, 20) if self.quad_order is None else self.quad_order


@dataclass(frozen=True)
class SolveReport:
    """Final polynomial, per-iteration L2 residuals, and the read-only coefficients
    of w_(m-1)..w_(N-1), which ``iterates`` turns into polynomials when first read."""

    solution: BernsteinPoly
    residuals: np.ndarray
    previous: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.residuals, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "residuals", arr)
        for coeffs in self.previous:
            coeffs.setflags(write=False)

    @functools.cached_property
    def iterates(self):
        """w_(m-1)..w_N, built once; the last is ``solution`` itself."""
        return (*map(BernsteinPoly, self.previous), self.solution)


def outer_coefficients(problem, n):
    """Bernstein coefficients of degree n pinned by the boundary data.

    Returns (left, right): left[i] is the coefficient at index i
    (i = 0..k-1) and right[j] the one at index n - j (j = 0..l-1), so n
    must be at least m - 1 for the two to hold distinct indices.  One
    recurrence, at both ends, peels the highest-order endpoint-derivative
    formula.  Staying in float64 is deliberate: each coefficient is computed
    from the already rounded earlier ones, so its own rounding compensates
    theirs and the boundary conditions verify more tightly than
    independently rounded exact values would.
    """
    k, l = problem.k, problem.l
    if n < problem.m - 1:
        raise ValueError(f"degree {n} too small for k={k}, l={l}: need n >= m - 1")
    left, right = _outer(problem, _shape_terms(n, k, l)[0])
    return np.array(left, dtype=float), np.array(right, dtype=float)


# one entry per shape (n, k, l), like bandsolve.assemble_matrix
@functools.lru_cache(maxsize=1024)
def _shape_terms(n, k, l):
    """What a step of degree n takes from n, k and l alone: (outer terms,
    elevation rows).  The outer terms, which both ends share, hold
    n!/(n-j)! and -(-1)^h C(j, h) for h = 1..j, per j < max(k, l).  The
    elevation rows are rows k..n - l of the matrix that raises a
    polynomial of degree m - 1 to degree n: C(m-1, j) C(n-m+1, i-j) /
    C(n, i), each rounded once from the integers (read-only)."""
    m = k + l
    outer = tuple((falling_factorial(n, j),
                   tuple(-((-1.0) ** h) * comb(j, h) for h in range(1, j + 1)))
                  for j in range(max(k, l)))
    e = np.array([[comb(m - 1, j) * comb(n - m + 1, i - j) / comb(n, i) if j <= i else 0.0
                   for j in range(m)] for i in range(k, n - l + 1)])
    e.setflags(write=False)
    return outer, e


def _outer(problem, terms):
    """outer_coefficients as two lists, from the terms of its degree: c_j,
    j places from either end, is the correctly rounded sum of
    s_j v_j / (n!/(n-j)!) (s_j = 1 at x = 0, (-1)^j at x = 1) and the
    rounded -(-1)^h C(j, h) c_(j-h), h = 1..j: their fsum, or where its
    partial sums overflow their exact sum (``bandsolve._dyadic``) rounded
    once, so mirror-image data give the same coefficients.  Each is
    checked once, here: EvaluationError if one is not finite in float64,
    as for boundary data near the float64 limit."""
    ends = []
    try:
        for sign, values in ((1.0, problem.left_values), (-1.0, problem.right_values)):
            end = []
            for j, (value, (scale, signed)) in enumerate(zip(values, terms)):
                summands = [sign ** j * value / scale, *map(mul, reversed(signed), end)]
                try:
                    end.append(math.fsum(summands))
                except OverflowError:  # a partial sum overflows
                    ints, s = bandsolve._dyadic(summands)
                    end.append(sum(ints) / (1 << s))
            ends.append(end)
        finite = all(map(math.isfinite, ends[0] + ends[1]))
    except (OverflowError, ValueError):  # the sum leaves float64, or fsum meets inf - inf
        finite = False
    if not finite:
        raise EvaluationError("outer coefficients are not finite in float64")
    return ends


def seed(problem):
    """The degree m-1 starting polynomial; it satisfies all boundary
    conditions and involves no least-squares step.

    Boundary data whose coefficients are not finite in float64 fail as
    IterationError(m - 1, cause), the degree of the seed.
    """
    try:
        left, right = _outer(problem, _shape_terms(problem.m - 1, problem.k, problem.l)[0])
    except EvaluationError as exc:
        raise IterationError(problem.m - 1, exc) from exc
    return BernsteinPoly(np.concatenate((left, right[::-1])))


def _iterate_core(problem, start, prev, n, rule, rhs, float_pass):
    """One step to degree n from the coefficients prev of the previous
    iterate, of any degree from m - 1 up, with start the seed's
    coefficients; returns (coefficients, L2 residual).

    The step solves for the correction to the inner coefficients of a base,
    the seed raised to degree n (``_shape_terms``) with the outer
    coefficients of degree n, so v has no boundary stencil terms and is
    the float64 product alone (``bandsolve.assemble_rhs``).  The base's
    m-th derivative is zero, so it is not evaluated: the samples of the
    right-hand side are projected as they are, and the L2 residual comes
    from the correction alone.  With ``float_pass``, as solve's ladder
    steps, the band solve tries one float64 refinement pass before it
    refines with exact residuals (``bandsolve.solve``); iterate()'s step
    refines with exact residuals only.

    rhs is the right-hand side from ``_compiled_rhs``, an expression or a
    callable alike.  Its derivative arguments are those of the orders it
    reads (``problem.reads``), positioned by order, with None at each
    order it does not read; the rule keeps their terms under the orders
    read, not m, since problems of one order can read different ones
    (examples 2 and 3).  The step runs under the caller's np.errstate,
    which ``_drive`` enters once per call, ignoring overflow and
    invalid operations.  Each value is checked once, by the layer that
    makes it: the outer coefficients (``_outer``), the samples of the
    right-hand side (``legendre_moments``), v (``bandsolve.assemble_rhs``),
    the band solve's first product (``bandsolve.solve``), and here the new
    inner coefficients and the L2 residual.  Every numerical failure
    (EvaluationError, SingularSystemError) leaves here as the cause of an
    IterationError(n, cause).
    """
    m, k, l = problem.m, problem.k, problem.l
    d = prev.size - 1
    derivs = rule.memo(("derivs", d, problem.reads), _derivative_terms, rule, d, problem.reads)
    residual = rule.memo(("residual", n, m), _derivative_terms, rule, n, (m,))
    root_weights = rule.memo("root_weights", np.sqrt, rule.weights)
    outer_terms, elevation = _shape_terms(n, k, l)

    def g(x):  # x is rule.nodes: the moment kernel samples g at the nodes
        return eval_expr(rhs, x, _eval_mp(prev, derivs))

    try:
        left, right = _outer(problem, outer_terms)
        moments, gvals = _moment_integrals_mp(g, n - m, rule)
        system = bandsolve.assemble_matrix(n, k, l)
        v = bandsolve.assemble_rhs(system, dual_coefficients(n - m), moments)
        step = np.zeros(n + 1)
        step[k:n - l + 1] = bandsolve.solve(system, v, float_pass)
        inner = elevation.dot(start) + step[k:n - l + 1]
        if np.count_nonzero(np.isfinite(inner)) != inner.size:
            raise EvaluationError("band solve result is not finite in float64")
        coeffs = np.concatenate((left, inner, right[::-1]))

        # L2 residual of the new iterate against the frozen right-hand
        # side: (base + step)^(m) - g = step^(m) - g, one scaled norm
        deriv_m = _eval_mp(step, residual)[m]
        res = math.hypot(*(root_weights * (deriv_m - gvals)).tolist())
        if not math.isfinite(res):
            raise EvaluationError("L2 residual is not finite in float64")
    except (EvaluationError, SingularSystemError) as exc:
        raise IterationError(n, exc) from exc
    return coeffs, res


def _default_rule(n, options):
    """The quadrature rule for degree n under options (``SolveOptions``)."""
    return gauss_rule(options.rule_order(n), options.quad_panels)


def _compiled_rhs(problem):
    """problem.rhs as a function of (x, args) that ``expressions.evaluate``
    takes in place of a tree: an expression compiled (``compile``), or a
    callable f called once per point, in order, with floats, its results
    converted with float() and given the common shape of x and the
    arguments (one ``np.broadcast_arrays``); an ArithmeticError or
    ValueError there is an EvaluationError at that point."""
    f = problem.rhs
    if not callable(f):
        return compile(f)

    def pointwise(x, args):  # x is an array; each argument has a value per point
        x, *args = np.broadcast_arrays(x, *args)
        points = zip(x.ravel().tolist(), *(a.ravel().tolist() for a in args))
        values = []
        try:
            for point in points:
                values.append(float(f(*point)))
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(f"f at x={point[0]}: {exc!r}", where=point[0]) from exc
        return np.array(values).reshape(x.shape)
    return pointwise


def _drive(problem, start, coeffs, steps, float_pass=False):
    """The one loop of solve and iterate(): one ``_iterate_core`` step per
    (degree, rule) pair of steps, which may be lazy, from coeffs, the
    previous iterate's, on the base of start, the seed's (``seed``, which
    fails as m - 1); returns the ``SolveReport`` of those steps.  The
    right-hand side is compiled once (``_compiled_rhs``), and every step
    runs under one np.errstate that ignores overflow and invalid
    operations; a numerical failure leaves as IterationError(n, cause)."""
    previous, residuals = [], []
    rhs = _compiled_rhs(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, rule in steps:
            previous.append(coeffs)
            coeffs, res = _iterate_core(problem, start, coeffs, n, rule, rhs, float_pass)
            residuals.append(res)
    return SolveReport(BernsteinPoly(coeffs), np.array(residuals), tuple(previous))


def iterate(problem, previous, n, rule=None):
    """One step to degree n from ``previous``, an iterate of any degree
    from m - 1 up, so a sweep at a fixed degree or a jump in degree too.

    The outer coefficients come from the boundary data; the inner ones solve
    the banded Toeplitz system with the right-hand side frozen at
    ``previous``, as the correction to the seed raised to degree n, with
    exact refinement (``_iterate_core``), which keeps the step at the one
    solved exactly from the same samples, to rounding.  The step is the
    one-step plan of ``_drive``, as in solve; numerical failures carry the
    iteration index, and warn nothing.
    """
    if n < problem.m:
        raise ValueError(f"need n >= m = {problem.m}, got {n}")
    if previous.degree < problem.m - 1:
        raise ValueError(f"previous iterate has degree {previous.degree} < m - 1")
    if rule is None:
        rule = _default_rule(n, SolveOptions(degree=n))
    return _drive(problem, seed(problem).coeffs, previous.coeffs, [(n, rule)]).solution


def solve(problem, options):
    """Run the iteration from the seed up to degree options.degree.

    Deterministic for fixed inputs; the report holds the residual of every
    n = m..N and every iterate from the seed on, kept as coefficients.

    The ladder is the lazy plan of (n, rule) steps, n = m..N, that
    ``_drive`` takes with the float64 refinement pass first; a numerical
    failure leaves as IterationError(n, cause).  Nothing is kept across
    calls.  Each iterate is the one iterate() gives from the iterate
    before, up to the band solve's refinement (``_iterate_core``).
    """
    if options.degree < problem.m:
        raise ValueError(f"target degree {options.degree} below equation order {problem.m}")
    start = seed(problem).coeffs
    ladder = ((n, _default_rule(n, options)) for n in range(problem.m, options.degree + 1))
    return _drive(problem, start, start, ladder, float_pass=True)
