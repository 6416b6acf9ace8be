"""Shared test oracles and reference data."""

import functools
import math
import operator
from fractions import Fraction

import numpy as np


def de_casteljau(coeffs, x):
    """O(n^2) Bernstein evaluation; independent oracle for the basis sum."""
    b = np.array(coeffs, dtype=float)
    n = b.size - 1
    for r in range(1, n + 1):
        b[: n - r + 1] = (1.0 - x) * b[: n - r + 1] + x * b[1 : n - r + 2]
    return b[0]


def evaluate_reference(p, x):
    """Horner evaluation of a BernsteinPoly at one point, in t = x/(1-x) for
    x <= 1/2 and in (1-x)/x otherwise, so no significance is lost near
    either end.  Oracle for ``bernstein.evaluate`` and the solver's node
    derivatives, which sum over the basis instead: the two differ by at
    most 4 (d + 1) eps sum_i |q_i| B_i^d(x)."""
    from bernbvp.bernstein import binomial_row

    c = p.coeffs
    n = p.degree
    binom = binomial_row(n)
    if x <= 0.5:
        s = 1.0 - x
        t = x / s if s else 0.0
        acc = c[n]
        for i in range(n - 1, -1, -1):
            acc = acc * t + c[i] * binom[i]
        return acc * s**n
    u = (1.0 - x) / x
    acc = c[0]
    for i in range(1, n + 1):
        acc = acc * u + c[i] * binom[i]
    return acc * x**n


def basis_exact(d, i, x):
    """B_i^d(x) = C(d, i) x^i (1 - x)^(d - i) as an exact Fraction at the
    float x."""
    x = Fraction(x)
    return math.comb(d, i) * x**i * (1 - x) ** (d - i)


def assert_basis_near_exact(values, d, x):
    """Basis values B_0^d(x)..B_d^d(x) at one float x: each within
    2 (d + 1) eps B_i^d(x) of the exact value (measured worst:
    0.32 (d + 1) eps) and within 4 (d + 1) eps B_i^d(x) of the Horner
    oracle on the unit coefficients, or within 2^-1022 where the powers
    underflow."""
    from bernbvp.bernstein import BernsteinPoly

    for i, value in enumerate(values):
        exact = basis_exact(d, i, x)
        bound = 4 * (d + 1) * 2.0**-52 * exact
        assert abs(Fraction(value) - exact) <= max(bound / 2, 2.0**-1022), (d, i, x)
        horner = evaluate_reference(BernsteinPoly(np.eye(d + 1)[i]), x)
        assert abs(Fraction(value) - Fraction(horner)) <= max(bound, 2.0**-1022), (d, i, x)


def expression_reference(e, x, args=()):
    """The scalar tree walk over Python floats that ``expressions.evaluate``
    replaced: one point at a time, raising at its first failing operation.
    Oracle for the array walk, element by element."""
    from bernbvp.errors import EvaluationError
    from bernbvp.expressions import Arg, BinOp, Call, Neg, Num, X

    if isinstance(e, Num):
        return e.value
    if isinstance(e, X):
        return x
    if isinstance(e, Arg):
        if e.index >= len(args):
            raise EvaluationError(
                f"missing argument y{e.index} (got {len(args)} arguments)"
            )
        return args[e.index]
    if isinstance(e, Neg):
        return -expression_reference(e.operand, x, args)
    if isinstance(e, BinOp):
        a = expression_reference(e.left, x, args)
        b = expression_reference(e.right, x, args)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise EvaluationError("division by zero", where=float(a))
            return a / b
        return _power_reference(a, b)
    if isinstance(e, Call):
        v = expression_reference(e.arg, x, args)
        if e.fn == "ln" and v <= 0:
            raise EvaluationError(f"ln of non-positive value {float(v)}", where=float(v))
        if e.fn == "sqrt" and v < 0:
            raise EvaluationError(f"sqrt of negative value {float(v)}", where=float(v))
        try:
            return _FUNCS_REFERENCE[e.fn](v)
        except (OverflowError, ValueError) as exc:
            raise EvaluationError(f"{e.fn}({float(v)}): {exc}", where=float(v)) from exc
    raise TypeError(f"not an expression node: {e!r}")


_FUNCS_REFERENCE = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sec": lambda v: 1.0 / math.cos(v),
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
}


def _power_reference(base, exponent):
    from bernbvp.errors import EvaluationError

    def is_integer(v):
        try:
            return v == int(v)
        except (OverflowError, ValueError):
            return False

    if base < 0 and not is_integer(exponent):
        raise EvaluationError(
            f"negative base {float(base)} with non-integer exponent {float(exponent)}",
            where=float(base),
        )
    if base == 0 and exponent < 0:
        raise EvaluationError("zero raised to a negative power", where=0.0)
    if is_integer(exponent):
        exponent = int(exponent)
    try:
        return base**exponent
    except OverflowError:
        sign = -1.0 if (base < 0 and exponent % 2 == 1) else 1.0
        return sign * math.inf


def exact_route_iterate(problem, previous, n, rule):
    """Coefficients of the degree-n iterate solved exactly, each rounded
    once to float64: the outer coefficients from the boundary data
    (``outer_coefficients_reference``), the exact Bernstein moments of the
    samples, v from the exact dual table, and the band system solved
    exactly (``band_solve_reference``), all in Fractions.  Only the
    samples, f at the float64 derivatives of ``previous``, are rounded."""
    from bernbvp.bernstein import derivative, evaluate

    m, k, l = problem.m, problem.k, problem.l
    nu = n - m
    left, right = outer_coefficients_reference(problem, n)
    derivs = [derivative(previous, r) for r in range(m)]
    moments, _ = exact_moments_reference(
        lambda xs: problem.rhs_value(xs, [evaluate(d, xs) for d in derivs]), nu, rule)
    stencil = [(-1) ** (m - h) * math.comb(m, h) for h in range(m + 1)]
    fixed = [*left, *[0] * (nu + 1), *right[::-1]]
    mden = math.lcm(*(x.denominator for x in moments))
    mnum = [x.numerator * (mden // x.denominator) for x in moments]
    v = []
    for i, row in enumerate(dual_table(nu)):
        den = math.lcm(*(c.denominator for c in row))
        dot = sum(c.numerator * (den // c.denominator) * y for c, y in zip(row, mnum))
        v.append(Fraction(dot * math.factorial(nu), den * mden * math.factorial(n))
                 - sum(a * b for a, b in zip(stencil, fixed[i:i + m + 1])))
    inner = band_solve_reference(stencil, k, v)
    return np.array([float(c) for c in (*left, *inner, *right[::-1])])


def outer_coefficients_reference(problem, n):
    """The outer Bernstein coefficients of degree n as exact Fractions of
    the boundary data, (left, right) as ``solver.outer_coefficients``
    returns them: y^(i)(0) = n!/(n-i)! sum_h (-1)^(i-h) C(i, h) left[h]
    and y^(j)(1) = n!/(n-j)! sum_h (-1)^h C(j, h) right[j-h], solved for
    the last coefficient of each."""
    left, right = [], []
    for i, value in enumerate(problem.left_values):
        left.append(Fraction(value) / math.perm(n, i)
                    - sum((-1) ** (i - h) * math.comb(i, h) * c for h, c in enumerate(left)))
    for j, value in enumerate(problem.right_values):
        right.append((-1) ** j * Fraction(value) / math.perm(n, j)
                     - sum((-1) ** h * math.comb(j, h) * right[j - h] for h in range(1, j + 1)))
    return left, right


def band_solve_reference(stencil, k, v):
    """The exact solution p of G p = v, where G's entry (i, j) is
    stencil[j - i + k] on the band, by Gaussian elimination without
    pivoting and back substitution in Fractions.  Every leading block of
    such a G is the stencil matrix of a smaller size, which is not
    singular, so no pivot is zero."""
    size, upper = len(v), len(stencil) - 1 - k
    rows = [{j: Fraction(stencil[j - i + k]) for j in range(max(0, i - k), min(size, i + upper + 1))}
            for i in range(size)]
    v = list(v)
    for p in range(size):
        for i in range(p + 1, min(size, p + k + 1)):
            factor = rows[i].pop(p) / rows[p][p]
            for j, a in rows[p].items():
                if j > p:
                    rows[i][j] = rows[i].get(j, 0) - factor * a
            v[i] -= factor * v[p]
    x = [Fraction(0)] * size
    for i in reversed(range(size)):
        x[i] = (v[i] - sum(a * x[j] for j, a in rows[i].items() if j > i)) / rows[i][i]
    return x


def route_inputs(m, seed):
    """(k, nu, problem, previous, rule) for every k = 0..m and nu in (0,
    random, 58), drawn from seed: a rhs smooth in x and y0, boundary data
    in [-1, 1] and a smooth previous iterate of degree n - 1, with the
    default rule of degree n = nu + m."""
    from bernbvp.bernstein import BernsteinPoly
    from bernbvp.expressions import parse
    from bernbvp.quadrature import gauss_rule
    from bernbvp.solver import BVProblem

    rng = np.random.default_rng(4000 + m + 100 * seed)
    for k in range(m + 1):
        for nu in (0, int(rng.integers(1, 58)), 58):
            n = nu + m
            a, b, c, d, e, f, h = rng.uniform(-2, 2, 7)
            rhs = parse(f"{a:.17g}*sin({b:.17g}*x + {c:.17g}) + {d:.17g}*y0")
            problem = BVProblem(tuple(rng.uniform(-1, 1, k)), tuple(rng.uniform(-1, 1, m - k)),
                                rhs)
            previous = BernsteinPoly(e * np.sin(f * np.linspace(0, 1, n) + h))
            yield k, nu, problem, previous, gauss_rule(max(n + 2, 20), 2)


def exact_moments_reference(g, nu, rule):
    """Exact quadrature moments sum_t w_t g(x_t) B_q^nu(x_t) as Fractions,
    by the direct per-node expansion of X^q (2^e - X)^(nu-q), where
    x_t = X_t / 2^e; returns (moments, g values as floats).  g maps the
    rule's node array to one sample per node, as for
    ``quadrature.legendre_moments``."""
    gvals = np.asarray(g(rule.nodes), dtype=float).tolist()
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


def legendre_moments_reference(g, nu, rule):
    """Exact quadrature Legendre moments
    (2j + 1) sum_t w_t g(x_t) P_j(2 x_t - 1), j = 0..nu, as Fractions, by
    the three-term recurrence in exact arithmetic; returns (moments, g
    values as floats).  Oracle for ``quadrature.legendre_moments``."""
    gvals = np.asarray(g(rule.nodes), dtype=float).tolist()
    sums = [Fraction(0)] * (nu + 1)
    for x, w, gx in zip(rule.nodes.tolist(), rule.weights.tolist(), gvals):
        y, wg = 2 * Fraction(x) - 1, Fraction(w) * Fraction(gx)
        prev, cur = Fraction(0), Fraction(1)
        for j in range(nu + 1):
            sums[j] += wg * cur
            prev, cur = cur, ((2 * j + 1) * y * cur - j * prev) / (j + 1)
    return [(2 * j + 1) * s for j, s in enumerate(sums)], gvals


def _over_power_of_two(ratios):
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


@functools.lru_cache(maxsize=None)
def dual_table(n):
    """The connection coefficients c_iq of the dual basis of degree n as
    exact ``fractions.Fraction``s, ``dual_table(n)[i][q]``: the product
    M diag(2j + 1) M^T of ``dual.py`` formed exactly from the integer
    numerators N of ``dual_coefficients(n)``,

        c_iq = sum_j (2j + 1) N[i, j] N[q, j] / (C(n,i) C(n,q)).

    The table is symmetric: the entries with q >= i are formed and
    mirrored.  Memoized per degree."""
    from bernbvp.dual import dual_coefficients

    rows = dual_coefficients(n).legendre_numerators
    weighted = [[(2 * j + 1) * a for j, a in enumerate(row)] for row in rows]
    upper = [[Fraction(sum(map(operator.mul, wi, rows[q])), math.comb(n, i) * math.comb(n, q))
              for q in range(i, n + 1)]
             for i, wi in enumerate(weighted)]
    return tuple(tuple(upper[q][i - q] for q in range(i)) + tuple(upper[i])
                 for i in range(n + 1))


def dual_table_array(n):
    """``dual_table(n)``, each entry correctly rounded to float64."""
    return np.array([[float(c) for c in row] for row in dual_table(n)])


def bernstein_gram_entry(n, i, j):
    """Exact L2 inner product <B_i^n, B_j^n> on [0, 1].

    Closed form C(n,i) C(n,j) / ((2n+1) C(2n, i+j)); the single float
    division is the only rounding.
    """
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range for degree {n}")
    return math.comb(n, i) * math.comb(n, j) / ((2 * n + 1) * math.comb(2 * n, i + j))


def stencil(system):
    """The m-th difference (-1)^(m-h) C(m, h), h = 0..m, of a StencilSystem
    of order m = k + l, from its bandwidths alone."""
    m = system.lower_bw + system.upper_bw
    return [(-1) ** (m - h) * math.comb(m, h) for h in range(m + 1)]


def dense_from_banded(system):
    """Dense matrix of a StencilSystem, built entry by entry from the
    stencil of its order."""
    s, row = system.size, stencil(system)
    a = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            d = j - i
            if -system.lower_bw <= d <= system.upper_bw:
                a[i, j] = row[d + system.lower_bw]
    return a


def monomial_bernstein_coeffs(power_coeffs, n):
    """Degree-n Bernstein coefficients of sum_j a_j x^j (a = power_coeffs)."""
    from math import comb

    p = np.zeros(n + 1)
    for i in range(n + 1):
        p[i] = sum(
            a * comb(i, j) / comb(n, j)
            for j, a in enumerate(power_coeffs)
            if j <= i
        )
    return p


# Reference maximum errors over the 201-point grid for the five built-in
# examples at degrees 2..20 (see the benchmarks section of the README).
# Values below ~1e-13 are beyond double precision and are only asserted
# as "at most 1e-11" by the acceptance suite.
BENCHMARK_MAX_ERRORS = {
    1: {2: 5.58e-3, 3: 4.83e-3, 4: 5.28e-4, 5: 7.90e-5, 6: 4.98e-6,
        7: 1.56e-6, 8: 9.93e-8, 9: 2.05e-8, 10: 1.19e-9, 11: 4.56e-10,
        12: 1.27e-11, 13: 9.58e-12, 14: 2.82e-13, 15: 2.14e-13,
        16: 5.69e-15, 17: 5.00e-15, 18: 1.24e-16, 19: 1.19e-16, 20: 2.82e-18},
    2: {4: 8.11e-3, 5: 4.32e-4, 6: 1.51e-4, 7: 4.21e-6, 8: 3.55e-7,
        9: 9.85e-9, 10: 4.08e-10, 11: 1.29e-11, 12: 5.34e-13, 13: 2.21e-14,
        14: 1.04e-15, 15: 4.97e-17, 16: 2.41e-18, 17: 1.18e-19,
        18: 5.73e-21, 19: 2.79e-22, 20: 1.19e-23},
    3: {4: 2.88e-3, 5: 3.30e-4, 6: 3.30e-5, 7: 2.85e-6, 8: 2.17e-7,
        9: 1.47e-8, 10: 9.01e-10, 11: 5.03e-11, 12: 2.58e-12, 13: 1.23e-13,
        14: 5.42e-15, 15: 2.24e-16, 16: 8.71e-18, 17: 3.19e-19,
        18: 1.11e-20, 19: 3.64e-22, 20: 1.16e-23},
    4: {3: 3.40e-2, 4: 1.03e-2, 5: 1.64e-3, 6: 1.40e-4, 7: 6.81e-6,
        8: 5.88e-7, 9: 4.44e-8, 10: 2.83e-9, 11: 1.89e-10, 12: 1.78e-11,
        13: 9.10e-13, 14: 5.82e-14, 15: 4.63e-15, 16: 2.18e-16,
        17: 1.23e-17, 18: 8.66e-19, 19: 3.95e-20, 20: 2.05e-21},
    5: {2: 1.48e0, 3: 5.56e-1, 4: 1.94e-1, 5: 9.60e-2, 6: 9.18e-3,
        7: 3.21e-4, 8: 1.06e-4, 9: 1.15e-5, 10: 8.50e-7, 11: 4.59e-8,
        12: 1.52e-9, 13: 2.73e-11, 14: 5.76e-12, 15: 3.96e-13,
        16: 1.65e-14, 17: 4.59e-16, 18: 1.42e-17, 19: 3.45e-19, 20: 8.27e-20},
}

PRECISION_FLOOR = 1e-11


def manufactured_polynomial(m, k, rng):
    """Problem y^(m) = p^(m)(x) with k conditions at x = 0 and m - k at
    x = 1, all taken from p, for a random monic p of degree m + 2 with
    integer power coefficients.  Returns (problem, power coefficients of p).
    """
    from bernbvp.expressions import parse
    from bernbvp.solver import BVProblem

    c = [float(v) for v in rng.integers(-3, 4, m + 3)]
    c[-1] = 1.0
    derivs = [c]
    for _ in range(m):
        prev = derivs[-1]
        derivs.append([j * prev[j] for j in range(1, len(prev))])
    rhs = " + ".join(f"{a:.17g}*x^{j}" for j, a in enumerate(derivs[m]))
    left = [derivs[r][0] for r in range(k)]
    right = [sum(derivs[r]) for r in range(m - k)]
    return BVProblem(tuple(left), tuple(right), parse(rhs)), c
