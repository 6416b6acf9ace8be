"""Shared test oracles and reference data."""

import math
from fractions import Fraction

import numpy as np


def de_casteljau(coeffs, x):
    """O(n^2) Bernstein evaluation; independent oracle for the Horner path."""
    b = np.array(coeffs, dtype=float)
    n = b.size - 1
    for r in range(1, n + 1):
        b[: n - r + 1] = (1.0 - x) * b[: n - r + 1] + x * b[1 : n - r + 2]
    return b[0]


def evaluate_reference(p, x):
    """Horner evaluation of a BernsteinPoly on numpy scalars, the loop that
    ``bernstein.evaluate`` runs on Python floats; results must agree bit
    for bit."""
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
            if e.fn in ("tan", "sec") and math.cos(v) == 0:
                raise EvaluationError(f"{e.fn} at a pole", where=float(v))
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


def banded_lu_reference(system, tol):
    """The pivoted elimination on a dense s x s matrix that
    ``bandsolve._banded_lu`` replaced by compact band rows; both must give
    the same bits and the same SingularSystemError row."""
    from bernbvp.errors import SingularSystemError

    s, k, l = system.size, system.lower_bw, system.upper_bw
    width = k + l
    offset = np.arange(s) - np.arange(s)[:, None]  # j - i
    a = np.where((offset >= -k) & (offset <= l),
                 system.diagonals[np.clip(offset + k, 0, width)], 0.0)
    v = np.array(system.rhs)
    for col in range(s - 1 if k else 0):
        lo = min(col + k, s - 1)
        piv = col + int(np.argmax(np.abs(a[col:lo + 1, col])))
        if abs(a[piv, col]) <= tol:
            raise SingularSystemError(col)
        hi = min(col + width + 1, s)
        if piv != col:
            a[[col, piv], col:hi] = a[[piv, col], col:hi]
            v[col], v[piv] = v[piv], v[col]
        for r in range(col + 1, lo + 1):
            f = a[r, col] / a[col, col]
            if f != 0.0:
                a[r, col:hi] -= f * a[col, col:hi]
                v[r] -= f * v[col]
    p = np.zeros(s)
    for i in range(s - 1, -1, -1):
        if abs(a[i, i]) <= tol:
            raise SingularSystemError(i)
        hi = min(i + width, s - 1)
        p[i] = (v[i] - a[i, i + 1:hi + 1] @ p[i + 1:hi + 1]) / a[i, i]
    return p


def exact_moments_reference(g, nu, rule):
    """Exact moments sum_t w_t g(x_t) B_q^nu(x_t) as Fractions, by the
    direct per-node expansion of X^q (2^e - X)^(nu-q); returns (moments,
    g values).  Oracle for ``quadrature._exact_moments``."""
    gvals = [float(g(x)) for x in rule.nodes.tolist()]
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


def _over_power_of_two(ratios):
    s = max(d.bit_length() for _, d in ratios) - 1
    return [p << (s + 1 - d.bit_length()) for p, d in ratios], s


def assemble_rhs_reference(n, m, k, l, duals, moments, outer):
    """The system right-hand side v in Fraction arithmetic (each table row
    over its lcm denominator), each entry rounded once by
    ``float(Fraction)``.  Oracle for ``bandsolve.assemble_rhs``; moments
    are floats or Fractions."""
    nu = n - m
    left, right = outer
    fixed = np.zeros(n + 1)
    fixed[:k] = left
    fixed[n - l + 1:] = np.asarray(right, dtype=float)[::-1]
    stencil = [(-1) ** (m - h) * math.comb(m, h) for h in range(m + 1)]
    mvals = [Fraction(x) for x in moments]
    mden = math.lcm(*(x.denominator for x in mvals))
    mnum = [x.numerator * (mden // x.denominator) for x in mvals]
    v = np.empty(nu + 1)
    for i, row in enumerate(duals.table):
        den = math.lcm(*(c.denominator for c in row))
        dot = sum(c.numerator * (den // c.denominator) * y for c, y in zip(row, mnum))
        acc = Fraction(dot * math.factorial(nu), den * mden * math.factorial(n))
        for h in range(m + 1):
            if fixed[i + h]:
                acc -= stencil[h] * Fraction(fixed[i + h])
        v[i] = float(acc)
    return v


def dense_from_banded(system):
    """Dense matrix of a BandedToeplitz, built entry by entry."""
    s = system.size
    a = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            d = j - i
            if -system.lower_bw <= d <= system.upper_bw:
                a[i, j] = system.diagonals[d + system.lower_bw]
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
