"""Seeded problem specs with manufactured closed-form solutions.

Every spec is built backwards from an exact solution

    y*(x) = A exp(a x) + B sin(b x + phi) + C x^2

and a right-hand side f = sum_i c_i y_i [+ eps y0^2] + g(x), where g is
chosen so that y* solves y^(m) = f exactly.  The boundary values are the
derivatives of y* at the ends.  The benchmark keeps the constants of y*
beside the spec so that it can measure errors with its own evaluator; the
program only sees the spec file.

A pass holds two specs per order m = 1..8.  The first has all conditions
at one end (k = 0 or l = 0: back or forward substitution); the second has
an interior split (k = l = 1 at m = 2: the tridiagonal path; banded LU
above), except at m = 1, where it takes the end the first did not.  So
every pass reaches all four band-solver paths, and over seeds every
(k, l) split comes up.  One spec of each pair, drawn by the seed, adds a
small y0^2 term; fixing that count keeps a pass's cost nearly the same
from seed to seed.
"""

import json
import math
import os
import random

ORDERS = range(1, 9)
DEGREE_ABOVE_ORDER = 16


def _fmt(v):
    return f"({v!r})"


def _sin_derivative(r):
    """d^r/dt^r sin(t) as (sin coefficient, cos coefficient)."""
    return ((1, 0), (0, 1), (-1, 0), (0, -1))[r % 4]


class Manufactured:
    """Exact solution y* and its derivatives, in float64."""

    def __init__(self, A, a, B, b, phi, C):
        self.A, self.a, self.B, self.b, self.phi, self.C = A, a, B, b, phi, C

    def terms(self, r):
        """y*^(r) as (exp coeff, sin coeff, cos coeff, x^2, x, 1 coeffs)."""
        s, c = _sin_derivative(r)
        br = self.B * self.b ** r
        poly = ((self.C, 0.0, 0.0), (0.0, 2 * self.C, 0.0),
                (0.0, 0.0, 2 * self.C))
        p2, p1, p0 = poly[r] if r < 3 else (0.0, 0.0, 0.0)
        return (self.A * self.a ** r, br * s, br * c, p2, p1, p0)

    def derivative(self, r, x):
        e, s, c, p2, p1, p0 = self.terms(r)
        t = self.b * x + self.phi
        return (e * math.exp(self.a * x) + s * math.sin(t) + c * math.cos(t)
                + p2 * x * x + p1 * x + p0)

    def value(self, x):
        return self.derivative(0, x)

    def source(self):
        return (f"{_fmt(self.A)}*exp({_fmt(self.a)}*x)"
                f" + {_fmt(self.B)}*sin({_fmt(self.b)}*x + {_fmt(self.phi)})"
                f" + {_fmt(self.C)}*x^2")


def _draw_solution(rng):
    return Manufactured(
        A=rng.choice((-1, 1)) * rng.uniform(0.5, 1.5),
        a=rng.uniform(-1.5, 1.5),
        B=rng.uniform(0.5, 1.5),
        b=rng.uniform(0.5, 3.0),
        phi=rng.uniform(0.0, 2 * math.pi),
        C=rng.uniform(-1.0, 1.0),
    )


def make_spec(rng, m, k, nonlinear):
    """One spec of order m with k conditions at x = 0."""
    exact = _draw_solution(rng)
    coeffs = [rng.uniform(-0.5, 0.5) for _ in range(m)]
    eps = rng.uniform(0.05, 0.2) if nonlinear else 0.0

    # g = y*^(m) - sum_i c_i y*^(i), collected per basis function
    g = list(exact.terms(m))
    for i, ci in enumerate(coeffs):
        for j, t in enumerate(exact.terms(i)):
            g[j] -= ci * t
    e, s, c, p2, p1, p0 = g
    parts = [f"{_fmt(ci)}*y{i}" for i, ci in enumerate(coeffs)]
    if eps:
        parts.append(f"{_fmt(eps)}*y0^2")
    t = f"{_fmt(exact.b)}*x + {_fmt(exact.phi)}"
    parts += [f"{_fmt(e)}*exp({_fmt(exact.a)}*x)", f"{_fmt(s)}*sin({t})",
              f"{_fmt(c)}*cos({t})",
              f"{_fmt(p2)}*x^2", f"{_fmt(p1)}*x", _fmt(p0)]
    if eps:
        parts.append(f"-{_fmt(eps)}*({exact.source()})^2")
    spec = {
        "order": m,
        "left": [exact.derivative(i, 0.0) for i in range(k)],
        "right": [exact.derivative(j, 1.0) for j in range(m - k)],
        "rhs": " + ".join(parts),
        "exact": exact.source(),
    }
    return spec, exact


def generate(seed):
    """The specs of one pass: a list of (name, spec dict, Manufactured, N)."""
    rng = random.Random(seed)
    out = []
    for m in ORDERS:
        k_end = rng.choice((0, m))
        k_mid = m - k_end if m == 1 else rng.randint(1, m - 1)
        nonlinear = rng.choice(("end", "mid"))
        for variant, k in (("end", k_end), ("mid", k_mid)):
            spec, exact = make_spec(rng, m, k, variant == nonlinear)
            out.append((f"m{m}-k{k}-{variant}", spec, exact,
                        m + DEGREE_ABOVE_ORDER))
    return out


def write_specs(specs, directory):
    """Write each spec as <name>.json; returns the paths in order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, spec, _, _ in specs:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh, indent=1)
            fh.write("\n")
        paths.append(path)
    return paths
