"""Correctness checks behind the benchmark's failure count.

Each check returns (error, reason): the largest error it measured over the
201-point grid, and None when the output passes or a one-line reason when
it does not.  Polynomials are evaluated here by de Casteljau's algorithm,
independently of the program's own evaluator.
"""

import importlib.util
import math
import os

import numpy as np

from bernbvp.bernstein import BernsteinPoly, endpoint_derivative

GRID = 200                # grid {0, 1/200, ..., 1}: 201 points
# Max error at N = 40.  The acceptance floor 1e-11 holds up to N = 20; past
# it the float64 rounding floor grows with the degree for high orders
# (example 3, m = 4, measures 1.02e-11 at N = 40), so a wrong solution, not
# that drift, is what this catches.  err_digits tracks the drift.
EXAMPLE_TOL = 1e-10
BOUNDARY_RTOL = 1e-11     # |w^(r)(end) - want| <= BOUNDARY_RTOL * (1 + |want|)
SPEC_TOL = 1e-7           # max error against a manufactured solution
TABLE_BAND = 10.0         # acceptance criterion 1: within a factor of 10


def load_paper_table(root):
    """The paper's maximum-error table and precision floor, as the
    acceptance suite states them in tests/helpers.py."""
    path = os.path.join(root, "tests", "helpers.py")
    spec = importlib.util.spec_from_file_location("_acceptance_helpers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BENCHMARK_MAX_ERRORS, module.PRECISION_FLOOR


def de_casteljau(coeffs, xs):
    """Bernstein polynomial with the given coefficients at every x in xs."""
    xs = np.asarray(xs, dtype=float)
    b = np.tile(np.asarray(coeffs, dtype=float), (xs.size, 1))
    t = xs[:, None]
    for r in range(b.shape[1] - 1, 0, -1):
        b = (1.0 - t) * b[:, :r] + t * b[:, 1:r + 1]
    return b[:, 0]


def grid():
    return np.array([i / GRID for i in range(GRID + 1)])


def _max_error(coeffs, reference):
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or not np.all(np.isfinite(coeffs)):
        return math.inf, "non-finite or malformed coefficients"
    return float(np.max(np.abs(de_casteljau(coeffs, grid()) - reference))), None


def check_example(ex, coeffs):
    """Final iterate of a built-in example against its reference solution,
    and its boundary values through the program's endpoint_derivative."""
    err, reason = _max_error(coeffs, ex.reference.values_on_grid(GRID))
    if reason:
        return err, reason
    if not err <= EXAMPLE_TOL:
        return err, f"max error {err:.3e} above {EXAMPLE_TOL:.0e}"
    w = BernsteinPoly(coeffs)
    for end, values in (("left", ex.problem.left_values),
                        ("right", ex.problem.right_values)):
        for r, want in enumerate(values):
            got = endpoint_derivative(w, r, end)
            if not abs(got - want) <= BOUNDARY_RTOL * (1 + abs(want)):
                return err, f"{end} boundary derivative {r}: {got!r} != {want!r}"
    return err, None


def check_spec_output(doc, exact, degree):
    """A `bernbvp solve` coefficient document against the manufactured
    solution it should reproduce."""
    if doc.get("degree") != degree or len(doc.get("coefficients", ())) != degree + 1:
        return math.inf, f"expected degree {degree} with {degree + 1} coefficients"
    reference = np.array([exact.value(x) for x in grid()])
    err, reason = _max_error(doc["coefficients"], reference)
    if reason:
        return err, reason
    if not err <= SPEC_TOL:
        return err, f"max error {err:.3e} above {SPEC_TOL:.0e}"
    return err, None


def check_table_csv(text, paper, floor):
    """`bernbvp table` output against the paper's table.

    Cells the paper puts above the precision floor must lie within a
    factor TABLE_BAND of it; cells below it must be at most the floor.
    The returned error is the largest cell of the last row (degree 20),
    the final iterate of each example.
    """
    lines = text.splitlines()
    header = ",".join(["n"] + [f"example{i}" for i in sorted(paper)])
    if not lines or lines[0] != header:
        return math.inf, "unexpected CSV header"
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(paper) + 1:
            return math.inf, f"bad CSV row {line!r}"
        rows[int(cells[0])] = cells[1:]
    for col, ex_id in enumerate(sorted(paper)):
        for n, expected in paper[ex_id].items():
            cell = rows.get(n, [""] * len(paper))[col]
            try:
                got = float(cell)
            except ValueError:
                return math.inf, f"example {ex_id}, n={n}: missing cell"
            ok = (got <= floor if expected < floor
                  else expected / TABLE_BAND <= got <= expected * TABLE_BAND)
            if not ok:
                return math.inf, f"example {ex_id}, n={n}: {got:.2e} vs paper {expected:.2e}"
    return max(float(c) for c in rows[max(rows)] if c), None
