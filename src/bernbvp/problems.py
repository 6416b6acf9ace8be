"""Built-in benchmark problems with reference solutions, plus the pointwise
error curve and maximum-error metrics over the uniform grid {0, 1/M, .., 1}.

Problems 1-3 carry closed-form references (elementary functions); problems
4 and 5 reference Airy- and Bessel-type solutions, shipped as fixture tables
generated by scripts/make_reference_fixtures.py (mpmath at 50 digits, stored
to 17 significant digits on the 201-point grid).  Problem 5's boundary data
are themselves fixture constants, read from the same file.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .bernstein import evaluate as eval_poly
from .expressions import evaluate as eval_expr, parse
from .solver import BVProblem

__all__ = ["ReferenceSolution", "ExampleProblem", "example",
           "error_curve", "max_error"]

FIXTURE_GRID_M = 200


def _grid(M):
    """{0, 1/M, ..., 1}, each point the correctly rounded i / M."""
    return np.arange(M + 1) / M


@dataclass(frozen=True)
class ReferenceSolution:
    """Exact solution, either as a callable ('closed_form') or as a fixture
    table on the grid {i/200} ('fixture').

    A closed-form fn maps x elementwise: ``value`` passes it a float and
    ``values_on_grid`` the whole grid as one numpy array.
    """

    kind: str
    fn: object = None
    grid_x: np.ndarray = None
    grid_y: np.ndarray = None
    note: str = ""

    def value(self, x):
        if self.kind != "closed_form":
            raise ValueError("fixture references only provide grid values")
        return self.fn(x)

    def values_on_grid(self, M):
        """Reference values on {0, 1/M, ..., 1}.

        Fixture references require M to divide their native grid.
        """
        if M < 1:
            raise ValueError("M must be >= 1")
        if self.kind == "closed_form":
            xs = _grid(M)
            return np.array(np.broadcast_to(self.fn(xs), xs.shape), dtype=float)
        if FIXTURE_GRID_M % M != 0:
            raise ValueError(
                f"fixture reference is tabulated on M={FIXTURE_GRID_M}; "
                f"M={M} is not a divisor grid"
            )
        stride = FIXTURE_GRID_M // M
        return self.grid_y[::stride]


@dataclass(frozen=True)
class ExampleProblem:
    id: int
    problem: BVProblem
    reference: ReferenceSolution
    note: str


@lru_cache(maxsize=None)
def _load_fixture(name):
    text = resources.files("bernbvp").joinpath(f"data/{name}").read_text()
    xs, ys, consts = [], [], {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*boundary\s+(a\d)\s*=\s*(\S+)", line)
            if m:
                consts[m.group(1)] = float(m.group(2))
            continue
        sx, sy = line.split()
        xs.append(float(sx))
        ys.append(float(sy))
    xs, ys = np.array(xs), np.array(ys)
    if xs.size != FIXTURE_GRID_M + 1:
        raise ValueError(f"fixture {name}: expected {FIXTURE_GRID_M + 1} rows")
    return xs, ys, consts


def _fixture_reference(name, note):
    xs, ys, _ = _load_fixture(name)
    return ReferenceSolution(kind="fixture", grid_x=xs, grid_y=ys, note=note)


def _expr_reference(source, note):
    e = parse(source)
    return ReferenceSolution(
        kind="closed_form", fn=lambda x: eval_expr(e, x), note=note
    )


def _example1():
    return ExampleProblem(
        id=1,
        problem=BVProblem((0.0,), (0.0,), parse("y1^2 + 1")),
        reference=_expr_reference(
            "-ln(cos(x - 1/2)/cos(1/2))", "y = -ln(cos(x - 1/2)/cos(1/2))"),
        note="second order, nonlinear",
    )


def _example2():
    return ExampleProblem(
        id=2,
        problem=BVProblem((3.0, 3.0), (0.0, 0.0), parse("-2*y2 - y0")),
        reference=_expr_reference(
            "3/2 * sec(1)^2 * ((4 - 3*x)*sin(x) - x*sin(2 - x)"
            " - (3*x - 1)*cos(x) + (x + 1)*cos(2 - x))",
            "trigonometric closed form"),
        note="fourth order, linear",
    )


def _example3():
    return ExampleProblem(
        id=3,
        problem=BVProblem((2.0, -1.0, 3.0, 1.0), (), parse("y3^2 / y2")),
        reference=_expr_reference(
            "-25 - 10*x + 27*exp(x/3)", "exponential closed form"),
        note="fourth order, nonlinear, all conditions at x = 0",
    )


def _example4():
    return ExampleProblem(
        id=4,
        problem=BVProblem((1.0, 0.0), (0.0,), parse("4*x*y1 + 2*y0")),
        reference=_fixture_reference(
            "example4_airy.txt", "Airy-product solution (fixture)"),
        note="third order, linear, Airy-type solution",
    )


def _example5():
    _, _, consts = _load_fixture("example5_bessel.txt")
    return ExampleProblem(
        id=5,
        problem=BVProblem((consts["a0"], consts["a1"]), (),
                          parse("-(x + 2)^2 * y0")),
        reference=_fixture_reference(
            "example5_bessel.txt", "Bessel J/Y order-1/4 solution (fixture)"),
        note="second order, linear, Bessel-type solution",
    )


_BUILDERS = {1: _example1, 2: _example2, 3: _example3, 4: _example4, 5: _example5}


def example(example_id):
    """One of the five built-in benchmark problems."""
    if example_id not in _BUILDERS:
        raise ValueError(f"example id must be 1..5, got {example_id}")
    return _BUILDERS[example_id]()


def error_curve(w, ref, M):
    """Pointwise absolute errors |y(x) - w(x)| on the grid {0, 1/M, ..., 1}.

    Returns an (M+1, 2) array of (x, error) rows.
    """
    ys = ref.values_on_grid(M)
    xs = _grid(M)
    return np.column_stack([xs, np.abs(ys - eval_poly(w, xs))])


def max_error(curve):
    """Largest error in a curve produced by error_curve."""
    arr = np.asarray(curve)
    if arr.size == 0:
        raise ValueError("empty error curve")
    return float(arr[:, 1].max())
