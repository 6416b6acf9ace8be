"""Built-in benchmark problems with reference solutions, plus the pointwise
error curve and maximum-error metrics over the uniform grid {0, 1/M, .., 1}.

The five examples are one table, ``_EXAMPLES``, which ``example`` reads.  A
reference ending in ``.txt`` is a fixture table, generated by
scripts/make_reference_fixtures.py (mpmath at 50 digits, stored to 17
significant digits on the 201-point grid): problems 4 and 5, Airy- and
Bessel-type.  Any other reference is a closed form in x (problems 1-3).  A
boundary value given by name ("a0", "a1") is the fixture's constant.
"""

import io
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .bernstein import evaluate as eval_poly
from .errors import EvaluationError
from .expressions import evaluate as eval_expr, parse
from .solver import BVProblem

__all__ = ["ReferenceSolution", "ExampleProblem", "EXAMPLE_IDS", "example",
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
    grid_y: np.ndarray = None
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "_grid_values", {})

    def value(self, x):
        if self.kind != "closed_form":
            raise ValueError("fixture references only provide grid values")
        return self.fn(x)

    def values_on_grid(self, M):
        """Reference values on {0, 1/M, ..., 1}, as a read-only array.

        Computed once per M and kept, so later calls return the same
        array.  Fixture references require M to divide their native grid.
        A closed form that is not finite on the grid raises EvaluationError
        at the first such x, and nothing is kept.
        """
        values = self._grid_values.get(M)
        if values is not None:
            return values
        if M < 1:
            raise ValueError("M must be >= 1")
        if self.kind == "closed_form":
            xs = _grid(M)
            values = np.array(np.broadcast_to(self.fn(xs), xs.shape), dtype=float)
            if np.count_nonzero(np.isfinite(values)) != values.size:
                x = xs[~np.isfinite(values)][0].item()
                raise EvaluationError(f"exact solution is not finite at x={x}", where=x)
        elif FIXTURE_GRID_M % M != 0:
            raise ValueError(
                f"fixture reference is tabulated on M={FIXTURE_GRID_M}; "
                f"M={M} is not a divisor grid"
            )
        else:
            values = self.grid_y[::FIXTURE_GRID_M // M]
        values.setflags(write=False)
        return self._grid_values.setdefault(M, values)


@dataclass(frozen=True)
class ExampleProblem:
    id: int
    problem: BVProblem
    reference: ReferenceSolution
    note: str


@lru_cache(maxsize=None)
def _load_fixture(name):
    """y (read-only) and the named boundary constants of a fixture table,
    read once; ValueError unless its x column is the grid {i/200}."""
    text = resources.files("bernbvp").joinpath(f"data/{name}").read_text()
    xs, ys = np.loadtxt(io.StringIO(text), comments="#", unpack=True)
    if not np.array_equal(xs, _grid(FIXTURE_GRID_M)):
        raise ValueError(f"fixture {name}: x column is not the grid i/{FIXTURE_GRID_M}")
    ys.setflags(write=False)
    consts = re.findall(r"^#\s*boundary\s+(a\d)\s*=\s*(\S+)", text, re.MULTILINE)
    return ys, {key: float(value) for key, value in consts}


# id: (left values, right values, rhs, reference, reference note, note)
_EXAMPLES = {
    1: ((0.0,), (0.0,), "y1^2 + 1",
        "-ln(cos(x - 1/2)/cos(1/2))", "y = -ln(cos(x - 1/2)/cos(1/2))",
        "second order, nonlinear"),
    2: ((3.0, 3.0), (0.0, 0.0), "-2*y2 - y0",
        "3/2 * sec(1)^2 * ((4 - 3*x)*sin(x) - x*sin(2 - x)"
        " - (3*x - 1)*cos(x) + (x + 1)*cos(2 - x))",
        "trigonometric closed form", "fourth order, linear"),
    3: ((2.0, -1.0, 3.0, 1.0), (), "y3^2 / y2",
        "-25 - 10*x + 27*exp(x/3)", "exponential closed form",
        "fourth order, nonlinear, all conditions at x = 0"),
    4: ((1.0, 0.0), (0.0,), "4*x*y1 + 2*y0",
        "example4_airy.txt", "Airy-product solution (fixture)",
        "third order, linear, Airy-type solution"),
    5: (("a0", "a1"), (), "-(x + 2)^2 * y0",
        "example5_bessel.txt", "Bessel J/Y order-1/4 solution (fixture)",
        "second order, linear, Bessel-type solution"),
}
EXAMPLE_IDS = tuple(_EXAMPLES)


def example(example_id):
    """One of the five built-in benchmark problems, built from its row of
    ``_EXAMPLES``."""
    if example_id not in _EXAMPLES:
        raise ValueError(f"example id must be in {EXAMPLE_IDS}, got {example_id}")
    left, right, rhs, source, ref_note, note = _EXAMPLES[example_id]
    if source.endswith(".txt"):
        ys, consts = _load_fixture(source)
        reference = ReferenceSolution("fixture", grid_y=ys, note=ref_note)
        left, right = ([consts.get(v, v) for v in side] for side in (left, right))
    else:
        e = parse(source)
        reference = ReferenceSolution("closed_form", lambda x: eval_expr(e, x), note=ref_note)
    return ExampleProblem(example_id, BVProblem(left, right, parse(rhs)), reference, note)


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
