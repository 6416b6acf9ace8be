import math
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from bernbvp import problems
from bernbvp.bernstein import BernsteinPoly, evaluate
from bernbvp.errors import EvaluationError
from bernbvp.expressions import evaluate as eval_expr, parse, to_source
from bernbvp.problems import (EXAMPLE_IDS, ReferenceSolution, error_curve, example,
                              max_error)
from bernbvp.solver import SolveOptions, solve


def fd_derivative(fn, x, order, h):
    """Central finite difference of the given order (for low orders only)."""
    if order == 0:
        return fn(x)
    if order == 1:
        return (fn(x + h) - fn(x - h)) / (2 * h)
    if order == 2:
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / h**2
    raise ValueError(order)


class TrigTerm:
    """(a + b x) * trig(arg) with trig in {sin, cos} and arg in {x, 2 - x};
    closed under differentiation.  Exact-derivative oracle for example 2."""

    def __init__(self, a, b, trig, reflected):
        self.a, self.b, self.trig, self.reflected = a, b, trig, reflected

    def value(self, x):
        arg = 2 - x if self.reflected else x
        base = math.sin(arg) if self.trig == "sin" else math.cos(arg)
        return (self.a + self.b * x) * base

    def derivative_terms(self):
        out = [TrigTerm(self.b, 0.0, self.trig, self.reflected)]
        sign = -1.0 if self.reflected else 1.0
        if self.trig == "sin":
            out.append(TrigTerm(sign * self.a, sign * self.b, "cos", self.reflected))
        else:
            out.append(TrigTerm(-sign * self.a, -sign * self.b, "sin", self.reflected))
        return out


def trig_sum_derivative(terms, order):
    for _ in range(order):
        terms = [t for term in terms for t in term.derivative_terms()]
    return lambda x, ts=terms: sum(t.value(x) for t in ts)


# id: left and right values, to_source of the rhs, reference (a closed form
# or a fixture table), the reference's note and the example's note
EXAMPLE_TABLE = {
    1: ((0.0,), (0.0,), "((y1 ^ 2) + 1)",
        "-ln(cos(x - 1/2)/cos(1/2))", "y = -ln(cos(x - 1/2)/cos(1/2))",
        "second order, nonlinear"),
    2: ((3.0, 3.0), (0.0, 0.0), "(((-2) * y2) - y0)",
        "3/2 * sec(1)^2 * ((4 - 3*x)*sin(x) - x*sin(2 - x)"
        " - (3*x - 1)*cos(x) + (x + 1)*cos(2 - x))",
        "trigonometric closed form", "fourth order, linear"),
    3: ((2.0, -1.0, 3.0, 1.0), (), "((y3 ^ 2) / y2)",
        "-25 - 10*x + 27*exp(x/3)", "exponential closed form",
        "fourth order, nonlinear, all conditions at x = 0"),
    4: ((1.0, 0.0), (0.0,), "(((4 * x) * y1) + (2 * y0))",
        "example4_airy.txt", "Airy-product solution (fixture)",
        "third order, linear, Airy-type solution"),
    5: ((1.1180057736499096, -0.24774633559592937), (), "((-((x + 2) ^ 2)) * y0)",
        "example5_bessel.txt", "Bessel J/Y order-1/4 solution (fixture)",
        "second order, linear, Bessel-type solution"),
}


def fixture_columns(name):
    """The x and y columns of a fixture table, each field read by float()."""
    text = resources.files("bernbvp").joinpath(f"data/{name}").read_text()
    lines = [line.split() for line in text.splitlines()]
    return np.array([[float(v) for v in f] for f in lines if f and not f[0].startswith("#")]).T


class TestExampleDefinitions:
    @pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
    def test_example_matches_its_table_row(self, ex_id):
        # a mistyped entry of problems._EXAMPLES fails here
        left, right, rhs, source, ref_note, note = EXAMPLE_TABLE[ex_id]
        ex = example(ex_id)
        assert ex.id == ex_id
        assert (ex.problem.left_values, ex.problem.right_values) == (left, right)
        assert to_source(ex.problem.rhs) == rhs
        assert (ex.reference.note, ex.note) == (ref_note, note)
        grid = np.arange(201) / 200
        if source.endswith(".txt"):
            assert ex.reference.kind == "fixture"
            _, ys = fixture_columns(source)
            assert ex.reference.grid_y.tobytes() == ys.tobytes()
            with pytest.raises(ValueError, match="fixture references only provide grid values"):
                ex.reference.value(0.5)
        else:
            assert ex.reference.kind == "closed_form"
            want = eval_expr(parse(source), grid)
            assert ex.reference.values_on_grid(200).tobytes() == want.tobytes()
        # the reference meets the first condition at each end
        ys = ex.reference.values_on_grid(200)
        assert ys[0] == pytest.approx(left[0], abs=1e-12)
        if right:
            assert ys[-1] == pytest.approx(right[0], abs=1e-12)

    def test_example_ids(self):
        assert EXAMPLE_IDS == tuple(EXAMPLE_TABLE) == (1, 2, 3, 4, 5)

    def test_bad_id(self):
        with pytest.raises(ValueError):
            example(6)


class TestReferenceConsistency:
    def test_example1_satisfies_equation(self):
        # y' = tan(x - 1/2), so y'' = y'^2 + 1 exactly
        ex = example(1)
        for x in np.linspace(0.05, 0.95, 11):
            yp = math.tan(x - 0.5)
            ypp = 1.0 + yp * yp
            assert ex.problem.rhs_value(x, (ex.reference.value(x), yp)) == pytest.approx(
                ypp, rel=1e-12)
            fd = fd_derivative(ex.reference.value, x, 2, 1e-5)
            assert fd == pytest.approx(ypp, abs=1e-5)

    def test_example2_satisfies_equation(self):
        ex = example(2)
        scale = 1.5 / math.cos(1.0) ** 2
        base = [
            TrigTerm(4 * scale, -3 * scale, "sin", False),
            TrigTerm(0.0, -scale, "sin", True),
            TrigTerm(scale, -3 * scale, "cos", False),
            TrigTerm(scale, scale, "cos", True),
        ]
        y = trig_sum_derivative(base, 0)
        d2 = trig_sum_derivative(base, 2)
        d4 = trig_sum_derivative(base, 4)
        for x in np.linspace(0.0, 1.0, 11):
            assert y(x) == pytest.approx(ex.reference.value(x), rel=1e-12, abs=1e-12)
            assert d4(x) == pytest.approx(-2 * d2(x) - y(x), rel=1e-9, abs=1e-9)

    def test_example2_boundary_values(self):
        ex = example(2)
        y = ex.reference.value
        assert y(0.0) == pytest.approx(3.0, abs=1e-12)
        assert y(1.0) == pytest.approx(0.0, abs=1e-12)
        assert fd_derivative(y, 0.0 + 1e-6, 1, 1e-6) == pytest.approx(3.0, abs=1e-4)
        assert fd_derivative(y, 1.0 - 1e-6, 1, 1e-6) == pytest.approx(0.0, abs=1e-4)

    def test_example3_satisfies_equation(self):
        # y = -25 - 10x + 27 e^(x/3): y'' = 3e^(x/3), y''' = e^(x/3),
        # y'''' = e^(x/3)/3 = (y''')^2 / y''
        ex = example(3)
        for x in np.linspace(0.0, 1.0, 11):
            e = math.exp(x / 3)
            assert ex.problem.rhs_value(x, (0.0, 0.0, 3 * e, e)) == pytest.approx(
                e / 3, rel=1e-13)
            assert ex.reference.value(x) == pytest.approx(-25 - 10 * x + 27 * e, rel=1e-13)

    def test_example1_boundary_values(self):
        y = example(1).reference.value
        assert y(0.0) == pytest.approx(0.0, abs=1e-12)
        assert y(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_fixture_boundary_entries(self):
        ex4 = example(4)
        ys4 = ex4.reference.values_on_grid(200)
        assert ys4[0] == pytest.approx(1.0, abs=1e-12)
        assert ys4[-1] == pytest.approx(0.0, abs=1e-12)
        ex5 = example(5)
        ys5 = ex5.reference.values_on_grid(200)
        assert ys5[0] == pytest.approx(ex5.problem.left_values[0], abs=1e-12)

    def test_fixture_grid_is_uniform(self):
        for name in ("example4_airy.txt", "example5_bessel.txt"):
            xs, _ = fixture_columns(name)
            assert xs.tobytes() == (np.arange(201) / 200).tobytes()

    @pytest.mark.parametrize("edit", ["as-shipped", "row-short", "ulp-off"])
    def test_fixture_x_column_must_be_the_grid(self, tmp_path, monkeypatch, edit):
        # the loader reads the shipped table from a copy; a copy whose x
        # column is one row short, or one ulp off at x = 7/200, is refused
        # with the fixture's name.  The loader is called past its cache,
        # which keeps the shipped tables
        name = "example4_airy.txt"
        lines = resources.files("bernbvp").joinpath(f"data/{name}").read_text().splitlines()
        rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        if edit == "row-short":
            del lines[rows[-1]]
        elif edit == "ulp-off":
            x, y = lines[rows[7]].split()
            lines[rows[7]] = f"{float(np.nextafter(float(x), 1.0))!r} {y}"
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / name).write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(problems, "resources", SimpleNamespace(files=lambda package: tmp_path))
        if edit == "as-shipped":
            ys, consts = problems._load_fixture.__wrapped__(name)
            assert ys.tobytes() == fixture_columns(name)[1].tobytes() and consts == {}
            return
        with pytest.raises(ValueError, match=f"fixture {name}: x column is not the grid i/200"):
            problems._load_fixture.__wrapped__(name)


class TestErrorCurve:
    def test_reference_fed_back_gives_zero(self):
        w = BernsteinPoly([0.25, -0.5, 1.0, 0.75])
        ref = ReferenceSolution(kind="closed_form", fn=lambda x: evaluate(w, x))
        curve = error_curve(w, ref, 50)
        assert curve.shape == (51, 2)
        assert np.all(curve[:, 1] == 0.0)

    def test_example1_degree3(self, benchmark_sweep):
        ex, report = benchmark_sweep[1]
        w3 = report.iterates[3 - 1]
        assert w3.degree == 3
        curve = error_curve(w3, ex.reference, 200)
        assert curve.shape == (201, 2)
        assert max_error(curve) == pytest.approx(4.83e-3, rel=0.05)

    def test_example5_degree7(self, benchmark_sweep):
        ex, report = benchmark_sweep[5]
        w7 = report.iterates[7 - 1]
        assert max_error(error_curve(w7, ex.reference, 200)) == pytest.approx(
            3.21e-4, rel=0.05)

    def test_example4_degree10(self, benchmark_sweep):
        ex, report = benchmark_sweep[4]
        w10 = report.iterates[10 - 2]
        assert w10.degree == 10
        assert max_error(error_curve(w10, ex.reference, 200)) == pytest.approx(
            2.83e-9, rel=0.5)

    def test_example2_degree20_below_double_floor(self, benchmark_sweep):
        ex, report = benchmark_sweep[2]
        assert max_error(error_curve(report.solution, ex.reference, 200)) <= 1e-12

    def test_fixture_subgrids(self):
        ex = example(4)
        w = BernsteinPoly([1.0, 0.5, 0.0])
        for M in (200, 100, 50, 40, 25, 10, 8, 5, 4, 2, 1):
            curve = error_curve(w, ex.reference, M)
            assert curve.shape == (M + 1, 2)
        with pytest.raises(ValueError):
            error_curve(w, ex.reference, 3)
        with pytest.raises(ValueError):
            error_curve(w, ex.reference, 0)

    @pytest.mark.parametrize("ex_id", [1, 4])
    def test_grid_values_kept_per_grid_and_read_only(self, ex_id):
        ref = example(ex_id).reference
        ys = ref.values_on_grid(200)
        assert ref.values_on_grid(200) is ys
        assert ref.values_on_grid(100).tolist() == ys[::2].tolist()
        with pytest.raises(ValueError):
            ys[0] = 1.0

    @pytest.mark.parametrize("ex_id", [4, 5])
    def test_fixture_tables_are_read_only(self, ex_id):
        # every example(4) and example(5) shares the one loaded table: a
        # write must fail, not change the reference of the next example
        ref = example(ex_id).reference
        want = ref.grid_y.tolist()
        with pytest.raises(ValueError):
            ref.grid_y[10] = 123.0
        assert example(ex_id).reference.grid_y.tolist() == want

    def test_closed_form_not_finite_on_the_grid_raises_and_keeps_nothing(self):
        ref = ReferenceSolution(kind="closed_form", fn=lambda x: np.where(x == 0.5, np.inf, x))
        for _ in range(2):  # a failure is not kept as the grid's values
            with pytest.raises(EvaluationError, match=r"not finite at x=0\.5") as err:
                ref.values_on_grid(4)
            assert err.value.where == 0.5

    def test_max_error_validation(self):
        assert max_error(np.array([[0.0, 0.0], [1.0, 0.0]])) == 0.0
        with pytest.raises(ValueError):
            max_error(np.empty((0, 2)))

    def test_errors_decrease_with_degree(self, benchmark_sweep):
        # non-increasing trend, up to plateaus once near the precision floor
        for ex_id, (ex, report) in benchmark_sweep.items():
            m = ex.problem.m
            errs = [max_error(error_curve(report.iterates[n - (m - 1)], ex.reference, 200))
                    for n in range(m, 21)]
            for a, b in zip(errs, errs[1:]):
                assert b <= max(1.2 * a, 1e-12), (ex_id, errs)


class TestResidualTrend:
    def test_final_residual_below_first(self, benchmark_sweep):
        # example 1 starts from a homogeneous seed, so its first frozen rhs is
        # the constant 1 and the first residual is exactly zero; the trend
        # check therefore floors the comparison at roundoff level.
        for ex_id, (ex, report) in benchmark_sweep.items():
            assert report.residuals[-1] < max(report.residuals[0], 1e-12), ex_id
