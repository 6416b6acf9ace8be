import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bernbvp import bandsolve, quadrature
from bernbvp.bernstein import BernsteinPoly, evaluate
from bernbvp.cli import main
from bernbvp.problems import ReferenceSolution, error_curve, example


@pytest.fixture
def ex1_spec(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps({
        "order": 2, "left": [0.0], "right": [0.0],
        "rhs": "y1^2 + 1",
        "exact": "-ln(cos(x - 1/2)/cos(1/2))",
    }))
    return path


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test-only dependency; the installed program must not need it
    import bernbvp

    root = os.path.dirname(os.path.dirname(bernbvp.__file__))
    code = (f"import sys; sys.path.insert(0, {root!r}); import bernbvp.cli; "
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _fresh_process(argv):
    """(exit code, stdout, stderr) of bernbvp argv in a new interpreter."""
    import bernbvp

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bernbvp.__file__)))
    out = subprocess.run([sys.executable, "-m", "bernbvp.cli", *argv], capture_output=True,
                         text=True, env=env)
    return out.returncode, out.stdout, out.stderr


def test_parser_kept_after_a_usage_error_behaves_as_a_fresh_one(capsys):
    # main parses every argv with one parser per process: an argv it
    # rejects must leave nothing behind for the next one
    bad, good = ["table", "--max-degree", "six"], ["table", "--examples", "1,4",
                                                    "--max-degree", "6"]
    runs = []
    for argv in (bad, good):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        runs.append((code, *capsys.readouterr()))
    assert runs[0][0] == 2 and runs[1][0] == 0
    assert runs == [_fresh_process(bad), _fresh_process(good)]


@pytest.mark.parametrize("argv", [
    ["solve", "SPEC", "--degree", "4"],
    ["table", "--examples", "1", "--max-degree", "4"],
    ["error-curve", "--example", "1", "--degree", "3"],
], ids=["solve", "table", "error-curve"])
def test_unwritable_out_exits_2(ex1_spec, tmp_path, capsys, argv):
    # every --out goes through one writer, which reports the path it
    # cannot write as a usage error, after no "written to" line
    out = tmp_path / "missing" / "f"
    argv = [str(ex1_spec) if a == "SPEC" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    printed, err = capsys.readouterr()
    assert err.startswith("error: cannot write ") and str(out) in err
    assert "written to" not in printed
    assert not out.exists()


class TestSolveCommand:
    def test_solve_writes_coefficients(self, ex1_spec, tmp_path, capsys):
        out = tmp_path / "coeffs.json"
        assert main(["solve", str(ex1_spec), "--degree", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["degree"] == 8
        assert len(doc["coefficients"]) == 9
        assert len(doc["residuals"]) == 7
        assert doc["options"]["quad_panels"] == 2
        printed = capsys.readouterr().out
        assert "final residual" in printed
        assert "max error E_8" in printed
        # E_8 for this problem is about 9.9e-8
        e8 = float(printed.split("max error E_8 = ")[1].split()[0])
        assert e8 == pytest.approx(9.93e-8, rel=0.5)

    def test_solve_deterministic_bytes(self, ex1_spec, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", str(ex1_spec), "--degree", "6", "--out", str(out1)]) == 0
        assert main(["solve", str(ex1_spec), "--degree", "6", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_boundary_count_mismatch_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2, "left": [0.0], "rhs": "y1"}')
        assert main(["solve", str(bad), "--degree", "4", "--out", str(tmp_path / "o")]) == 2
        assert "boundary condition count mismatch" in capsys.readouterr().err

    def test_bad_rhs_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 1, "left": [0.0], "rhs": "x^(1"}')
        assert main(["solve", str(bad), "--degree", "3", "--out", str(tmp_path / "o")]) == 2

    def test_rhs_beyond_the_order_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2, "left": [0.0], "right": [0.0], "rhs": "y2"}')
        assert main(["solve", str(bad), "--degree", "4", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: rhs references y2 but the equation order is 2\n")

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--degree", "3",
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_list_boundary_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 1, "left": 5, "rhs": "x"}')
        assert main(["solve", str(bad), "--degree", "3",
                     "--out", str(tmp_path / "o")]) == 2

    def test_non_numeric_boundary_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 1, "left": ["a"], "rhs": "x"}')
        assert main(["solve", str(bad), "--degree", "3",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("fields,message", [
        ({"rhs": 3}, "rhs must be an expression string, got 3"),
        ({"rhs": None}, "rhs must be an expression string, got None"),
        ({"exact": 3}, "exact must be an expression string, got 3"),
        ({"order": True}, "order must be an integer >= 1, got True"),
        ({"order": 1.0}, "order must be an integer >= 1, got 1.0"),
        ({"order": "1"}, "order must be an integer >= 1, got '1'"),
        ({"left": ["1"]}, "boundary values must be numbers"),
        ({"left": [True]}, "boundary values must be numbers"),
        # a misspelled key would leave its default in force: 2 panels for
        # "panel", and no max error for "exactt"
        ({"quadrature": {"order": 30, "panel": 3}}, "unknown quadrature key 'panel'"),
        ({"exactt": "x"}, "unknown spec key 'exactt'"),
    ], ids=["rhs-int", "rhs-null", "exact-int", "order-true", "order-float", "order-str",
            "left-str", "left-true", "quadrature-panel", "exactt"])
    def test_mistyped_spec_exits_2(self, tmp_path, capsys, fields, message):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"order": 1, "left": [0.0], "rhs": "y0", **fields}))
        assert main(["solve", str(spec), "--degree", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_boundary_value_beyond_float_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text('{"order": 1, "left": [1' + "0" * 400 + '], "rhs": "y0"}')
        assert main(["solve", str(spec), "--degree", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: int too large to convert to float")

    @pytest.mark.parametrize("rhs", ["(" * 5000, "-" * 5000 + "x", "^".join(["2"] * 3000)],
                             ids=["parentheses", "unary-minus", "power-chain"])
    def test_deeply_nested_rhs_exits_2(self, tmp_path, capsys, rhs):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"order": 1, "left": [0.0], "rhs": rhs}))
        assert main(["solve", str(spec), "--degree", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid rhs expression: "
                                                  "expression nested deeper than")

    def test_deeply_nested_spec_json_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text("[" * 100000)
        assert main(["solve", str(spec), "--degree", "3", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: spec is not valid JSON: ")

    def test_rhs_domain_error_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "sing.json"
        spec.write_text(json.dumps({
            "order": 3, "left": [0.0, 0.0], "right": [0.0], "rhs": "y2/y0"}))
        assert main(["solve", str(spec), "--degree", "6",
                     "--out", str(tmp_path / "o")]) == 3
        assert "n=3" in capsys.readouterr().err

    def test_divergent_solve_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "div.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0], "right": [0],
            "rhs": "exp(40*y0) + 300*y1^3"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(spec), "--degree", "20",
                         "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: iteration n=6 failed: ")

    def test_overflowing_exact_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "order": 1, "left": [1.0], "rhs": "1000*y0", "exact": "exp(1000*x)"}))
        assert main(["solve", str(spec), "--degree", "3",
                     "--out", str(tmp_path / "o")]) == 3
        printed, err = capsys.readouterr()
        assert err.startswith("numerical failure: exp(")
        assert printed == "" and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("quad,flags", [
        ({}, ["--quad-order", "0"]),
        ({}, ["--quad-panels", "0"]),
        ({"order": 22.5}, []),
        ({"order": "22"}, []),
        ({"order": 22.0}, []),
        ({"order": True}, []),
        ({"panels": 2.5}, []),
        ({"panels": 0}, []),
        ([], []),
        (0, []),
        (False, []),
        ("", []),
        ([1], []),
        (1, []),
    ], ids=["order-flag-0", "panels-flag-0", "order-22.5", "order-str", "order-22.0",
            "order-true", "panels-2.5", "panels-0", "quad-empty-list", "quad-0",
            "quad-false", "quad-empty-str", "quad-list", "quad-1"])
    def test_malformed_quadrature_exits_2(self, tmp_path, capsys, quad, flags):
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0.0], "right": [0.0], "rhs": "y1^2 + 1",
            "exact": "-ln(cos(x - 1/2)/cos(1/2))", "quadrature": quad}))
        for argv in (["solve", str(spec), "--out", str(tmp_path / "o")],
                     ["error-curve", "--spec", str(spec)]):
            assert main(argv + ["--degree", "6"] + flags) == 2
            assert capsys.readouterr().err.startswith("error: quadrature ")

    @pytest.mark.parametrize("quad", [None, {"order": None}, {"panels": None}],
                             ids=["quad-null", "order-null", "panels-null"])
    def test_null_quadrature_is_the_default(self, tmp_path, quad):
        # null means the default, as a missing key does
        doc = {"order": 2, "left": [0.0], "right": [0.0], "rhs": "y1^2 + 1"}
        outputs = []
        for name, value in (("default", {}), ("null", quad)):
            spec, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
            spec.write_text(json.dumps({**doc, "quadrature": value}))
            assert main(["solve", str(spec), "--degree", "6", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("quad,flags", [
        ({"order": 10**9}, []),
        ({}, ["--quad-order", str(10**9)]),
        ({}, ["--quad-order", "257"]),
        ({"order": 256, "panels": 5}, []),
        ({}, ["--quad-panels", "10000"]),
    ], ids=["spec-order-1e9", "flag-order-1e9", "order-257", "nodes-1280", "default-order-panels"])
    def test_oversized_quadrature_exits_2_before_any_rule(self, tmp_path, capsys, monkeypatch,
                                                          quad, flags):
        # rules above order 256 or 1024 nodes are refused before leggauss
        # allocates its order x order matrix
        def no_rule(order, panels):
            raise AssertionError(f"a rule of order {order} x {panels} was built")

        monkeypatch.setattr(quadrature, "_gauss_rule", no_rule)
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0.0], "right": [0.0], "rhs": "y1^2 + 1",
            "exact": "-ln(cos(x - 1/2)/cos(1/2))", "quadrature": quad}))
        for argv in (["solve", str(spec), "--out", str(tmp_path / "o")],
                     ["error-curve", "--spec", str(spec)]):
            assert main(argv + ["--degree", "6"] + flags) == 2
            assert capsys.readouterr().err.startswith("error: quadrature ")

    def test_largest_quadrature_solves(self, ex1_spec, tmp_path):
        assert main(["solve", str(ex1_spec), "--degree", "6", "--quad-order", "256",
                     "--quad-panels", "4", "--out", str(tmp_path / "o")]) == 0

    def test_degree_below_order_exits_2(self, ex1_spec, tmp_path):
        assert main(["solve", str(ex1_spec), "--degree", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_degree_above_the_cap_exits_2(self, ex1_spec, tmp_path, capsys):
        assert main(["solve", str(ex1_spec), "--degree", "61",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: degree 61 is above the maximum 60\n"
        assert not (tmp_path / "o").exists()

    def test_overflowing_residual_exits_3(self, tmp_path, capsys):
        # v and the band solve stay finite, but w'' - f overflows near
        # x = 1 (a finite w'' - f whose squares overflow solves)
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0.0], "right": [0.0], "rhs": "1e308*(1 - 2*x^16)"}))
        assert main(["solve", str(spec), "--degree", "4",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: iteration n=2 failed: ")

    def test_a_solution_near_1e160_solves(self, tmp_path, capsys):
        # its pointwise residual squared leaves float64, its L2 residual
        # does not; eval at 1/2 meets 1e160 sinh(1/2) / sinh(1)
        spec, out = tmp_path / "s.json", tmp_path / "o.json"
        spec.write_text(json.dumps({"order": 2, "left": [1e160], "right": [0.0], "rhs": "y0"}))
        assert main(["solve", str(spec), "--degree", "20", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--coeffs", str(out), "--at", "0.5"]) == 0
        exact = 1e160 * math.sinh(0.5) / math.sinh(1)
        assert abs(float(capsys.readouterr().out) - exact) <= 1e-12 * exact

    def test_ill_conditioned_stencil_exits_3(self, tmp_path, capsys):
        # the band guard on a real stencil: within the degree cap, the
        # refinement of the one-sided order-20 stencil stops contracting
        # at n = 56 (order 16 solves to N = 60)
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"order": 20, "left": [1.0] + [0.0] * 19, "rhs": "y0"}))
        assert main(["solve", str(spec), "--degree", "60",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: iteration n=56 failed: singular system")
        assert "band (20, 0), size 37, does not contract" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec,n", [
        # the seed (degree 2) is finite; the outer coefficients of degree 3
        # are not
        ({"order": 3, "left": [1.7e308, -1.7e308, 1.7e308], "rhs": "y0"}, 3),
        # the seed's own outer coefficients (degree 3) meet inf - inf
        ({"order": 4, "left": [1e308, 1e308, 0, 0], "rhs": "y0"}, 3),
    ])
    def test_huge_finite_boundary_data_exit_3(self, tmp_path, capsys, spec, n):
        # boundary values within float64 whose outer coefficients are not
        path = tmp_path / "s.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", str(path), "--degree", "8",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: iteration n={n} failed: "
            "outer coefficients are not finite in float64\n")
        assert not (tmp_path / "o").exists()

    def test_boundary_value_near_the_float64_limit_solves(self, tmp_path):
        # y' = 0 with y(0) = 1.7e308: the inner coefficients are that value
        # too, carried exactly by the raised seed, whose correction is zero
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"order": 1, "left": [1.7e308], "rhs": "0"}))
        assert main(["solve", str(path), "--degree", "8", "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o").read_text())["coefficients"] == [1.7e308] * 9

    def test_nonfinite_band_solve_exits_3(self, ex1_spec, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bandsolve, "solve",
                            lambda system, v, float_pass=False: np.full(system.size, np.inf))
        assert main(["solve", str(ex1_spec), "--degree", "4",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: iteration n=2 failed: band solve result is not finite")


class TestEvalCommand:
    def test_simple_poly(self, tmp_path, capsys):
        coeffs = tmp_path / "c.json"
        coeffs.write_text('{"degree": 2, "coefficients": [0.0, 0.5, 1.0]}')
        assert main(["eval", "--coeffs", str(coeffs), "--at", "0.25"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.25, abs=1e-15)

    def test_prints_the_bits_of_evaluate(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        poly = BernsteinPoly(rng.uniform(-1, 1, 41) * 10.0 ** rng.integers(-5, 6, 41))
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 40, "coefficients": poly.coeffs.tolist()}))
        for x in (0.0, 0.1, 0.5, 0.7, 1.0):
            assert main(["eval", "--coeffs", str(coeffs), "--at", repr(x)]) == 0
            assert capsys.readouterr().out == f"{evaluate(poly, x):.17g}\n"

    @pytest.mark.parametrize("degree,code", [(60, 0), (61, 2), (1100, 2)])
    def test_degree_above_the_cap_exits_2(self, tmp_path, capsys, degree, code):
        # every command caps degrees at cli.MAX_DEGREE; at 1100 the
        # binomials of the evaluation would not fit a float
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": degree, "coefficients": [1.0] * (degree + 1)}))
        assert main(["eval", "--coeffs", str(coeffs), "--at", "0.5"]) == code
        printed, err = capsys.readouterr()
        if code == 0:
            assert float(printed) == pytest.approx(1.0, abs=1e-14)
        else:
            assert err == f"error: degree {degree} is above the maximum 60\n"

    def test_out_of_range_exits_2(self, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text('{"degree": 1, "coefficients": [0.0, 1.0]}')
        assert main(["eval", "--coeffs", str(coeffs), "--at", "1.5"]) == 2

    def test_malformed_coefficients_exit_2(self, tmp_path):
        coeffs = tmp_path / "c.json"
        coeffs.write_text('{"degree": 1, "coefficients": [0.0, "x"]}')
        assert main(["eval", "--coeffs", str(coeffs), "--at", "0.5"]) == 2
        coeffs.write_text('{"degree": 2, "coefficients": [0.0, 1.0]}')
        assert main(["eval", "--coeffs", str(coeffs), "--at", "0.5"]) == 2

    @pytest.mark.parametrize("text", [
        "[1]", '"degree"', '{"degree": "1", "coefficients": [0, 1]}',
        '{"degree": true, "coefficients": [0, 1]}', '{"degree": 1.0, "coefficients": [0, 1]}',
        '{"coefficients": [0, 1]}', '{"degree": 1}',
        '{"degree": 1, "coefficients": ["0.25", "0.75"]}',
        '{"degree": 1, "coefficients": [true, false]}',
        '{"degree": 0, "coefficients": [1%s]}' % ("0" * 400)],
        ids=["list", "string", "degree-str", "degree-true", "degree-float", "no-degree",
             "no-coefficients", "coefficients-str", "coefficients-bool",
             "coefficient-beyond-float64"])
    def test_malformed_coefficient_document_exits_2(self, tmp_path, capsys, text):
        coeffs = tmp_path / "c.json"
        coeffs.write_text(text)
        assert main(["eval", "--coeffs", str(coeffs), "--at", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_coefficient_file_exits_2(self, tmp_path, capsys):
        coeffs = tmp_path / "c.json"
        coeffs.write_text("[" * 100000)
        assert main(["eval", "--coeffs", str(coeffs), "--at", "0.5"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read coefficient file: ")

    def test_example3_left_boundary_value(self, tmp_path, capsys):
        spec = tmp_path / "ex3.json"
        spec.write_text(json.dumps({
            "order": 4, "left": [2.0, -1.0, 3.0, 1.0], "right": [],
            "rhs": "y3^2 / y2"}))
        out = tmp_path / "c.json"
        assert main(["solve", str(spec), "--degree", "10", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--coeffs", str(out), "--at", "0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-12)

    def test_example1_midpoint_matches_closed_form(self, ex1_spec, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["solve", str(ex1_spec), "--degree", "20", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--coeffs", str(out), "--at", "0.5"]) == 0
        got = float(capsys.readouterr().out)
        assert got == pytest.approx(math.log(math.cos(0.5)), abs=1e-12)

    def test_round_trip_matches_error_curve(self, ex1_spec, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["solve", str(ex1_spec), "--degree", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        poly = BernsteinPoly(doc["coefficients"])
        ex = example(1)
        curve = error_curve(poly, ex.reference, 20)
        for x, eps in curve:
            capsys.readouterr()
            assert main(["eval", "--coeffs", str(out), "--at", repr(float(x))]) == 0
            val = float(capsys.readouterr().out)
            assert abs(ex.reference.value(x) - val) == eps
            assert val == evaluate(poly, x)


class TestTableCommand:
    def test_structure_and_empty_cells(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--examples", "2", "--min-degree", "2",
                     "--max-degree", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,example2"
        assert lines[1] == "2,"   # m = 4: no degree-2 iterate
        assert lines[2] == "3,"
        n4 = float(lines[3].split(",")[1])
        assert n4 == pytest.approx(8.11e-3, rel=0.2)

    @pytest.mark.parametrize("examples", ["1,2,3,4,5", "2"])
    def test_max_degree_below_an_order_leaves_its_column_blank(self, tmp_path, examples):
        # examples 2 and 3 have m = 4, so no iterate of degree 3 or less and
        # blank columns; a cell is blank exactly when n is below the order
        out = tmp_path / "t.csv"
        assert main(["table", "--examples", examples, "--max-degree", "3",
                     "--out", str(out)]) == 0
        ids = examples.split(",")
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["n"] + [f"example{i}" for i in ids]
        assert [row[0] for row in rows[1:]] == ["2", "3"]
        for row in rows[1:]:
            for i, cell in zip(ids, row[1:]):
                assert (cell == "") == (int(row[0]) < example(int(i)).problem.m), (i, row)

    def test_single_row(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["table", "--examples", "1", "--min-degree", "2",
                     "--max-degree", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == pytest.approx(5.58e-3, rel=0.1)

    def test_unknown_example_exits_2(self, tmp_path):
        assert main(["table", "--examples", "7", "--out", str(tmp_path / "t.csv")]) == 2

    def test_bad_degree_range_exits_2(self, tmp_path):
        assert main(["table", "--min-degree", "5", "--max-degree", "4",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert main(["table", "--max-degree", "61",
                     "--out", str(tmp_path / "t.csv")]) == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["table", "--examples", "1", "--min-degree", "2",
                         "--max-degree", "5", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_references_evaluated_for_every_cell(self, tmp_path, monkeypatch):
        # each reference keeps its grid values; the CSV must have the bytes
        # of evaluating the reference afresh for every cell
        def fresh(self, M):
            xs = np.arange(M + 1) / M
            if self.kind == "closed_form":
                return np.array(np.broadcast_to(self.fn(xs), xs.shape), dtype=float)
            return self.grid_y[::200 // M]

        kept, afresh = tmp_path / "kept.csv", tmp_path / "afresh.csv"
        assert main(["table", "--max-degree", "12", "--out", str(kept)]) == 0
        monkeypatch.setattr(ReferenceSolution, "values_on_grid", fresh)
        assert main(["table", "--max-degree", "12", "--out", str(afresh)]) == 0
        assert kept.read_bytes() == afresh.read_bytes()


class TestErrorCurveCommand:
    def test_example_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["error-curve", "--example", "1", "--degree", "3",
                     "--grid", "200", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,epsilon"
        assert len(lines) == 202
        eps = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(eps) == pytest.approx(4.83e-3, rel=0.1)

    def test_example4_degree20_floor(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["error-curve", "--example", "4", "--degree", "20",
                     "--grid", "200", "--out", str(out)]) == 0
        eps = [float(line.split(",")[1])
               for line in out.read_text().splitlines()[1:]]
        assert max(eps) <= 1e-12

    def test_grid_zero_exits_2(self, tmp_path):
        assert main(["error-curve", "--example", "1", "--degree", "3",
                     "--grid", "0", "--out", str(tmp_path / "c.csv")]) == 2

    def test_grid_above_the_cap_exits_2(self, tmp_path, capsys):
        # error_curve builds (M + 1) x (N + 1) arrays: M is capped at
        # MAX_GRID before anything is solved
        out = tmp_path / "c.csv"
        assert main(["error-curve", "--example", "1", "--degree", "3",
                     "--grid", "10001", "--out", str(out)]) == 2
        assert "1..10000" in capsys.readouterr().err
        assert not out.exists()
        assert main(["error-curve", "--example", "1", "--degree", "3",
                     "--grid", "10000", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 10002

    def test_spec_without_exact_exits_2(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text('{"order": 1, "left": [0.0], "rhs": "x"}')
        assert main(["error-curve", "--spec", str(spec), "--degree", "3",
                     "--out", str(tmp_path / "c.csv")]) == 2

    def test_spec_with_exact(self, tmp_path):
        # y' = 2x, y(0) = 0: exact solution x^2 is hit exactly from degree 2 on
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "order": 1, "left": [0.0], "rhs": "2*x", "exact": "x^2"}))
        out = tmp_path / "c.csv"
        assert main(["error-curve", "--spec", str(spec), "--degree", "4",
                     "--grid", "10", "--out", str(out)]) == 0
        eps = [float(line.split(",")[1])
               for line in out.read_text().splitlines()[1:]]
        assert max(eps) <= 1e-13

    def test_degree_above_the_cap_exits_2(self, tmp_path, capsys):
        assert main(["error-curve", "--example", "1", "--degree", "61",
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == "error: degree 61 is above the maximum 60\n"

    def test_requires_exactly_one_target(self, tmp_path):
        assert main(["error-curve", "--degree", "3",
                     "--out", str(tmp_path / "c.csv")]) == 2

    def test_spec_with_trig_exact(self, tmp_path):
        # y'' = -y with y(0) = 0, y(1) = sin(1): exact solution sin(x)
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0.0], "right": [math.sin(1.0)],
            "rhs": "-y0", "exact": "sin(x)"}))
        out = tmp_path / "c.csv"
        assert main(["error-curve", "--spec", str(spec), "--degree", "16",
                     "--grid", "50", "--out", str(out)]) == 0
        eps = [float(line.split(",")[1])
               for line in out.read_text().splitlines()[1:]]
        assert max(eps) <= 1e-12

    def test_overflowing_exact_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "order": 1, "left": [1.0], "rhs": "1000*y0", "exact": "exp(1000*x)"}))
        assert main(["error-curve", "--spec", str(spec), "--degree", "3",
                     "--out", str(tmp_path / "c.csv")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: exp(")

    @pytest.mark.parametrize("argv, message", [
        (["table", "--examples", "1,x", "--max-degree", "4"], "bad example list '1,x'"),
        (["table", "--examples", "1,1", "--max-degree", "4"], "repeated example id in '1,1'"),
        (["error-curve", "--example", "6", "--degree", "3"],
         "example id must be in (1, 2, 3, 4, 5), got 6"),
        (["error-curve", "--example", "0", "--degree", "3"],
         "example id must be in (1, 2, 3, 4, 5), got 0"),
        (["error-curve", "--example", "4", "--degree", "20", "--grid", "7"],
         "fixture reference is tabulated on M=200; M=7 is not a divisor grid"),
    ], ids=["table-bad-list", "table-repeated-id", "example-6", "example-0", "fixture-grid-7"])
    def test_bad_example_or_grid_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o.csv"
        assert main([*argv, "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert printed == "" and not out.exists()

    @pytest.mark.parametrize("command", ["solve", "error-curve"])
    def test_exact_not_finite_on_the_grid_exits_3(self, tmp_path, capsys, command):
        # 1e200*1e200 is inf: the exact solution is nan at x = 0 and inf
        # elsewhere, with no evaluation error of its own
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"order": 2, "left": [0.0], "right": [0.0],
                                    "rhs": "y1^2 + 1", "exact": "1e200*1e200*x"}))
        args = [str(spec)] if command == "solve" else ["--spec", str(spec), "--grid", "4"]
        assert main([command, *args, "--degree", "6", "--out", str(tmp_path / "o")]) == 3
        printed, err = capsys.readouterr()
        assert err == "numerical failure: exact solution is not finite at x=0.0\n"
        assert printed == "" and not (tmp_path / "o").exists()


# JSON values of every type, huge and non-finite numbers included
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)
_expressions = st.one_of(
    st.sampled_from(["y0", "x", "y1^2 + 1", "sin(x) - y0", "1/y0", "ln(y0)", "exp(40*y0)",
                     "y3", "(" * 5000, "-" * 5000 + "x", "^".join(["2"] * 3000)]),
    st.text("xy0123+-*/^().e sinlnexp", max_size=30))
_numbers = (st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**400, 10**400)
            | st.booleans() | st.text(max_size=3))
# huge quadrature values are refused before a rule is built (cli.MAX_QUAD_ORDER
# and MAX_QUAD_NODES), so they cost nothing here
_quadrature = st.dictionaries(st.sampled_from(["order", "panels"]),
                              st.integers(-2, 40) | st.integers(257, 10**12) | st.floats(0, 40)
                              | st.booleans() | st.text(max_size=3) | st.none())


@st.composite
def _specs(draw):
    """A well-formed spec of order 1..3, then up to three keys replaced by
    hostile values, huge finite boundary values among them."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(0, m))
    small = st.floats(-2, 2)
    # finite, but the outer coefficients they pin may not be
    huge = st.floats(1e300, 1.7e308) | st.floats(-1.7e308, -1e300)
    spec = {"order": m, "left": draw(st.lists(small, min_size=k, max_size=k)),
            "right": draw(st.lists(small, min_size=m - k, max_size=m - k)),
            "rhs": draw(_expressions)}
    if draw(st.booleans()):
        spec["exact"] = draw(_expressions)
    hostile = {"order": st.integers(-1, 4) | _json_values,
               "left": (st.lists(_numbers, max_size=3) | _json_values
                        | st.lists(huge, min_size=k, max_size=k)),
               "right": (st.lists(_numbers, max_size=3) | _json_values
                         | st.lists(huge, min_size=m - k, max_size=m - k)),
               "rhs": _expressions | _json_values, "exact": _expressions | _json_values,
               "quadrature": _quadrature | _json_values, "unknown": _json_values}
    for key in draw(st.lists(st.sampled_from(sorted(hostile)), max_size=3, unique=True)):
        spec[key] = draw(hostile[key])
    return spec


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=(_specs() | _json_values).map(json.dumps) | st.just("[" * 100000))
def test_solve_exits_0_2_or_3_on_any_spec(tmp_path_factory, text):
    # every spec file, however malformed, ends in a documented exit code
    tmp = tmp_path_factory.mktemp("spec")
    path = tmp / "s.json"
    path.write_text(text)
    assert main(["solve", str(path), "--degree", "5", "--out", str(tmp / "o.json")]) in (0, 2, 3)
