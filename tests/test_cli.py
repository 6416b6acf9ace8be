import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bernbvp import bandsolve
from bernbvp.bernstein import BernsteinPoly, evaluate
from bernbvp.cli import main
from bernbvp.problems import error_curve, example


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
        assert capsys.readouterr().err.startswith("numerical failure: exp(")

    @pytest.mark.parametrize("quad,flags", [
        ({}, ["--quad-order", "0"]),
        ({}, ["--quad-panels", "0"]),
        ({"order": 22.5}, []),
        ({"order": "22"}, []),
        ({"order": 22.0}, []),
        ({"order": True}, []),
        ({"panels": 2.5}, []),
        ({"panels": 0}, []),
    ], ids=["order-flag-0", "panels-flag-0", "order-22.5", "order-str", "order-22.0",
            "order-true", "panels-2.5", "panels-0"])
    def test_malformed_quadrature_exits_2(self, tmp_path, capsys, quad, flags):
        spec = tmp_path / "q.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0.0], "right": [0.0], "rhs": "y1^2 + 1",
            "exact": "-ln(cos(x - 1/2)/cos(1/2))", "quadrature": quad}))
        for argv in (["solve", str(spec), "--out", str(tmp_path / "o")],
                     ["error-curve", "--spec", str(spec)]):
            assert main(argv + ["--degree", "6"] + flags) == 2
            assert capsys.readouterr().err.startswith("error: quadrature ")

    def test_degree_below_order_exits_2(self, ex1_spec, tmp_path):
        assert main(["solve", str(ex1_spec), "--degree", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_degree_above_the_cap_exits_2(self, ex1_spec, tmp_path, capsys):
        assert main(["solve", str(ex1_spec), "--degree", "61",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: degree 61 is above the maximum 60\n"
        assert not (tmp_path / "o").exists()

    def test_overflowing_residual_exits_3(self, tmp_path, capsys):
        # v and the band solve stay finite, but (w'' - f)^2 overflows
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({
            "order": 2, "left": [0.0], "right": [0.0], "rhs": "1e160*sin(1000*x)"}))
        assert main(["solve", str(spec), "--degree", "4",
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: iteration n=2 failed: ")

    def test_nonfinite_band_solve_exits_3(self, ex1_spec, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(bandsolve, "solve", lambda system: np.full(system.size, np.inf))
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

    def test_prints_the_scalar_horner_value(self, tmp_path, capsys):
        from helpers import evaluate_reference

        rng = np.random.default_rng(9)
        poly = BernsteinPoly(rng.uniform(-1, 1, 41) * 10.0 ** rng.integers(-5, 6, 41))
        coeffs = tmp_path / "c.json"
        coeffs.write_text(json.dumps({"degree": 40, "coefficients": poly.coeffs.tolist()}))
        for x in (0.0, 0.1, 0.5, 0.7, 1.0):
            assert main(["eval", "--coeffs", str(coeffs), "--at", repr(x)]) == 0
            assert capsys.readouterr().out == f"{evaluate_reference(poly, x):.17g}\n"

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
            assert abs(ex.reference.value(x) - val) == pytest.approx(eps, abs=1e-16)
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
