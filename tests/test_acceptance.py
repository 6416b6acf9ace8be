"""Acceptance suite: one test per criterion, each reporting a pass/fail line
in the terminal summary (see conftest.record_criterion)."""

import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from conftest import record_criterion
from helpers import (BENCHMARK_MAX_ERRORS, PRECISION_FLOOR, bernstein_gram_entry,
                     dense_from_banded, dual_table, manufactured_polynomial,
                     monomial_bernstein_coeffs)

from bernbvp.bandsolve import assemble_matrix, solve as band_solve
from bernbvp.bernstein import (BernsteinPoly, basis_matrix, derivative, endpoint_derivative,
                               evaluate)
from bernbvp.cli import main as cli_main
from bernbvp.errors import IterationError
from bernbvp.expressions import parse
from bernbvp.problems import error_curve, max_error
from bernbvp.quadrature import gauss_rule
from bernbvp.solver import BVProblem, SolveOptions, iterate, outer_coefficients, seed, solve

RATIO_BAND = 10.0  # reproduction tolerance: within a factor of 10


def computed_table(benchmark_sweep):
    table = {}
    for ex_id, (ex, report) in benchmark_sweep.items():
        m = ex.problem.m
        table[ex_id] = {
            n: max_error(error_curve(report.iterates[n - (m - 1)], ex.reference, 200))
            for n in range(m, 21)
        }
    return table


def test_criterion_1_benchmark_table_reproduction(benchmark_sweep):
    table = computed_table(benchmark_sweep)
    checked = 0
    for ex_id, cells in BENCHMARK_MAX_ERRORS.items():
        for n, expected in cells.items():
            if expected < PRECISION_FLOOR:
                continue
            got = table[ex_id][n]
            assert expected / RATIO_BAND <= got <= expected * RATIO_BAND, (
                f"example {ex_id}, n={n}: computed {got:.3e}, expected {expected:.3e}")
            checked += 1
    # spot anchors
    assert table[1][8] == pytest.approx(9.93e-8, rel=0.5)
    assert table[2][10] == pytest.approx(4.08e-10, rel=0.5)
    assert table[3][4] == pytest.approx(2.88e-3, rel=0.5)
    assert table[4][3] == pytest.approx(3.40e-2, rel=0.5)
    assert table[5][14] == pytest.approx(5.76e-12, rel=0.5)
    record_criterion(f"criterion 1: benchmark table reproduction "
                     f"({checked} cells within x{RATIO_BAND:.0f})")


def test_criterion_2_precision_floor(benchmark_sweep):
    table = computed_table(benchmark_sweep)
    checked = 0
    worst = 0.0
    for ex_id, cells in BENCHMARK_MAX_ERRORS.items():
        for n, expected in cells.items():
            if expected >= PRECISION_FLOOR:
                continue
            got = table[ex_id][n]
            assert got <= PRECISION_FLOOR, (
                f"example {ex_id}, n={n}: computed {got:.3e} above {PRECISION_FLOOR}")
            worst = max(worst, got)
            checked += 1
    record_criterion(f"criterion 2: precision floor ({checked} sub-1e-11 cells, "
                     f"worst {worst:.2e})")


def test_criterion_3_duality():
    from mpmath import mp, mpf

    worst = 0.0
    for n in range(0, 21):
        t = dual_table(n)
        gram = [
            [Fraction(comb(n, i) * comb(n, j), (2 * n + 1) * comb(2 * n, i + j))
             for j in range(n + 1)]
            for i in range(n + 1)
        ]
        with mp.workdps(40):
            for i in range(n + 1):
                for j in range(n + 1):
                    acc = mpf(0)
                    for q in range(n + 1):
                        g = gram[q][j]
                        acc += t[i][q] * mpf(g.numerator) / g.denominator
                    err = abs(float(acc - (1 if i == j else 0)))
                    worst = max(worst, err)
    assert worst < 1e-9
    record_criterion(f"criterion 3: duality for n = 0..20 (max residual {worst:.2e})")


def inner_by_normal_equations(problem, w_prev, n):
    """Dense normal-equations minimizer of the m-th-derivative residual with
    the outer coefficients fixed; independent oracle for the Toeplitz path."""
    m, k, l = problem.m, problem.k, problem.l
    nu = n - m
    fac = 1.0
    for t in range(m):
        fac *= n - t

    # stencil matrix: derivative coefficients as a function of all p_j
    d = np.zeros((nu + 1, n + 1))
    for i in range(nu + 1):
        for h in range(m + 1):
            d[i, i + h] = (-1.0) ** (m - h) * comb(m, h)

    gram = np.array([[bernstein_gram_entry(nu, i, j) for j in range(nu + 1)]
                     for i in range(nu + 1)])

    derivs = [derivative(w_prev, r) for r in range(m)]

    # independent quadrature: numpy Gauss-Legendre nodes
    xg, wg = np.polynomial.legendre.leggauss(30)
    xg = (xg + 1) / 2
    wg = wg / 2
    gvals = np.asarray(problem.rhs_value(xg, [evaluate(d, xg) for d in derivs]), dtype=float)
    moments = np.zeros(nu + 1)
    for row, w, gv in zip(basis_matrix(nu, xg), wg, gvals):
        moments += w * gv * row

    a_full = fac**2 * d.T @ gram @ d
    b_full = fac * d.T @ moments

    left, right = outer_coefficients(problem, n)
    p_outer = np.zeros(n + 1)
    p_outer[:k] = left
    for j in range(l):
        p_outer[n - j] = right[j]
    inner_idx = np.arange(k, n - l + 1)
    outer_idx = np.concatenate([np.arange(0, k), np.arange(n - l + 1, n + 1)]).astype(int)
    rhs = b_full[inner_idx]
    if outer_idx.size:
        rhs = rhs - a_full[np.ix_(inner_idx, outer_idx)] @ p_outer[outer_idx]
    return np.linalg.solve(a_full[np.ix_(inner_idx, inner_idx)], rhs)


def test_criterion_4_optimality_oracle():
    rng = np.random.default_rng(2024)
    rule = gauss_rule(16, 1)
    cases = 0
    for m in range(1, 5):
        for k in range(0, m + 1):
            l = m - k
            for n in range(m, m + 5):
                for _ in range(20):
                    c0, c1 = rng.uniform(-2, 2, 2)
                    betas = rng.uniform(-2, 2, m)

                    def f(x, *ys, c0=c0, c1=c1, betas=betas):
                        acc = c0 + c1 * x
                        for b, y in zip(betas, ys):
                            acc = acc + b * y
                        return acc

                    problem = BVProblem(tuple(rng.uniform(-1, 1, k)),
                                        tuple(rng.uniform(-1, 1, l)), f)
                    w_prev = BernsteinPoly(rng.uniform(-1, 1, n))
                    got_poly = iterate(problem, w_prev, n, rule)
                    got = got_poly.coeffs[k: n - l + 1]
                    expect = inner_by_normal_equations(problem, w_prev, n)
                    scale = np.abs(expect).max() + 1.0
                    assert np.abs(got - expect).max() <= 1e-8 * scale, (m, k, n)
                    cases += 1
    record_criterion(f"criterion 4: optimality vs normal equations ({cases} cases)")


def test_criterion_5_boundary_exactness(benchmark_sweep):
    def check(problem, report):
        for w in report.iterates:
            for i in range(problem.k):
                want = problem.left_values[i]
                got = endpoint_derivative(w, i, "left")
                assert abs(got - want) <= 1e-11 * (1 + abs(want))
            for j in range(problem.l):
                want = problem.right_values[j]
                got = endpoint_derivative(w, j, "right")
                assert abs(got - want) <= 1e-11 * (1 + abs(want))

    count = 0
    for ex, report in benchmark_sweep.values():
        check(ex.problem, report)
        count += 1

    rng = np.random.default_rng(321)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(0, m + 1))
        terms = [f"{rng.uniform(-1, 1):.6f}", f"{rng.uniform(-1, 1):.6f}*x"]
        terms += [f"{rng.uniform(-0.5, 0.5):.6f}*y{r}" for r in range(m)]
        problem = BVProblem(tuple(rng.uniform(-2, 2, k)),
                            tuple(rng.uniform(-2, 2, m - k)),
                            parse(" + ".join(terms)))
        report = solve(problem, SolveOptions(degree=m + 4))
        check(problem, report)
        count += 1
    record_criterion(f"criterion 5: boundary exactness on {count} problems, "
                     f"all iterates")


def test_criterion_6_manufactured_cubic():
    problem = BVProblem((0.0,), (0.0,), parse("6*x"))
    report = solve(problem, SolveOptions(degree=20))
    worst = 0.0
    for w in report.iterates:
        if w.degree < 3:
            continue
        expect = monomial_bernstein_coeffs([0.0, -1.0, 0.0, 1.0], w.degree)
        worst = max(worst, np.abs(w.coeffs - expect).max())
    # every split k + l = m <= 8: a degree m + 2 polynomial p with rhs
    # p^(m)(x) is reproduced at its own degree n = m + 2
    rng = np.random.default_rng(6)
    shapes = 0
    for m in range(1, 9):
        for k in range(m + 1):
            problem, c = manufactured_polynomial(m, k, rng)
            w = solve(problem, SolveOptions(degree=m + 2)).solution
            expect = monomial_bernstein_coeffs(c, m + 2)
            worst = max(worst, np.abs(w.coeffs - expect).max())
            shapes += 1
    assert worst < 1e-10
    record_criterion(f"criterion 6: manufactured x^3 - x exact for n = 3..20, "
                     f"degree m + 2 polynomials on {shapes} (k, l) shapes "
                     f"(worst coefficient error {worst:.2e})")


def test_criterion_7_band_solver_oracle():
    rng = np.random.default_rng(777)
    cases = 0
    paths = set()
    for m in range(1, 7):
        for k in range(0, m + 1):
            l = m - k
            for n in (m, m + 5, m + 12, 25):
                if n < m:
                    continue
                system0 = assemble_matrix(n, k, l)
                dense = dense_from_banded(system0)
                for _ in range(2):
                    rhs = rng.uniform(-1, 1, system0.size)
                    expect = np.linalg.solve(dense, rhs)
                    got = band_solve(system0, rhs)
                    scale = np.abs(expect).max() + 1.0
                    assert np.abs(got - expect).max() <= 1e-11 * scale, (m, k, l, n)
                    cases += 1
                if k == 0:
                    paths.add("back")
                elif l == 0:
                    paths.add("forward")
                elif k == l == 1:
                    paths.add("tridiagonal")
                else:
                    paths.add("banded-lu")
    assert cases >= 100
    assert paths == {"back", "forward", "tridiagonal", "banded-lu"}
    record_criterion(f"criterion 7: band solver vs dense oracle ({cases} systems, "
                     f"all (k, l) band shapes)")


def test_criterion_8_worked_micro_examples():
    line = BVProblem((0.0,), (1.0,), parse("0"))
    w = iterate(line, seed(line), 2)
    assert np.abs(w.coeffs - [0.0, 0.5, 1.0]).max() <= 1e-14

    parabola = BVProblem((0.0,), (0.0,), parse("-2"))
    w = iterate(parabola, seed(parabola), 2)
    assert np.abs(w.coeffs - [0.0, 0.5, 0.0]).max() <= 1e-14
    record_criterion("criterion 8: worked micro-examples exact to 1e-14")


def test_criterion_9_cli_contract(tmp_path):
    import time

    out = tmp_path / "table.csv"
    started = time.perf_counter()
    code = cli_main(["table", "--examples", "1,2,3,4,5",
                     "--min-degree", "2", "--max-degree", "20",
                     "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,example1,example2,example3,example4,example5"
    assert len(lines) == 20
    populated = 0
    for line in lines[1:]:
        cells = line.split(",")
        n = int(cells[0])
        for ex_id, cell in enumerate(cells[1:], start=1):
            expected = BENCHMARK_MAX_ERRORS[ex_id].get(n)
            if cell == "":
                assert expected is None or n < 2
                continue
            got = float(cell)
            assert expected is not None
            if expected >= PRECISION_FLOOR:
                assert expected / RATIO_BAND <= got <= expected * RATIO_BAND
            else:
                assert got <= PRECISION_FLOOR
            populated += 1

    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2, "left": [0.0], "rhs": "y1"}')
    assert cli_main(["solve", str(bad), "--degree", "5",
                     "--out", str(tmp_path / "x.json")]) == 2

    singular = tmp_path / "singular.json"
    singular.write_text(json.dumps({
        "order": 3, "left": [0.0, 0.0], "right": [0.0], "rhs": "y2/y0"}))
    assert cli_main(["solve", str(singular), "--degree", "5",
                     "--out", str(tmp_path / "y.json")]) == 3
    record_criterion(f"criterion 9: CLI table contract ({populated} populated cells "
                     f"in {elapsed:.1f}s), exit codes 2 and 3")
