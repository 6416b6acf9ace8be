"""Tests of the benchmark's own machinery: spec generation, span
arithmetic, absent hooks and the correctness checks."""

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import specgen
import tracing
from run import Job, check_jobs

from bernbvp import BVProblem, SolveOptions, example, solve
from bernbvp.expressions import evaluate, parse
from bernbvp.problems import ReferenceSolution

BENCH = os.path.dirname(os.path.abspath(__file__))


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = specgen.generate(5), specgen.generate(5), specgen.generate(6)
    assert [s for _, s, _, _ in a] == [s for _, s, _, _ in b]
    assert [s for _, s, _, _ in a] != [s for _, s, _, _ in c]
    pa = specgen.write_specs(a, tmp_path / "a")
    pb = specgen.write_specs(b, tmp_path / "b")
    assert [open(p).read() for p in pa] == [open(p).read() for p in pb]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_pass_reaches_all_band_paths(seed):
    specs = specgen.generate(seed)
    shapes = [(s["order"], len(s["left"])) for _, s, _, _ in specs]
    assert sorted({m for m, _ in shapes}) == list(range(1, 9))
    assert any(k == 0 for _, k in shapes)                  # back substitution
    assert any(k == m for m, k in shapes)                  # forward substitution
    assert (2, 1) in shapes                                # tridiagonal
    assert any(0 < k < m and m > 2 for m, k in shapes)     # banded LU
    assert sum("y0^2" in s["rhs"] for _, s, _, _ in specs) == 8


def test_manufactured_solution_solves_its_spec():
    for _, spec, exact, _ in specgen.generate(11):
        m = spec["order"]
        rhs = parse(spec["rhs"])
        assert evaluate(parse(spec["exact"]), 0.3) == pytest.approx(exact.value(0.3), rel=1e-14)
        for x in (0.0, 0.37, 1.0):
            ys = [exact.derivative(r, x) for r in range(m)]
            want = exact.derivative(m, x)
            assert evaluate(rhs, x, ys) == pytest.approx(want, rel=1e-10, abs=1e-10)
        for i, v in enumerate(spec["left"]):
            assert v == exact.derivative(i, 0.0)
        for j, v in enumerate(spec["right"]):
            assert v == exact.derivative(j, 1.0)


def test_self_times_of_a_hand_built_tree():
    # job 0: root [0, 10] with children a [1, 4] (holding c [2, 3]) and b [5, 9]
    spans = [
        (0, 2, 1, "c", 2.0, 3.0),
        (0, 1, 0, "a", 1.0, 4.0),
        (0, 3, 0, "b", 5.0, 9.0),
        (0, 0, None, "root", 0.0, 10.0),
        (1, 4, None, "root", 20.0, 21.5),
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 4.5, "a": 2.0, "b": 4.0, "c": 1.0})
    assert sum(got.values()) == pytest.approx(11.5)


def test_self_times_reject_a_child_outliving_its_parent():
    with pytest.raises(ValueError):
        tracing.self_times([(0, 1, 0, "a", 1.0, 12.0), (0, 0, None, "root", 0.0, 10.0)])


def test_tracer_on_a_real_solve_adds_up_and_uninstalls():
    import bernbvp.solver

    original = bernbvp.solver._moment_integrals_mp
    ex = example(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.job(1, "solver.solve"):
            solve(ex.problem, SolveOptions(degree=5))
    finally:
        tracer.uninstall()
    assert bernbvp.solver._moment_integrals_mp is original
    record = tracer.dump()
    assert record["absent"] == []
    assert sum(record["self_s"].values()) == pytest.approx(record["root_s"], rel=1e-9)
    assert record["calls"]["solver.iterate"] == 4            # degrees 2..5
    assert record["calls"]["bandsolve.solve.path.tridiagonal"] == 4
    assert record["calls"]["solver.derivs"] > 0 and record["calls"]["solver.residual"] > 0
    metrics = tracing.per_layer_metrics([record], 0.1, 0.0)
    assert all(m["value"] is not None for m in metrics.values())


def test_missing_hook_is_reported_absent_not_zero(monkeypatch):
    import bernbvp.bandsolve

    # a k = l = 1 problem never reaches banded LU, so the solve still runs
    monkeypatch.delattr(bernbvp.bandsolve, "_banded_lu")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.job(1, "solver.solve"):
            solve(BVProblem((0.0,), (0.0,), parse("6*x")), SolveOptions(degree=3))
    finally:
        tracer.uninstall()
    assert tracer.absent == ["bernbvp.bandsolve._banded_lu"]
    metrics = tracing.per_layer_metrics([tracer.dump()], 0.1, 0.0)
    assert metrics["bandsolve.solve.path.banded_lu"]["value"] is None
    assert metrics["bandsolve.solve.refine_passes"]["value"] is None
    assert metrics["bandsolve.solve.path.tridiagonal"]["value"] == 2


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(BENCH, "..", "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


def _x_squared(n):
    """Degree-n Bernstein coefficients of x^2."""
    return np.array([i * (i - 1) / (n * (n - 1)) for i in range(n + 1)])


def test_spec_check_accepts_right_and_rejects_wrong_output():
    exact = specgen.Manufactured(A=0.0, a=0.0, B=0.0, b=1.0, phi=0.0, C=1.0)
    doc = {"degree": 6, "coefficients": list(_x_squared(6))}
    assert checks.check_spec_output(doc, exact, 6)[1] is None
    doc["coefficients"][3] += 1e-5
    err, reason = checks.check_spec_output(doc, exact, 6)
    assert reason and err > checks.SPEC_TOL
    assert checks.check_spec_output(doc, exact, 7)[1]


def test_example_check_rejects_wrong_values_and_boundaries():
    ex = SimpleNamespace(
        problem=BVProblem((0.0,), (1.0, 2.0), parse("0")),
        reference=ReferenceSolution(kind="closed_form", fn=lambda x: x * x))
    good = _x_squared(8)
    assert checks.check_example(ex, good)[1] is None
    interior = good.copy()
    interior[4] += 1e-9
    assert "max error" in checks.check_example(ex, interior)[1]
    ex_bad_bc = SimpleNamespace(problem=BVProblem((0.0,), (1.0, 2.5), parse("0")),
                                reference=ex.reference)
    assert "boundary" in checks.check_example(ex_bad_bc, good)[1]
    assert checks.check_example(ex, np.array([0.0, math.nan, 1.0]))[1]


def _paper_csv(paper, scale=1.0):
    lines = ["n," + ",".join(f"example{i}" for i in sorted(paper))]
    for n in range(2, 21):
        cells = [f"{paper[i][n] * scale:.2e}" if n in paper[i] else "" for i in sorted(paper)]
        lines.append(",".join([str(n)] + cells))
    return "\n".join(lines) + "\n"


def test_table_check_uses_the_acceptance_band():
    paper, floor = checks.load_paper_table(os.path.join(BENCH, ".."))
    err, reason = checks.check_table_csv(_paper_csv(paper), paper, floor)
    assert reason is None and err == pytest.approx(max(paper[i][20] for i in paper), rel=0.01)
    assert checks.check_table_csv(_paper_csv(paper, 20.0), paper, floor)[1]
    broken = _paper_csv(paper).replace("9.93e-08", "9.93e-06")
    assert "n=8" in checks.check_table_csv(broken, paper, floor)[1]
    assert checks.check_table_csv("n,example1\n", paper, floor)[1]


def test_differing_outputs_of_one_job_fail():
    workload = SimpleNamespace(check=lambda job: (1e-12, None))
    jobs = [Job("a", 0, False, 0.0, 1.0, b"x"), Job("a", 1, False, 1.0, 2.0, b"y"),
            Job("b", 0, False, 2.0, 3.0, b"z"), Job("b", 1, False, 3.0, 4.0, b"z")]
    failed = check_jobs(workload, jobs)
    assert [(j.key, j.pass_no) for j in failed] == [("a", 1)]
