"""The benchmark tracer's contract on warm solves.

perfbench/tracing.py wraps program functions by name.  A hook that a
change renames is listed as absent; one that a change bypasses, or caches
around, still exists but sees no calls, so its layer reads zero, or a
ratio over zero calls reads null, and a traced benchmark run ends without
a valid result line.  Warm passes are where a cache in front of a hook
(``gauss_rule``, ``dual_coefficients``, ``assemble_matrix``) would stop
its calls, so the traced pass here comes after an untraced one has filled
every cache.
"""

import contextlib
import io
from pathlib import Path

from bernbvp import SolveOptions, example, solve
from bernbvp.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_sees_every_layer_of_warm_solves(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import specgen
    import tracing
    from check_trace_layers import problems

    # one specs-mixed spec with an interior split at order 3 (banded LU)
    spec = next(s for s in specgen.generate(1) if s[1]["order"] == 3 and s[1]["left"]
                and s[1]["right"])
    argv = ["solve", specgen.write_specs([spec], tmp_path)[0], "--degree", str(spec[3]),
            "--out", str(tmp_path / "out.json")]

    def run(tracer=None):
        for i in range(1, 6):
            with tracer.job(i, "solver.solve") if tracer else contextlib.nullcontext():
                solve(example(i).problem, SolveOptions(degree=40))
        with (tracer.job(6, "cli.main") if tracer else contextlib.nullcontext()), \
                contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    run()  # warms every cache the traced pass reads
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run(tracer)
    finally:
        tracer.uninstall()
    record = tracer.dump()
    assert record["absent"] == []
    metrics = tracing.per_layer_metrics([record], 0.0, 0.0)
    assert [name for name, metric in metrics.items() if metric["value"] is None] == []
    assert problems(metrics) == []
    steps = sum(41 - example(i).problem.m for i in range(1, 6)) + spec[3] - 2
    assert metrics["solver.iterate.count"]["value"] == steps
