"""Print a sha256 digest of each solver output, to show that a change leaves
every output byte-identical.

The outputs:

- the five built-in examples solved to N = 20, 40 and 60: coefficients and
  residuals as float64 bytes;
- y^(m) = y with y(0) = 1 and every other condition 0 at x = 0, solved at
  (m, N) = (30, 36) and (55, 59), likewise: high orders whose band solves
  the ladder's float64 pass ends (the names of these outputs, kept so
  that digests compare across commits, still say "integer-route");
- ``iterate()``, whose band solve refines with exact residuals where
  ``solve``'s ladder takes a float64 pass first: for each example, the
  step to degree 20 from the degree-19 iterate of a ladder of
  ``iterate()`` steps from the seed; for m = 8, every k and nu = 58, the
  step of ``tests/test_differential.py``'s route comparison from its
  inputs (``tests/helpers.py``, ``route_inputs``); and the same y^(m) = y
  by a chain of ``iterate()`` steps from the seed at (m, N) = (16, 60) and
  (30, 37), whose steps refine with the exact residual (164 and 8 of
  them): coefficients;
- ``bernbvp solve`` on the 16 manufactured specs of each of the benchmark
  seeds 1-3 (``perfbench/specgen.py``), at the degree the specs-mixed
  workload uses: the coefficient files;
- the ``bernbvp table`` CSV with default options;
- the ``bernbvp error-curve`` CSV of each example at N = 20 and 60.

Usage, from the repository root::

    PYTHONPATH=src python scripts/output_digest.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python scripts/output_digest.py --compare before.txt

``--compare FILE`` prints only the outputs whose digest differs from FILE
(or that either side lacks) and exits 1 if there is any.  The bytes depend
on the host's libm and BLAS, so compare digests made on one host; this is
a development check, not a test.

A change that moves output bytes on purpose is judged on values instead::

    PYTHONPATH=src python scripts/output_digest.py --save-values before.json
    # ... change the code ...
    PYTHONPATH=src python scripts/output_digest.py --compare-values before.json

The values of an output are those of its polynomial on the 201-point grid
x = i/200 (the examples and the specs), the cells of the table, or the
error column of an error curve.  Polynomials are evaluated here by the
de Casteljau algorithm of ``perfbench/checks.py``, not by the library's
own evaluator, so their drift measures the coefficients alone.
``--compare-values FILE`` prints, for each output, the largest absolute
difference of its values from FILE's (empty table cells must stay
empty), then the largest over all outputs; it exits 1 if an output is
missing on either side.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_DEGREES = (20, 40, 60)
SPEC_SEEDS = (1, 2, 3)
CURVE_DEGREES = (20, 60)
HIGH_ORDERS = ((30, 36), (55, 59))
ITERATE_CHAINS = ((16, 60), (30, 37))
DIRECT_DEGREE = 20
ROUTE_ORDER = 8


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _cli_file(argv, out):
    """Run the CLI in-process with --out; returns the file's bytes."""
    from bernbvp.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", out])
    if code != 0:
        raise SystemExit(f"bernbvp {' '.join(argv)} exited {code}")
    with open(out, "rb") as fh:
        return fh.read()


def outputs(tmp):
    """(name, bytes, values) for every output, in a fixed order; values is
    a list of floats, NaN for an empty table cell."""
    import numpy as np

    from bernbvp import BVProblem, SolveOptions, example, iterate, parse_expression, seed, solve

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import specgen
    from checks import de_casteljau
    from helpers import route_inputs

    def on_grid(coeffs):
        return de_casteljau(coeffs, np.arange(201) / 200).tolist()

    def csv_values(data, first_row):
        rows = list(csv.reader(io.StringIO(data.decode())))[first_row:]
        return [float(cell) if cell else math.nan for row in rows for cell in row[1:]]

    for ex_id in range(1, 6):
        for n in EXAMPLE_DEGREES:
            report = solve(example(ex_id).problem, SolveOptions(degree=n))
            data = report.solution.coeffs.tobytes() + report.residuals.tobytes()
            yield f"example{ex_id}-n{n}", data, on_grid(report.solution.coeffs)
    def roots_of_unity_problem(m):
        return BVProblem((1.0,) + (0.0,) * (m - 1), (), parse_expression("y0"))

    for m, n in HIGH_ORDERS:
        problem = roots_of_unity_problem(m)
        report = solve(problem, SolveOptions(degree=n))
        data = report.solution.coeffs.tobytes() + report.residuals.tobytes()
        yield f"integer-route-m{m}-n{n}", data, on_grid(report.solution.coeffs)
    for ex_id in range(1, 6):
        problem = example(ex_id).problem
        w = seed(problem)
        for n in range(problem.m, DIRECT_DEGREE + 1):
            w = iterate(problem, w, n)
        yield f"iterate-example{ex_id}-n{DIRECT_DEGREE}", w.coeffs.tobytes(), on_grid(w.coeffs)
    for k, nu, problem, prev, rule in route_inputs(ROUTE_ORDER, 0):
        if nu == 58:
            w = iterate(problem, prev, nu + ROUTE_ORDER, rule)
            yield f"iterate-route-m{ROUTE_ORDER}-k{k}-nu{nu}", w.coeffs.tobytes(), on_grid(w.coeffs)
    for m, n in ITERATE_CHAINS:
        problem = roots_of_unity_problem(m)
        w = seed(problem)
        for d in range(m, n + 1):
            w = iterate(problem, w, d)
        yield f"iterate-chain-m{m}-n{n}", w.coeffs.tobytes(), on_grid(w.coeffs)
    for seed in SPEC_SEEDS:
        specs = specgen.generate(seed)
        paths = specgen.write_specs(specs, os.path.join(tmp, f"seed{seed}"))
        for (name, _, _, degree), path in zip(specs, paths):
            out = _cli_file(["solve", path, "--degree", str(degree)], path + ".out")
            yield f"spec-seed{seed}-{name}", out, on_grid(json.loads(out)["coefficients"])
    table = _cli_file(["table"], os.path.join(tmp, "table.csv"))
    yield "table", table, csv_values(table, 1)
    for ex_id in range(1, 6):
        for n in CURVE_DEGREES:
            out = _cli_file(["error-curve", "--example", str(ex_id), "--degree", str(n)],
                            os.path.join(tmp, "curve.csv"))
            yield f"error-curve{ex_id}-n{n}", out, csv_values(out, 1)


def _max_difference(before, after):
    """Largest |before - after|; NaN (an empty cell) must meet NaN."""
    if len(before) != len(after):
        return math.inf
    diff = 0.0
    for a, b in zip(before, after):
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                return math.inf
        else:
            diff = max(diff, abs(a - b))
    return diff


def _compare_values(path, current):
    with open(path) as fh:
        before = json.load(fh)
    missing = sorted(set(before) ^ set(current))
    worst = 0.0
    for name, values in current.items():
        if name in before:
            diff = _max_difference(before[name], values)
            worst = max(worst, diff)
            print(f"{name} {diff:.3g}")
    for name in missing:
        print(f"missing on one side: {name}")
    print(f"largest difference {worst:.3g} over {len(current)} outputs ({len(before)} in {path})")
    return 1 if missing else 0


def _read(path):
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compare", metavar="FILE",
                      help="digests printed earlier; exit 1 on any difference")
    mode.add_argument("--save-values", metavar="FILE",
                      help="write every output's values to FILE as JSON")
    mode.add_argument("--compare-values", metavar="FILE",
                      help="values saved earlier; print the largest difference per output")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = [(name, _sha(data), values) for name, data, values in outputs(tmp)]
    if args.save_values is not None:
        with open(args.save_values, "w") as fh:
            json.dump({name: values for name, _, values in found}, fh)
        return 0
    if args.compare_values is not None:
        return _compare_values(args.compare_values, {name: v for name, _, v in found})
    current = {name: digest for name, digest, _ in found}
    if args.compare is None:
        for name, digest in current.items():
            print(name, digest)
        return 0
    before = _read(args.compare)
    differ = [name for name in {**before, **current}
              if before.get(name) != current.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(current) - len(differ)} of {len(current)} outputs byte-identical"
          f" ({len(before)} in {args.compare})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
