"""Check that a traced benchmark record shows every layer of every iteration.

    python scripts/check_trace_layers.py perfbench/out/examples-n40-seed1-trace1.json

A tracer hook whose name still exists but that the iteration no longer
calls is not reported absent: its layer just reads zero.  So this fails
(exit 1) unless the record has one band solve, one derivative call and one
expression walk per iteration, and nonzero self time in the moment,
right-hand-side and residual layers.
"""

import json
import sys

PER_ITERATION = ("bandsolve.solve.count", "solver.derivs.count", "expressions.evaluate.count")
TIMED = ("quadrature.moments.self_s", "bandsolve.assemble_rhs.self_s", "solver.residual.self_s")


def problems(metrics):
    """The reasons the per-layer metrics fail the check, if any."""
    value = {name: entry["value"] for name, entry in metrics.items()}
    iterations = value["solver.iterate.count"]
    out = [f"{name} = {value[name]}, solver.iterate.count = {iterations}"
           for name in PER_ITERATION if value[name] != iterations]
    out += [f"{name} = {value[name]}" for name in TIMED if not value[name]]
    return out


def main(path):
    with open(path) as fh:
        metrics = json.load(fh)["result"]["metrics"]
    found = problems(metrics)
    for line in found:
        print(f"{path}: {line}")
    print(f"{path}: per-layer check {'failed' if found else 'passed'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
