"""Entry points the benchmark starts as fresh interpreters.

    child.py setup WORKLOAD MAX_DEGREE
        Do a library workload's set-up (import, build the problems, fill the
        Gauss-panel cache for every order up to MAX_DEGREE + 2), then print
        one JSON line {"import_s": ...}.  The parent times spawn to that line.

    child.py cli TRACE_FILE ARG...
        Install the tracing hooks, run bernbvp.cli.main(ARG...) under a root
        span and write the pass record, plus the import time of bernbvp.cli,
        to TRACE_FILE as JSON.  Exits with main's return code.
"""

import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def prepare(workload, max_degree):
    """Set-up shared by the probes and the benchmark process: returns the
    built-in examples (examples-n40) or None (specs-mixed, whose specs the
    jobs parse), after computing every Gauss panel the jobs will use."""
    from bernbvp import example, gauss_rule

    problems = [example(i) for i in range(1, 6)] if workload == "examples-n40" else None
    # the solver's default rule at degree n: order max(n + 2, 20), 2 panels
    for order in range(20, max_degree + 3):
        gauss_rule(order, 2)
    return problems


def _setup(workload, max_degree):
    t0 = time.perf_counter()
    import bernbvp.cli  # noqa: F401  (the specs-mixed jobs run through the CLI)
    import_s = time.perf_counter() - t0
    prepare(workload, int(max_degree))
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def _cli(trace_file, *argv):
    t0 = time.perf_counter()
    import bernbvp.cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.job(0, "cli.main"):
        code = bernbvp.cli.main(list(argv))
    tracer.uninstall()
    record = tracer.dump()
    record["import_s"] = import_s
    with open(trace_file, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": _setup, "cli": _cli}[mode](*rest))
