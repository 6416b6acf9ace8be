"""Print a sha256 digest of each solver output, to show that a change leaves
every output byte-identical.

The outputs:

- the five built-in examples solved to N = 20, 40 and 60: coefficients and
  residuals as float64 bytes;
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
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_DEGREES = (20, 40, 60)
SPEC_SEEDS = (1, 2, 3)
CURVE_DEGREES = (20, 60)


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


def digests(tmp):
    """(name, sha256) for every output, in a fixed order."""
    from bernbvp import SolveOptions, example, solve

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import specgen

    for ex_id in range(1, 6):
        for n in EXAMPLE_DEGREES:
            report = solve(example(ex_id).problem, SolveOptions(degree=n))
            data = report.solution.coeffs.tobytes() + report.residuals.tobytes()
            yield f"example{ex_id}-n{n}", _sha(data)
    for seed in SPEC_SEEDS:
        specs = specgen.generate(seed)
        paths = specgen.write_specs(specs, os.path.join(tmp, f"seed{seed}"))
        for (name, _, _, degree), path in zip(specs, paths):
            out = _cli_file(["solve", path, "--degree", str(degree)], path + ".out")
            yield f"spec-seed{seed}-{name}", _sha(out)
    yield "table", _sha(_cli_file(["table"], os.path.join(tmp, "table.csv")))
    for ex_id in range(1, 6):
        for n in CURVE_DEGREES:
            out = _cli_file(["error-curve", "--example", str(ex_id), "--degree", str(n)],
                            os.path.join(tmp, "curve.csv"))
            yield f"error-curve{ex_id}-n{n}", _sha(out)


def _read(path):
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digests printed earlier; exit 1 on any difference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        current = dict(digests(tmp))
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
