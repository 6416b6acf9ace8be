"""Command-line front end.

Subcommands::

    solve        solve a problem spec to a target degree, write coefficients
    table        maximum-error table for built-in examples over a degree range
    error-curve  pointwise error curve for an example or spec with a reference
    eval         evaluate a saved coefficient file at a point

Problem specs are JSON documents:

    {"order": 2, "left": [0.0], "right": [0.0], "rhs": "y1^2 + 1",
     "exact": "optional expression in x", "quadrature": {"order": 30, "panels": 2}}

Exit codes: 0 success, 2 usage/spec error (an unreadable input or an
unwritable --out too), 3 numerical failure (the message names the failing
iteration; an exact solution that fails on the grid names none).
"""

import argparse
import functools
import json
import sys

from .bernstein import BernsteinPoly, evaluate as eval_poly
from .errors import EvaluationError, ExpressionSyntaxError, IterationError
from .expressions import arg_indices, evaluate as eval_expr, parse as parse_expr
from .problems import (EXAMPLE_IDS, FIXTURE_GRID_M, ReferenceSolution, error_curve,
                       example, max_error)
from .solver import BVProblem, SolveOptions, solve

# highest degree the commands accept: beyond it the float64 route loses
# digits fast (example 1 reads 4.3e-15 at N = 60, 6.8e-13 at N = 70 and
# 5.3e-02 at N = 80)
MAX_DEGREE = 60
# largest Gauss rule the commands build: leggauss takes order^2 memory, and
# every iteration evaluates the basis at order * panels nodes
MAX_QUAD_ORDER, MAX_QUAD_NODES = 256, 1024
# largest error-curve grid M: error_curve builds (M + 1) x (N + 1) arrays
MAX_GRID = 10_000


class SpecError(ValueError):
    """Problem-spec file failed validation."""


def _fmt(v):
    """17-significant-digit float formatting (lossless double round-trip)."""
    return f"{float(v):.17g}"


def load_problem_spec(path):
    """Parse and validate a problem spec file; returns (problem, reference,
    quadrature dict), the reference None when the spec has no exact key."""
    doc = _read_json(path, "cannot read spec file", "spec is not valid JSON")
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    _check_keys(doc, ("order", "left", "right", "rhs", "exact", "quadrature"), "spec")
    try:
        order, rhs_source = doc["order"], doc["rhs"]
    except KeyError as exc:
        raise SpecError(f"spec is missing required key {exc}") from exc
    if not _is_count(order):
        raise SpecError(f"order must be an integer >= 1, got {order!r}")
    left = doc.get("left", [])
    right = doc.get("right", [])
    if not isinstance(left, list) or not isinstance(right, list):
        raise SpecError("left and right must be lists of boundary values")
    if not all(_is_real(v) for v in left + right):
        raise SpecError("boundary values must be numbers")
    if len(left) + len(right) != order:
        raise SpecError(
            f"boundary condition count mismatch: len(left)={len(left)} + "
            f"len(right)={len(right)} != order {order}"
        )
    rhs = _parse_source(rhs_source, "rhs")
    reference = None
    if doc.get("exact") is not None:
        exact = _parse_source(doc["exact"], "exact")
        if arg_indices(exact):
            raise SpecError("exact solution may only reference x")
        reference = ReferenceSolution(kind="closed_form",
                                      fn=lambda x: eval_expr(exact, x))
    quad = doc.get("quadrature")
    if quad is None:  # absent or null: the default, as for its order and panels
        quad = {}
    elif not isinstance(quad, dict):
        raise SpecError("quadrature must be an object with order/panels")
    _check_keys(quad, ("order", "panels"), "quadrature")
    try:
        problem = BVProblem(tuple(left), tuple(right), rhs)
    except (ValueError, OverflowError) as exc:
        raise SpecError(str(exc)) from exc
    return problem, reference, quad


def _read_json(path, unreadable, invalid):
    """The JSON document in the file at path.  SpecError with the prefix
    unreadable if the file cannot be read, and invalid if it is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"{unreadable}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError also covers undecodable bytes and integers of more
        # digits than int() converts; RecursionError, nesting too deep
        raise SpecError(f"{invalid}: {exc}") from exc


def _check_keys(doc, allowed, where):
    """SpecError naming the least key of doc outside allowed, if any."""
    unknown = doc.keys() - allowed
    if unknown:
        raise SpecError(f"unknown {where} key {min(unknown)!r}")


def _parse_source(source, key):
    """The parsed expression of the spec's string under key."""
    if not isinstance(source, str):
        raise SpecError(f"{key} must be an expression string, got {source!r}")
    try:
        return parse_expr(source)
    except ExpressionSyntaxError as exc:
        raise SpecError(f"invalid {key} expression: {exc}") from exc


def _make_options(args, quad, m):
    """Options from --degree and the quadrature flags, falling back on the
    spec's quadrature block; the degree must lie in m..MAX_DEGREE for the
    equation order m."""
    if args.degree < m:
        raise SpecError(f"degree {args.degree} is below the equation order {m}")
    if args.degree > MAX_DEGREE:
        raise SpecError(f"degree {args.degree} is above the maximum {MAX_DEGREE}")
    order = args.quad_order if args.quad_order is not None else quad.get("order")
    panels = args.quad_panels if args.quad_panels is not None else quad.get("panels")
    if panels is None:
        panels = SolveOptions.quad_panels
    if order is not None and not _is_count(order):
        raise SpecError(f"quadrature order must be an integer >= 1, got {order!r}")
    if not _is_count(panels):
        raise SpecError(f"quadrature panels must be an integer >= 1, got {panels!r}")
    if order is not None and order > MAX_QUAD_ORDER:
        raise SpecError(f"quadrature order {order} is above the maximum {MAX_QUAD_ORDER}")
    options = SolveOptions(degree=args.degree, quad_order=order, quad_panels=panels)
    nodes = options.rule_order(args.degree) * panels  # the most nodes of any degree
    if nodes > MAX_QUAD_NODES:
        raise SpecError(f"quadrature of {nodes} nodes is above the maximum {MAX_QUAD_NODES}")
    return options


def _is_count(value):
    """True for an int >= 1; bools, floats and strings are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_real(value):
    """True for an int or a float; bools and strings are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coefficient_document(report, options):
    lines = ["{"]
    lines.append(f'  "degree": {report.solution.degree},')
    coeffs = ", ".join(_fmt(c) for c in report.solution.coeffs)
    lines.append(f'  "coefficients": [{coeffs}],')
    residuals = ", ".join(_fmt(r) for r in report.residuals)
    lines.append(f'  "residuals": [{residuals}],')
    quad_order = "null" if options.quad_order is None else str(options.quad_order)
    lines.append(
        '  "options": {'
        f'"degree": {options.degree}, '
        f'"quad_order": {quad_order}, '
        f'"quad_panels": {options.quad_panels}'
        "}"
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit(text, out, what):
    """Write text to the --out path and say so, or to stdout without it.
    SpecError if the path cannot be written."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecError(f"cannot write {what} to {out}: {exc}") from exc
        print(f"{what} written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args):
    problem, reference, quad = load_problem_spec(args.spec)
    options = _make_options(args, quad, problem.m)
    report = solve(problem, options)
    n = report.solution.degree
    lines = [f"degree {n}, final residual {_fmt(report.residuals[-1])}"]
    if reference is not None:  # an exact solution failing on the grid prints nothing
        err = max_error(error_curve(report.solution, reference, FIXTURE_GRID_M))
        lines.append(f"max error E_{n} = {_fmt(err)}")
    print("\n".join(lines))
    return _emit(_coefficient_document(report, options), args.out, "coefficients")


def _parse_example_list(text):
    try:
        ids = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise SpecError(f"bad example list {text!r}") from exc
    if not ids or any(i not in EXAMPLE_IDS for i in ids):
        raise SpecError(f"example ids must be in {EXAMPLE_IDS}, got {text!r}")
    if len(set(ids)) != len(ids):
        raise SpecError(f"repeated example id in {text!r}")
    return ids


def cmd_table(args):
    ids = _parse_example_list(args.examples)
    lo, hi = args.min_degree, args.max_degree
    if not (1 <= lo <= hi <= MAX_DEGREE):
        raise SpecError(f"degree range {lo}..{hi} outside [1, {MAX_DEGREE}]")
    columns = {}
    for ex_id in ids:
        ex = example(ex_id)
        m = ex.problem.m
        cells = columns[ex_id] = {}
        if hi < m:  # no degree of the range reaches the order: a blank column
            continue
        report = solve(ex.problem, SolveOptions(degree=hi))
        for n in range(max(lo, m), hi + 1):
            w = report.iterates[n - (m - 1)]
            cells[n] = max_error(error_curve(w, ex.reference, FIXTURE_GRID_M))
    lines = ["n," + ",".join(f"example{i}" for i in ids)]
    for n in range(lo, hi + 1):
        row = [str(n)]
        for ex_id in ids:
            err = columns[ex_id].get(n)
            row.append("" if err is None else f"{err:.2e}")
        lines.append(",".join(row))
    return _emit("\n".join(lines) + "\n", args.out, "table")


def cmd_error_curve(args):
    if (args.example is None) == (args.spec is None):
        raise SpecError("exactly one of --example or --spec is required")
    if not 1 <= args.grid <= MAX_GRID:
        raise SpecError(f"grid M must be 1..{MAX_GRID}, got {args.grid}")
    if args.example is not None:
        try:
            ex = example(args.example)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        problem, reference = ex.problem, ex.reference
        quad = {}
    else:
        problem, reference, quad = load_problem_spec(args.spec)
        if reference is None:
            raise SpecError("no reference available: spec has no exact solution")
    options = _make_options(args, quad, problem.m)
    try:
        report = solve(problem, options)
        curve = error_curve(report.solution, reference, args.grid)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    lines = ["x,epsilon"]
    for x, eps in curve:
        lines.append(f"{x:.6f},{_fmt(eps)}")
    return _emit("\n".join(lines) + "\n", args.out, "error curve")


def cmd_eval(args):
    doc = _read_json(args.coeffs, "cannot read coefficient file", "cannot read coefficient file")
    if not isinstance(doc, dict) or type(doc.get("degree")) is not int:
        raise SpecError("coefficient file must be an object with an integer degree")
    if doc["degree"] > MAX_DEGREE:
        raise SpecError(f"degree {doc['degree']} is above the maximum {MAX_DEGREE}")
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, list) or len(coeffs) != doc["degree"] + 1:
        raise SpecError("coefficient count does not match degree")
    if not 0.0 <= args.at <= 1.0:
        raise SpecError(f"evaluation point {args.at} outside [0, 1]")
    if not all(_is_real(c) for c in coeffs):
        raise SpecError("coefficients must be numbers")
    try:
        poly = BernsteinPoly(coeffs)
    except (ValueError, OverflowError) as exc:  # not finite in float64
        raise SpecError(f"bad coefficient file: {exc}") from exc
    print(_fmt(eval_poly(poly, args.at)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bernbvp",
        description="Iterative Bernstein least-squares BVP solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem spec file")
    p.add_argument("spec", help="path to a JSON problem spec")
    p.add_argument("--degree", type=int, required=True, help="target degree N")
    p.add_argument("--quad-order", type=int, default=None)
    p.add_argument("--quad-panels", type=int, default=None)
    p.add_argument("--out", required=True, help="coefficient JSON output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="maximum-error table for built-in examples")
    p.add_argument("--examples", default="1,2,3,4,5",
                   help="comma-separated example ids (default all)")
    p.add_argument("--min-degree", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=20)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("error-curve", help="pointwise error curve")
    p.add_argument("--example", type=int, default=None, help="built-in example id")
    p.add_argument("--spec", default=None, help="problem spec with an exact solution")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--grid", type=int, default=FIXTURE_GRID_M, help="grid parameter M")
    p.add_argument("--quad-order", type=int, default=None)
    p.add_argument("--quad-panels", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_error_curve)

    p = sub.add_parser("eval", help="evaluate a coefficient file at a point")
    p.add_argument("--coeffs", required=True, help="coefficient JSON from solve")
    p.add_argument("--at", type=float, required=True, help="x in [0, 1]")
    p.set_defaults(func=cmd_eval)

    return parser


@functools.cache
def _parser():
    """The one parser main uses for every argv: building it costs about
    0.5 ms, and parsing leaves no state in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IterationError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
