"""Command-line front end.

Subcommands::

    solve        solve a problem spec to a target degree, write coefficients
    table        maximum-error table for built-in examples over a degree range
    error-curve  pointwise error curve for an example or spec with a reference
    eval         evaluate a saved coefficient file at a point

Problem specs are JSON documents:

    {"order": 2, "left": [0.0], "right": [0.0], "rhs": "y1^2 + 1",
     "exact": "optional expression in x", "quadrature": {"order": 30, "panels": 2}}

Exit codes: 0 success, 2 usage/spec error, 3 numerical failure (the message
names the failing iteration).
"""

import argparse
import json
import sys

from .bernstein import BernsteinPoly, evaluate as eval_poly
from .errors import EvaluationError, ExpressionSyntaxError, IterationError, SingularSystemError
from .expressions import evaluate as eval_expr, max_arg_index, parse as parse_expr
from .problems import ReferenceSolution, error_curve, example, max_error
from .solver import BVProblem, SolveOptions, solve

_EXAMPLE_IDS = (1, 2, 3, 4, 5)

# highest degree the commands accept: beyond it the float64 projection
# loses digits fast (example 1 reads 1.6e-15 at N = 60, 2.3e-7 at N = 80)
MAX_DEGREE = 60


class SpecError(ValueError):
    """Problem-spec file failed validation."""


def _fmt(v):
    """17-significant-digit float formatting (lossless double round-trip)."""
    return f"{float(v):.17g}"


def load_problem_spec(path):
    """Parse and validate a problem spec file; returns (problem, reference,
    quadrature dict), the reference None when the spec has no exact key."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    try:
        order = int(doc["order"])
        rhs_source = doc["rhs"]
    except KeyError as exc:
        raise SpecError(f"spec is missing required key {exc}") from exc
    left = doc.get("left", [])
    right = doc.get("right", [])
    if not isinstance(left, list) or not isinstance(right, list):
        raise SpecError("left and right must be lists of boundary values")
    if len(left) + len(right) != order:
        raise SpecError(
            f"boundary condition count mismatch: len(left)={len(left)} + "
            f"len(right)={len(right)} != order {order}"
        )
    try:
        rhs = parse_expr(rhs_source)
    except ExpressionSyntaxError as exc:
        raise SpecError(f"invalid rhs expression: {exc}") from exc
    if max_arg_index(rhs) >= order:
        raise SpecError(
            f"rhs references y{max_arg_index(rhs)} but order is {order}"
        )
    reference = None
    if doc.get("exact") is not None:
        try:
            exact = parse_expr(doc["exact"])
        except ExpressionSyntaxError as exc:
            raise SpecError(f"invalid exact expression: {exc}") from exc
        if max_arg_index(exact) >= 0:
            raise SpecError("exact solution may only reference x")
        reference = ReferenceSolution(kind="closed_form",
                                      fn=lambda x: eval_expr(exact, x))
    quad = doc.get("quadrature") or {}
    if not isinstance(quad, dict):
        raise SpecError("quadrature must be an object with order/panels")
    try:
        problem = BVProblem(tuple(left), tuple(right), rhs)
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from exc
    return problem, reference, quad


def _make_options(args, quad, m):
    """Options from --degree and the quadrature flags, falling back on the
    spec's quadrature block; the degree must lie in m..MAX_DEGREE for the
    equation order m."""
    if args.degree < m:
        raise SpecError(f"degree {args.degree} is below the equation order {m}")
    if args.degree > MAX_DEGREE:
        raise SpecError(f"degree {args.degree} is above the maximum {MAX_DEGREE}")
    order = args.quad_order if args.quad_order is not None else quad.get("order")
    panels = args.quad_panels if args.quad_panels is not None else quad.get("panels", 2)
    if order is not None and not _is_count(order):
        raise SpecError(f"quadrature order must be an integer >= 1, got {order!r}")
    if not _is_count(panels):
        raise SpecError(f"quadrature panels must be an integer >= 1, got {panels!r}")
    return SolveOptions(degree=args.degree, quad_order=order, quad_panels=panels)


def _is_count(value):
    """True for an int >= 1; bools, floats and strings are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


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
    """Write text to the --out path and say so, or to stdout without it."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"{what} written to {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args):
    problem, reference, quad = load_problem_spec(args.spec)
    options = _make_options(args, quad, problem.m)
    report = solve(problem, options)
    with open(args.out, "w") as fh:
        fh.write(_coefficient_document(report, options))
    print(f"degree {report.solution.degree}, "
          f"final residual {_fmt(report.residuals[-1])}")
    if reference is not None:
        err = max_error(error_curve(report.solution, reference, 200))
        print(f"max error E_{report.solution.degree} = {_fmt(err)}")
    print(f"coefficients written to {args.out}")
    return 0


def _parse_example_list(text):
    try:
        ids = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise SpecError(f"bad example list {text!r}") from exc
    if not ids or any(i not in _EXAMPLE_IDS for i in ids):
        raise SpecError(f"example ids must be in 1..5, got {text!r}")
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
        options = SolveOptions(degree=hi, record_iterates=True)
        report = solve(ex.problem, options)
        cells = {}
        for n in range(max(lo, m), hi + 1):
            w = report.iterates[n - (m - 1)]
            cells[n] = max_error(error_curve(w, ex.reference, 200))
        columns[ex_id] = cells
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
    if args.grid < 1:
        raise SpecError("grid M must be >= 1")
    if args.example is not None:
        if args.example not in _EXAMPLE_IDS:
            raise SpecError(f"example id must be 1..5, got {args.example}")
        ex = example(args.example)
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
    try:
        with open(args.coeffs) as fh:
            doc = json.load(fh)
        coeffs = doc["coefficients"]
        degree = doc["degree"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise SpecError(f"cannot read coefficient file: {exc}") from exc
    if not isinstance(coeffs, list) or len(coeffs) != degree + 1:
        raise SpecError("coefficient count does not match degree")
    if not 0.0 <= args.at <= 1.0:
        raise SpecError(f"evaluation point {args.at} outside [0, 1]")
    try:
        poly = BernsteinPoly(coeffs)
    except (TypeError, ValueError) as exc:
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
    p.add_argument("--grid", type=int, default=200, help="grid parameter M")
    p.add_argument("--quad-order", type=int, default=None)
    p.add_argument("--quad-panels", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_error_curve)

    p = sub.add_parser("eval", help="evaluate a coefficient file at a point")
    p.add_argument("--coeffs", required=True, help="coefficient JSON from solve")
    p.add_argument("--at", type=float, required=True, help="x in [0, 1]")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IterationError, EvaluationError, SingularSystemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
