"""Iterative Bernstein least-squares solver for two-point boundary value
problems on [0, 1]."""

from .bernstein import BernsteinPoly, basis_value, derivative, endpoint_derivative
from .bernstein import evaluate as evaluate_poly
from .dual import DualCoeffTable, bernstein_gram_entry, dual_coefficients
from .errors import (
    EvaluationError,
    ExpressionSyntaxError,
    IterationError,
    SingularSystemError,
    UnknownIdentifierError,
)
from .expressions import parse as parse_expression
from .problems import ExampleProblem, ReferenceSolution, error_curve, example, max_error
from .quadrature import QuadratureRule, basis_row, gauss_rule
from .solver import BVProblem, SolveOptions, SolveReport, iterate, seed, solve

__all__ = [
    "BernsteinPoly", "basis_value", "derivative", "endpoint_derivative", "evaluate_poly",
    "DualCoeffTable", "bernstein_gram_entry", "dual_coefficients",
    "EvaluationError", "ExpressionSyntaxError", "IterationError",
    "SingularSystemError", "UnknownIdentifierError",
    "parse_expression",
    "ExampleProblem", "ReferenceSolution", "error_curve", "example", "max_error",
    "QuadratureRule", "basis_row", "gauss_rule",
    "BVProblem", "SolveOptions", "SolveReport", "iterate", "seed", "solve",
]

__version__ = "0.1.0"
