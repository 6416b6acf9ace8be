"""Exception types shared across the package."""


class ExpressionSyntaxError(ValueError):
    """Malformed expression source.  Carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionSyntaxError):
    """Identifier that is neither a variable nor a known function."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier '{name}'", offset)
        self.name = name


class EvaluationError(ArithmeticError):
    """Numeric evaluation failed (domain error, non-finite value, missing argument).

    ``where`` holds the offending input when known (function argument, or the
    quadrature node at which a right-hand side turned non-finite).
    """

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class SingularSystemError(ArithmeticError):
    """A band system's matrix has no inverse, or iterative refinement of
    its solve does not contract, so float64 cannot solve it."""


class IterationError(RuntimeError):
    """A solve failed inside iteration n; wraps the underlying cause."""

    def __init__(self, n, cause):
        super().__init__(f"iteration n={n} failed: {cause}")
        self.n = n
        self.cause = cause
