"""Exception types shared across the package."""


class FigpError(Exception):
    """Base class for all package-specific errors."""


class ExpressionError(FigpError):
    """Raised on a malformed or unevaluable expression.

    Carries the byte offset of the offending token when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class GridMismatchError(FigpError):
    """Raised when two functional inputs live on different grids."""


class GramFactorizationError(FigpError):
    """Raised when a Gram matrix cannot be Cholesky-factorized.

    A factorization fails when Cholesky raises or when its smallest
    pivot is negligible against the Gram's diagonal, so the error
    signals degenerate inputs (duplicates, or linear dependence under
    the linear kernel) both for an explicit nugget and for the
    automatic nugget policy, whether or not LAPACK itself fails.
    """


class FitError(FigpError):
    """Raised when hyperparameter estimation fails for every start.

    Carries the index of the failed output column when the outputs were
    given as columns of a 2-D array, else None, and in `reason` the
    message without the column.
    """

    def __init__(self, message, column=None):
        self.reason = message
        if column is not None:
            message = f"output column {column}: {message}"
        super().__init__(message)
        self.column = column
