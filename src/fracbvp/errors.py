"""Exception types shared across the package."""

__all__ = [
    "FactorizationError",
    "GridMismatchError",
    "NonConvergenceError",
]


class FactorizationError(RuntimeError):
    """Covariance factorization failed (not positive definite, or the
    circulant embedding produced a negative eigenvalue)."""


class GridMismatchError(ValueError):
    """Two grids were combined that are not nested (one must divide the other)."""


class NonConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach the residual tolerance.

    row is the index, within the stack of rows solved together, of the row
    that stalled; None once the error names its sample in other terms.
    """

    def __init__(self, message: str, residual: float, iterations: int, row=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.row = row
