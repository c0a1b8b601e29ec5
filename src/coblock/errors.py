"""Exception hierarchy shared across the package."""


class CoblockError(Exception):
    """Base class for all domain errors raised by this package."""


class ParamValidationError(CoblockError):
    """A domain type invariant was violated at construction time."""


class NotPositiveDefinite(ParamValidationError):
    """A covariance matrix failed its Cholesky factorization."""


class LengthMismatch(CoblockError):
    """Two arrays that must align have different lengths."""


class DimensionMismatch(LengthMismatch):
    """Row counts of the binary matrix and covariate table disagree."""


class EmptyCluster(CoblockError):
    """A row cluster lost (almost) all of its posterior mass."""


class AllRestartsFailed(CoblockError):
    """Every restart of the fit collapsed before convergence."""


class WorkerLost(CoblockError):
    """A worker process of select's pool died again after the pool was renewed."""


class ParseError(CoblockError):
    """A dataset file could not be parsed; carries line/column info."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class NonBinaryValue(ParseError):
    """A cell of the binary matrix file is numeric but not 0 or 1."""
