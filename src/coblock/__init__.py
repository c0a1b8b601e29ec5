"""Co-clustering of a binary matrix with per-row Gaussian covariates.

Rows and columns are clustered simultaneously; each cell is Bernoulli
with a logistic link to the row's covariates, one coefficient vector
per block. Fitting maximizes a variational free energy by block EM;
model size is chosen by a BIC-style grid search; columns are ranked by
their influence on the fitted model.

This namespace holds what a caller of fit, select, influence_report and
generate needs, and the errors they raise; the building blocks are
imported from their own modules (coblock.bem, coblock.model, ...).
"""

from .bem import BemConfig, FitResult, fit
from .errors import (
    AllRestartsFailed,
    CoblockError,
    DimensionMismatch,
    EmptyCluster,
    LengthMismatch,
    NonBinaryValue,
    NotPositiveDefinite,
    ParamValidationError,
    ParseError,
    WorkerLost,
)
from .influence import influence_report
from .model import BinaryMatrix, CovariateTable, HardLabels, ModelParams, SoftAssignments
from .selection import select
from .simulate import SimConfig, generate, label_error_rate, separated_params

__version__ = "0.1.0"

__all__ = [
    "AllRestartsFailed",
    "BemConfig",
    "BinaryMatrix",
    "CoblockError",
    "CovariateTable",
    "DimensionMismatch",
    "EmptyCluster",
    "FitResult",
    "HardLabels",
    "LengthMismatch",
    "ModelParams",
    "NonBinaryValue",
    "NotPositiveDefinite",
    "ParamValidationError",
    "ParseError",
    "SimConfig",
    "SoftAssignments",
    "WorkerLost",
    "fit",
    "generate",
    "influence_report",
    "label_error_rate",
    "select",
    "separated_params",
]
