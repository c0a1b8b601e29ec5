"""Per-column influence scores under fixed (MAP) labels.

With labels held fixed, the joint log-likelihood of the data splits
into a row part (proportions plus the covariate density, once per row)
and a sum over columns; the column j term is its influence I(j):

    I(j) = log rho_{w_j} + sum_i [ x_ij eta_ij - log(1 + exp(eta_ij)) ],
    eta_ij = y_aug_i . beta_{z_i, w_j}.

Ranking columns by decreasing I(j) orders them by their log-contribution
to the fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bem import FitResult
from .errors import LengthMismatch, ParamValidationError
from .model import BinaryMatrix, CovariateTable


@dataclass(frozen=True)
class InfluenceReport:
    """Scores I(j) for every column and the induced ranking.

    ranking is derived from scores at construction: the permutation of
    1..m that sorts scores in decreasing order, exact ties broken by
    ascending column index.
    """

    scores: np.ndarray
    ranking: np.ndarray = field(init=False)

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        ranking = np.lexsort((np.arange(scores.size), -scores)) + 1
        scores.setflags(write=False)
        ranking.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "ranking", ranking)


def influence_report(x: BinaryMatrix, y: CovariateTable, fit: FitResult) -> InfluenceReport:
    """Influence scores and descending ranking using the fit's MAP labels."""
    labels, params = fit.map_labels, fit.params
    if labels.row_labels.size != x.n or labels.col_labels.size != x.m:
        raise LengthMismatch(
            f"labels sized ({labels.row_labels.size}, {labels.col_labels.size}) "
            f"do not match data sized ({x.n}, {x.m})"
        )
    if labels.row_labels.max() > params.g or labels.col_labels.max() > params.d:
        raise ParamValidationError("labels refer to clusters beyond the parameter grid")
    z0 = labels.row_labels - 1
    w0 = labels.col_labels - 1
    # eta[i,l] = y_aug_i . beta_{z_i, l}, shape (n, d)
    eta = np.einsum("iq,ilq->il", y.augmented, params.coefs[z0])
    sp = np.logaddexp(0.0, eta)
    with np.errstate(divide="ignore"):
        logrho = np.log(params.col_props)
    scores = logrho[w0] + np.sum(x.values * eta[:, w0] - sp[:, w0], axis=0)
    return InfluenceReport(scores=scores)
