"""Exact reference computations by exhaustive enumeration of labelings.

Only feasible on tiny instances, where they pin down what the
variational machinery is approximating: the exact log-likelihood (which
the free energy must bound from below) and the exact joint posterior
mode over (z, w). The tests use them as references; the package never
calls them.

For a fixed row labeling z the sum over column labelings factorizes
across columns, so enumeration costs g^n * (m * d * n) instead of
g^n * d^m; the guard is still stated on the labeling count itself.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp

from coblock.errors import CoblockError, LengthMismatch
from coblock.model import (
    BinaryMatrix,
    CovariateTable,
    HardLabels,
    ModelParams,
    gaussian_cluster_logpdfs,
)

_MAX_LABELINGS = 10_000_000


class InstanceTooLarge(CoblockError):
    """Exhaustive enumeration was requested beyond the size guard."""


def _check_size(n: int, m: int, g: int, d: int) -> None:
    if g**n * d**m > _MAX_LABELINGS:
        raise InstanceTooLarge(
            f"{g}^{n} * {d}^{m} labelings exceed the enumeration guard of {_MAX_LABELINGS}"
        )


def _cell_logliks(x: BinaryMatrix, y: CovariateTable, params: ModelParams) -> np.ndarray:
    """L[i,j,k,l] = log f(x_ij | y_i; beta_kl)."""
    eta = np.tensordot(y.augmented, params.coefs, axes=([1], [2]))
    sp = np.logaddexp(0.0, eta)
    return x.values[:, :, None, None] * eta[:, None, :, :] - sp[:, None, :, :]


def _row_base(y: CovariateTable, params: ModelParams) -> np.ndarray:
    """B[i,k] = log pi_k + log phi(y_i; mu_k, Sigma_k)."""
    with np.errstate(divide="ignore"):
        logpi = np.log(params.row_props)
    return logpi[None, :] + gaussian_cluster_logpdfs(y, params)


def exact_loglik(x: BinaryMatrix, y: CovariateTable, params: ModelParams) -> float:
    """log p(x, y; params) summed over every labeling, via log-sum-exp,
    with each row's covariate density counted once."""
    if x.n != y.n:
        raise LengthMismatch(f"x has {x.n} rows but y has {y.n}")
    n, m, g, d = x.n, x.m, params.g, params.d
    _check_size(n, m, g, d)
    cells = _cell_logliks(x, y, params)
    base = _row_base(y, params)
    with np.errstate(divide="ignore"):
        logrho = np.log(params.col_props)

    rows = np.arange(n)
    totals = np.empty(g**n)
    for idx, z in enumerate(itertools.product(range(g), repeat=n)):
        z = np.asarray(z)
        col_terms = logrho[None, :] + cells[rows, :, z, :].sum(axis=0)
        totals[idx] = base[rows, z].sum() + logsumexp(col_terms, axis=1).sum()
    return float(logsumexp(totals))


def exact_posterior_mode(x: BinaryMatrix, y: CovariateTable, params: ModelParams) -> HardLabels:
    """The labeling (z, w) maximizing the complete-data likelihood.

    Equivalently the mode of the exact joint posterior over labels. Ties
    resolve to the lexicographically smallest (z, w): row labelings are
    scanned in lexicographic order and only strict improvements replace
    the incumbent, and per-column argmax picks the smallest index.
    """
    if x.n != y.n:
        raise LengthMismatch(f"x has {x.n} rows but y has {y.n}")
    n, m, g, d = x.n, x.m, params.g, params.d
    _check_size(n, m, g, d)
    cells = _cell_logliks(x, y, params)
    base = _row_base(y, params)
    with np.errstate(divide="ignore"):
        logrho = np.log(params.col_props)

    rows = np.arange(n)
    best_score = -np.inf
    best_z = None
    best_w = None
    for z in itertools.product(range(g), repeat=n):
        z = np.asarray(z)
        col_terms = logrho[None, :] + cells[rows, :, z, :].sum(axis=0)
        w = col_terms.argmax(axis=1)
        score = base[rows, z].sum() + col_terms[np.arange(m), w].sum()
        if score > best_score:
            best_score = score
            best_z, best_w = z, w
    return HardLabels(best_z + 1, best_w + 1)
