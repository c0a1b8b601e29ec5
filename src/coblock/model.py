"""Core domain types and the Gaussian covariate densities.

The model couples a binary data matrix with a per-row real covariate
vector: cells follow a Bernoulli distribution whose success probability
is a logistic function of the covariates, with one coefficient vector
per (row cluster, column cluster) block, and the covariates themselves
follow a per-row-cluster multivariate Gaussian.

Everything here is an immutable value: types validate on construction
and freeze their arrays, and the density functions are pure, so all of
it is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import NotPositiveDefinite, ParamValidationError

LOG_2PI = float(np.log(2.0 * np.pi))

_PROB_SUM_TOL = 1e-12
_SYMMETRY_TOL = 1e-12
_ROW_SUM_TOL = 1e-10


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _Value:
    """Base of the value types: they pickle through their init fields, so the
    constructor validates, derives and freezes again (plain pickle would not)."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class BinaryMatrix(_Value):
    """An n-by-m matrix of {0,1} observations (rows: individuals, columns: variables).

    The constructor copies its input and checks every cell. _adopt wraps
    a fresh float array already known to be a non-empty 2-D 0/1 matrix
    without either; its users are simulate.generate (a comparison
    result), dataio.load_dataset (after the reader's 0/1 test) and the
    split-merge column gathers of a BinaryMatrix in bem.
    """

    values: np.ndarray

    @classmethod
    def _adopt(cls, values: np.ndarray) -> "BinaryMatrix":
        """Take ownership of values and freeze it; no copy, no check."""
        values.setflags(write=False)
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        return obj

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ParamValidationError(f"binary matrix must be 2-D, got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ParamValidationError(f"binary matrix needs n >= 1 and m >= 1, got {v.shape}")
        if not np.all((v == 0.0) | (v == 1.0)):
            bad = np.argwhere((v != 0.0) & (v != 1.0))[0]
            raise ParamValidationError(
                f"entry at row {bad[0] + 1}, column {bad[1] + 1} is not 0 or 1"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CovariateTable(_Value):
    """Per-row covariate vectors, plus the augmented form with a leading constant 1.

    The augmentation convention is fixed package-wide: index 0 of each
    augmented row is the constant, so coefficient vectors always carry
    the intercept in position 0.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise ParamValidationError(f"covariate table must be 2-D, got shape {v.shape}")
        if v.shape[0] < 1:
            raise ParamValidationError("covariate table needs at least one row")
        if not np.all(np.isfinite(v)):
            raise ParamValidationError("covariate table contains non-finite entries")
        v.setflags(write=False)
        aug = np.hstack([np.ones((v.shape[0], 1)), v])
        aug.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "augmented", aug)

    @cached_property
    def _aug_pairs(self):
        """The _pair_products of augmented, built once, when a fit first needs them."""
        return _pair_products(self.augmented)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ModelParams(_Value):
    """Full parameter set of the co-clustering model.

    Attributes:
        row_props: (g,) mixing proportions of the row clusters.
        col_props: (d,) mixing proportions of the column clusters.
        coefs: (g, d, p+1) logistic coefficients per block; index 0 of the
            last axis is the intercept, matching the covariate augmentation.
        means: (g, p) Gaussian means of the covariates per row cluster.
        covs: (g, p, p) Gaussian covariances, symmetric positive definite.

    The lower Cholesky factors of all covariances are computed in one
    call and cached at construction; since instances are immutable, any
    "mutation" builds a new instance and re-validates.
    """

    row_props: np.ndarray
    col_props: np.ndarray
    coefs: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        pi = _frozen(self.row_props)
        rho = _frozen(self.col_props)
        coefs = _frozen(self.coefs)
        means = _frozen(self.means)
        covs = _frozen(self.covs)

        for name, vec in (("row_props", pi), ("col_props", rho)):
            if vec.ndim != 1 or vec.size < 1:
                raise ParamValidationError(f"{name} must be a non-empty 1-D vector")
            if np.any(vec < 0):
                raise ParamValidationError(f"{name} has a negative component")
            # written so that NaN fails it too: a NaN sums to NaN
            if not abs(vec.sum() - 1.0) <= _PROB_SUM_TOL:
                raise ParamValidationError(f"{name} sums to {float(vec.sum())}, expected 1")

        g, d = pi.size, rho.size
        if means.ndim != 2 or means.shape[0] != g:
            raise ParamValidationError(f"means must have shape (g, p), got {means.shape}")
        p = means.shape[1]
        if coefs.shape != (g, d, p + 1):
            raise ParamValidationError(
                f"coefs must have shape (g, d, p+1) = {(g, d, p + 1)}, got {coefs.shape}"
            )
        if covs.shape != (g, p, p):
            raise ParamValidationError(f"covs must have shape (g, p, p), got {covs.shape}")
        if not np.all(np.isfinite(coefs)):
            raise ParamValidationError("coefs contain non-finite entries")
        if not np.all(np.isfinite(means)) or not np.all(np.isfinite(covs)):
            raise ParamValidationError("Gaussian parameters contain non-finite entries")
        # relative to each matrix's scale: an M-step's round-off grows with
        # the entries, and at 1e6 one ulp already exceeds _SYMMETRY_TOL
        if p > 0:
            skew = np.abs(covs - np.transpose(covs, (0, 2, 1))).max(axis=(1, 2))
            if np.any(skew > _SYMMETRY_TOL * np.maximum(1.0, np.abs(covs).max(axis=(1, 2)))):
                raise ParamValidationError("a covariance matrix is not symmetric")

        chols = _cholesky(covs)
        chols.setflags(write=False)

        object.__setattr__(self, "row_props", pi)
        object.__setattr__(self, "col_props", rho)
        object.__setattr__(self, "coefs", coefs)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "cov_chols", chols)

    @property
    def g(self) -> int:
        return self.row_props.size

    @property
    def d(self) -> int:
        return self.col_props.size

    @property
    def p(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class SoftAssignments(_Value):
    """Row and column posterior membership probabilities, row-stochastic."""

    row_probs: np.ndarray
    col_probs: np.ndarray

    def __post_init__(self):
        t = _frozen(self.row_probs)
        r = _frozen(self.col_probs)
        for name, probs in (("row_probs", t), ("col_probs", r)):
            if probs.ndim != 2:
                raise ParamValidationError(f"{name} must be 2-D")
            if np.any(probs < 0) or np.any(probs > 1):
                raise ParamValidationError(f"{name} has entries outside [0, 1]")
            # written so that NaN fails it too: a NaN sums to NaN
            if not np.max(np.abs(probs.sum(axis=1) - 1.0)) <= _ROW_SUM_TOL:
                raise ParamValidationError(f"rows of {name} do not sum to 1")
        object.__setattr__(self, "row_probs", t)
        object.__setattr__(self, "col_probs", r)


@dataclass(frozen=True)
class HardLabels(_Value):
    """Hard cluster assignments; labels are 1-based throughout the public API."""

    row_labels: np.ndarray
    col_labels: np.ndarray

    def __post_init__(self):
        z = _frozen(self.row_labels, dtype=np.int64)
        w = _frozen(self.col_labels, dtype=np.int64)
        for name, labels in (("row_labels", z), ("col_labels", w)):
            if labels.ndim != 1:
                raise ParamValidationError(f"{name} must be 1-D")
            if labels.size and labels.min() < 1:
                raise ParamValidationError(f"{name} must be 1-based (min value >= 1)")
        object.__setattr__(self, "row_labels", z)
        object.__setattr__(self, "col_labels", w)


def _pair_products(y_aug: np.ndarray):
    """Index pairs a <= b of the q predictor columns and their products
    (n, q(q+1)/2), read-only: every Hessian of a stack is one matmul."""
    a, b = (_frozen(i, dtype=np.intp) for i in np.triu_indices(y_aug.shape[1]))
    return (a, b), _frozen(y_aug[:, a] * y_aug[:, b])


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (..., p, p) stack, raising NotPositiveDefinite."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc


def _gaussian_logpdfs(rows: np.ndarray, means: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """(n, g) log-densities of rows (n, p) under N(means[k], L_k L_k^T), for
    the factors L (g, p, p): one batched u = (rows - mean_k) L_k^-T. The
    result is C-ordered, so sums over it run as over any (n, g) array."""
    u = (rows[None, :, :] - means[:, None, :]) @ np.linalg.inv(chols).transpose(0, 2, 1)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    quad = np.ascontiguousarray(np.sum(u * u, axis=2).T)
    return -0.5 * (means.shape[1] * LOG_2PI + logdet + quad)


def gaussian_cluster_logpdfs(y: CovariateTable, params: ModelParams) -> np.ndarray:
    """(n, g) matrix of log phi(y_i; mean_k, cov_k) using the cached factors."""
    return _gaussian_logpdfs(y.values, params.means, params.cov_chols)

