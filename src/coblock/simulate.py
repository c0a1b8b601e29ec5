"""Synthetic data generation and label-recovery scoring.

Generation follows the model's own sampling story: draw row clusters,
draw column clusters, draw covariates from the per-row-cluster Gaussian,
then fill the binary matrix cell by cell through the logistic link.
Four decoupled random sub-streams keep each stage reproducible on its
own, so e.g. changing m leaves the row-cluster draws untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bem import _row_chunks, _sigmoid
from .errors import LengthMismatch, ParamValidationError
from .model import BinaryMatrix, CovariateTable, HardLabels, ModelParams


@dataclass(frozen=True)
class SimConfig:
    """Dimensions, ground-truth parameters, and seed for one synthetic draw."""

    n: int
    m: int
    params: ModelParams
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ParamValidationError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if self.seed < 0:
            raise ParamValidationError(f"need seed >= 0, got seed={self.seed}")


@dataclass(frozen=True)
class SimOutput:
    """One synthetic dataset together with the labels that generated it."""

    x: BinaryMatrix
    y: CovariateTable
    truth: HardLabels


def generate(config: SimConfig) -> SimOutput:
    """Draw one dataset from the model.

    z_i ~ Cat(pi), w_j ~ Cat(rho), y_i ~ N(mu_{z_i}, Sigma_{z_i}),
    x_ij ~ Bernoulli(logistic(y_aug_i . beta_{z_i w_j})).

    The seed is expanded into four independent sub-streams, consumed in
    the order rows, columns, covariates, cells; equal configs therefore
    give bit-identical outputs.
    """
    params = config.params
    n, m = config.n, config.m
    ss_rows, ss_cols, ss_cov, ss_cells = np.random.SeedSequence(config.seed).spawn(4)

    z = np.random.default_rng(ss_rows).choice(params.g, size=n, p=params.row_props)
    w = np.random.default_rng(ss_cols).choice(params.d, size=m, p=params.col_props)

    eps = np.random.default_rng(ss_cov).standard_normal((n, params.p))
    yv = params.means[z] + np.einsum("nij,nj->ni", params.cov_chols[z], eps)
    y = CovariateTable(yv)

    # eta_full[i, l] = y_aug_i . beta_{z_i, l}; the link acts on each entry
    # alone, so it runs on the (n, d) predictors before each column picks
    # its cluster's. The cells are drawn a block of rows at a time, which
    # reads the uniform stream in the order one (n, m) draw would
    link = _link(np.einsum("iq,ilq->il", y.augmented, params.coefs[z]))
    cells = np.random.default_rng(ss_cells)
    xv = np.empty((n, m), dtype=np.uint8)
    for rows in _row_chunks(n, m):
        np.less(cells.random((rows.stop - rows.start, m)), link[rows][:, w], out=xv[rows])
    x = BinaryMatrix._adopt(xv)

    return SimOutput(x=x, y=y, truth=HardLabels(z + 1, w + 1))


def label_error_rate(estimated, truth) -> float:
    """Misclassification rate minimized over relabelings of the clusters.

    Solves the assignment problem on the confusion matrix exactly, so
    the result is the best achievable agreement, not a greedy one.
    Accepts any integer label vectors of equal length; 0.0 means perfect
    recovery up to a permutation of labels.
    """
    est = np.asarray(estimated, dtype=np.int64).ravel()
    tru = np.asarray(truth, dtype=np.int64).ravel()
    if est.size != tru.size:
        raise LengthMismatch(f"label vectors differ in length: {est.size} vs {tru.size}")
    if est.size == 0:
        raise LengthMismatch("label vectors are empty")

    _, est_idx = np.unique(est, return_inverse=True)
    _, tru_idx = np.unique(tru, return_inverse=True)
    confusion = np.zeros((est_idx.max() + 1, tru_idx.max() + 1))
    np.add.at(confusion, (est_idx, tru_idx), 1.0)
    rows, cols = _max_weight_matching(confusion)
    matched = confusion[rows, cols].sum()
    return float(1.0 - matched / est.size)


def _link(eta: np.ndarray) -> np.ndarray:
    """The logistic link 1 / (1 + e^-eta), by the fit's own formula."""
    return _sigmoid(eta, np.exp(-np.abs(eta)))


def _max_weight_matching(weights: np.ndarray):
    """Rows and columns of a matching of maximum total weight that pairs
    min(k1, k2) rows and columns of a (k1, k2) matrix: the total of
    scipy.optimize.linear_sum_assignment(weights, maximize=True).

    The Hungarian method with shortest augmenting paths (Kuhn 1955;
    Jonker & Volgenant 1987), O(k^3): each row of the shorter side joins
    the matching along a shortest path in the reduced costs, and dual
    potentials u, v keep those costs non-negative. The scans over the
    columns are vectorized.
    """
    flip = weights.shape[0] > weights.shape[1]
    cost = -(weights.T if flip else weights)
    n, m = cost.shape
    # column m is the virtual start column; owner[j] is the row matched
    # to column j, -1 if none
    u, v = np.zeros(n), np.zeros(m + 1)
    owner = np.full(m + 1, -1)
    via = np.zeros(m, dtype=np.int64)
    for i in range(n):
        owner[m] = i
        j0 = m
        dist = np.full(m, np.inf)
        done = np.zeros(m + 1, dtype=bool)
        while True:
            done[j0] = True
            free = ~done[:m]
            i0 = owner[j0]
            reduced = cost[i0] - u[i0] - v[:m]
            closer = free & (reduced < dist)
            dist[closer] = reduced[closer]
            via[closer] = j0
            j1 = int(np.argmin(np.where(free, dist, np.inf)))
            delta = dist[j1]
            u[owner[done]] += delta
            v[done] -= delta
            dist[free] -= delta
            j0 = j1
            if owner[j0] < 0:
                break
        # augment: shift each column's row back along the path
        while j0 != m:
            j1 = via[j0]
            owner[j0] = owner[j1]
            j0 = j1
    owned = np.flatnonzero(owner[:m] >= 0)
    return (owned, owner[owned]) if flip else (owner[owned], owned)


def separated_params(
    g: int,
    d: int,
    p: int = 1,
    mean_scale: float = 5.0,
    intercept_scale: float = 3.0,
    slope_scale: float = 0.5,
    seed: int = 0,
    distinct_blocks: bool = False,
) -> ModelParams:
    """Ground-truth parameters with well-separated clusters, for experiments.

    Row clusters get Gaussian means spread mean_scale apart along the
    covariate diagonal with unit covariances; block intercepts are
    +/- intercept_scale with slopes uniform on +/- slope_scale. When two
    column clusters draw the same intercept sign pattern, the slopes are
    all that separates them, so slope_scale controls how identifiable
    such twins are. With distinct_blocks the intercept sign patterns are
    the first d sign vectors over the g row clusters, which guarantees
    no two column clusters share a pattern (requires 2**g >= d);
    otherwise signs are drawn at random.
    """
    if g < 1 or d < 1 or p < 0:
        raise ParamValidationError(
            f"need g >= 1 row clusters, d >= 1 column clusters and p >= 0 covariates,"
            f" got g={g}, d={d}, p={p}"
        )
    rng = np.random.default_rng(seed)
    row_props = np.full(g, 1.0 / g)
    col_props = np.full(d, 1.0 / d)

    means = np.zeros((g, p))
    if p > 0:
        direction = np.ones(p) / np.sqrt(p)
        offsets = mean_scale * (np.arange(g) - (g - 1) / 2.0)
        means = offsets[:, None] * direction[None, :]
    covs = np.broadcast_to(np.eye(p), (g, p, p)).copy()

    coefs = np.zeros((g, d, p + 1))
    if distinct_blocks:
        patterns = list(itertools.product((1.0, -1.0), repeat=g))
        if len(patterns) < d:
            raise ParamValidationError(
                f"cannot build {d} distinct sign patterns over {g} row clusters"
            )
        for l in range(d):
            for k in range(g):
                coefs[k, l, 0] = intercept_scale * patterns[l][k]
    else:
        coefs[:, :, 0] = intercept_scale * rng.choice([-1.0, 1.0], size=(g, d))
    if p > 0:
        coefs[:, :, 1:] = rng.uniform(-slope_scale, slope_scale, size=(g, d, p))

    return ModelParams(row_props, col_props, coefs, means, covs)
