"""Block-EM estimator: alternating row/column variational E-steps and
M-steps that jointly ascend the free energy.

One outer cycle is
    (a) row E-step        t <- posterior over row clusters given r, params
    (b) row M-step        pi, Gaussian params, and a logistic half-update
    (c) column E-step     r <- posterior over column clusters given t, params
    (d) column M-step     rho and the logistic update, warm-started from (b)

Every sub-step maximizes the free energy over its own coordinates with
the rest held fixed, so the trace recorded after each sub-step is
non-decreasing (up to a relative slack of 1e-9 that covers the ridge
term added to covariance estimates).

The per-block logistic fits are damped Newton-Raphson solves of a
weighted binomial log-likelihood, run for all g*d blocks at once as one
stack in which each block keeps its own stopping and step rules; linear
predictors are kept inside a box so complete separation cannot push
coefficients to infinity. The objective, gradient and Hessian kernels
take a leading block axis; the public weighted_logistic_* run them on one.
The Hessians of a fit read the pair products of the covariate columns,
which are built once per CovariateTable.

Derived terms are built once per change and handed to the sub-steps
that read them, as immutable values local to one fit. A ParamTerms per
parameter set holds eta, its softplus and the Gaussian log-densities;
the column M-step changes neither means nor covariances, so its
ParamTerms reuses the log-densities of the row M-step's. A ColStats per
column posterior r holds x @ r and the column masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .errors import (
    AllRestartsFailed,
    EmptyCluster,
    LengthMismatch,
    NotPositiveDefinite,
    ParamValidationError,
)
from .model import (
    BinaryMatrix,
    CovariateTable,
    HardLabels,
    ModelParams,
    SoftAssignments,
    _pair_products,
    _Value,
    covariate_density_weight,
    gaussian_cluster_logpdfs,
)

_TRACE_SLACK = 1e-9
# merges tried per split-merge round, cheapest first
_SPLIT_MERGE_MOVES = 3
# fixed M-step settings; _newton_stack and m_step_gaussian say what each does
_NR_MAX_ITERS = 25
_NR_GRAD_TOL = 1e-8
_PREDICTOR_BOUND = 30.0
_RIDGE = 1e-8
_MIN_CLUSTER_MASS = 1e-6


@dataclass(frozen=True)
class BemConfig:
    """Settings of the fitting loop; the defaults are the ones the tests validate.

    init_strategy has one value, "kmeans_like": each restart starts from
    k-means++-seeded Lloyd runs on the rows, then the columns. cov_weight
    selects the exponent convention for the covariate density in the free
    energy and row E-step: "1" counts it once per row, "m" once per cell (so
    a row's Gaussian term carries weight m). split_merge_rounds caps the
    rounds of merge-and-split refinement that fit runs after the restarts
    (see _merge_split_candidates); it targets optima where one true column
    cluster is fitted twice while two others share a cluster, and a round
    that does not raise the free energy ends it. A fit stops once a sweep
    raises the free energy by less than free_energy_rel_tol * |F|; a
    tolerance of 0 disables that test, so every fit runs exactly
    max_outer_iters sweeps (a fixed point would otherwise end it early at
    any positive tolerance). The M-steps read the module constants
    _NR_MAX_ITERS, _NR_GRAD_TOL, _PREDICTOR_BOUND, _RIDGE and
    _MIN_CLUSTER_MASS, which are not settings.
    """

    max_outer_iters: int = 200
    free_energy_rel_tol: float = 1e-8
    n_restarts: int = 10
    init_strategy: str = "kmeans_like"
    seed: int = 0
    cov_weight: str = "1"
    split_merge_rounds: int = 2

    def __post_init__(self):
        if self.max_outer_iters < 1 or self.n_restarts < 1:
            raise ValueError("iteration and restart counts must be >= 1")
        if self.split_merge_rounds < 0 or self.seed < 0:
            raise ValueError("split_merge_rounds and seed must be >= 0")
        if not self.free_energy_rel_tol >= 0:  # NaN fails too
            raise ValueError("free_energy_rel_tol must be >= 0")
        if self.init_strategy != "kmeans_like":
            raise ValueError(f"unknown init_strategy {self.init_strategy!r}")
        if self.cov_weight not in ("m", "1"):
            raise ValueError(f"cov_weight must be 'm' or '1', got {self.cov_weight!r}")


@dataclass(frozen=True)
class FitResult(_Value):
    """Outcome of one fit: parameters, posteriors, and the ascent trace.

    free_energy_trace holds one value per sub-step, starting with the
    value right after initialization; it is validated non-decreasing up
    to the documented slack. map_labels must be the argmax of the
    assignments (checked at construction).
    """

    params: ModelParams
    assignments: SoftAssignments
    free_energy_trace: np.ndarray
    converged: bool
    n_iters: int
    map_labels: HardLabels

    def __post_init__(self):
        tr = np.array(self.free_energy_trace, dtype=float)
        if tr.ndim != 1 or tr.size < 1:
            raise ParamValidationError("free_energy_trace must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(tr)):
            raise ParamValidationError("free_energy_trace contains non-finite values")
        slack = _TRACE_SLACK * np.maximum(np.abs(tr[:-1]), np.abs(tr[1:])) + 1e-12
        drops = np.diff(tr) + slack
        if np.any(drops < 0):
            worst = int(np.argmin(drops))
            raise ParamValidationError(
                f"free energy decreased at step {worst + 1}: {tr[worst]} -> {tr[worst + 1]}"
            )
        tr.setflags(write=False)
        object.__setattr__(self, "free_energy_trace", tr)
        expected = map_labels(self.assignments)
        if not np.array_equal(expected.row_labels, self.map_labels.row_labels) or not np.array_equal(
            expected.col_labels, self.map_labels.col_labels
        ):
            raise ParamValidationError("map_labels inconsistent with assignments")

    @property
    def final_free_energy(self) -> float:
        return float(self.free_energy_trace[-1])


def map_labels(assignments: SoftAssignments) -> HardLabels:
    """Hard labels by per-row argmax; ties go to the smallest index. 1-based."""
    return HardLabels(
        assignments.row_probs.argmax(axis=1) + 1,
        assignments.col_probs.argmax(axis=1) + 1,
    )


def _softplus(eta: np.ndarray) -> np.ndarray:
    """log(1 + e^eta) by the formula of numpy's logaddexp(0, eta), from
    vectorized exp and log1p: within an ulp of it and several times faster."""
    return np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))


def _block_predictors(y_aug: np.ndarray, coefs: np.ndarray):
    """eta[i,k,l] = y_aug_i . coefs[k,l] and its softplus, shapes (n,g,d)."""
    eta = np.tensordot(y_aug, coefs, axes=([1], [2]))
    return eta, _softplus(eta)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class ParamTerms:
    """A parameter set with its linear predictors eta (n,g,d), their
    softplus and the (n,g) Gaussian log-densities of the covariates."""

    params: ModelParams
    eta: np.ndarray
    softplus: np.ndarray
    logphi: np.ndarray

    @classmethod
    def of(cls, y: CovariateTable, params: ModelParams, logphi=None) -> ParamTerms:
        """The terms of params, reusing logphi if given (params' own densities)."""
        eta, sp = _block_predictors(y.augmented, params.coefs)
        logphi = gaussian_cluster_logpdfs(y, params) if logphi is None else logphi
        return cls(params, *_read_only(eta, sp, logphi))


@dataclass(frozen=True)
class ColStats:
    """A column posterior r (m,d), frozen in a copy of its own, with
    x r (n,d) and the column-cluster masses r_.l (d,)."""

    x: BinaryMatrix
    r: np.ndarray
    xr: np.ndarray
    mass: np.ndarray

    @classmethod
    def of(cls, x: BinaryMatrix, r) -> ColStats:
        r = np.array(r, dtype=float)
        return cls(x, *_read_only(r, x.values @ r, r.sum(axis=0)))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    # the row normalizer is scipy.special.logsumexp's, step for step (the
    # row maxima are left out of the sum and added back through log1p),
    # without its per-call overhead, which dominated on small inputs
    top = logits.max(axis=1, keepdims=True)
    at_top = logits == top
    ties = at_top.sum(axis=1, keepdims=True, dtype=float)
    rest = np.exp(np.where(at_top, -np.inf, logits - top)).sum(axis=1, keepdims=True) / ties
    probs = np.exp(logits - (np.log1p(rest) + np.log(ties) + top))
    # flush vanishing mass to exact zero: a subnormal residue here would
    # make the matching proportion underflow to 0 and 0*log 0 to -inf
    probs[probs < 1e-300] = 0.0
    return probs


def row_e_step(cols: ColStats, terms: ParamTerms, cov_weight: str) -> np.ndarray:
    """Posterior over row clusters given the column posterior and params.

    log t_ik, up to the per-row normalizer, is
        log pi_k + W log phi(y_i; mu_k, Sigma_k)
        + sum_l [ (x r)_il eta_ikl - r_.l softplus(eta_ikl) ]
    with W the covariate weight of cov_weight. Normalization is done by
    log-sum-exp so nothing underflows.
    """
    bern = np.einsum("il,ikl->ik", cols.xr, terms.eta) - terms.softplus @ cols.mass
    w = covariate_density_weight(cov_weight, cols.x.m)
    with np.errstate(divide="ignore"):
        logpi = np.log(terms.params.row_props)
    return _softmax_rows(logpi[None, :] + w * terms.logphi + bern)


def _col_logits(xv: np.ndarray, t, eta, sp, col_props) -> np.ndarray:
    """Unnormalized column log-posteriors, one row per column of xv:
    log rho_l + sum_i x_ij sum_k t_ik eta_ikl - sum_ik t_ik softplus(eta_ikl)."""
    lin = np.einsum("ik,ikl->il", t, eta)
    base = np.einsum("ik,ikl->l", t, sp)
    with np.errstate(divide="ignore"):
        return np.log(col_props)[None, :] + xv.T @ lin - base[None, :]


def col_e_step(x: BinaryMatrix, t, terms: ParamTerms) -> np.ndarray:
    """Posterior over column clusters given row posteriors t and params.

    The covariate density cancels in the column posterior (it does not
    involve w), so only the Bernoulli terms and log rho_l appear.
    """
    t = np.asarray(t, dtype=float)
    logits = _col_logits(x.values, t, terms.eta, terms.softplus, terms.params.col_props)
    return _softmax_rows(logits)


def _proportions(probs: np.ndarray) -> np.ndarray:
    """Closed-form proportion update from row- or column-cluster posteriors:
    pi_k = t_.k / n, rho_l = r_.l / m."""
    return probs.sum(axis=0) / probs.shape[0]


def m_step_gaussian(t, y: CovariateTable):
    """Weighted Gaussian MLE per row cluster, with _RIDGE on the covariance
    diagonal.

    Raises EmptyCluster when a cluster's posterior mass drops below
    _MIN_CLUSTER_MASS; the fitting loop treats that restart as failed
    rather than reseeding mid-run (which would break monotonicity).
    """
    t = np.asarray(t, dtype=float)
    mass = t.sum(axis=0)
    low = np.flatnonzero(mass < _MIN_CLUSTER_MASS)
    if low.size:
        raise EmptyCluster(
            f"row cluster {low[0] + 1} collapsed (mass {mass[low[0]]:.3e})"
        )
    means = (t.T @ y.values) / mass[:, None]
    diffs = y.values[None, :, :] - means[:, None, :]
    covs = np.einsum("ki,kip,kiq->kpq", t.T, diffs, diffs) / mass[:, None, None]
    return means, covs + _RIDGE * np.eye(y.p)[None, :, :]


def _objective(eta, w, c, tm):
    """Sum over the last axis of w * (c * eta - tm * softplus(eta)): one
    value per block of a (..., n) stack; tm broadcasts against eta."""
    return np.einsum("...n,...n->...", w, c * eta - tm * _softplus(eta))


def _gradient(sig, y_aug, w, c, tm):
    """Gradient of _objective in beta, from sig = expit(eta): (..., q)."""
    return (w * (c - tm * sig)) @ y_aug


def _neg_hessian(sig, w, tm, pairs):
    """Minus the Hessian of _objective in beta, (..., q, q), from sig and
    the _pair_products of y_aug."""
    (a, b), prods = pairs
    q = b[-1] + 1
    neg_hess = np.empty(sig.shape[:-1] + (q, q))
    neg_hess[..., a, b] = (w * tm * sig * (1.0 - sig)) @ prods
    neg_hess[..., b, a] = neg_hess[..., a, b]
    return neg_hess


def weighted_logistic_objective(beta, y_aug, row_weights, success_counts, trial_mass) -> float:
    """Weighted binomial log-likelihood of one block's logistic problem.

    Row i contributes row_weights_i * (success_counts_i * eta_i -
    trial_mass * softplus(eta_i)), eta_i = y_aug_i . beta. In the block
    problem row_weights are the row posteriors t_ik, success_counts_i is
    the r-weighted count of ones in row i, and trial_mass is r_.l.
    """
    return float(_objective(y_aug @ beta, row_weights, success_counts, trial_mass))


def weighted_logistic_gradient(beta, y_aug, row_weights, success_counts, trial_mass) -> np.ndarray:
    return _gradient(expit(y_aug @ beta), y_aug, row_weights, success_counts, trial_mass)


def weighted_logistic_hessian(beta, y_aug, row_weights, success_counts, trial_mass) -> np.ndarray:
    return -_neg_hessian(expit(y_aug @ beta), row_weights, trial_mass, _pair_products(y_aug))


def _solve_boosted(neg_h, grad) -> np.ndarray:
    """Newton directions for a (K, q, q) stack of systems.

    A block whose system is singular, or whose direction is not finite,
    is retried with a ridge boost on the diagonal: none at first, then
    max(_RIDGE, 1e-12), then 1e3 times the last boost, for at most 8
    tries. Only the failed blocks are retried. Rows never solved are NaN.
    """
    delta = np.full(grad.shape, np.nan)
    todo = np.arange(grad.shape[0])
    lhs, rhs, boost = neg_h, grad, 0.0
    for _ in range(8):
        try:
            sol = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # one singular system fails the whole stack: solve each alone
            sol = np.full(rhs.shape, np.nan)
            for j in range(todo.size):
                try:
                    sol[j] = np.linalg.solve(lhs[j], rhs[j])
                except np.linalg.LinAlgError:
                    pass
        ok = np.all(np.isfinite(sol), axis=1)
        if boost == 0.0 and ok.all():
            return sol
        delta[todo[ok]] = sol[ok]
        todo = todo[~ok]
        if not todo.size:
            break
        boost = max(_RIDGE, 1e-12) if boost == 0.0 else boost * 1e3
        lhs, rhs = neg_h[todo] + boost * np.eye(grad.shape[1]), grad[todo]
    return delta


def _newton_stack(y: CovariateTable, weights, counts, mass, beta_init):
    """Damped Newton ascent of K independent block objectives at once.

    Block b is row b of weights (K, n), counts (K, n), mass (K,) and
    beta_init (K, q), over the predictors y.augmented (n, q); its
    objective, gradient and Hessian come from the kernels behind
    weighted_logistic_*, with one expit per iteration shared by the last
    two. Each block follows its own rules: it stops once its gradient is
    below _NR_GRAD_TOL times its Bernoulli mass, so the iteration count
    does not grow with the data size; its step is scaled so every linear
    predictor stays in [-_PREDICTOR_BOUND, _PREDICTOR_BOUND], then halved
    until the objective does not decrease (at most 60 tries, and never
    below a relative step of 1e-15); it stops when no direction, no room
    in the box or no ascent is left. A stopped block leaves the active
    set, so later iterations work on the others only. The predictors of
    the accepted step are kept for the next iteration. Returns (beta,
    clamped) where clamped marks blocks with a binding box.
    """
    y_aug, pairs = y.augmented, y._aug_pairs
    beta = np.array(beta_init, dtype=float)
    peak = np.zeros(beta.shape[0])
    idx = np.arange(beta.shape[0])
    b = beta.copy()
    eta = b @ y_aug.T
    w, c, tm = weights, counts, mass[:, None]
    obj = _objective(eta, w, c, tm)
    scale = 1.0 + tm[:, 0] * w.sum(axis=1)

    def retire(keep, *extra):
        """Store the blocks not in keep and drop them from the active set."""
        nonlocal idx, b, eta, obj, w, c, tm, scale
        gone = ~keep
        beta[idx[gone]] = b[gone]
        peak[idx[gone]] = np.abs(eta[gone]).max(axis=1)
        idx, b, eta, obj, w, c, tm, scale = (
            a[keep] for a in (idx, b, eta, obj, w, c, tm, scale)
        )
        return [a[keep] for a in extra]

    for _ in range(_NR_MAX_ITERS):
        if not idx.size:
            break
        sig = expit(eta)
        grad = _gradient(sig, y_aug, w, c, tm)
        live = np.max(np.abs(grad), axis=1) >= _NR_GRAD_TOL * scale
        if not live.all():
            sig, grad = retire(live, sig, grad)
            if not idx.size:
                break
        delta = _solve_boosted(_neg_hessian(sig, w, tm, pairs), grad)
        solved = np.all(np.isfinite(delta), axis=1)
        if not solved.all():
            (delta,) = retire(solved, delta)
            if not idx.size:
                break
        # largest step that keeps every predictor inside the box
        deta = delta @ y_aug.T
        caps = np.divide(
            _PREDICTOR_BOUND - np.sign(deta) * eta,
            np.abs(deta),
            out=np.full(deta.shape, np.inf),
            where=deta != 0,
        )
        step = np.minimum(1.0, caps.min(axis=1))
        room = step > 0.0
        if not room.all():
            delta, step = retire(room, delta, step)
            if not idx.size:
                break
        cand = b + step[:, None] * delta
        cand_eta = cand @ y_aug.T
        cand_obj = _objective(cand_eta, w, c, tm)
        up = cand_obj >= obj
        if up.all():
            b, eta, obj = cand, cand_eta, cand_obj
            continue
        dmax = np.max(np.abs(delta), axis=1)
        bref = 1.0 + np.max(np.abs(b), axis=1)
        accepted = np.zeros(idx.size, dtype=bool)
        trying = np.arange(idx.size)
        for tries in range(1, 61):
            hit = trying[up]
            b[hit], eta[hit], obj[hit] = cand[up], cand_eta[up], cand_obj[up]
            accepted[hit] = True
            trying = trying[~up]
            step[trying] *= 0.5
            trying = trying[step[trying] * dmax[trying] >= 1e-15 * bref[trying]]
            if not trying.size or tries == 60:
                break
            cand = b[trying] + step[trying, None] * delta[trying]
            cand_eta = cand @ y_aug.T
            cand_obj = _objective(cand_eta, w[trying], c[trying], tm[trying])
            up = cand_obj >= obj[trying]
        if not accepted.all():
            retire(accepted)

    beta[idx] = b
    peak[idx] = np.abs(eta).max(axis=1)
    return beta, peak >= _PREDICTOR_BOUND - 1e-6


def m_step_beta(y: CovariateTable, t, cols: ColStats, beta_init):
    """Per-block logistic coefficient updates, warm-started from beta_init.

    Blocks are independent: block (k,l) maximizes
        sum_i t_ik [ (x r)_il eta_i - r_.l softplus(eta_i) ].
    All g*d blocks are solved as one stack by damped Newton-Raphson
    (block (k,l) is row k*d + l), each block with its own stopping,
    box and step-halving rules. A column cluster with zero mass leaves
    its coefficients at the warm start (its objective is identically
    zero).

    Returns (coefs, clamped): the (g,d,p+1) array and a (g,d) boolean
    array marking blocks where the separation guard was binding.
    """
    t = np.asarray(t, dtype=float)
    beta_init = np.asarray(beta_init, dtype=float)
    g, d, q = beta_init.shape
    coefs, clamped = _newton_stack(
        y, np.repeat(t.T, d, axis=0), np.tile(cols.xr.T, (g, 1)), np.tile(cols.mass, g),
        beta_init.reshape(g * d, q)
    )
    return coefs.reshape(g, d, q), clamped.reshape(g, d)


def free_energy(t, cols: ColStats, terms: ParamTerms, cov_weight: str) -> float:
    """Variational lower bound on the log-likelihood at (t, cols.r, terms.params).

    Sum of the expected complete-data log-likelihood under the
    factorized posterior (mixing proportions, Bernoulli cells, covariate
    density with weight W) and the entropies of t and r; 0 log 0 is 0.
    """
    t = np.asarray(t, dtype=float)
    eta, sp, params = terms.eta, terms.softplus, terms.params
    bern = float(np.einsum("ik,il,ikl->", t, cols.xr, eta)) - float(
        np.einsum("ik,ikl,l->", t, sp, cols.mass)
    )
    w = covariate_density_weight(cov_weight, cols.x.m)
    gauss = w * float(np.einsum("ik,ik->", t, terms.logphi))
    mix = float(xlogy(t.sum(axis=0), params.row_props).sum()) + float(
        xlogy(cols.mass, params.col_props).sum()
    )
    entropy = -float(xlogy(t, t).sum()) - float(xlogy(cols.r, cols.r).sum())
    return mix + bern + gauss + entropy


def _standardize(feats: np.ndarray) -> np.ndarray:
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd[sd == 0] = 1.0
    return (feats - mu) / sd


def _kpp_centers(feats: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread centers via squared-distance sampling."""
    n = feats.shape[0]
    centers = np.empty((k, feats.shape[1]))
    centers[0] = feats[rng.integers(n)]
    d2 = ((feats - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c:] = feats[rng.integers(n, size=k - c)]
            break
        centers[c] = feats[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((feats - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(feats: np.ndarray, k: int, rng: np.random.Generator, n_iter: int = 10) -> np.ndarray:
    """One k-means++ seeded Lloyd run; restart diversity comes from the rng."""
    n = feats.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    centers = _kpp_centers(feats, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        d2 = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = feats[mask].mean(axis=0)
            else:
                centers[c] = feats[rng.integers(n)]
    return labels


def _soft_from_hard(labels: np.ndarray, k: int) -> np.ndarray:
    n = labels.size
    if k == 1:
        return np.ones((n, 1))
    probs = np.full((n, k), 0.1 / (k - 1))
    probs[np.arange(n), labels] = 0.9
    return probs


def _init_assignments(x, y, g, d, rng: np.random.Generator):
    """Starting soft assignments for one restart.

    First clusters rows on (covariates, row means), then clusters
    columns on per-row-cluster block means together with the
    within-cluster covariance between cells and covariates; the latter
    separates column clusters that differ only through covariate slopes.
    """
    row_feats = _standardize(np.hstack([y.values, x.values.mean(axis=1, keepdims=True)]))
    z0 = _lloyd(row_feats, g, rng)
    blocks = []
    for k in range(g):
        mask = z0 == k
        if mask.any():
            xk = x.values[mask]
            yk = y.values[mask] - y.values[mask].mean(axis=0)
            blocks.append(xk.mean(axis=0)[:, None])
            blocks.append(xk.T @ yk / mask.sum())
        else:
            blocks.append(np.zeros((x.m, 1)))
            blocks.append(np.zeros((x.m, y.p)))
    col_feats = _standardize(np.hstack(blocks))
    t = _soft_from_hard(z0, g)
    r = _soft_from_hard(_lloyd(col_feats, d, rng), d)
    return t, r


def _single_fit(x, y, g, d, cfg: BemConfig, rng: np.random.Generator, init=None) -> FitResult:
    t, r = _init_assignments(x, y, g, d, rng) if init is None else init
    cols = ColStats.of(x, r)
    means, covs = m_step_gaussian(t, y)
    coefs, _ = m_step_beta(y, t, cols, np.zeros((g, d, y.p + 1)))
    params = ModelParams(_proportions(t), _proportions(cols.r), coefs, means, covs)
    terms = ParamTerms.of(y, params)
    w = cfg.cov_weight
    trace = [free_energy(t, cols, terms, w)]
    converged = False
    n_iters = 0
    for _ in range(cfg.max_outer_iters):
        t = row_e_step(cols, terms, w)
        trace.append(free_energy(t, cols, terms, w))

        means, covs = m_step_gaussian(t, y)
        coefs, _ = m_step_beta(y, t, cols, params.coefs)
        params = ModelParams(_proportions(t), params.col_props, coefs, means, covs)
        terms = ParamTerms.of(y, params)
        trace.append(free_energy(t, cols, terms, w))

        cols = ColStats.of(x, col_e_step(x, t, terms))
        trace.append(free_energy(t, cols, terms, w))

        coefs, _ = m_step_beta(y, t, cols, params.coefs)
        params = ModelParams(params.row_props, _proportions(cols.r), coefs, means, covs)
        # same means and covariances: only eta and its softplus change
        terms = ParamTerms.of(y, params, terms.logphi)
        trace.append(free_energy(t, cols, terms, w))

        n_iters += 1
        tol = cfg.free_energy_rel_tol
        prev, cur = trace[-5], trace[-1]
        if tol > 0 and cur - prev < tol * (abs(prev) + 1e-12):
            converged = True
            break

    assignments = SoftAssignments(t, cols.r)
    return FitResult(
        params=params,
        assignments=assignments,
        free_energy_trace=np.array(trace),
        converged=converged,
        n_iters=n_iters,
        map_labels=map_labels(assignments),
    )


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings of the same items group them alike, up to a
    renaming of the labels: each label of a meets exactly one label of b
    and the other way round."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def _merge_split_candidates(x, y, result: FitResult, rng: np.random.Generator):
    """Candidate (t0, r0) inits that merge one column cluster into another
    and split a heterogeneous cluster onto the freed index.

    Merge pairs are ranked by the column-score cost of reassigning the
    donor's columns (a cheap reassignment flags a duplicated cluster);
    for each of the _SPLIT_MERGE_MOVES cheapest pairs the two most
    heterogeneous clusters are tried as split targets. A candidate that
    groups the columns as an earlier candidate does, up to cluster names,
    is dropped once its rng draws are taken (so later draws do not move),
    and each distinct partition is refit once. A candidate that
    reproduces result's own partition stays: its refit starts from
    result's row posteriors and may still gain.
    Heterogeneity and the 2-means splits both use per-column
    score statistics of the target block's logistic fit, whitened by
    their Fisher scale: under a correct homogeneous block the whitened
    deviations are unit-scale noise for every block, so the ranking is
    not hijacked by mid-scale blocks' larger binomial variance, and
    clusters differing only through covariate slopes still separate.
    """
    t = result.assignments.row_probs
    d = result.assignments.col_probs.shape[1]
    if d < 2 or x.m < 4:
        return []
    w = result.assignments.col_probs.argmax(axis=1)
    eta, sp = _block_predictors(y.augmented, result.params.coefs)
    scores = _col_logits(x.values, t, eta, sp, result.params.col_props)
    moves = []
    for b in range(d):
        cols = np.nonzero(w == b)[0]
        if cols.size == 0:
            continue
        loss = scores[cols, b][:, None] - scores[cols]
        tot = loss.sum(axis=0)
        for a in range(d):
            if a != b:
                moves.append((float(tot[a]), b, a))
    moves.sort()

    aug = y.augmented
    g = t.shape[1]

    # row-cluster-weighted predictors, (n, g*q) in row-cluster-major order
    weighted_aug = (t[:, :, None] * aug[:, None, :]).reshape(x.n, -1)

    def score_feats(xs, target):
        sig = expit(aug @ result.params.coefs[:, target, :].T)
        fisher = np.sqrt((t * sig * (1.0 - sig)).T @ aug**2 + 1e-12)
        return (xs.values.T @ weighted_aug) / fisher.reshape(-1)

    def sharpen(xs, halves, iters=3):
        """Two-block column EM on the columns xs with fixed row posteriors
        and uniform mixing weights (log rho = 0); purifies a noisy 2-means
        nucleation so the global refit does not wash the split back out."""
        r = _soft_from_hard(halves, 2)
        beta = np.zeros((g, 2, aug.shape[1]))
        for _ in range(iters):
            beta, _ = m_step_beta(y, t, ColStats.of(xs, r), beta)
            r = _softmax_rows(_col_logits(xs.values, t, *_block_predictors(aug, beta), np.ones(2)))
        return r.argmax(axis=1)

    candidates, labs = [], []
    for _, b, a in moves[:_SPLIT_MERGE_MOVES]:
        merged = w.copy()
        merged[merged == b] = a
        ranked = []
        feats = {}
        for c in range(d):
            cols = np.nonzero(merged == c)[0]
            if cols.size < 2:
                continue
            # one gather of the cluster's columns serves scoring and sharpening
            xs = BinaryMatrix._adopt(x.values[:, cols])
            sf = score_feats(xs, c)
            feats[c] = (cols, xs, sf)
            dev = sf - sf.mean(axis=0)
            ranked.append((-float((dev**2).mean()), c))
        ranked.sort()
        for _, target in ranked[:2]:
            cols, xs, sf = feats[target]
            halves = _lloyd(sf, 2, rng)
            if halves.min() == halves.max():
                continue
            halves = sharpen(xs, halves)
            if halves.min() == halves.max():
                continue
            lab = merged.copy()
            lab[cols[halves == 1]] = b
            # refits are deterministic and, up to round-off, blind to
            # cluster names: a partition already queued this round would
            # only repeat an earlier refit, which ties under _gains
            if any(_same_partition(lab, seen) for seen in labs):
                continue
            labs.append(lab)
            candidates.append((t, _soft_from_hard(lab, d)))
        # release this move's gathers before the next move makes its own
        feats = xs = None
    return candidates


def _gains(new: FitResult, old: FitResult | None) -> bool:
    """Whether new beats old by more than round-off: a free-energy gain
    within the trace slack is a tie, and ties keep the earlier result."""
    if old is None:
        return True
    ref = old.final_free_energy
    return new.final_free_energy - ref > _TRACE_SLACK * abs(ref)


def fit(x: BinaryMatrix, y: CovariateTable, g: int, d: int, cfg: BemConfig | None = None) -> FitResult:
    """Best-of-restarts block-EM fit with g row and d column clusters.

    Runs cfg.n_restarts independent initializations (sub-seeded from
    cfg.seed) and keeps the result with the highest final free energy,
    then attempts up to cfg.split_merge_rounds merge-and-split
    refinements of the column clustering, accepting a refit only when it
    improves the free energy. A later result replaces an earlier one only
    if its free energy is higher by more than the trace slack (1e-9
    relative), so round-off ties never decide. Restarts that collapse a
    cluster are skipped; if every restart collapses, AllRestartsFailed
    is raised.
    """
    if cfg is None:
        cfg = BemConfig()
    if x.n != y.n:
        raise LengthMismatch(f"x has {x.n} rows but y has {y.n}")
    if not (1 <= g <= x.n) or not (1 <= d <= x.m):
        raise ParamValidationError(
            f"need 1 <= g <= n and 1 <= d <= m, got g={g}, d={d}, n={x.n}, m={x.m}"
        )
    best = None
    last_error = None
    seq = np.random.SeedSequence(cfg.seed)
    for child in seq.spawn(cfg.n_restarts):
        rng = np.random.default_rng(child)
        try:
            result = _single_fit(x, y, g, d, cfg, rng)
        except (EmptyCluster, NotPositiveDefinite) as exc:
            last_error = exc
            continue
        if _gains(result, best):
            best = result
    if best is None:
        raise AllRestartsFailed(
            f"all {cfg.n_restarts} restarts failed; last failure: {last_error}"
        )
    for _ in range(cfg.split_merge_rounds):
        rng = np.random.default_rng(seq.spawn(1)[0])
        improved = None
        for init in _merge_split_candidates(x, y, best, rng):
            try:
                candidate = _single_fit(x, y, g, d, cfg, rng, init=init)
            except (EmptyCluster, NotPositiveDefinite):
                continue
            if _gains(candidate, best) and _gains(candidate, improved):
                improved = candidate
        if improved is None:
            break
        best = improved
    return best
