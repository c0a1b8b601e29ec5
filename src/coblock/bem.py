"""Block-EM estimator: alternating row/column variational E-steps and
M-steps that jointly ascend the free energy.

One outer cycle is
    (a) row E-step        t <- posterior over row clusters given r, params
    (b) row M-step        pi and the Gaussian params, in closed form
    (c) column E-step     r <- posterior over column clusters given t, params
    (d) column M-step     rho and the logistic coefficients

Each M-step fits only the parameters whose statistics its E-step changed,
and every sub-step maximizes the free energy over its own coordinates
with the rest held fixed (ECM), so the trace recorded after each
sub-step is non-decreasing (up to a relative slack of 1e-9 that covers
the ridge term added to covariance estimates).

The per-block logistic fits are damped Newton-Raphson solves of a
weighted binomial log-likelihood, run for all g*d blocks at once as one
stack in which each block keeps its own stopping and step rules (a block
that has stopped stays in the stack with zero steps); linear
predictors are kept inside a box so complete separation cannot push
coefficients to infinity. The kernels take a leading block axis; the
public weighted_logistic_* run them on one. One exponential per
predictor, exp(-|eta|), gives both the sigmoid and the softplus.

Derived terms are built once per change and handed on, as immutable
values local to one fit. A ParamTerms per parameter set holds eta, its
exponential and softplus as the one array the stack accepted, and the
Gaussian log-densities; an M-step keeps those of the parameters it does
not fit, and each logistic M-step warm-starts from the one before. A
ColStats per column posterior r holds x @ r and the column masses. Each
E-step returns the free energy at its posterior from its softmax
normalizers, so free_energy runs after the two M-steps of a sweep only.
fit runs restarts and split-merge refits alike, as fits from given soft
assignments in one loop under one acceptance rule, and does each piece
of start work once: a fit is blind to cluster names up to round-off, so
a restart whose starting partitions rename an earlier one's is not
fitted, and split-merge sharpens each distinct split once.

x is stored as uint8, and its three products (x @ r, lin @ x in the
column scores, x.T @ F in the column features) run through _x_product,
which widens x to float64 one row chunk at a time and keeps each BLAS
call small enough to run on one thread, so a seeded fit has the same
bits at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllRestartsFailed,
    DimensionMismatch,
    EmptyCluster,
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
    gaussian_cluster_logpdfs,
)

_TRACE_SLACK = 1e-9
# merges tried per split-merge round, cheapest first
_SPLIT_MERGE_MOVES = 3
# fixed M-step settings; m_step_beta and m_step_gaussian say what each does
_NR_MAX_ITERS = 25
_NR_GRAD_TOL = 1e-8
_PREDICTOR_BOUND = 30.0
_RIDGE = 1e-8
_MIN_CLUSTER_MASS = 1e-6
_ROUND_OFF_ULPS = 4.0
# _x_product reads x in row chunks of at most this many multiply-adds
# (rows x m x the other operand's width): OpenBLAS runs a product that
# small on one thread, so its bits do not depend on the thread count, and
# a chunk widened to float64 takes at most 2 MB. generate draws x in row
# blocks of at most this many cells.
_CHUNK_WORK = 1 << 18


@dataclass(frozen=True)
class BemConfig:
    """Settings of the fitting loop; the defaults are the ones the tests validate.

    init_strategy and cov_weight have one value each. "kmeans_like": each
    restart starts from k-means++-seeded Lloyd runs on the rows, then the
    columns. "1": the free energy and row E-step count a row's covariate
    density once, as the model draws it. n_restarts is the number of
    starts drawn; fit fits each distinct one, so a start that renames an
    earlier one's partitions costs its draws only. split_merge_rounds caps
    the rounds of merge-and-split refinement that fit runs after the
    restarts (see _merge_split_candidates); it targets optima where one
    true column cluster is fitted twice while two others share a cluster,
    and a round that does not raise the free energy ends it. A fit stops
    once a sweep raises the free energy by less than free_energy_rel_tol *
    |F|; a tolerance of 0 disables that test, so every fit runs exactly
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
        if (self.init_strategy, self.cov_weight) != ("kmeans_like", "1"):
            raise ValueError(
                f"init_strategy must be 'kmeans_like' and cov_weight '1', "
                f"got {self.init_strategy!r} and {self.cov_weight!r}"
            )


@dataclass(frozen=True)
class FitResult(_Value):
    """Outcome of one fit: parameters, posteriors, and the ascent trace.

    free_energy_trace holds one value per sub-step, starting with the
    value right after initialization; it is validated non-decreasing up
    to the documented slack. map_labels is not a constructor argument:
    construction derives it from the assignments by map_labels().
    """

    params: ModelParams
    assignments: SoftAssignments
    free_energy_trace: np.ndarray
    converged: bool
    n_iters: int
    map_labels: HardLabels = field(init=False)

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
        object.__setattr__(self, "map_labels", map_labels(self.assignments))

    @property
    def final_free_energy(self) -> float:
        return float(self.free_energy_trace[-1])


def map_labels(assignments: SoftAssignments) -> HardLabels:
    """Hard labels by per-row argmax; ties go to the smallest index. 1-based."""
    return HardLabels(
        assignments.row_probs.argmax(axis=1) + 1,
        assignments.col_probs.argmax(axis=1) + 1,
    )


def _predictors(coefs: np.ndarray, cols: np.ndarray, out=None) -> np.ndarray:
    """eta[..., i] = sum_a coefs[..., a] cols[a, i] for cols = y_aug.T, summed
    term by term: a block's eta has the same bits however many blocks are
    computed together, which a BLAS product's last bits do not."""
    eta = np.multiply(coefs[..., 0, None], cols[0], out=out)
    for a in range(1, cols.shape[0]):
        eta += coefs[..., a, None] * cols[a]
    return eta


def _exp_softplus(eta: np.ndarray, out=None) -> np.ndarray:
    """(e, softplus) on a leading axis: e = exp(-|eta|) and log(1 + e^eta) =
    max(eta, 0) + log1p(e). _sigmoid takes the same e."""
    out = np.empty((2,) + eta.shape) if out is None else out
    np.exp(-np.abs(eta), out=out[0])
    np.add(np.maximum(eta, 0.0), np.log1p(out[0]), out=out[1])
    return out


def _sigmoid(eta: np.ndarray, e: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + e^-eta) as where(eta >= 0, 1, e) / (1 + e), its numerator
    taken as max(e, eta >= 0): np.where is several times slower."""
    return np.divide(np.maximum(e, eta >= 0), 1.0 + e, out=out)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class ParamTerms:
    """A parameter set with its predictors, the (3,g,d,n) _logistic of its
    coefs (eta[k,l,i] = y_aug_i . coefs[k,l], exp(-|eta|) and softplus, as
    m_step_beta returns them), and the (n,g) Gaussian log-densities."""

    params: ModelParams
    predictors: np.ndarray
    logphi: np.ndarray

    def __post_init__(self):
        _read_only(self.predictors, self.logphi)


@dataclass(frozen=True)
class ColStats:
    """A column posterior r (m,d), frozen in a copy of its own, with
    x r (n,d) and the column-cluster masses r_.l (d,)."""

    r: np.ndarray
    xr: np.ndarray
    mass: np.ndarray

    @classmethod
    def of(cls, x: BinaryMatrix, r) -> ColStats:
        r = np.array(r, dtype=float)
        return cls(*_read_only(r, _x_product(x.values, right=r), r.sum(axis=0)))


def _row_chunks(n: int, row_size: int):
    """Slices of consecutive rows cutting n rows into chunks of at most
    _CHUNK_WORK // row_size rows (one at least), in order."""
    rows = max(1, _CHUNK_WORK // row_size)
    return [slice(a, min(a + rows, n)) for a in range(0, n, rows)]


def _x_product(xv: np.ndarray, left=None, right=None) -> np.ndarray:
    """left @ xv (k, m) for left (k, n), or xv @ right (n, k) for right
    (m, k), where xv is the uint8 x of a BinaryMatrix; x.T @ F is (F.T @
    xv).T. Each chunk of _row_chunks(n, m * k) is widened to float64 in one
    buffer and multiplied alone, and left @ xv adds the chunks' products in
    chunk order; a matrix of one chunk gives the one-shot product's bits."""
    n, m = xv.shape
    k = right.shape[1] if left is None else left.shape[0]
    chunks = _row_chunks(n, m * k)
    # empty_like keeps a subclass of xv, so its own @ forms each x @ right
    buf = np.empty_like(xv[chunks[0]], dtype=float)
    out = np.empty((n, k)) if left is None else None
    for rows in chunks:
        chunk = buf[:rows.stop - rows.start]
        chunk[...] = xv[rows]
        if left is None:
            out[rows] = chunk @ right
        elif out is None:
            out = left[:, rows] @ chunk
        else:
            out += left[:, rows] @ chunk
    return out


def _softmax_rows(logits: np.ndarray):
    """Row-wise softmax of logits, and sum_i log sum_k exp(logits_ik)."""
    # the row normalizer is scipy.special.logsumexp's, step for step (the
    # row maxima are left out of the sum and added back through log1p),
    # without its per-call overhead, which dominated on small inputs
    top = logits.max(axis=1, keepdims=True)
    at_top = logits == top
    ties = at_top.sum(axis=1, keepdims=True, dtype=float)
    rest = np.exp(np.where(at_top, -np.inf, logits - top)).sum(axis=1, keepdims=True) / ties
    lognorm = np.log1p(rest) + np.log(ties) + top
    probs = np.exp(logits - lognorm)
    # flush vanishing mass to exact zero: a subnormal residue here would
    # make the matching proportion underflow to 0 and 0*log 0 to -inf
    probs[probs < 1e-300] = 0.0
    return probs, float(lognorm.sum())


def row_e_step(cols: ColStats, terms: ParamTerms):
    """Posterior t over row clusters given the column posterior and params,
    and the free energy F at t: returns (t, F). log t_ik is, up to the
    per-row normalizer (log-sum-exp, so nothing underflows),
        a_ik = log pi_k + log phi(y_i; mu_k, Sigma_k)
               + sum_l [ (x r)_il eta_kli - r_.l softplus(eta_kli) ]
    with the covariate density counted once per row, and
    F = sum_i logsumexp_k a_ik + sum_l r_.l log rho_l - sum r log r."""
    eta, _, sp = terms.predictors
    bern = ((eta * cols.xr.T).sum(axis=1) - cols.mass @ sp).T
    with np.errstate(divide="ignore"):
        logpi = np.log(terms.params.row_props)
    t, lognorm = _softmax_rows(logpi[None, :] + terms.logphi + bern)
    return t, lognorm + _col_terms(cols, terms.params)


def _row_sums(t, pred):
    """lin[l, i] = sum_k t_ik eta_kli (d, n) and base[l] = sum_ik t_ik sp_kli (d,)."""
    eta, _, sp = pred
    return (t.T[:, None, :] * eta).sum(axis=0), (sp @ t.T[:, :, None]).sum(axis=0)[:, 0]


def _col_logits(xv: np.ndarray, t, pred, col_props) -> np.ndarray:
    """Unnormalized column log-posteriors, one row per column of the uint8 x xv:
    log rho_l + sum_i x_ij sum_k t_ik eta_kli - sum_ik t_ik softplus(eta_kli)."""
    lin, base = _row_sums(t, pred)
    with np.errstate(divide="ignore"):
        return np.log(col_props)[None, :] + _x_product(xv, left=lin).T - base[None, :]


def col_e_step(x: BinaryMatrix, t, terms: ParamTerms):
    """Posterior r over column clusters given row posteriors t and params,
    and the free energy F at r: returns (r, F). The covariate density
    cancels in the column posterior, so only the Bernoulli terms and
    log rho_l appear in its logits L_jl, and F = sum_j logsumexp_l L_jl +
    sum_k t_.k log pi_k + sum t log phi - sum t log t."""
    t = np.asarray(t, dtype=float)
    logits = _col_logits(x.values, t, terms.predictors, terms.params.col_props)
    r, lognorm = _softmax_rows(logits)
    return r, lognorm + _row_terms(t, terms)


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


def _objective(b, u, w, sp, tm):
    """Block objectives sum_n w * (c * eta - tm * softplus(eta)) of the rows
    b (..., q), as u . b - tm * sum_n w * sp, from u = (w * c) @ y_aug and
    the softplus sp of b's predictors; tm is (...,)."""
    return np.einsum("...q,...q->...", u, b) - tm * np.einsum("...n,...n->...", w, sp)


def _gradient(sig, y_aug, w, c, tm):
    """Gradient of _objective in beta from sig = sigmoid(eta), (..., q), in
    residual form: u - (w * tm * sig) @ y_aug cancels on separated blocks."""
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


def _logistic(beta, y_aug):
    """eta = y_aug @ beta by _predictors, exp(-|eta|) and softplus, stacked."""
    out = np.empty((3,) + beta.shape[:-1] + y_aug.shape[:1])
    _exp_softplus(_predictors(beta, y_aug.T, out=out[0]), out=out[1:])
    return out


def weighted_logistic_objective(beta, y_aug, row_weights, success_counts, trial_mass) -> float:
    """Weighted binomial log-likelihood of one block's logistic problem.

    Row i contributes row_weights_i * (success_counts_i * eta_i -
    trial_mass * softplus(eta_i)), eta_i = y_aug_i . beta. In the block
    problem row_weights are the row posteriors t_ik, success_counts_i is
    the r-weighted count of ones in row i, and trial_mass is r_.l.
    """
    u = (row_weights * success_counts) @ y_aug
    return float(_objective(beta, u, row_weights, _logistic(beta, y_aug)[2], trial_mass))


def weighted_logistic_gradient(beta, y_aug, row_weights, success_counts, trial_mass) -> np.ndarray:
    eta, e, _ = _logistic(beta, y_aug)
    return _gradient(_sigmoid(eta, e), y_aug, row_weights, success_counts, trial_mass)


def weighted_logistic_hessian(beta, y_aug, row_weights, success_counts, trial_mass) -> np.ndarray:
    eta, e, _ = _logistic(beta, y_aug)
    return -_neg_hessian(_sigmoid(eta, e), row_weights, trial_mass, _pair_products(y_aug))


def _newton_directions(neg_h, grad) -> np.ndarray:
    """Newton directions for a (K, q, q) stack: one batched solve, or, if any
    system is singular, the minimum-norm directions of all pseudo-inverses."""
    try:
        return np.linalg.solve(neg_h, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return (np.linalg.pinv(neg_h, hermitian=True) @ grad[:, :, None])[:, :, 0]


def m_step_beta(y: CovariateTable, t, cols: ColStats, coefs, predictors=None):
    """Per-block logistic coefficient updates, warm-started from coefs
    (g, d, p+1) with their predictors, the (3, g, d, n) _logistic of coefs
    (computed here if None, and only read).

    Blocks are independent: block (k,l) maximizes
        sum_i t_ik [ (x r)_il eta_i - r_.l softplus(eta_i) ].
    All K = g*d blocks are solved at once by damped Newton ascent, block
    (k,l) as row k*d + l of the (K, n) weights t_.k and counts (x r)_.l.
    A block stops once its gradient is below _NR_GRAD_TOL times its
    Bernoulli mass (so the iteration count does not grow with n), or where
    it has no finite direction, no room in the box or no ascending step:
    a full step that would take a predictor out of [-_PREDICTOR_BOUND,
    _PREDICTOR_BOUND] is cut to the box's edge, and one that does not
    ascend is halved (at most 60 tries, never below a relative step of
    1e-15) unless its predicted gain step * grad . delta is within
    _ROUND_OFF_ULPS ulps of the objective's terms. A singular system (a
    row cluster that spans too few covariate directions) gets its
    minimum-norm direction. There is no active set: a stopped block stays
    in the stack with a zero step, its system I delta = 0. A column
    cluster with zero mass leaves its coefficients at the warm start (its
    objective is identically zero). Returns (coefs, clamped, predictors):
    the (g,d,p+1) array, a (g,d) mask of binding separation guards, and
    the (3,g,d,n) _logistic of coefs, in an array of its own.
    """
    t = np.asarray(t, dtype=float)
    y_aug, pairs = y.augmented, y._aug_pairs
    g, d, q = np.shape(coefs)
    beta = np.array(coefs, dtype=float).reshape(g * d, q)
    if predictors is None:
        predictors = _logistic(beta, y_aug)
    pred = start = np.reshape(predictors, (3, g * d, -1))
    w, c = np.repeat(t.T, d, axis=0), np.tile(cols.xr.T, (g, 1))
    mass = np.tile(cols.mass, g)
    u = (w * c) @ y_aug
    obj = _objective(beta, u, w, pred[2], mass)
    grad_tol = _NR_GRAD_TOL * (1.0 + mass * w.sum(axis=1))
    done = np.zeros(beta.shape[0], dtype=bool)
    for _ in range(_NR_MAX_ITERS):
        sig = _sigmoid(pred[0], pred[1])
        grad = _gradient(sig, y_aug, w, c, mass[:, None])
        done |= ~(np.max(np.abs(grad), axis=1) >= grad_tol)
        if done.all():
            break
        neg_h = _neg_hessian(sig, w, mass[:, None], pairs)
        neg_h[done], grad[done] = np.eye(beta.shape[1]), 0.0
        delta = _newton_directions(neg_h, grad)
        # a direction that overflowed: a zero step, and the block stops
        done |= ~np.all(np.isfinite(delta), axis=1)
        delta[done] = 0.0
        cand = beta + delta
        cand_pred = _logistic(cand, y_aug)
        step = np.ones(beta.shape[0])
        reach = np.maximum(cand_pred[0].max(axis=1), -cand_pred[0].min(axis=1))
        leave = np.flatnonzero(reach > _PREDICTOR_BOUND)
        if leave.size:
            # largest step that keeps every predictor inside the box (0: none)
            deta = _predictors(delta[leave], y_aug.T)
            caps = np.divide(_PREDICTOR_BOUND - np.sign(deta) * pred[0, leave], np.abs(deta),
                             out=np.full(deta.shape, np.inf), where=deta != 0)
            step[leave] = np.maximum(np.minimum(1.0, caps.min(axis=1)), 0.0)
            done[leave[step[leave] == 0.0]] = True
            cand[leave] = beta[leave] + step[leave, None] * delta[leave]
            cand_pred[:, leave] = _logistic(cand[leave], y_aug)
        cand_obj = _objective(cand, u, w, cand_pred[2], mass)
        up = cand_obj >= obj
        if up.all():
            pred, beta[...], obj[...] = cand_pred, cand, cand_obj
            continue
        failed = np.flatnonzero(~up)
        cand_pred[:, failed] = pred[:, failed]
        pred = cand_pred
        beta[up], obj[up] = cand[up], cand_obj[up]
        # a failed block stops unless a halved step ascends, and is not halved where
        # the predicted gain is below the round-off of u.b - tm * sum w sp
        done[failed] = True
        gain = step[failed] * np.einsum("kq,kq->k", grad[failed], delta[failed])
        size = (np.abs(np.einsum("kq,kq->k", u[failed], beta[failed]))
                + mass[failed] * np.einsum("kn,kn->k", w[failed], pred[2, failed]))
        trying = failed[gain > _ROUND_OFF_ULPS * np.finfo(float).eps * size]
        dmax, bref = np.max(np.abs(delta), axis=1), 1.0 + np.max(np.abs(beta), axis=1)
        for _ in range(59):
            step[trying] *= 0.5
            trying = trying[step[trying] * dmax[trying] >= 1e-15 * bref[trying]]
            if not trying.size:
                break
            cand = beta[trying] + step[trying, None] * delta[trying]
            cand_pred = _logistic(cand, y_aug)
            cand_obj = _objective(cand, u[trying], w[trying], cand_pred[2], mass[trying])
            up = cand_obj >= obj[trying]
            hit = trying[up]
            pred[:, hit], beta[hit], obj[hit] = cand_pred[:, up], cand[up], cand_obj[up]
            done[hit] = False
            trying = trying[~up]

    pred = pred.copy() if pred is start else pred
    clamped = np.abs(pred[0]).max(axis=1) >= _PREDICTOR_BOUND - 1e-6
    return beta.reshape(g, d, q), clamped.reshape(g, d), pred.reshape(3, g, d, -1)


def free_energy(t, cols: ColStats, terms: ParamTerms) -> float:
    """Variational lower bound on the log-likelihood at (t, cols.r, terms.params).

    Sum of the expected complete-data log-likelihood under the
    factorized posterior (mixing proportions, Bernoulli cells, covariate
    density once per row) and the entropies of t and r; 0 log 0 is 0.
    """
    t = np.asarray(t, dtype=float)
    lin, base = _row_sums(t, terms.predictors)
    bern = float(np.einsum("li,il->", lin, cols.xr)) - float(base @ cols.mass)
    return _row_terms(t, terms) + bern + _col_terms(cols, terms.params)


def _xlogy(a, b):
    """a log b for a, b >= 0, as scipy.special.xlogy gives it: 0 where a = 0
    and -inf where a > 0 = b. Adding 1 to b where a = 0 keeps those logs
    finite; np.where would cost several microseconds more a call."""
    return a * np.log(b + (a == 0))


def _row_terms(t, terms: ParamTerms) -> float:
    """The free energy's terms in t alone: t_.k log pi_k + t log phi - t log t."""
    with np.errstate(divide="ignore"):  # a proportion may be 0
        mix = float(_xlogy(t.sum(axis=0), terms.params.row_props).sum())
    return mix + float(np.einsum("ik,ik->", t, terms.logphi)) - float(_xlogy(t, t).sum())


def _col_terms(cols: ColStats, params: ModelParams) -> float:
    """The free energy's terms in r alone: sum_l r_.l log rho_l - sum r log r."""
    with np.errstate(divide="ignore"):  # a proportion may be 0
        mix = float(_xlogy(cols.mass, params.col_props).sum())
    return mix - float(_xlogy(cols.r, cols.r).sum())


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


def _lloyd(feats: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """One k-means++ seeded Lloyd run of at most 10 steps; restarts differ
    by the rng. A step that keeps the labels of the step before, with no
    cluster empty, would leave the centers as they are, so every later step
    would repeat it without drawing from the rng: the run ends there."""
    n = feats.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    centers = _kpp_centers(feats, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(10):
        d2 = ((feats[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        prev, labels = labels, d2.argmin(axis=1)
        if np.array_equal(labels, prev) and np.bincount(labels, minlength=k).all():
            break
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


def _weighted_col_sums(x: BinaryMatrix, weights, aug) -> np.ndarray:
    """x^T (weights (x) aug), (m, k*q), C-ordered: entry [j, k*q + c] is
    sum_i x_ij weights_ik aug_ic."""
    feats = (weights[:, :, None] * aug[:, None, :]).reshape(x.n, -1)
    return _x_product(x.values, left=feats.T).T.copy()


def _restart_starts(x, y, g, d, children):
    """(key, (t, r)) of one restart per SeedSequence child, in order.

    Each restart clusters the rows on (covariates, row means), then the
    columns on per-row-cluster block means together with the
    within-cluster covariance between cells and covariates (the latter
    separates column clusters that differ only through covariate slopes),
    drawing from its own child's rng. The row features are built once,
    and the column features once per distinct row labeling. key holds the
    _partition_key of both labelings: two starts with equal keys differ
    only by cluster names.
    """
    row_feats = _standardize(np.hstack([y.values, x.values.mean(axis=1, keepdims=True)]))
    col_feats = {}
    for child in children:
        rng = np.random.default_rng(child)
        z0 = _lloyd(row_feats, g, rng)
        rows = z0.tobytes()
        if rows not in col_feats:
            onehot = np.eye(g)[z0]
            weights = onehot / np.maximum(onehot.sum(axis=0), 1.0)
            aug = y.augmented.copy()
            aug[:, 1:] -= (weights.T @ y.values)[z0]
            col_feats[rows] = _standardize(_weighted_col_sums(x, weights, aug))
        w0 = _lloyd(col_feats[rows], d, rng)
        key = _partition_key(z0), _partition_key(w0)
        yield key, (_soft_from_hard(z0, g), _soft_from_hard(w0, d))


def _row_m_step(y, t, col_props, coefs, predictors) -> ParamTerms:
    """The row M-step: pi, the means and the covariances in closed form
    from t, beside the kept col_props, coefs and their predictors."""
    means, covs = m_step_gaussian(t, y)
    params = ModelParams._adopt(_proportions(t), col_props, coefs, means, covs)
    return ParamTerms(params, predictors, gaussian_cluster_logpdfs(y, params))


def _col_m_step(y, t, cols: ColStats, terms: ParamTerms) -> ParamTerms:
    """The column M-step: rho from cols and m_step_beta warm-started from
    terms, beside the kept pi, Gaussian parameters, factors and log-densities."""
    kept = terms.params
    coefs, _, pred = m_step_beta(y, t, cols, kept.coefs, terms.predictors)
    params = ModelParams._adopt(kept.row_props, _proportions(cols.r), coefs, kept.means,
                                kept.covs, kept.cov_chols)
    return ParamTerms(params, pred, terms.logphi)


def _single_fit(x, y, g, d, cfg: BemConfig, init) -> FitResult:
    """One block-EM run from the soft assignments init = (t, r)."""
    t, r = init
    cols = ColStats.of(x, r)
    zeros = np.zeros((g, d, y.p + 1))
    terms = _row_m_step(y, t, _proportions(cols.r), zeros, _logistic(zeros, y.augmented))
    terms = _col_m_step(y, t, cols, terms)
    trace = [free_energy(t, cols, terms)]
    converged = False
    for n_iters in range(1, cfg.max_outer_iters + 1):
        t, f = row_e_step(cols, terms)
        trace.append(f)

        terms = _row_m_step(y, t, terms.params.col_props, terms.params.coefs, terms.predictors)
        trace.append(free_energy(t, cols, terms))

        r, f = col_e_step(x, t, terms)
        cols = ColStats.of(x, r)
        trace.append(f)

        terms = _col_m_step(y, t, cols, terms)
        trace.append(free_energy(t, cols, terms))

        tol = cfg.free_energy_rel_tol
        prev, cur = trace[-5], trace[-1]
        if tol > 0 and cur - prev < tol * (abs(prev) + 1e-12):
            converged = True
            break

    return FitResult(
        params=terms.params,
        assignments=SoftAssignments(t, cols.r),
        free_energy_trace=np.array(trace),
        converged=converged,
        n_iters=n_iters,
    )


def _partition_key(labels: np.ndarray) -> bytes:
    """The labels renamed in order of first appearance, as bytes: two
    labelings of the same items have equal keys exactly when they group
    the items alike."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse].tobytes()


def _sharpen(x, y, t, cols, halves):
    """Three rounds of two-block column EM on the columns cols (the rest of
    x weighs 0), row posteriors t fixed, mixing weights uniform (log rho =
    0); purifies a noisy 2-means nucleation so the refit does not wash it
    out. Blind to the names of the halves: renamed halves give the renamed
    result."""
    r = np.zeros((x.m, 2))
    r[cols] = _soft_from_hard(halves, 2)
    beta, pred = np.zeros((t.shape[1], 2, y.p + 1)), None
    for _ in range(3):
        beta, _, pred = m_step_beta(y, t, ColStats.of(x, r), beta, pred)
        r[cols], _ = _softmax_rows(_col_logits(x.values, t, pred, np.ones(2))[cols])
    return r[cols].argmax(axis=1)


def _merge_split_candidates(x, y, result: FitResult, rng: np.random.Generator):
    """Candidate (t0, r0) inits that merge one column cluster into another
    and split a heterogeneous cluster onto the freed index.

    Merge pairs are ranked by the column-score cost of reassigning the
    donor's columns (a cheap reassignment flags a duplicated cluster);
    for each of the _SPLIT_MERGE_MOVES cheapest pairs the two most
    heterogeneous clusters are tried as split targets. A candidate that
    groups the columns as an earlier candidate does, up to cluster names,
    is dropped once its rng draws are taken (so later draws do not move),
    and each distinct partition is refit once. Likewise _sharpen runs once
    per distinct split, a target's columns with its 2-means halves up to
    names, and a repeat takes the stored result renamed. A candidate that
    reproduces result's own partition stays: its refit starts from
    result's row posteriors and may still gain.
    Heterogeneity and the 2-means splits both use per-column
    score statistics of the target block's logistic fit, whitened by
    their Fisher scale: under a correct homogeneous block the whitened
    deviations are unit-scale noise for every block, so the ranking is
    not hijacked by mid-scale blocks' larger binomial variance, and
    clusters differing only through covariate slopes still separate.
    Targets take their rows of one product with x per call, and _sharpen
    on all of x with the other columns weighing 0: no column is copied.
    """
    t = result.assignments.row_probs
    d = result.assignments.col_probs.shape[1]
    if d < 2 or x.m < 4:
        return []
    w = result.assignments.col_probs.argmax(axis=1)
    pred = _logistic(result.params.coefs, y.augmented)
    scores = _col_logits(x.values, t, pred, result.params.col_props)
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
    sums = _weighted_col_sums(x, t, aug)

    def score_feats(cols, target):
        sig = _sigmoid(pred[0, :, target], pred[1, :, target]).T
        fisher = np.sqrt((t * sig * (1.0 - sig)).T @ aug**2 + 1e-12)
        return sums[cols] / fisher.reshape(-1)

    candidates, seen, sharpened = [], set(), {}
    for _, b, a in moves[:_SPLIT_MERGE_MOVES]:
        merged = w.copy()
        merged[merged == b] = a
        ranked = []
        for c in range(d):
            cols = np.nonzero(merged == c)[0]
            if cols.size < 2:
                continue
            sf = score_feats(cols, c)
            dev = sf - sf.mean(axis=0)
            ranked.append((-float((dev**2).mean()), c, cols, sf))
        ranked.sort(key=lambda entry: entry[:2])  # never compares the arrays
        for _, target, cols, sf in ranked[:2]:
            halves = _lloyd(sf, 2, rng)
            if halves.min() == halves.max():
                continue
            split = cols.tobytes(), _partition_key(halves)
            if split not in sharpened:
                sharpened[split] = halves, _sharpen(x, y, t, cols, halves)
            named, out = sharpened[split]
            # _sharpen is blind to the halves' names: name its result as halves
            rename = np.empty(2, dtype=out.dtype)
            rename[named] = halves
            halves = rename[out]
            if halves.min() == halves.max():
                continue
            lab = merged.copy()
            lab[cols[halves == 1]] = b
            # refits are deterministic and, up to round-off, blind to
            # cluster names: a partition already queued this round would
            # only repeat an earlier refit, which ties under _gains
            key = _partition_key(lab)
            if key in seen:
                continue
            seen.add(key)
            candidates.append((t, _soft_from_hard(lab, d)))
    return candidates


def _gains(new: FitResult, old: FitResult | None) -> bool:
    """Whether new beats old by more than round-off: a free-energy gain
    within the trace slack is a tie, and ties keep the earlier result."""
    if old is None:
        return True
    ref = old.final_free_energy
    return new.final_free_energy - ref > _TRACE_SLACK * abs(ref)


def _check_cluster_counts(n: int, m: int, g: int, d: int) -> None:
    if not (1 <= g <= n) or not (1 <= d <= m):
        raise ParamValidationError(
            f"need 1 <= g <= n and 1 <= d <= m, got g={g}, d={d}, n={n}, m={m}"
        )


def fit(x: BinaryMatrix, y: CovariateTable, g: int, d: int, cfg: BemConfig | None = None) -> FitResult:
    """Best-of-restarts block-EM fit with g row and d column clusters.

    Every start runs through one loop under one rule: a fit replaces the
    one kept only if its free energy is higher by more than the trace
    slack (1e-9 relative), so round-off ties never decide, and a start
    that collapses a cluster is skipped. Round 0 draws cfg.n_restarts
    initializations (sub-seeded from cfg.seed) and, with none kept, fits
    each distinct one: a restart whose starting row and column partitions
    match, up to cluster names, those of an earlier restart that returned
    a fit is not fitted again. Round 0 raises AllRestartsFailed if every
    restart collapses. Each of up to cfg.split_merge_rounds more rounds
    refits the merge-and-split candidates of the fit kept; a round in
    which no refit beats it ends the fit.
    """
    if cfg is None:
        cfg = BemConfig()
    if x.n != y.n:
        raise DimensionMismatch(f"x has {x.n} rows but y has {y.n}")
    _check_cluster_counts(x.n, x.m, g, d)
    best = last_error = None
    seq = np.random.SeedSequence(cfg.seed)
    starts = _restart_starts(x, y, g, d, seq.spawn(cfg.n_restarts))
    completed = set()  # keys of the restarts that returned a fit
    for refine in range(cfg.split_merge_rounds + 1):
        if refine:
            rng = np.random.default_rng(seq.spawn(1)[0])
            # refits carry no key: _merge_split_candidates drops repeats
            starts = ((None, init) for init in _merge_split_candidates(x, y, best, rng))
        kept = best
        for key, init in starts:
            # a start that only renames one that returned a fit would
            # return that fit renamed, which ties under _gains; a repeat of
            # a start that failed runs, so last_error stays as it was
            if key in completed:
                continue
            try:
                result = _single_fit(x, y, g, d, cfg, init)
            except (EmptyCluster, NotPositiveDefinite) as exc:
                last_error = exc
                continue
            if key is not None:
                completed.add(key)
            if _gains(result, best):
                best = result
        if best is None:
            raise AllRestartsFailed(
                f"all {cfg.n_restarts} restarts failed; last failure: {last_error}"
            )
        if best is kept:
            break
    return best
