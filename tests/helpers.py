"""Shared test utilities: 50-digit reference implementations and small
random-instance factories.

The mpmath functions below recompute the posteriors and the exact
log-likelihood directly from the model definition in the linear domain,
term by term, with no log-sum-exp tricks. They are deliberately naive;
the point is that they share no code path with the package.

newton_block is a per-block damped Newton solver, one block at a time
in plain numpy: the reference the stacked solver in
coblock.bem.m_step_beta is checked against block by block. Its
objective and derivatives come from the public weighted_logistic_*
functions, which run the same kernels as the stack on one block; the
kernels themselves are checked against finite differences (acceptance
criterion 3), so newton_block checks the stack's loop, box and step
rules rather than its arithmetic.

read_x_reference reads an x.csv one token at a time with float(),
under the loader's error rules: the reference coblock.dataio's byte
decoder and numpy parse are checked against.

Second implementations that production is compared against, kept here
because the package does not call them:
  - bernoulli_link_logpdf, the log-probability of one cell;
  - influence_score, the influence I(j) of one column, the reference
    for coblock.influence.influence_report's vectorized scores;
  - log_posterior_y_rowform and its row_part, the fixed-label joint
    log-likelihood grouped by rows, which must equal row_part plus the
    sum of all influence scores.
The exhaustive-enumeration oracles (exact log-likelihood and posterior
mode) live in oracle.py.
"""

from __future__ import annotations

import itertools

import mpmath as mp
import numpy as np
from scipy.special import xlogy

from coblock import bem
from coblock.bem import (
    weighted_logistic_gradient,
    weighted_logistic_hessian,
    weighted_logistic_objective,
)
from coblock.errors import NonBinaryValue, ParseError
from coblock.model import (
    BinaryMatrix,
    CovariateTable,
    HardLabels,
    ModelParams,
    gaussian_cluster_logpdfs,
)

mp.mp.dps = 50


def mp_gauss_logpdf(yrow, mean, cov):
    p = len(yrow)
    if p == 0:
        return mp.mpf(0)
    a = mp.matrix([[mp.mpf(float(cov[i][j])) for j in range(p)] for i in range(p)])
    diff = mp.matrix([mp.mpf(float(yrow[i]) - float(mean[i])) for i in range(p)])
    sol = mp.lu_solve(a, diff)
    quad = sum(diff[i] * sol[i] for i in range(p))
    return -mp.mpf(p) / 2 * mp.log(2 * mp.pi) - mp.log(mp.det(a)) / 2 - quad / 2


def mp_cell_loglik(x_ij, eta):
    eta = mp.mpf(float(eta))
    return mp.mpf(float(x_ij)) * eta - mp.log(1 + mp.exp(eta))


def _predictors(y: CovariateTable, params: ModelParams):
    """eta[i][k][l] as exact mpf scalars."""
    aug = y.augmented
    n = aug.shape[0]
    g, d = params.g, params.d
    return [
        [
            [
                sum(mp.mpf(float(aug[i, a])) * mp.mpf(float(params.coefs[k, l, a]))
                    for a in range(aug.shape[1]))
                for l in range(d)
            ]
            for k in range(g)
        ]
        for i in range(n)
    ]


def mp_row_posteriors(x: BinaryMatrix, y: CovariateTable, r, params: ModelParams) -> np.ndarray:
    """Row posteriors evaluated directly from the defining product."""
    eta = _predictors(y, params)
    r = np.asarray(r, dtype=float)
    out = np.empty((x.n, params.g))
    for i in range(x.n):
        logs = []
        for k in range(params.g):
            acc = mp.log(mp.mpf(float(params.row_props[k])))
            acc += mp_gauss_logpdf(y.values[i], params.means[k], params.covs[k])
            for j in range(x.m):
                for l in range(params.d):
                    acc += mp.mpf(float(r[j, l])) * mp_cell_loglik(x.values[i, j], eta[i][k][l])
            logs.append(acc)
        total = sum(mp.exp(v) for v in logs)
        for k in range(params.g):
            out[i, k] = float(mp.exp(logs[k]) / total)
    return out


def mp_col_posteriors(x: BinaryMatrix, y: CovariateTable, t, params: ModelParams) -> np.ndarray:
    eta = _predictors(y, params)
    t = np.asarray(t, dtype=float)
    out = np.empty((x.m, params.d))
    for j in range(x.m):
        logs = []
        for l in range(params.d):
            acc = mp.log(mp.mpf(float(params.col_props[l])))
            for i in range(x.n):
                for k in range(params.g):
                    acc += mp.mpf(float(t[i, k])) * mp_cell_loglik(x.values[i, j], eta[i][k][l])
            logs.append(acc)
        total = sum(mp.exp(v) for v in logs)
        for l in range(params.d):
            out[j, l] = float(mp.exp(logs[l]) / total)
    return out


def mp_exact_loglik(x: BinaryMatrix, y: CovariateTable, params: ModelParams) -> float:
    """log-likelihood by exhaustive enumeration of every (z, w) labeling."""
    eta = _predictors(y, params)
    gauss = [
        [mp_gauss_logpdf(y.values[i], params.means[k], params.covs[k])
         for k in range(params.g)]
        for i in range(x.n)
    ]
    total = mp.mpf(0)
    for z in itertools.product(range(params.g), repeat=x.n):
        for w in itertools.product(range(params.d), repeat=x.m):
            acc = mp.mpf(0)
            for i in range(x.n):
                acc += mp.log(mp.mpf(float(params.row_props[z[i]]))) + gauss[i][z[i]]
            for j in range(x.m):
                acc += mp.log(mp.mpf(float(params.col_props[w[j]])))
            for i in range(x.n):
                for j in range(x.m):
                    acc += mp_cell_loglik(x.values[i, j], eta[i][z[i]][w[j]])
            total += mp.exp(acc)
    return float(mp.log(total))


def bernoulli_link_logpdf(x, y_aug: np.ndarray, coef: np.ndarray) -> float:
    """Log-probability of a binary cell under the logistic link.

    Computes x * eta - log(1 + exp(eta)) with eta = y_aug . coef, using
    logaddexp so large |eta| cannot overflow.
    """
    eta = float(np.dot(y_aug, coef))
    return float(x * eta - np.logaddexp(0.0, eta))


def influence_score(
    j: int, x: BinaryMatrix, y: CovariateTable, labels: HardLabels, params: ModelParams
) -> float:
    """I(j) for the 1-based column index j under fixed labels."""
    z0 = labels.row_labels - 1
    wj = int(labels.col_labels[j - 1] - 1)
    eta = np.einsum("iq,iq->i", y.augmented, params.coefs[z0, wj])
    xcol = x.values[:, j - 1]
    with np.errstate(divide="ignore"):
        logrho = np.log(params.col_props[wj])
    return float(logrho + np.sum(xcol * eta - np.logaddexp(0.0, eta)))


def row_part(y: CovariateTable, params: ModelParams, z0: np.ndarray) -> float:
    """sum_i [ log pi_{z_i} + log phi(y_i; cluster z_i) ], density once per row."""
    with np.errstate(divide="ignore"):
        logpi = np.log(params.row_props)
    rows = np.arange(y.n)
    return float(logpi[z0].sum() + gaussian_cluster_logpdfs(y, params)[rows, z0].sum())


def log_posterior_y_rowform(
    y: CovariateTable, x: BinaryMatrix, labels: HardLabels, params: ModelParams
) -> float:
    """Fixed-label joint log-likelihood grouped by rows.

    Uses per-cluster column counts: with m_l the number of columns in
    column cluster l and m_il the count of ones row i has among them,

        sum_i sum_l [ m_il eta_il - m_l softplus(eta_il) ]
        + sum_l m_l log rho_l + sum_i [ log pi_{z_i} + log phi(y_i) ].

    The covariate density enters once per row.
    """
    z0 = labels.row_labels - 1
    w0 = labels.col_labels - 1
    eta = np.einsum("iq,ilq->il", y.augmented, params.coefs[z0])

    onehot = np.zeros((x.m, params.d))
    onehot[np.arange(x.m), w0] = 1.0
    m_l = onehot.sum(axis=0)
    m_il = x.values @ onehot
    bern = float(np.sum(m_il * eta) - m_l @ np.logaddexp(0.0, eta).sum(axis=0))

    rho_part = float(xlogy(m_l, params.col_props).sum())
    return bern + rho_part + row_part(y, params, z0)


def rand_params(rng: np.random.Generator, g: int, d: int, p: int,
                coef_scale: float = 1.0) -> ModelParams:
    row_props = rng.dirichlet(np.full(g, 4.0))
    col_props = rng.dirichlet(np.full(d, 4.0))
    coefs = rng.normal(scale=coef_scale, size=(g, d, p + 1))
    means = rng.normal(scale=1.5, size=(g, p))
    covs = np.empty((g, p, p))
    for k in range(g):
        a = rng.normal(size=(p, p))
        covs[k] = a @ a.T + 0.5 * np.eye(p)
    return ModelParams(row_props=row_props, col_props=col_props, coefs=coefs,
                       means=means, covs=covs)


def rand_instance(rng: np.random.Generator, n: int, m: int, p: int):
    x = BinaryMatrix((rng.random((n, m)) < rng.random()).astype(float))
    y = CovariateTable(rng.normal(size=(n, p)))
    return x, y


def rand_soft(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return rng.dirichlet(np.full(k, 1.0), size=n)


def hard_soft(labels, k: int) -> np.ndarray:
    """One-hot rows from 0-based integer labels."""
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((labels.size, k))
    out[np.arange(labels.size), labels] = 1.0
    return out


def newton_block(y_aug, row_weights, success_counts, trial_mass, beta_init):
    """Damped Newton ascent of one block's objective inside the predictor box.

    Steps are scaled so every linear predictor stays in
    [-_PREDICTOR_BOUND, _PREDICTOR_BOUND], then halved until the
    objective does not decrease. A singular Hessian is retried with
    ridge boosts. The gradient stop is relative to the block's Bernoulli
    mass so the iteration count does not grow with the data size. The
    constants are read from coblock.bem at call time, so a test that
    patches one there changes both solvers. Returns (beta, clamped)
    where clamped records a binding box.
    """
    beta = np.array(beta_init, dtype=float)
    q = beta.size
    obj = weighted_logistic_objective(beta, y_aug, row_weights, success_counts, trial_mass)
    bound = bem._PREDICTOR_BOUND
    eye = np.eye(q)
    grad_scale = 1.0 + trial_mass * float(np.sum(row_weights))

    for _ in range(bem._NR_MAX_ITERS):
        grad = weighted_logistic_gradient(beta, y_aug, row_weights, success_counts, trial_mass)
        if np.max(np.abs(grad)) < bem._NR_GRAD_TOL * grad_scale:
            break
        hess = weighted_logistic_hessian(beta, y_aug, row_weights, success_counts, trial_mass)
        neg_h = -hess
        delta = None
        boost = 0.0
        for _ in range(8):
            try:
                cand = np.linalg.solve(neg_h + boost * eye, grad)
            except np.linalg.LinAlgError:
                cand = None
            if cand is not None and np.all(np.isfinite(cand)):
                delta = cand
                break
            boost = max(bem._RIDGE, 1e-12) if boost == 0.0 else boost * 1e3
        if delta is None:
            break

        eta = y_aug @ beta
        deta = y_aug @ delta
        with np.errstate(divide="ignore", invalid="ignore"):
            caps = np.where(
                deta > 0,
                (bound - eta) / deta,
                np.where(deta < 0, (-bound - eta) / deta, np.inf),
            )
        s = min(1.0, float(caps.min())) if caps.size else 1.0
        if s <= 0.0:
            break
        accepted = False
        dmax = float(np.max(np.abs(delta)))
        bref = 1.0 + float(np.max(np.abs(beta)))
        for _ in range(60):
            cand_beta = beta + s * delta
            cand_obj = weighted_logistic_objective(
                cand_beta, y_aug, row_weights, success_counts, trial_mass
            )
            if cand_obj >= obj:
                beta, obj = cand_beta, cand_obj
                accepted = True
                break
            s *= 0.5
            if s * dmax < 1e-15 * bref:
                break
        if not accepted:
            break

    eta = y_aug @ beta
    clamped = bool(eta.size and np.max(np.abs(eta)) >= bound - 1e-6)
    return beta, clamped


def read_x_reference(path) -> np.ndarray:
    """x.csv as load_dataset reads it, one float() per token.

    Rules, in order: the file must be UTF-8 (read in text mode, so CRLF
    and a lone CR end a line); blank lines are skipped and at least one
    line must remain; every line has the field count of the first; then,
    in reading order, each stripped token must parse and be 0 or 1.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"x file {path} is not UTF-8 text: {exc}") from exc
    rows = [(n, line) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if not rows:
        raise ParseError(f"x file {path} contains no data rows")
    fields = [(n, line.split(",")) for n, line in rows]
    width = len(fields[0][1])
    for lineno, toks in fields:
        if len(toks) != width:
            raise ParseError(
                f"x line {lineno} has {len(toks)} fields, expected {width}", line=lineno
            )
    cells = []
    for lineno, toks in fields:
        for j, tok in enumerate(t.strip() for t in toks):
            where = f"x entry {tok!r} at line {lineno}, column {j + 1}"
            try:
                val = float(tok)
            except ValueError:
                raise NonBinaryValue(f"{where} is not a number", line=lineno, column=j + 1)
            if val not in (0.0, 1.0):
                raise NonBinaryValue(f"{where} is not 0 or 1", line=lineno, column=j + 1)
            cells.append(val)
    return np.array(cells).reshape(len(fields), width)
