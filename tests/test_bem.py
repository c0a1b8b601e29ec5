"""Block-EM machinery: E-steps against 50-digit references, M-step
closed forms, the free-energy contract, and end-to-end fits."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import coblock as cb
from coblock import bem, model
from coblock.bem import (
    BemConfig,
    ColStats,
    FitResult,
    col_e_step,
    fit,
    free_energy,
    m_step_beta,
    m_step_gaussian,
    map_labels,
    row_e_step,
    weighted_logistic_gradient,
    weighted_logistic_hessian,
    weighted_logistic_objective,
)
from coblock.errors import (
    AllRestartsFailed,
    DimensionMismatch,
    EmptyCluster,
    LengthMismatch,
    ParamValidationError,
)
from coblock.model import BinaryMatrix, CovariateTable, ModelParams, SoftAssignments
from helpers import (
    free_energy_reference,
    hard_soft,
    init_col_features,
    lloyd_ten_steps,
    mp_col_posteriors,
    mp_exact_loglik,
    mp_row_posteriors,
    newton_block,
    param_terms,
    rand_instance,
    rand_params,
    rand_soft,
)
from oracle import exact_loglik


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = BemConfig()
        assert cfg.max_outer_iters == 200
        assert cfg.init_strategy == "kmeans_like"
        assert cfg.cov_weight == "1"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_outer_iters", 0),
            ("free_energy_rel_tol", -1.0),
            ("n_restarts", 0),
            ("init_strategy", "bogus"),
            ("cov_weight", "2"),
            ("cov_weight", "m"),
            ("split_merge_rounds", -1),
            ("seed", -1),
            ("free_energy_rel_tol", float("nan")),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError):
            BemConfig(**{field: value})


class TestEStepsAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_e_step(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_instance(rng, 2, 2, 1)
        params = rand_params(rng, 2, 2, 1)
        r = hard_soft(rng.integers(0, 2, size=2), 2)
        got, _ = row_e_step(ColStats.of(x, r), param_terms(y, params))
        want = mp_row_posteriors(x, y, r, params)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_col_e_step(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_instance(rng, 2, 2, 1)
        params = rand_params(rng, 2, 2, 1)
        t = rand_soft(rng, 2, 2)
        got, _ = col_e_step(x, t, param_terms(y, params))
        want = mp_col_posteriors(x, y, t, params)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_row_e_step_soft_r_reference(self):
        rng = np.random.default_rng(6)
        x, y = rand_instance(rng, 3, 3, 1)
        params = rand_params(rng, 2, 2, 1)
        r = rand_soft(rng, 3, 2)
        got, _ = row_e_step(ColStats.of(x, r), param_terms(y, params))
        want = mp_row_posteriors(x, y, r, params)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestEStepFreeEnergy:
    """Each E-step returns the free energy at its new posterior, from its
    softmax normalizers; it must be the value free_energy gives there."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_free_energy(self, seed):
        rng = np.random.default_rng(700 + seed)
        n, m = int(rng.integers(2, 30)), int(rng.integers(2, 15))
        g, d, p = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(0, 3))
        x, y = rand_instance(rng, n, m, p)
        terms = param_terms(y, rand_params(rng, g, d, p, coef_scale=3.0))
        cols = ColStats.of(x, rand_soft(rng, m, d))
        t, f_row = row_e_step(cols, terms)
        want = free_energy(t, cols, terms)
        assert abs(f_row - want) <= 1e-12 * max(abs(want), 1.0)
        t = rand_soft(rng, n, g)
        r, f_col = col_e_step(x, t, terms)
        want = free_energy(t, ColStats.of(x, r), terms)
        assert abs(f_col - want) <= 1e-12 * max(abs(want), 1.0)


class TestFreeEnergyZeros:
    """free_energy's x log y terms take 0 log y = 0, as scipy's xlogy does:
    exact zeros in t and r (as _softmax_rows flushes them), a column
    cluster that holds no column and a proportion of 0 give the
    reference's value, and mass on a proportion of 0 gives -inf."""

    @staticmethod
    def instance():
        rng = np.random.default_rng(91)
        n, m, g, d, p = 14, 9, 3, 3, 2
        x, y = rand_instance(rng, n, m, p)
        params = rand_params(rng, g, d, p, coef_scale=2.0)
        t, _ = bem._softmax_rows(rng.normal(scale=300.0, size=(n, g)))
        t[:3] = rand_soft(rng, 3, g)
        t[3] = hard_soft([1], g)[0]
        r = rand_soft(rng, m, d)
        r[:, 2] = 0.0
        r[:4] = hard_soft([0, 1, 0, 1], d)
        r /= r.sum(axis=1, keepdims=True)
        assert np.any(t == 0.0) and np.all(r[:, 2] == 0.0)
        return x, y, t, r, params

    @staticmethod
    def with_props(params, row_props, col_props):
        return ModelParams(row_props, col_props, params.coefs, params.means, params.covs)

    def test_matches_the_xlogy_reference(self):
        x, y, t, r, params = self.instance()
        for col_props in (params.col_props, np.array([0.5, 0.5, 0.0])):
            params = self.with_props(params, params.row_props, col_props)
            got = free_energy(t, ColStats.of(x, r), param_terms(y, params))
            want = free_energy_reference(x, y, t, r, params)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_mass_on_a_zero_proportion_is_minus_infinity(self):
        x, y, t, r, params = self.instance()
        params = self.with_props(params, np.array([0.5, 0.5, 0.0]), params.col_props)
        assert t[:, 2].sum() > 0
        assert free_energy(t, ColStats.of(x, r), param_terms(y, params)) == -np.inf
        assert free_energy_reference(x, y, t, r, params) == -np.inf


class TestLogisticKernels:
    """One exponential per predictor: e = exp(-|eta|) gives the softplus
    and the sigmoid of the fit. Both are within 2 ulp of 50-digit values,
    and match numpy's logaddexp(0, eta) and scipy's expit."""

    grid = np.concatenate([np.linspace(-745.0, 745.0, 100_001),
                           [0.0, -0.0, 30.0, -30.0, 1e-300, -1e-300]])

    def test_against_fifty_digit_values(self):
        import mpmath as mp

        u = np.concatenate([self.grid[::50], self.grid[-6:]])
        e, sp = bem._exp_softplus(u)
        sig = bem._sigmoid(u, e)
        with mp.workdps(50):
            want_sp = np.array([float(mp.log1p(mp.exp(mp.mpf(v)))) for v in u])
            want_sig = np.array([float(1 / (1 + mp.exp(-mp.mpf(v)))) for v in u])
        assert np.all(np.abs(sp - want_sp) <= 2 * np.spacing(want_sp))
        assert np.all(np.abs(sig - want_sig) <= 2 * np.spacing(want_sig))

    def test_against_numpy_and_scipy(self):
        from scipy.special import expit

        e, sp = bem._exp_softplus(self.grid)
        want = np.logaddexp(0.0, self.grid)
        assert np.all(np.abs(sp - want) <= 2 * np.spacing(want))
        sig, want = bem._sigmoid(self.grid, e), expit(self.grid)
        # expit is itself 2 ulp off near eta = -37, where the sigmoid is
        # e^eta, and it underflows to 0 below -709, where e/(1+e) keeps the
        # subnormal value: 3 ulp, or within the smallest normal number of 0
        tol = 3 * np.spacing(want) + np.finfo(float).tiny
        assert np.all(np.abs(sig - want) <= tol)
        assert bem._sigmoid(np.zeros(1), np.ones(1))[0] == 0.5

    def test_sigmoid_symmetry(self):
        e, _ = bem._exp_softplus(self.grid)
        flip, _ = bem._exp_softplus(-self.grid)
        total = bem._sigmoid(self.grid, e) + bem._sigmoid(-self.grid, flip)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_predictors_do_not_depend_on_the_blocks_computed_together(self):
        # a BLAS product's last bits change with the number of rows it
        # computes at once; the elementwise sum gives each row its bits
        rng = np.random.default_rng(71)
        cols = rng.normal(size=(3, 300))
        coefs = rng.normal(size=(24, 3))
        whole = bem._predictors(coefs, cols)
        for rows in (slice(0, 12), [3, 17, 5], slice(23, 24)):
            np.testing.assert_array_equal(bem._predictors(coefs[rows], cols), whole[rows])


class TestEStepStructure:
    def test_single_row_cluster_is_certain(self):
        rng = np.random.default_rng(0)
        x, y = rand_instance(rng, 6, 5, 1)
        params = rand_params(rng, 1, 2, 1)
        t, _ = row_e_step(ColStats.of(x, rand_soft(rng, 5, 2)), param_terms(y, params))
        np.testing.assert_array_equal(t, np.ones((6, 1)))

    def test_identical_clusters_are_indifferent(self):
        rng = np.random.default_rng(1)
        x, y = rand_instance(rng, 6, 5, 1)
        base = rand_params(rng, 1, 2, 1)
        params = ModelParams(
            row_props=np.array([0.5, 0.5]),
            col_props=base.col_props,
            coefs=np.tile(base.coefs, (2, 1, 1)),
            means=np.tile(base.means, (2, 1)),
            covs=np.tile(base.covs, (2, 1, 1)),
        )
        t, _ = row_e_step(ColStats.of(x, rand_soft(rng, 5, 2)), param_terms(y, params))
        np.testing.assert_allclose(t, 0.5, atol=1e-12)

    def test_single_column_cluster_is_certain(self):
        rng = np.random.default_rng(2)
        x, y = rand_instance(rng, 6, 5, 1)
        params = rand_params(rng, 2, 1, 1)
        r, _ = col_e_step(x, rand_soft(rng, 6, 2), param_terms(y, params))
        np.testing.assert_array_equal(r, np.ones((5, 1)))

    def test_identical_column_clusters_are_indifferent(self):
        rng = np.random.default_rng(3)
        x, y = rand_instance(rng, 6, 5, 1)
        base = rand_params(rng, 2, 1, 1)
        params = ModelParams(
            row_props=base.row_props,
            col_props=np.array([0.5, 0.5]),
            coefs=np.tile(base.coefs, (1, 2, 1)),
            means=base.means,
            covs=base.covs,
        )
        r, _ = col_e_step(x, rand_soft(rng, 6, 2), param_terms(y, params))
        np.testing.assert_allclose(r, 0.5, atol=1e-12)

    def test_pure_function_is_idempotent(self):
        rng = np.random.default_rng(4)
        x, y = rand_instance(rng, 8, 6, 1)
        params = rand_params(rng, 2, 2, 1)
        r = rand_soft(rng, 6, 2)
        t1, _ = row_e_step(ColStats.of(x, r), param_terms(y, params))
        t2, _ = row_e_step(ColStats.of(x, r), param_terms(y, params))
        np.testing.assert_allclose(t1, t2, atol=1e-12)


class TestMSteps:
    def test_proportions_hard(self):
        t = hard_soft([0, 0, 0], 2)
        pi = bem._proportions(t)
        np.testing.assert_allclose(pi, [1.0, 0.0])

    def test_proportions_uniform(self):
        t = np.full((4, 2), 0.5)
        pi = bem._proportions(t)
        np.testing.assert_allclose(pi, [0.5, 0.5])

    def test_proportions_fractional_mass(self):
        t = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.2, 0.8]])
        pi = bem._proportions(t)
        np.testing.assert_allclose(pi, [0.8, 0.2])
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_two_point_cluster(self):
        y = CovariateTable([[0.0], [2.0]])
        mu, cov = m_step_gaussian(np.ones((2, 1)), y)
        assert mu[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert cov[0, 0, 0] == pytest.approx(1.0 + 1e-8, abs=1e-14)

    def test_gaussian_point_mass(self):
        y = CovariateTable([[3.0, -1.0], [99.0, 99.0]])
        t = np.array([[1.0], [0.0]])
        mu, cov = m_step_gaussian(t, y)
        np.testing.assert_allclose(mu[0], [3.0, -1.0])
        np.testing.assert_allclose(cov[0], 1e-8 * np.eye(2), atol=1e-20)

    def test_gaussian_symmetric_pair(self):
        a = 1.7
        y = CovariateTable([[a], [-a]])
        mu, cov = m_step_gaussian(np.full((2, 1), 1.0) * 0.5, y)
        assert mu[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert cov[0, 0, 0] == pytest.approx(a * a + 1e-8, abs=1e-12)

    def test_gaussian_empty_cluster(self):
        y = CovariateTable([[0.0], [1.0]])
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(EmptyCluster):
            m_step_gaussian(t, y)

    def test_beta_matches_weighted_logit(self):
        # block cell mean 0.25 with uniform weights: intercept log(1/3)
        x = BinaryMatrix(np.array([[1.0, 0.0, 0.0, 0.0]] * 6))
        y = CovariateTable(np.empty((6, 0)))
        beta, clamped, _ = m_step_beta(
            y, np.ones((6, 1)), ColStats.of(x, np.ones((4, 1))), np.zeros((1, 1, 1))
        )
        assert beta[0, 0, 0] == pytest.approx(np.log(0.25 / 0.75), abs=1e-6)
        assert not clamped.any()

    def test_beta_separation_guard(self, monkeypatch):
        x = BinaryMatrix(np.ones((5, 4)))
        y = CovariateTable(np.empty((5, 0)))
        monkeypatch.setattr(bem, "_NR_MAX_ITERS", 100)
        monkeypatch.setattr(bem, "_NR_GRAD_TOL", 1e-16)
        beta, clamped, _ = m_step_beta(
            y, np.ones((5, 1)), ColStats.of(x, np.ones((4, 1))), np.zeros((1, 1, 1))
        )
        assert beta[0, 0, 0] == pytest.approx(bem._PREDICTOR_BOUND)
        assert clamped[0, 0]

    def test_beta_ascends_and_flattens(self):
        # a balanced matrix keeps every block maximum interior, away
        # from the separation bound
        rng = np.random.default_rng(7)
        x = BinaryMatrix((rng.random((6, 4)) < 0.5).astype(float))
        y = CovariateTable(rng.normal(size=(6, 1)))
        t = rand_soft(rng, 6, 2)
        r = rand_soft(rng, 4, 2)
        beta0 = rng.normal(size=(2, 2, 2))
        beta, clamped, _ = m_step_beta(y, t, ColStats.of(x, r), beta0)
        assert not clamped.any()
        xr = x.values @ r
        rmass = r.sum(axis=0)
        for k in range(2):
            for l in range(2):
                args = (y.augmented, t[:, k], xr[:, l], rmass[l])
                before = weighted_logistic_objective(beta0[k, l], *args)
                after = weighted_logistic_objective(beta[k, l], *args)
                assert after >= before - 1e-12
                grad = weighted_logistic_gradient(beta[k, l], *args)
                scale = 1.0 + rmass[l] * t[:, k].sum()
                assert np.max(np.abs(grad)) < bem._NR_GRAD_TOL * scale


class TestGradientAndHessian:
    @pytest.mark.parametrize("seed", range(5))
    def test_against_central_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 7
        y_aug = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 1))])
        w = rng.random(n) + 0.1
        mass = rng.random() * 4 + 0.5
        counts = rng.random(n) * mass
        beta = rng.normal(size=2)
        h = 1e-6

        grad = weighted_logistic_gradient(beta, y_aug, w, counts, mass)
        hess = weighted_logistic_hessian(beta, y_aug, w, counts, mass)
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (
                weighted_logistic_objective(beta + e, y_aug, w, counts, mass)
                - weighted_logistic_objective(beta - e, y_aug, w, counts, mass)
            ) / (2 * h)
            assert fd == pytest.approx(grad[a], rel=1e-5, abs=1e-8)
            fd_row = (
                weighted_logistic_gradient(beta + e, y_aug, w, counts, mass)
                - weighted_logistic_gradient(beta - e, y_aug, w, counts, mass)
            ) / (2 * h)
            np.testing.assert_allclose(fd_row, hess[a], rtol=1e-4, atol=1e-7)


class TestStackedNewton:
    """m_step_beta solves all g*d blocks as one stack; each block must end
    where the per-block reference helpers.newton_block ends.

    Coefficients agree to 1e-6 relative (1e-9 absolute, for coefficients
    that are round-off around 0), clamped flags are equal, and objectives
    agree to 1e-12 relative to max(|F|, 1), as separated blocks have F
    near 0. Stacks with a constant covariate are left out: that problem
    is not identifiable, and both solvers drift along the flat ridge of
    optima to different points.
    """

    @staticmethod
    def _assert_matches_reference(x, y, t, r, beta0):
        got, clamped, _ = m_step_beta(y, t, ColStats.of(x, r), beta0)
        xr = x.values @ r
        rmass = r.sum(axis=0)
        for k in range(t.shape[1]):
            for l in range(r.shape[1]):
                args = (y.augmented, t[:, k], xr[:, l], rmass[l])
                ref, ref_clamped = newton_block(*args, beta0[k, l])
                assert clamped[k, l] == ref_clamped, (k, l)
                np.testing.assert_allclose(got[k, l], ref, rtol=1e-6, atol=1e-9)
                want = weighted_logistic_objective(ref, *args)
                have = weighted_logistic_objective(got[k, l], *args)
                assert abs(have - want) <= 1e-12 * max(abs(want), 1.0), (k, l)
        return got, clamped

    def test_mixed_stack(self, monkeypatch):
        # row clusters 0/1 share rows 0..37 softly; rows 38-39 (covariate
        # exactly 0) are all of row cluster 2, so its Hessians are singular.
        # Column cluster 0 is interior, 1 is all ones on rows 0..37
        # (separated, warm-started high) and 2 has zero mass.
        rng = np.random.default_rng(40)
        n, p = 40, 1
        cov = rng.normal(size=(n, p))
        cov[38:] = 0.0
        y = CovariateTable(cov)
        xv = (rng.random((n, 12)) < 0.4).astype(float)
        xv[:38, 6:] = 1.0
        xv[38:, 6:] = [[1, 0, 1, 0, 0, 1], [0, 1, 1, 0, 1, 0]]
        x = BinaryMatrix(xv)
        t = np.zeros((n, 3))
        t[:38, :2] = rand_soft(rng, 38, 2)
        t[38:, 2] = 1.0
        r = hard_soft([0] * 6 + [1] * 6, 3)
        # a tight gradient stop lets the separated blocks reach the box
        monkeypatch.setattr(bem, "_NR_GRAD_TOL", 1e-16)
        monkeypatch.setattr(bem, "_NR_MAX_ITERS", 60)
        beta0 = rng.normal(size=(3, 3, p + 1))
        beta0[:2, 1, 0] = 20.0
        # block (2, 0) starts at its own optimum
        xr = x.values @ r
        beta0[2, 0], _ = newton_block(
            y.augmented, t[:, 2], xr[:, 0], r[:, 0].sum(), beta0[2, 0]
        )
        hess = weighted_logistic_hessian(
            beta0[2, 1], y.augmented, t[:, 2], xr[:, 1], r[:, 1].sum()
        )
        assert np.linalg.matrix_rank(hess) < p + 1
        got, clamped = self._assert_matches_reference(x, y, t, r, beta0)
        assert clamped.tolist() == [[False, True, False], [False, True, False], [False] * 3]
        np.testing.assert_array_equal(got[:, 2], beta0[:, 2])
        np.testing.assert_array_equal(got[2, 0], beta0[2, 0])
        assert got[2, 1, 0] != beta0[2, 1, 0]

    def test_cached_pair_products_match_fresh_ones(self):
        # the pair products are built once per CovariateTable and read by
        # every stack; a second solve on the same table, and one on a table
        # that builds them fresh, return identical arrays
        rng = np.random.default_rng(41)
        x, y = rand_instance(rng, 30, 10, 2)
        t, cols = rand_soft(rng, 30, 2), ColStats.of(x, rand_soft(rng, 10, 3))
        beta0 = rng.normal(size=(2, 3, 3))
        pairs = y._aug_pairs
        (a, b), prods = pairs
        assert not (a.flags.writeable or b.flags.writeable or prods.flags.writeable)
        np.testing.assert_array_equal(prods, y.augmented[:, a] * y.augmented[:, b])
        first = m_step_beta(y, t, cols, beta0)
        for table in (y, CovariateTable(y.values)):
            for want, got in zip(first, m_step_beta(table, t, cols, beta0)):
                np.testing.assert_array_equal(got, want)
        assert y._aug_pairs is pairs

    def test_read_only_warm_start_is_read_in_place(self):
        # the stack reads the predictors it is handed without copying them
        # and writes its result into an array of its own: a frozen warm
        # start gives the bits of predictors=None and is left as it was
        rng = np.random.default_rng(42)
        x, y = rand_instance(rng, 30, 10, 2)
        t, cols = rand_soft(rng, 30, 2), ColStats.of(x, rand_soft(rng, 10, 3))
        beta0 = rng.normal(size=(2, 3, 3))
        warm = bem._logistic(beta0, y.augmented)
        warm.setflags(write=False)
        before = warm.copy()
        got = m_step_beta(y, t, cols, beta0, warm)
        for want, have in zip(m_step_beta(y, t, cols, beta0), got):
            np.testing.assert_array_equal(have, want)
        np.testing.assert_array_equal(warm, before)
        assert not np.shares_memory(got[2], warm)

    def test_block_at_its_optimum_stops_without_halving(self, monkeypatch):
        # with no gradient stop, a block at its optimum is left with a
        # Newton step whose predicted gain is round-off; when that step
        # does not ascend the block stops at once instead of halving it
        # dozens of times, so each iteration evaluates one candidate
        evals = []
        inner = bem._objective
        monkeypatch.setattr(bem, "_objective", lambda *a: evals.append(1) or inner(*a))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            x = BinaryMatrix((rng.random((200, 10)) < 0.4).astype(float))
            y = CovariateTable(rng.normal(size=(200, 1)))
            t, r = np.ones((200, 1)), np.ones((10, 1))
            xr = x.values @ r
            best, _ = newton_block(y.augmented, t[:, 0], xr[:, 0], 10.0, np.zeros(2))
            monkeypatch.setattr(bem, "_NR_GRAD_TOL", 0.0)
            evals.clear()
            got = m_step_beta(y, t, ColStats.of(x, r), best[None, None])[0]
            monkeypatch.setattr(bem, "_NR_GRAD_TOL", 1e-8)
            # the starting objective, then at most one candidate per iteration
            assert len(evals) <= 1 + bem._NR_MAX_ITERS, seed
            np.testing.assert_allclose(got[0, 0], best, rtol=0, atol=1e-10)

    def test_stopped_blocks_take_a_zero_step(self, monkeypatch):
        # a stopped block stays in the stack: a zero-mass column cluster and
        # a block started at its optimum come back with the bits they were
        # handed while the other blocks step, and no solve sees a singular system
        ranks = []
        inner = bem._newton_directions

        def solve(neg_h, grad):
            ranks.append(np.linalg.matrix_rank(neg_h).tolist())
            return inner(neg_h, grad)

        monkeypatch.setattr(bem, "_newton_directions", solve)
        rng = np.random.default_rng(43)
        x, y = rand_instance(rng, 60, 12, 1)
        t, r = rand_soft(rng, 60, 2), hard_soft([0] * 6 + [1] * 6, 3)
        xr = x.values @ r
        beta0 = rng.normal(size=(2, 3, 2))
        beta0[0, 0], _ = newton_block(y.augmented, t[:, 0], xr[:, 0], 6.0, beta0[0, 0])
        warm = bem._logistic(beta0, y.augmented)
        warm.setflags(write=False)
        got, _, pred = m_step_beta(y, t, ColStats.of(x, r), beta0, warm)
        kept = [(0, 0), (0, 2), (1, 2)]
        for k, l in kept:
            np.testing.assert_array_equal(got[k, l], beta0[k, l])
            np.testing.assert_array_equal(pred[:, k, l], warm[:, k, l])
        assert all(not np.array_equal(got[kl], beta0[kl]) for kl in [(0, 1), (1, 0), (1, 1)])
        assert len(ranks) >= 3
        assert all(rank == 2 for stack in ranks for rank in stack), ranks

    def test_newton_directions(self):
        # a full-rank stack takes one batched solve, bit for bit; a stack with
        # one singular block (its rows all have covariate 2 equal to 0, as in
        # test_mixed_stack) gets finite directions that solve every system,
        # the singular one with no component along its null space
        rng = np.random.default_rng(44)
        n = 40
        cov = rng.normal(size=(n, 2))
        cov[30:, 1] = 0.0
        y = CovariateTable(cov)
        w = rng.random((4, n))
        w[3, :30] = 0.0
        tm = rng.uniform(1.0, 5.0, size=(4, 1))
        c = rng.random((4, n)) * tm
        pred = bem._logistic(rng.normal(size=(4, 3)), y.augmented)
        sig = bem._sigmoid(pred[0], pred[1])
        neg_h = bem._neg_hessian(sig, w, tm, y._aug_pairs)
        grad = bem._gradient(sig, y.augmented, w, c, tm)
        full = bem._newton_directions(neg_h[:3], grad[:3])
        want = np.linalg.solve(neg_h[:3], grad[:3, :, None])[:, :, 0]
        np.testing.assert_array_equal(full, want)

        assert np.linalg.matrix_rank(neg_h[3]) == 2
        delta = bem._newton_directions(neg_h, grad)
        assert np.all(np.isfinite(delta))
        for k in range(4):
            resid = neg_h[k] @ delta[k] - grad[k]
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(grad[k]), k
        null = np.linalg.eigh(neg_h[3])[1][:, 0]
        assert abs(null @ delta[3]) <= 1e-12 * np.linalg.norm(delta[3])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_identifiable_stacks(self, seed, monkeypatch):
        rng = np.random.default_rng(500 + seed)
        n, m = int(rng.integers(8, 50)), int(rng.integers(2, 12))
        p, g, d = int(rng.integers(0, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        xv = (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(float)
        if seed % 4 == 0:
            xv[:, : m // 2] = 1.0
        x = BinaryMatrix(xv)
        y = CovariateTable(rng.normal(scale=rng.choice([0.5, 3.0]), size=(n, p)))
        beta0 = rng.normal(size=(g, d, p + 1))
        monkeypatch.setattr(bem, "_NR_MAX_ITERS", int(rng.choice([5, 25, 60])))
        self._assert_matches_reference(x, y, rand_soft(rng, n, g), rand_soft(rng, m, d), beta0)


class TestFreeEnergy:
    def test_degenerate_family_equals_exact_loglik(self):
        rng = np.random.default_rng(8)
        x, y = rand_instance(rng, 5, 4, 1)
        params = rand_params(rng, 1, 1, 1)
        t, r = np.ones((5, 1)), np.ones((4, 1))
        fe = free_energy(t, ColStats.of(x, r), param_terms(y, params))
        assert fe == pytest.approx(exact_loglik(x, y, params), abs=1e-10)

    def test_uniform_rows_add_coin_entropy(self):
        # identical per-cluster parameters make every non-entropy term
        # agree between the hard and uniform assignments
        rng = np.random.default_rng(9)
        x, y = rand_instance(rng, 5, 4, 1)
        base = rand_params(rng, 1, 1, 1)
        params = ModelParams(
            row_props=np.array([0.5, 0.5]),
            col_props=base.col_props,
            coefs=np.tile(base.coefs, (2, 1, 1)),
            means=np.tile(base.means, (2, 1)),
            covs=np.tile(base.covs, (2, 1, 1)),
        )
        r = np.ones((4, 1))
        cols, terms = ColStats.of(x, r), param_terms(y, params)
        f_hard = free_energy(hard_soft([0] * 5, 2), cols, terms)
        f_unif = free_energy(np.full((5, 2), 0.5), cols, terms)
        assert f_unif - f_hard == pytest.approx(5 * np.log(2.0), abs=1e-9)

    def test_bounded_by_exact_loglik(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x, y = rand_instance(rng, 4, 4, 1)
            params = rand_params(rng, 2, 2, 1)
            t = rand_soft(rng, 4, 2)
            r = rand_soft(rng, 4, 2)
            fe = free_energy(t, ColStats.of(x, r), param_terms(y, params))
            assert fe <= exact_loglik(x, y, params) + 1e-9

    def test_label_switching_invariance(self):
        rng = np.random.default_rng(11)
        x, y = rand_instance(rng, 6, 5, 1)
        params = rand_params(rng, 2, 3, 1)
        t = rand_soft(rng, 6, 2)
        r = rand_soft(rng, 5, 3)
        pg = np.array([1, 0])
        pd = np.array([2, 0, 1])
        swapped = ModelParams(
            row_props=params.row_props[pg],
            col_props=params.col_props[pd],
            coefs=params.coefs[pg][:, pd],
            means=params.means[pg],
            covs=params.covs[pg],
        )
        a = free_energy(t, ColStats.of(x, r), param_terms(y, params))
        b = free_energy(t[:, pg], ColStats.of(x, r[:, pd]), param_terms(y, swapped))
        assert a == pytest.approx(b, abs=1e-10)


class TestColumnStatistics:
    def test_changed_r_is_never_served_stale(self):
        # ColStats holds a frozen copy of r: a later write to the caller's
        # r, writable or seen through a frozen view of writable memory,
        # changes neither that copy nor x @ r
        rng = np.random.default_rng(21)
        x, _ = rand_instance(rng, 30, 12, 1)
        writable = rand_soft(rng, 12, 3)
        base = rand_soft(rng, 12, 3)
        view = base.view()
        view.setflags(write=False)
        for r, mem in ((writable, writable), (view, base)):
            cols = ColStats.of(x, r)
            before = np.array(r)
            mem[:] = rand_soft(rng, 12, 3)
            assert not np.array_equal(r, before)
            fresh = ColStats.of(x, before)
            np.testing.assert_array_equal(cols.r, before)
            for a, b in ((cols.r, fresh.r), (cols.xr, fresh.xr), (cols.mass, fresh.mass)):
                np.testing.assert_array_equal(a, b)
            assert not cols.r.flags.writeable
        assert writable.flags.writeable and base.flags.writeable


class TestXProduct:
    """bem._x_product, one widened row chunk at a time, against the
    one-shot float64 products of x."""

    @pytest.mark.parametrize("fill", ["zeros", "ones", "random"])
    @pytest.mark.parametrize("n, m, k, work", [
        (25, 5, 2, None),       # one chunk
        (25, 5, 2, 64),         # chunks of 6 rows, the last of 1
        (25, 5, 3, 30),         # chunks of 2 rows, the last of 1
        (7, 40, 2, 64),         # 64 < m * k: chunks of one row
        (2000, 1000, 2, None),  # chunks of 131 rows at the default size
    ])
    def test_matches_one_shot(self, monkeypatch, fill, n, m, k, work):
        if work is not None:
            monkeypatch.setattr(bem, "_CHUNK_WORK", work)
        rng = np.random.default_rng(n * m * k)
        cells = {"zeros": np.zeros((n, m)), "ones": np.ones((n, m)),
                 "random": rng.random((n, m)) < 0.4}[fill]
        x = BinaryMatrix(cells)
        xf = x.values.astype(float)
        r, lin = rng.random((m, k)), rng.random((k, n))
        weights, aug = rng.random((n, 2)), np.hstack([np.ones((n, 1)), rng.random((n, k - 1))])
        feats = (weights[:, :, None] * aug[:, None, :]).reshape(n, -1)
        got = (bem._x_product(x.values, right=r), bem._x_product(x.values, left=lin),
               bem._weighted_col_sums(x, weights, aug))
        want = (xf @ r, lin @ xf, xf.T @ feats)
        for a, b, width in zip(got, want, (k, k, 2 * k)):
            assert a.shape == b.shape and a.flags.c_contiguous
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
            if len(bem._row_chunks(n, m * width)) == 1:
                # a matrix of one chunk keeps the one-shot product's bits
                assert a.tobytes() == b.tobytes()


class TestLloyd:
    @given(
        feats=st.integers(1, 30).flatmap(lambda n: hnp.arrays(
            np.float64, (n, 2), elements=st.sampled_from([0.0, 1.0, 2.5]))),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stops_where_ten_steps_would_end(self, feats, k, seed):
        # few distinct points, many duplicates: k-means++ seeds on
        # repeated points and clusters go empty, so the reseeding draws
        # of the full 10 steps must all be taken before any stop
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(bem._lloyd(feats, k, a), lloyd_ten_steps(feats, k, b))
        assert a.bit_generator.state == b.bit_generator.state


class TestMapLabels:
    def test_examples(self):
        soft = SoftAssignments(
            row_probs=np.array([[0.2, 0.8], [0.5, 0.5]]),
            col_probs=np.array([[0.1, 0.7, 0.2]]),
        )
        lab = map_labels(soft)
        assert lab.row_labels.tolist() == [2, 1]  # tie goes to the first cluster
        assert lab.col_labels.tolist() == [2]


class TestFit:
    def test_input_validation(self):
        rng = np.random.default_rng(12)
        x, y = rand_instance(rng, 5, 4, 1)
        with pytest.raises(ParamValidationError):
            fit(x, y, 0, 1, BemConfig())
        with pytest.raises(ParamValidationError):
            fit(x, y, 6, 1, BemConfig())
        with pytest.raises(ParamValidationError):
            fit(x, y, 1, 5, BemConfig())
        with pytest.raises(LengthMismatch):
            fit(x, CovariateTable(np.zeros((3, 1))), 1, 1, BemConfig())
        # the row-count check raises the class load_dataset raises for it
        with pytest.raises(DimensionMismatch, match="5 rows but y has 3"):
            fit(x, CovariateTable(np.zeros((3, 1))), 1, 1, BemConfig())

    def test_all_restarts_failed(self, monkeypatch):
        rng = np.random.default_rng(13)
        x, y = rand_instance(rng, 4, 4, 1)
        monkeypatch.setattr(bem, "_MIN_CLUSTER_MASS", 10.0)
        cfg = BemConfig(n_restarts=3, seed=0)
        with pytest.raises(AllRestartsFailed):
            fit(x, y, 2, 2, cfg)

    def test_trace_shape_and_monotonicity(self):
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        res = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=2, seed=1))
        tr = res.free_energy_trace
        assert len(tr) == 1 + 4 * res.n_iters
        drops = np.diff(tr)
        slack = 1e-9 * np.abs(tr[:-1])
        assert np.all(drops >= -slack)

    def test_zero_tolerance_runs_every_sweep(self):
        # this fit reaches an exact fixed point (a sweep gains 0) after 4
        # sweeps, which ends it at any positive tolerance; 0 runs the cap
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        base = BemConfig(n_restarts=1, seed=1, max_outer_iters=30, split_merge_rounds=0)
        early = fit(sim.x, sim.y, 2, 2, replace(base, free_energy_rel_tol=1e-16))
        assert early.converged and early.n_iters < 30
        pinned = fit(sim.x, sim.y, 2, 2, replace(base, free_energy_rel_tol=0.0))
        assert pinned.n_iters == 30 and not pinned.converged
        assert len(pinned.free_energy_trace) == 1 + 4 * 30

    def test_round_off_ties_keep_the_earlier_result(self, monkeypatch):
        # a later restart or split-merge refit whose free energy is higher
        # by round-off only must not replace the result already kept
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        kept = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=1, split_merge_rounds=0))
        tr = kept.free_energy_trace

        def raised(rel):
            return replace(kept, free_energy_trace=np.append(tr[:-1], tr[-1] + rel * abs(tr[-1])))

        tie, gain = raised(1e-14), raised(1e-6)
        distinct_starts(monkeypatch)
        for later, wins in ((tie, False), (gain, True)):
            results = iter([kept, later])
            monkeypatch.setattr(bem, "_single_fit", lambda *a, **k: next(results))
            got = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=2, split_merge_rounds=0))
            assert got is (later if wins else kept)

        rounds = []
        monkeypatch.setattr(bem, "_merge_split_candidates", lambda *a: rounds.append(1) or ["init"])
        # refits start from the sentinel, restarts from an (t, r) pair
        monkeypatch.setattr(bem, "_single_fit", lambda *a: tie if a[-1] == "init" else kept)
        got = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=1, split_merge_rounds=2))
        assert got is kept and len(rounds) == 1

    def test_one_rule_for_restarts_and_refits(self, monkeypatch):
        # restarts start with nothing kept and refits with the fit kept; in
        # both a fit replaces the one kept only when it beats it by more
        # than the slack, and a start that collapses a cluster is skipped
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        base = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=1, split_merge_rounds=0))

        def at(value):
            return replace(base, free_energy_trace=[value])

        restarts = [at(-100.0), EmptyCluster("collapsed"), at(-90.0)]
        # a tie with the restart's best, a gain, and a fit that beats the
        # restarts' best but not the refit before it
        first_round = [at(-90.0 + 1e-12), at(-80.0), at(-85.0)]
        second_round = [EmptyCluster("collapsed"), at(-80.0 + 1e-12)]
        outcomes = iter(restarts + first_round + second_round)

        def scripted(*args):
            out = next(outcomes)
            if isinstance(out, Exception):
                raise out
            return out

        rounds = []

        def candidates(x, y, result, rng):
            rounds.append(result)
            return ["init"] * (len(first_round) if len(rounds) == 1 else len(second_round))

        monkeypatch.setattr(bem, "_single_fit", scripted)
        monkeypatch.setattr(bem, "_merge_split_candidates", candidates)
        distinct_starts(monkeypatch)
        got = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=3, split_merge_rounds=3))
        assert got is first_round[1]
        # the second round kept its incumbent, so no third round ran
        assert len(rounds) == 2
        assert rounds[0] is restarts[2] and rounds[1] is first_round[1]
        assert next(outcomes, None) is None

    def test_gaussian_terms_once_per_parameter_set(self, monkeypatch):
        # each ModelParams of a sweep is read by the E-steps and the free
        # energy; its Gaussian log-densities are computed once, not per
        # caller, and only for the row M-step's means and covariances
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        calls = []
        inner = bem.gaussian_cluster_logpdfs
        monkeypatch.setattr(
            bem, "gaussian_cluster_logpdfs", lambda y, params: calls.append(1) or inner(y, params)
        )
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, seed=1, free_energy_rel_tol=0.0,
                        max_outer_iters=8)
        res = fit(sim.x, sim.y, 2, 2, cfg)
        assert res.n_iters == 8
        assert len(calls) <= res.n_iters + 1

    def test_terms_come_from_the_accepted_predictors(self, monkeypatch):
        # each ParamTerms a sweep reads holds the very predictors array
        # m_step_beta returned; none is computed again from the coefficients
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        returned, seen = [], []
        inner_beta, inner_fe = bem.m_step_beta, bem.free_energy

        def recording(*args):
            out = inner_beta(*args)
            returned.append(out[2])
            return out

        monkeypatch.setattr(bem, "m_step_beta", recording)
        monkeypatch.setattr(
            bem, "free_energy", lambda t, cols, terms: seen.append(terms) or inner_fe(t, cols, terms)
        )
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, seed=1, free_energy_rel_tol=0.0,
                        max_outer_iters=8)
        res = fit(sim.x, sim.y, 2, 2, cfg)
        assert res.n_iters == 8
        assert len(seen) == 1 + 2 * res.n_iters
        for terms in seen:
            assert any(terms.predictors is pred for pred in returned)

    def test_one_logistic_solve_per_sweep(self, monkeypatch):
        # the row M-step keeps the coefficients, so m_step_beta runs once
        # at the start and once per sweep, in the column M-step
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        calls = []
        inner = bem.m_step_beta
        monkeypatch.setattr(bem, "m_step_beta", lambda *a: calls.append(1) or inner(*a))
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, seed=1, free_energy_rel_tol=0.0,
                        max_outer_iters=8)
        res = fit(sim.x, sim.y, 2, 2, cfg)
        assert res.n_iters == 8
        assert len(calls) == res.n_iters + 1

    def test_one_cholesky_per_gaussian_fit(self, monkeypatch):
        # the column M-step keeps the row M-step's covariances and hands
        # their factors on, so each Gaussian fit is factored once
        truth = cb.separated_params(2, 3, p=2, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        calls = []
        inner = model._cholesky
        monkeypatch.setattr(model, "_cholesky", lambda cov: calls.append(1) or inner(cov))
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, seed=1, free_energy_rel_tol=0.0,
                        max_outer_iters=8)
        res = fit(sim.x, sim.y, 2, 3, cfg)
        assert res.n_iters == 8
        assert len(calls) == res.n_iters + 1

    def test_adopted_params_pass_validation(self, monkeypatch):
        # the fitting loop builds its ModelParams by _adopt, which skips the
        # checks; each one it built must pass them, with the same factors
        truth = cb.separated_params(2, 3, p=2, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        made = []
        inner = ModelParams._adopt
        monkeypatch.setattr(ModelParams, "_adopt",
                            classmethod(lambda cls, *a: made.append(inner(*a)) or made[-1]))
        fit(sim.x, sim.y, 2, 3, BemConfig(n_restarts=2, seed=1))
        assert len(made) > 10
        for adopted in made:
            names = ("row_props", "col_props", "coefs", "means", "covs")
            rebuilt = ModelParams(*(getattr(adopted, name) for name in names))
            for name in names + ("cov_chols",):
                assert not getattr(adopted, name).flags.writeable, name
                np.testing.assert_array_equal(getattr(rebuilt, name), getattr(adopted, name))

    def test_column_m_step_terms_equal_fresh_terms(self, monkeypatch):
        # the column M-step's ParamTerms keeps the row M-step's Gaussian
        # parameters and log-densities, and the row M-step's keeps the
        # coefficients and predictors of the column M-step before it;
        # every ParamTerms a sweep reads must equal one built afresh from
        # its parameters
        truth = cb.separated_params(2, 3, p=2, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        seen = []
        inner = bem.free_energy
        monkeypatch.setattr(
            bem, "free_energy", lambda t, cols, terms: seen.append(terms) or inner(t, cols, terms)
        )
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, free_energy_rel_tol=0.0,
                        max_outer_iters=4)
        _, init = next(bem._restart_starts(sim.x, sim.y, 2, 3, [np.random.SeedSequence(2)]))
        res = bem._single_fit(sim.x, sim.y, 2, 3, cfg, init)
        # the E-steps return their own free energy, so free_energy runs
        # once at the start and after each M-step: call 2k+1 follows a
        # row M-step, 2k+2 a column M-step
        assert len(seen) == 1 + 2 * res.n_iters
        pairs = list(zip(seen[1::2], seen[2::2]))
        assert all(col_m.logphi is row_m.logphi for row_m, col_m in pairs)
        for row_m, col_m in pairs:
            for name in ("row_props", "means", "covs", "cov_chols"):
                assert getattr(col_m.params, name) is getattr(row_m.params, name), name
        for col_m, row_m in zip(seen[0::2], seen[1::2]):
            assert row_m.params.coefs is col_m.params.coefs
            assert row_m.predictors is col_m.predictors
            assert row_m.params.col_props is col_m.params.col_props
        assert any(not np.array_equal(col_m.predictors, row_m.predictors) for row_m, col_m in pairs)
        for terms in seen:
            fresh = param_terms(sim.y, terms.params)
            for name in ("predictors", "logphi"):
                assert np.array_equal(getattr(terms, name), getattr(fresh, name)), name

    def test_free_energy_drop_message_prints_plain_floats(self):
        # the drop of a known failing select, at the values it reported
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=30, m=10, params=truth, seed=4))
        res = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=1, seed=1))
        with pytest.raises(ParamValidationError) as err:
            replace(res, free_energy_trace=[-7478.6677093051685, -7478.671139297537])
        msg = str(err.value)
        assert "np.float64" not in msg
        assert msg.endswith("at step 1: -7478.6677093051685 -> -7478.671139297537")

    def test_x_times_r_once_per_column_posterior(self, monkeypatch):
        # r changes once per sweep, so x @ r is formed once per column
        # posterior, not by each sub-step that reads it
        truth = cb.separated_params(2, 2, p=1, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        calls = []

        class CountingMatrix(np.ndarray):
            def __matmul__(self, other):
                if self.shape == sim.x.values.shape:  # x @ r, not x.T @ (...)
                    calls.append(1)
                return np.asarray(self) @ other

        x = BinaryMatrix(sim.x.values)
        object.__setattr__(x, "values", x.values.view(CountingMatrix))
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, seed=1, free_energy_rel_tol=0.0,
                        max_outer_iters=8)
        res = fit(x, sim.y, 2, 2, cfg)
        assert res.n_iters == 8
        assert 0 < len(calls) <= 2 * res.n_iters + 1

        def collapse(*args):
            raise EmptyCluster("column posterior collapsed")

        monkeypatch.setattr(bem, "col_e_step", collapse)
        with pytest.raises(AllRestartsFailed):
            fit(x, sim.y, 2, 2, cfg)

    def test_deterministic_given_seed(self):
        truth = cb.separated_params(2, 2, p=1, seed=5)
        sim = cb.generate(cb.SimConfig(n=50, m=15, params=truth, seed=6))
        cfg = BemConfig(n_restarts=3, seed=7)
        a = fit(sim.x, sim.y, 2, 2, cfg)
        b = fit(sim.x, sim.y, 2, 2, cfg)
        np.testing.assert_array_equal(a.free_energy_trace, b.free_energy_trace)
        np.testing.assert_array_equal(a.params.coefs, b.params.coefs)

    def test_concurrent_fits_match_sequential_fits(self):
        # a fit shares no state with other fits, so two fits run at the
        # same time in two threads return the bits each returns alone
        sims = [
            cb.generate(cb.SimConfig(n=150, m=30, params=cb.separated_params(2, 3, p=1, seed=s),
                                     seed=s + 1))
            for s in (30, 40)
        ]
        cfg = BemConfig(n_restarts=3, seed=7)
        alone = [fit(sim.x, sim.y, 2, 3, cfg) for sim in sims]
        start = threading.Barrier(2, timeout=60)

        def run(sim):
            start.wait()
            return fit(sim.x, sim.y, 2, 3, cfg)

        # switch threads often, so the two fits interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                together = list(pool.map(run, sims, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(alone, together):
            assert _fit_bytes(a) == _fit_bytes(b)

    def test_one_block_consistency(self):
        # with g=d=1 the fit is a single weighted logistic regression;
        # the estimate should land within 3 standard errors of truth
        truth = ModelParams(
            row_props=np.array([1.0]),
            col_props=np.array([1.0]),
            coefs=np.array([[[0.4, 0.8]]]),
            means=np.array([[0.0]]),
            covs=np.array([[[1.0]]]),
        )
        sim = cb.generate(cb.SimConfig(n=200, m=200, params=truth, seed=14))
        res = fit(sim.x, sim.y, 1, 1, BemConfig(n_restarts=1, seed=0))
        beta_hat = res.params.coefs[0, 0]
        counts = sim.x.values.sum(axis=1)
        hess = weighted_logistic_hessian(
            beta_hat, sim.y.augmented, np.ones(200), counts, 200.0
        )
        se = np.sqrt(np.diag(np.linalg.inv(-hess)))
        np.testing.assert_array_less(np.abs(beta_hat - truth.coefs[0, 0]), 3.0 * se)

    def test_separated_design_recovery(self):
        truth = cb.separated_params(2, 2, p=1, mean_scale=10.0, intercept_scale=3.0, seed=21)
        sim = cb.generate(cb.SimConfig(n=400, m=40, params=truth, seed=22))
        cfg = BemConfig(n_restarts=5, seed=23)
        res = fit(sim.x, sim.y, 2, 2, cfg)
        err = cb.label_error_rate(res.map_labels.row_labels, sim.truth.row_labels)
        assert err <= 0.1

    def test_default_init_keeps_row_variances_off_the_ridge(self):
        # five row clusters on two true ones invite a fit that puts one row
        # on a cluster of its own: its variance is the ridge alone, and its
        # density term outscores the proper fits (F -4647.6 against -4653.2
        # here). The default init must not end there.
        truth = cb.separated_params(2, 3, p=1, mean_scale=10.0)
        sim = cb.generate(cb.SimConfig(n=300, m=40, params=truth, seed=0))
        res = fit(sim.x, sim.y, 5, 3, BemConfig(seed=0))
        variances = np.diagonal(res.params.covs, axis1=1, axis2=2)
        assert variances.min() > 1e4 * bem._RIDGE

    @pytest.mark.parametrize("p", [0, 2])
    def test_init_column_features_with_an_empty_row_cluster(self, p, monkeypatch):
        # the column features of one product match the per-cluster gathers
        # of helpers.init_col_features; row cluster 1 is left empty
        rng = np.random.default_rng(p)
        x, y = rand_instance(rng, 30, 11, p)
        z0 = np.arange(x.n) % 2 * 2
        seen = []

        def lloyd(feats, k, rng):
            seen.append(feats)
            return z0 if len(seen) == 1 else np.arange(feats.shape[0]) % k

        monkeypatch.setattr(bem, "_lloyd", lloyd)
        next(bem._restart_starts(x, y, 3, 2, [np.random.SeedSequence(0)]))
        got = seen[1]
        q = p + 1
        np.testing.assert_allclose(got, init_col_features(x, y, z0, 3), rtol=1e-12)
        assert np.all(got[:, q:2 * q] == 0.0)

    def test_covariate_unit_does_not_change_labels(self):
        # at 1e3 times the unit the covariances' entries reach ~1e6, where
        # the M-step's round-off asymmetry exceeds an absolute 1e-12
        truth = cb.separated_params(2, 2, p=2, seed=0)
        sim = cb.generate(cb.SimConfig(n=200, m=30, params=truth, seed=0))
        cfg = BemConfig(n_restarts=2, seed=0)
        a = fit(sim.x, sim.y, 2, 2, cfg)
        b = fit(sim.x, CovariateTable(1e3 * sim.y.values), 2, 2, cfg)
        np.testing.assert_array_equal(a.map_labels.row_labels, b.map_labels.row_labels)
        np.testing.assert_array_equal(a.map_labels.col_labels, b.map_labels.col_labels)

    def test_column_permutation_equivariance(self):
        truth = cb.separated_params(2, 2, p=1, mean_scale=8.0, intercept_scale=3.0, seed=24)
        sim = cb.generate(cb.SimConfig(n=120, m=24, params=truth, seed=25))
        rng = np.random.default_rng(26)
        perm = rng.permutation(24)
        xp = BinaryMatrix(sim.x.values[:, perm])
        cfg = BemConfig(n_restarts=8, seed=27)
        a = fit(sim.x, sim.y, 2, 2, cfg)
        b = fit(xp, sim.y, 2, 2, cfg)
        assert a.final_free_energy == pytest.approx(b.final_free_energy, abs=1e-6)
        relabeled = a.map_labels.col_labels[perm]
        assert cb.label_error_rate(b.map_labels.col_labels, relabeled) == 0.0

    def test_fitted_bound_against_enumeration(self):
        rng = np.random.default_rng(28)
        x, y = rand_instance(rng, 4, 4, 1)
        cfg = BemConfig(n_restarts=2, seed=29)
        res = fit(x, y, 2, 2, cfg)
        ll = mp_exact_loglik(x, y, res.params)
        assert res.final_free_energy <= ll + 1e-9


_THREADED_FIT = """
import hashlib, sys
import coblock as cb
n, m, d = map(int, sys.argv[1:])
truth = cb.separated_params(2, d, p=1, mean_scale=10.0)
sim = cb.generate(cb.SimConfig(n=n, m=m, params=truth, seed=1))
cfg = cb.BemConfig(n_restarts=1, split_merge_rounds=0, max_outer_iters=15, seed=1)
res = cb.fit(sim.x, sim.y, 2, d, cfg)
h = hashlib.sha256()
for a in (res.free_energy_trace, res.params.coefs, res.assignments.row_probs,
          res.assignments.col_probs):
    h.update(a.tobytes())
print(h.hexdigest())
"""


@pytest.mark.parametrize("n, m, d", [(2000, 1000, 2), (6000, 100, 6)])
def test_fit_bytes_do_not_depend_on_blas_threads(n, m, d):
    # the thread count must be set before numpy loads its BLAS, so each
    # fit runs in a process of its own
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREADED_FIT, str(n), str(m), str(d)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _canonical(labels):
    """Labels renamed in order of first appearance: equal exactly when
    two labelings group the items alike."""
    first = {}
    return tuple(first.setdefault(v, len(first)) for v in np.asarray(labels).tolist())


def _fit_bytes(res: FitResult):
    arrays = (res.free_energy_trace, res.params.row_props, res.params.col_props,
              res.params.coefs, res.params.means, res.params.covs, res.assignments.row_probs,
              res.assignments.col_probs, res.map_labels.row_labels, res.map_labels.col_labels)
    return [a.tobytes() for a in arrays] + [res.converged, res.n_iters]


labelings = st.lists(st.integers(0, 3), min_size=1, max_size=12).map(np.array)


def distinct_starts(monkeypatch):
    """Give every restart a key of its own, so that a test scripting each
    restart's outcome sees every restart run."""
    inner = bem._restart_starts
    monkeypatch.setattr(bem, "_restart_starts", lambda *args: (
        (i, init) for i, (_, init) in enumerate(inner(*args))))


def no_dedupe(monkeypatch):
    """Make every partition key unique: fit then fits every restart,
    _merge_split_candidates keeps every candidate and sharpens every split."""
    monkeypatch.setattr(bem, "_partition_key", lambda labels: object())


class TestSplitMerge:
    @given(labelings, st.permutations(range(10)))
    def test_same_partition_ignores_label_names(self, a, names):
        b = np.array(names)[a]
        assert bem._partition_key(a) == bem._partition_key(b)
        # the key does not depend on the labels' dtype
        assert bem._partition_key(a.astype(np.int8)) == bem._partition_key(b.astype(np.uint64))

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=8))
    def test_same_partition_against_reference(self, pairs):
        a, b = (np.array(v) for v in zip(*pairs))
        want = _canonical(a) == _canonical(b)
        assert (bem._partition_key(a) == bem._partition_key(b)) == want

    @given(labelings, st.data())
    def test_moved_column_or_merged_clusters_differ(self, a, data):
        used = np.unique(a).tolist()
        assume(len(used) >= 2)
        j = data.draw(st.integers(0, a.size - 1))
        moved = a.copy()
        moved[j] = data.draw(st.sampled_from([v for v in used if v != a[j]]))
        merged = np.where(a == used[0], used[1], a)
        for b in (moved, merged):
            assert bem._partition_key(a) != bem._partition_key(b)

    def test_repeated_partition_is_refit_once(self, monkeypatch):
        # cell (3, 2) of `select --g-range 1:3 --d-range 1:2 --seed 1` on
        # the p = 3 fixture of scripts/cli_digest.py: each round's
        # candidates are one partition under two namings, so each round
        # refits once instead of twice, and the result keeps every bit
        truth = cb.separated_params(2, 2, p=3, seed=3)
        sim = cb.generate(cb.SimConfig(n=40, m=12, params=truth, seed=9))
        cell_seed = np.random.SeedSequence(1).generate_state(6, dtype=np.uint64)[5]
        cfg = BemConfig(n_restarts=2, seed=int(cell_seed))
        rounds = []
        inner = bem._merge_split_candidates
        monkeypatch.setattr(bem, "_merge_split_candidates",
                            lambda *args: rounds.append(inner(*args)) or rounds[-1])
        got = fit(sim.x, sim.y, 3, 2, cfg)
        refits = sum(map(len, rounds))
        rounds.clear()
        no_dedupe(monkeypatch)
        unfiltered = fit(sim.x, sim.y, 3, 2, cfg)
        assert (refits, sum(map(len, rounds))) == (2, 4)
        assert _fit_bytes(got) == _fit_bytes(unfiltered)
        # the refit of the restart's own partition wins and must not be dropped
        restarts_only = fit(sim.x, sim.y, 3, 2, replace(cfg, split_merge_rounds=0))
        assert bem._gains(got, restarts_only)

    def test_sharpen_rounds_hand_on_their_predictors(self, monkeypatch):
        # each two-block column EM round after the first warm-starts
        # m_step_beta from the coefficients and predictors the round
        # before returned, so their _logistic is not computed again
        truth = cb.separated_params(2, 4, p=1, seed=1)
        sim = cb.generate(cb.SimConfig(n=40, m=16, params=truth, seed=9))
        res = fit(sim.x, sim.y, 2, 4, BemConfig(n_restarts=2, seed=1, split_merge_rounds=0))
        calls = []
        inner = bem.m_step_beta

        def recording(y, t, cols, coefs, predictors=None):
            out = inner(y, t, cols, coefs, predictors)
            calls.append((coefs, predictors, out))
            return out

        monkeypatch.setattr(bem, "m_step_beta", recording)
        bem._merge_split_candidates(sim.x, sim.y, res, np.random.default_rng(0))
        assert calls and len(calls) % 3 == 0
        for k in range(0, len(calls), 3):
            assert calls[k][1] is None
            for before, call in zip(calls[k:k + 2], calls[k + 1:k + 3]):
                assert call[0] is before[2][0] and call[1] is before[2][2]

    def test_split_merge_reads_x_without_gathering(self, monkeypatch):
        # scoring and sharpening read the fit's own x: a target that is a
        # proper subset of the columns weighs the other columns 0
        truth = cb.separated_params(2, 4, p=1, seed=1)
        sim = cb.generate(cb.SimConfig(n=40, m=16, params=truth, seed=9))
        res = fit(sim.x, sim.y, 2, 4, BemConfig(n_restarts=2, seed=1, split_merge_rounds=0))
        matrices, arrays, posteriors = [], [], []
        of, logits = bem.ColStats.of, bem._col_logits

        def col_stats(x, r):
            matrices.append(x)
            posteriors.append(np.array(r))
            return of(x, r)

        monkeypatch.setattr(bem.ColStats, "of", staticmethod(col_stats))
        monkeypatch.setattr(bem, "_col_logits", lambda xv, *a: arrays.append(xv) or logits(xv, *a))
        bem._merge_split_candidates(sim.x, sim.y, res, np.random.default_rng(0))
        assert posteriors and arrays
        assert all(x is sim.x for x in matrices)
        assert all(xv is sim.x.values for xv in arrays)
        assert any(0 < r.any(axis=1).sum() < sim.x.m for r in posteriors)

    def test_candidates_have_distinct_partitions(self, monkeypatch):
        truth = cb.separated_params(2, 4, p=1, seed=1)
        sim = cb.generate(cb.SimConfig(n=40, m=16, params=truth, seed=9))
        rounds = []
        inner = bem._merge_split_candidates
        monkeypatch.setattr(
            bem, "_merge_split_candidates",
            lambda *args: rounds.append(inner(*args)) or rounds[-1],
        )
        fit(sim.x, sim.y, 2, 4, BemConfig(n_restarts=2, seed=1))
        assert len(rounds) == 2 and all(len(c) >= 2 for c in rounds)
        for candidates in rounds:
            parts = [_canonical(r.argmax(axis=1)) for _, r in candidates]
            assert len(set(parts)) == len(parts)


class TestDistinctStarts:
    """fit does each piece of start work once: a restart that renames an
    earlier one's starting partitions is not fitted, a split is sharpened
    once per call, and the start features are built once."""

    @staticmethod
    def data():
        truth = cb.separated_params(2, 2, p=1, seed=3)
        return cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))

    def test_each_distinct_restart_is_fitted_once(self, monkeypatch):
        sim = self.data()
        cfg = BemConfig(n_restarts=4, seed=1, split_merge_rounds=0)
        starts = list(bem._restart_starts(sim.x, sim.y, 2, 2,
                                          np.random.SeedSequence(1).spawn(4)))
        keys = [key for key, _ in starts]
        labels = [t.argmax(axis=1).tobytes() + r.argmax(axis=1).tobytes() for _, (t, r) in starts]
        # two distinct starts; the second is drawn twice more under other
        # cluster names
        assert [keys.index(key) for key in keys] == [0, 1, 1, 1]
        assert len(set(labels)) == 4
        calls = []
        inner = bem._single_fit
        monkeypatch.setattr(bem, "_single_fit", lambda *args: calls.append(args[-1]) or inner(*args))
        got = fit(sim.x, sim.y, 2, 2, cfg)
        # the first draw of each start is the one fitted
        assert len(calls) == 2
        for (_, r), (_, (_, drawn)) in zip(calls, starts):
            assert np.array_equal(r, drawn)
        calls.clear()
        no_dedupe(monkeypatch)
        every = fit(sim.x, sim.y, 2, 2, cfg)
        assert len(calls) == 4
        assert _fit_bytes(got) == _fit_bytes(every)

    def test_the_whole_fit_keeps_its_bits(self, monkeypatch):
        # restarts, split-merge rounds and their sharpening, with and
        # without the dedupe
        sim = self.data()
        cfg = BemConfig(n_restarts=6, seed=1)
        got = fit(sim.x, sim.y, 2, 2, cfg)
        no_dedupe(monkeypatch)
        assert _fit_bytes(got) == _fit_bytes(fit(sim.x, sim.y, 2, 2, cfg))

    def test_a_repeat_of_a_failed_start_still_runs(self, monkeypatch):
        # every start collapses; the repeats run too, so the last failure
        # and the AllRestartsFailed text are those of a fit without dedupe
        sim = self.data()
        cfg = BemConfig(n_restarts=4, seed=1)
        monkeypatch.setattr(bem, "_MIN_CLUSTER_MASS", 1e3)
        calls = []
        inner = bem._single_fit
        monkeypatch.setattr(bem, "_single_fit", lambda *args: calls.append(1) or inner(*args))
        with pytest.raises(AllRestartsFailed) as deduped:
            fit(sim.x, sim.y, 2, 2, cfg)
        assert len(calls) == 4
        no_dedupe(monkeypatch)
        with pytest.raises(AllRestartsFailed) as every:
            fit(sim.x, sim.y, 2, 2, cfg)
        assert str(deduped.value) == str(every.value)
        assert str(deduped.value).startswith("all 4 restarts failed; last failure: row cluster")

    def test_only_a_completed_start_is_not_repeated(self, monkeypatch):
        # one start drawn three times: it fails, runs again and completes,
        # and its third draw is not fitted
        sim = self.data()
        done = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=1, split_merge_rounds=0))
        outcomes = iter([EmptyCluster("collapsed"), done])

        def scripted(*args):
            out = next(outcomes)
            if isinstance(out, Exception):
                raise out
            return out

        monkeypatch.setattr(bem, "_restart_starts",
                            lambda x, y, g, d, children: (("same", None) for _ in children))
        monkeypatch.setattr(bem, "_single_fit", scripted)
        got = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=3, split_merge_rounds=0))
        assert got is done and next(outcomes, None) is None

    def test_each_distinct_split_is_sharpened_once(self, monkeypatch):
        sim = self.data()
        res = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=2, seed=1, split_merge_rounds=0))
        calls, keyed = [], []
        inner, key = bem._sharpen, bem._partition_key

        def recording(x, y, t, cols, halves):
            calls.append((cols, halves, inner(x, y, t, cols, halves)))
            return calls[-1][2]

        monkeypatch.setattr(bem, "_sharpen", recording)
        monkeypatch.setattr(bem, "_partition_key", lambda labels: keyed.append(labels) or key(labels))
        got = bem._merge_split_candidates(sim.x, sim.y, res, np.random.default_rng(0))
        # at d = 2 each merge leaves one cluster of all the columns to split
        assert len(calls) == 1 and np.array_equal(calls[0][0], np.arange(sim.x.m))
        with_memo, keyed[:], calls[:] = list(keyed), [], []
        monkeypatch.setattr(bem, "_partition_key", lambda labels: keyed.append(labels) or object())
        every = bem._merge_split_candidates(sim.x, sim.y, res, np.random.default_rng(0))
        # the memo answered the second call, whose halves rename the first's
        (_, a, out_a), (_, b, out_b) = calls
        assert np.array_equal(b, 1 - a) and np.array_equal(out_b, 1 - out_a)
        # every split's halves and every candidate's labels, kept or
        # dropped, are those formed without the memo
        assert len(with_memo) == len(keyed) == 4
        assert all(np.array_equal(u, v) for u, v in zip(with_memo, keyed))
        # so the candidates are too, once a repeated partition is dropped
        first = {}
        for t, r in every:
            first.setdefault(_canonical(r.argmax(axis=1)), r)
        assert len(got) == len(first)
        for (t, r), kept in zip(got, first.values()):
            assert t is res.assignments.row_probs and np.array_equal(r, kept)
        # renamed halves give the renamed result, on every split tried here
        t = res.assignments.row_probs
        for cols, halves, out in calls:
            assert np.array_equal(inner(sim.x, sim.y, t, cols, 1 - halves), 1 - out)

    def test_start_features_are_built_once(self, monkeypatch):
        # the row features once per fit, the column features once per
        # distinct row labeling (n = 60 rows, m = 20 columns)
        sim = self.data()
        cfg = BemConfig(n_restarts=4, seed=1, split_merge_rounds=0)
        starts = bem._restart_starts(sim.x, sim.y, 2, 2, np.random.SeedSequence(1).spawn(4))
        row_labelings = {t.argmax(axis=1).tobytes() for _, (t, _) in starts}
        assert len(row_labelings) == 2
        sizes = []
        inner = bem._standardize
        monkeypatch.setattr(bem, "_standardize", lambda feats: sizes.append(len(feats)) or inner(feats))
        fit(sim.x, sim.y, 2, 2, cfg)
        assert sorted(sizes) == [20, 20, 60]
