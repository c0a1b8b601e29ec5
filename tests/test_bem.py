"""Block-EM machinery: E-steps against 50-digit references, M-step
closed forms, the free-energy contract, and end-to-end fits."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import coblock as cb
from coblock import bem
from coblock.bem import (
    BemConfig,
    ColStats,
    FitResult,
    ParamTerms,
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
    EmptyCluster,
    LengthMismatch,
    ParamValidationError,
)
from coblock.model import BinaryMatrix, CovariateTable, ModelParams, SoftAssignments
from helpers import (
    hard_soft,
    mp_col_posteriors,
    mp_exact_loglik,
    mp_row_posteriors,
    newton_block,
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
        got = row_e_step(ColStats.of(x, r), ParamTerms.of(y, params))
        want = mp_row_posteriors(x, y, r, params)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_col_e_step(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_instance(rng, 2, 2, 1)
        params = rand_params(rng, 2, 2, 1)
        t = rand_soft(rng, 2, 2)
        got = col_e_step(x, t, ParamTerms.of(y, params))
        want = mp_col_posteriors(x, y, t, params)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_row_e_step_soft_r_reference(self):
        rng = np.random.default_rng(6)
        x, y = rand_instance(rng, 3, 3, 1)
        params = rand_params(rng, 2, 2, 1)
        r = rand_soft(rng, 3, 2)
        got = row_e_step(ColStats.of(x, r), ParamTerms.of(y, params))
        want = mp_row_posteriors(x, y, r, params)
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestEStepStructure:
    def test_single_row_cluster_is_certain(self):
        rng = np.random.default_rng(0)
        x, y = rand_instance(rng, 6, 5, 1)
        params = rand_params(rng, 1, 2, 1)
        t = row_e_step(ColStats.of(x, rand_soft(rng, 5, 2)), ParamTerms.of(y, params))
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
        t = row_e_step(ColStats.of(x, rand_soft(rng, 5, 2)), ParamTerms.of(y, params))
        np.testing.assert_allclose(t, 0.5, atol=1e-12)

    def test_single_column_cluster_is_certain(self):
        rng = np.random.default_rng(2)
        x, y = rand_instance(rng, 6, 5, 1)
        params = rand_params(rng, 2, 1, 1)
        r = col_e_step(x, rand_soft(rng, 6, 2), ParamTerms.of(y, params))
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
        r = col_e_step(x, rand_soft(rng, 6, 2), ParamTerms.of(y, params))
        np.testing.assert_allclose(r, 0.5, atol=1e-12)

    def test_pure_function_is_idempotent(self):
        rng = np.random.default_rng(4)
        x, y = rand_instance(rng, 8, 6, 1)
        params = rand_params(rng, 2, 2, 1)
        r = rand_soft(rng, 6, 2)
        t1 = row_e_step(ColStats.of(x, r), ParamTerms.of(y, params))
        t2 = row_e_step(ColStats.of(x, r), ParamTerms.of(y, params))
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
        beta, clamped = m_step_beta(
            y, np.ones((6, 1)), ColStats.of(x, np.ones((4, 1))), np.zeros((1, 1, 1))
        )
        assert beta[0, 0, 0] == pytest.approx(np.log(0.25 / 0.75), abs=1e-6)
        assert not clamped.any()

    def test_beta_separation_guard(self, monkeypatch):
        x = BinaryMatrix(np.ones((5, 4)))
        y = CovariateTable(np.empty((5, 0)))
        monkeypatch.setattr(bem, "_NR_MAX_ITERS", 100)
        monkeypatch.setattr(bem, "_NR_GRAD_TOL", 1e-16)
        beta, clamped = m_step_beta(
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
        beta, clamped = m_step_beta(y, t, ColStats.of(x, r), beta0)
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
        got, clamped = m_step_beta(y, t, ColStats.of(x, r), beta0)
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
        fe = free_energy(t, ColStats.of(x, r), ParamTerms.of(y, params))
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
        cols, terms = ColStats.of(x, r), ParamTerms.of(y, params)
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
            fe = free_energy(t, ColStats.of(x, r), ParamTerms.of(y, params))
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
        a = free_energy(t, ColStats.of(x, r), ParamTerms.of(y, params))
        b = free_energy(t[:, pg], ColStats.of(x, r[:, pd]), ParamTerms.of(y, swapped))
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
        for later, wins in ((tie, False), (gain, True)):
            results = iter([kept, later])
            monkeypatch.setattr(bem, "_single_fit", lambda *a, **k: next(results))
            got = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=2, split_merge_rounds=0))
            assert got is (later if wins else kept)

        rounds = []
        monkeypatch.setattr(bem, "_merge_split_candidates", lambda *a: rounds.append(1) or ["init"])
        monkeypatch.setattr(bem, "_single_fit", lambda *a, init=None: kept if init is None else tie)
        got = fit(sim.x, sim.y, 2, 2, BemConfig(n_restarts=1, split_merge_rounds=2))
        assert got is kept and len(rounds) == 1

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

    def test_column_m_step_terms_equal_fresh_terms(self, monkeypatch):
        # the column M-step's ParamTerms reuses the row M-step's Gaussian
        # log-densities; every ParamTerms a sweep reads must equal one
        # built afresh from its parameters
        truth = cb.separated_params(2, 3, p=2, seed=3)
        sim = cb.generate(cb.SimConfig(n=60, m=20, params=truth, seed=4))
        seen = []
        inner = bem.free_energy
        monkeypatch.setattr(
            bem, "free_energy", lambda t, cols, terms: seen.append(terms) or inner(t, cols, terms)
        )
        cfg = BemConfig(n_restarts=1, split_merge_rounds=0, free_energy_rel_tol=0.0,
                        max_outer_iters=4)
        res = bem._single_fit(sim.x, sim.y, 2, 3, cfg, np.random.default_rng(2))
        assert len(seen) == 1 + 4 * res.n_iters
        # trace entry 4k+2 follows a row M-step, 4k+4 a column M-step
        pairs = list(zip(seen[2::4], seen[4::4]))
        assert all(col_m.logphi is row_m.logphi for row_m, col_m in pairs)
        assert any(not np.array_equal(col_m.eta, row_m.eta) for row_m, col_m in pairs)
        for terms in seen:
            fresh = ParamTerms.of(sim.y, terms.params)
            for name in ("eta", "softplus", "logphi"):
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


class TestSplitMerge:
    @given(labelings, st.permutations(range(10)))
    def test_same_partition_ignores_label_names(self, a, names):
        b = np.array(names)[a]
        assert bem._same_partition(a, b) and bem._same_partition(b, a)

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=8))
    def test_same_partition_against_reference(self, pairs):
        a, b = (np.array(v) for v in zip(*pairs))
        want = _canonical(a) == _canonical(b)
        assert bem._same_partition(a, b) == want == bem._same_partition(b, a)

    @given(labelings, st.data())
    def test_moved_column_or_merged_clusters_differ(self, a, data):
        used = np.unique(a).tolist()
        assume(len(used) >= 2)
        j = data.draw(st.integers(0, a.size - 1))
        moved = a.copy()
        moved[j] = data.draw(st.sampled_from([v for v in used if v != a[j]]))
        merged = np.where(a == used[0], used[1], a)
        for b in (moved, merged):
            assert not bem._same_partition(a, b) and not bem._same_partition(b, a)

    def test_repeated_partition_is_refit_once(self, monkeypatch):
        # cell (3, 2) of `select --g-range 1:3 --d-range 1:2 --seed 1` on
        # the p = 3 fixture of scripts/cli_digest.py: each round's
        # candidates are one partition under two namings, so each round
        # refits once instead of twice, and the result keeps every bit
        truth = cb.separated_params(2, 2, p=3, seed=3)
        sim = cb.generate(cb.SimConfig(n=40, m=12, params=truth, seed=9))
        cell_seed = np.random.SeedSequence(1).generate_state(6, dtype=np.uint64)[5]
        cfg = BemConfig(n_restarts=2, seed=int(cell_seed))
        inits = []
        inner = bem._single_fit

        def counting(*args, init=None):
            inits.append(init is not None)
            return inner(*args, init=init)

        monkeypatch.setattr(bem, "_single_fit", counting)
        got = fit(sim.x, sim.y, 3, 2, cfg)
        refits = sum(inits)
        inits.clear()
        monkeypatch.setattr(bem, "_same_partition", lambda a, b: False)
        unfiltered = fit(sim.x, sim.y, 3, 2, cfg)
        assert (refits, sum(inits)) == (2, 4)
        assert _fit_bytes(got) == _fit_bytes(unfiltered)
        # the refit of the restart's own partition wins and must not be dropped
        restarts_only = fit(sim.x, sim.y, 3, 2, replace(cfg, split_merge_rounds=0))
        assert bem._gains(got, restarts_only)

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
