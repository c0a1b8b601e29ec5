"""Per-column influence scores and the fixed-label posterior of y."""

import numpy as np
import pytest

from coblock.bem import FitResult
from coblock.influence import influence_report
from coblock.model import (
    BinaryMatrix,
    CovariateTable,
    HardLabels,
    ModelParams,
    SoftAssignments,
)
from helpers import (
    bernoulli_link_logpdf,
    hard_soft,
    influence_score,
    influence_scores_dense,
    log_posterior_y_rowform,
    mp_gauss_logpdf,
    rand_instance,
    rand_params,
    row_part,
)

LOG2 = np.log(2.0)


def zero_link_params(g, d, p):
    rng = np.random.default_rng(0)
    means = rng.normal(size=(g, p))
    return ModelParams(
        row_props=np.full(g, 1.0 / g),
        col_props=np.full(d, 1.0 / d),
        coefs=np.zeros((g, d, p + 1)),
        means=means,
        covs=np.tile(np.eye(p), (g, 1, 1)),
    )


def rand_labels(rng, n, m, g, d):
    return HardLabels(rng.integers(1, g + 1, size=n), rng.integers(1, d + 1, size=m))


def bernoulli_total(x, y, labels, params):
    acc = 0.0
    for i in range(x.n):
        for j in range(x.m):
            coef = params.coefs[labels.row_labels[i] - 1, labels.col_labels[j] - 1]
            acc += bernoulli_link_logpdf(x.values[i, j], y.augmented[i], coef)
    return acc


def manual_fit_result(params, z, w):
    """A FitResult wrapping hand-chosen labels, for report-level tests."""
    t = 0.98 * hard_soft(np.asarray(z) - 1, params.g) + 0.02 / params.g
    r = 0.98 * hard_soft(np.asarray(w) - 1, params.d) + 0.02 / params.d
    return FitResult(
        params=params,
        assignments=SoftAssignments(row_probs=t, col_probs=r),
        free_energy_trace=np.array([-1.0]),
        converged=True,
        n_iters=1,
    )


class TestInfluenceScore:
    def test_zero_link_uniform_clusters(self):
        rng = np.random.default_rng(1)
        x, y = rand_instance(rng, 6, 5, 1)
        params = zero_link_params(2, 3, 1)
        labels = rand_labels(rng, 6, 5, 2, 3)
        want = -np.log(3.0) - 6 * LOG2
        for j in range(1, 6):
            assert influence_score(j, x, y, labels, params) == pytest.approx(want, abs=1e-12)

    def test_hand_instance(self):
        # intercepts +1/-1 along rows labeled (1,2,1), column pattern
        # (1,0,1): 2 - 2 log(1+e) - log(1+1/e), frozen at 50 digits
        params = ModelParams(
            row_props=np.array([0.5, 0.5]),
            col_props=np.array([1.0]),
            coefs=np.array([[[1.0, 0.0]], [[-1.0, 0.0]]]),
            means=np.zeros((2, 1)),
            covs=np.ones((2, 1, 1)),
        )
        x = BinaryMatrix([[1.0], [0.0], [1.0]])
        y = CovariateTable([[0.3], [-0.2], [0.5]])
        labels = HardLabels([1, 2, 1], [1])
        got = influence_score(1, x, y, labels, params)
        assert got == pytest.approx(-0.9397850625546685, abs=1e-9)

    def test_duplicate_column_scores_equal(self):
        rng = np.random.default_rng(2)
        x, y = rand_instance(rng, 5, 4, 1)
        xv = x.values.copy()
        xv[:, 3] = xv[:, 1]
        x = BinaryMatrix(xv)
        params = rand_params(rng, 2, 2, 1)
        labels = rand_labels(rng, 5, 4, 2, 2)
        labels = HardLabels(labels.row_labels,
                            [labels.col_labels[0], 2, labels.col_labels[2], 2])
        a = influence_score(2, x, y, labels, params)
        b = influence_score(4, x, y, labels, params)
        assert a == b

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x, y = rand_instance(rng, 6, 3, 1)
        params = rand_params(rng, 2, 2, 1)
        labels = rand_labels(rng, 6, 3, 2, 2)
        perm = rng.permutation(6)
        xp = BinaryMatrix(x.values[perm])
        yp = CovariateTable(y.values[perm])
        lp = HardLabels(labels.row_labels[perm], labels.col_labels)
        for j in range(1, 4):
            assert influence_score(j, x, y, labels, params) == pytest.approx(
                influence_score(j, xp, yp, lp, params), abs=1e-12
            )

    def test_sum_identity_against_bernoulli_total(self):
        rng = np.random.default_rng(4)
        x, y = rand_instance(rng, 7, 6, 1)
        params = rand_params(rng, 2, 3, 1)
        labels = rand_labels(rng, 7, 6, 2, 3)
        total = sum(
            influence_score(j, x, y, labels, params)
            - np.log(params.col_props[labels.col_labels[j - 1] - 1])
            for j in range(1, 7)
        )
        assert total == pytest.approx(bernoulli_total(x, y, labels, params), abs=1e-9)


class TestPosteriorOfY:
    def test_rowform_matches_direct_cell_sum(self):
        rng = np.random.default_rng(5)
        x, y = rand_instance(rng, 2, 2, 1)
        params = rand_params(rng, 2, 2, 1)
        labels = rand_labels(rng, 2, 2, 2, 2)
        want = bernoulli_total(x, y, labels, params)
        for i in range(2):
            k = labels.row_labels[i] - 1
            want += np.log(params.row_props[k])
            want += float(mp_gauss_logpdf(y.values[i], params.means[k], params.covs[k]))
        for j in range(2):
            want += np.log(params.col_props[labels.col_labels[j] - 1])
        got = log_posterior_y_rowform(y, x, labels, params)
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_link_bernoulli_mass(self):
        rng = np.random.default_rng(6)
        x, y = rand_instance(rng, 5, 4, 1)
        params = zero_link_params(2, 2, 1)
        labels = rand_labels(rng, 5, 4, 2, 2)
        got = log_posterior_y_rowform(y, x, labels, params)
        mix_and_gauss = 0.0
        for i in range(5):
            k = labels.row_labels[i] - 1
            mix_and_gauss += np.log(params.row_props[k])
            mix_and_gauss += float(mp_gauss_logpdf(y.values[i], params.means[k], params.covs[k]))
        for j in range(4):
            mix_and_gauss += np.log(params.col_props[labels.col_labels[j] - 1])
        assert got - mix_and_gauss == pytest.approx(-5 * 4 * LOG2, abs=1e-12)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_rowform_equals_colform(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_instance(rng, 6, 5, 2)
        params = rand_params(rng, 2, 3, 2)
        labels = rand_labels(rng, 6, 5, 2, 3)
        a = log_posterior_y_rowform(y, x, labels, params)
        # grouped by columns: the row part plus every column's influence
        res = manual_fit_result(params, labels.row_labels, labels.col_labels)
        b = row_part(y, params, labels.row_labels - 1) + influence_report(x, y, res).scores.sum()
        assert a == pytest.approx(b, abs=1e-9)


class TestInfluenceReport:
    def test_single_column(self):
        rng = np.random.default_rng(10)
        x, y = rand_instance(rng, 4, 1, 1)
        params = rand_params(rng, 2, 1, 1)
        res = manual_fit_result(params, rng.integers(1, 3, size=4), [1])
        report = influence_report(x, y, res)
        assert report.ranking.tolist() == [1]

    def test_tied_columns_rank_by_index(self):
        rng = np.random.default_rng(11)
        xv = (rng.random((5, 3)) < 0.5).astype(float)
        xv[:, 2] = xv[:, 0]
        x = BinaryMatrix(xv)
        y = CovariateTable(rng.normal(size=(5, 1)))
        params = rand_params(rng, 2, 1, 1)
        res = manual_fit_result(params, rng.integers(1, 3, size=5), [1, 1, 1])
        report = influence_report(x, y, res)
        assert report.scores[0] == report.scores[2]
        pos0 = int(np.where(report.ranking == 1)[0][0])
        pos2 = int(np.where(report.ranking == 3)[0][0])
        assert pos0 < pos2

    def test_matched_column_outranks_anti_matched(self):
        # column 1 follows the planted block signs (every cell prob >= 0.95),
        # column 2 inverts them
        z = np.array([1, 1, 2, 2, 1, 2])
        params = ModelParams(
            row_props=np.array([0.5, 0.5]),
            col_props=np.array([1.0]),
            coefs=np.array([[[3.0, 0.0]], [[-3.0, 0.0]]]),
            means=np.array([[0.0], [0.0]]),
            covs=np.ones((2, 1, 1)),
        )
        signs = np.where(z == 1, 1.0, 0.0)
        x = BinaryMatrix(np.column_stack([signs, 1.0 - signs]))
        y = CovariateTable(np.zeros((6, 1)))
        res = manual_fit_result(params, z, [1, 1])
        report = influence_report(x, y, res)
        assert report.scores[0] > report.scores[1]
        assert report.ranking.tolist() == [1, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_scores_match_the_dense_formula(self, seed):
        rng = np.random.default_rng(30 + seed)
        n, m = (int(v) for v in rng.integers(2, 40, size=2))
        g, d = (int(v) for v in rng.integers(1, 4, size=2))
        x, y = rand_instance(rng, n, m, 2)
        params = rand_params(rng, g, d, 2, coef_scale=4.0)
        z, w = rng.integers(1, g + 1, size=n), rng.integers(1, d + 1, size=m)
        res = manual_fit_result(params, z, w)
        report = influence_report(x, y, res)
        want = influence_scores_dense(x, y, res.map_labels, params)
        np.testing.assert_allclose(report.scores, want, rtol=1e-12, atol=0)

    def test_ranking_matches_the_dense_formula_on_criterion_8(self):
        # the acceptance criterion 8 fixture: a probability-matched column
        # and its complement, under intercepts +-3
        z = np.array([1, 1, 2, 2, 1, 2])
        params = ModelParams(
            row_props=np.full(2, 0.5), col_props=np.ones(1),
            coefs=np.array([[[3.0, 0.0]], [[-3.0, 0.0]]]),
            means=np.zeros((2, 1)), covs=np.tile(np.eye(1), (2, 1, 1)),
        )
        matched = (z == 1).astype(float)
        x = BinaryMatrix(np.column_stack([matched, 1.0 - matched]))
        y = CovariateTable(np.zeros((6, 1)))
        res = manual_fit_result(params, z, [1, 1])
        report = influence_report(x, y, res)
        want = influence_scores_dense(x, y, res.map_labels, params)
        np.testing.assert_allclose(report.scores, want, rtol=1e-12, atol=0)
        dense = np.lexsort((np.arange(want.size), -want)) + 1
        assert report.ranking.tolist() == dense.tolist() == [1, 2]
