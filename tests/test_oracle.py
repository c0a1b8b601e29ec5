"""Exhaustive-enumeration reference: exact likelihood and posterior mode."""

import numpy as np
import pytest

from coblock.bem import ColStats, free_energy
from coblock.model import BinaryMatrix, CovariateTable, ModelParams
from helpers import (
    bernoulli_link_logpdf,
    mp_exact_loglik,
    mp_gauss_logpdf,
    param_terms,
    rand_instance,
    rand_params,
    rand_soft,
)
from oracle import InstanceTooLarge, exact_loglik, exact_posterior_mode


def swap_symmetric_params():
    """Invariant under swapping both row and column clusters at once."""
    coef_a = np.array([2.0, 0.5])
    coef_b = np.array([-1.0, 0.3])
    return ModelParams(
        row_props=np.array([0.5, 0.5]),
        col_props=np.array([0.5, 0.5]),
        coefs=np.array([[coef_a, coef_b], [coef_b, coef_a]]),
        means=np.zeros((2, 1)),
        covs=np.ones((2, 1, 1)),
    )


class TestExactLoglik:
    def test_one_block_closed_form(self):
        rng = np.random.default_rng(0)
        x, y = rand_instance(rng, 4, 3, 1)
        params = rand_params(rng, 1, 1, 1)
        bern = sum(
            bernoulli_link_logpdf(x.values[i, j], y.augmented[i], params.coefs[0, 0])
            for i in range(4) for j in range(3)
        )
        gauss = sum(
            float(mp_gauss_logpdf(y.values[i], params.means[0], params.covs[0]))
            for i in range(4)
        )
        assert exact_loglik(x, y, params) == pytest.approx(bern + gauss, abs=1e-10)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_high_precision_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rand_instance(rng, 3, 3, 1)
        params = rand_params(rng, 2, 2, 1)
        got = exact_loglik(x, y, params)
        want = mp_exact_loglik(x, y, params)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_collapsed_eight_term_sum(self):
        # with swap-symmetric parameters the 16 labelings pair up, so the
        # total is twice the sum over labelings with z_1 pinned
        params = swap_symmetric_params()
        x = BinaryMatrix([[1.0, 0.0], [0.0, 1.0]])
        y = CovariateTable([[0.4], [-0.7]])

        def term(z, w):
            acc = 0.0
            for i in range(2):
                acc += np.log(params.row_props[z[i]])
                acc += float(
                    mp_gauss_logpdf(y.values[i], params.means[z[i]], params.covs[z[i]])
                )
            for j in range(2):
                acc += np.log(params.col_props[w[j]])
            for i in range(2):
                for j in range(2):
                    acc += bernoulli_link_logpdf(
                        x.values[i, j], y.augmented[i], params.coefs[z[i], w[j]]
                    )
            return acc

        eight = [
            term((0, z2), (w1, w2))
            for z2 in range(2) for w1 in range(2) for w2 in range(2)
        ]
        want = np.log(2.0) + np.log(np.sum(np.exp(eight)))
        assert exact_loglik(x, y, params) == pytest.approx(want, abs=1e-10)

    def test_dominates_free_energy(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            x, y = rand_instance(rng, 4, 4, 1)
            params = rand_params(rng, 2, 2, 1)
            ll = exact_loglik(x, y, params)
            t, r = rand_soft(rng, 4, 2), rand_soft(rng, 4, 2)
            fe = free_energy(t, ColStats.of(x, r), param_terms(y, params))
            assert fe <= ll + 1e-9

    def test_cluster_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        x, y = rand_instance(rng, 3, 4, 1)
        params = rand_params(rng, 2, 3, 1)
        pg, pd = np.array([1, 0]), np.array([2, 0, 1])
        relabeled = ModelParams(
            row_props=params.row_props[pg],
            col_props=params.col_props[pd],
            coefs=params.coefs[pg][:, pd],
            means=params.means[pg],
            covs=params.covs[pg],
        )
        a = exact_loglik(x, y, params)
        b = exact_loglik(x, y, relabeled)
        assert a == pytest.approx(b, abs=1e-10)

    def test_size_guard(self):
        rng = np.random.default_rng(5)
        x, y = rand_instance(rng, 30, 30, 1)
        params = rand_params(rng, 2, 2, 1)
        with pytest.raises(InstanceTooLarge):
            exact_loglik(x, y, params)


class TestPosteriorMode:
    def test_degenerate_prior_pins_rows(self):
        rng = np.random.default_rng(6)
        x, y = rand_instance(rng, 4, 3, 1)
        base = rand_params(rng, 2, 2, 1)
        params = ModelParams(
            row_props=np.array([1.0, 0.0]),
            col_props=base.col_props,
            coefs=base.coefs,
            means=base.means,
            covs=base.covs,
        )
        mode = exact_posterior_mode(x, y, params)
        assert np.all(mode.row_labels == 1)

    def test_recovers_planted_labels(self):
        z = np.array([0, 0, 1, 1, 0])
        w = np.array([1, 0, 0, 1])
        icpt = np.array([[8.0, -8.0], [-8.0, 8.0]])
        params = ModelParams(
            row_props=np.array([0.5, 0.5]),
            col_props=np.array([0.5, 0.5]),
            coefs=np.concatenate([icpt[..., None], np.zeros((2, 2, 1))], axis=2),
            means=np.array([[-4.0], [4.0]]),
            covs=np.full((2, 1, 1), 0.25),
        )
        xv = (icpt[z][:, w] > 0).astype(float)
        y = CovariateTable(params.means[z] + 0.01)
        mode = exact_posterior_mode(BinaryMatrix(xv), y, params)
        np.testing.assert_array_equal(mode.row_labels, z + 1)
        np.testing.assert_array_equal(mode.col_labels, w + 1)

    def test_symmetric_tie_breaks_lexicographically(self):
        params = swap_symmetric_params()
        x = BinaryMatrix([[1.0, 0.0], [0.0, 1.0]])
        y = CovariateTable([[0.0], [0.0]])
        mode = exact_posterior_mode(x, y, params)
        ours = tuple(mode.row_labels) + tuple(mode.col_labels)
        swapped = tuple(3 - mode.row_labels) + tuple(3 - mode.col_labels)
        assert ours <= swapped

    def test_size_guard(self):
        rng = np.random.default_rng(7)
        x, y = rand_instance(rng, 30, 30, 1)
        params = rand_params(rng, 2, 2, 1)
        with pytest.raises(InstanceTooLarge):
            exact_posterior_mode(x, y, params)
