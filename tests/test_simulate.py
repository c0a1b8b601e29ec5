"""Synthetic data generation and the recovery error metric."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linear_sum_assignment

from coblock import bem
from coblock.errors import LengthMismatch, ParamValidationError
from coblock.model import ModelParams
from coblock.simulate import (
    SimConfig,
    _max_weight_matching,
    generate,
    label_error_rate,
    separated_params,
)
from helpers import generate_one_shot


def one_block_params(intercept: float) -> ModelParams:
    return ModelParams(
        row_props=np.array([1.0]),
        col_props=np.array([1.0]),
        coefs=np.array([[[intercept, 0.0]]]),
        means=np.array([[0.0]]),
        covs=np.array([[[1.0]]]),
    )


class TestGenerate:
    def test_deterministic(self):
        truth = separated_params(2, 3, p=2, seed=5)
        cfg = SimConfig(n=30, m=20, params=truth, seed=9)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.x.values, b.x.values)
        np.testing.assert_array_equal(a.y.values, b.y.values)
        np.testing.assert_array_equal(a.truth.row_labels, b.truth.row_labels)
        np.testing.assert_array_equal(a.truth.col_labels, b.truth.col_labels)

    def test_shapes_and_label_ranges(self):
        truth = separated_params(3, 2, p=1, seed=1)
        out = generate(SimConfig(n=25, m=11, params=truth, seed=2))
        assert (out.x.n, out.x.m) == (25, 11)
        assert out.y.values.shape == (25, 1)
        assert set(np.unique(out.truth.row_labels)) <= {1, 2, 3}
        assert set(np.unique(out.truth.col_labels)) <= {1, 2}

    def test_saturated_link_gives_all_ones(self):
        out = generate(SimConfig(n=40, m=30, params=one_block_params(40.0), seed=3))
        assert np.all(out.x.values == 1.0)

    def test_fair_coin_band(self):
        # 10^6 cells; binomial 3-sigma band around one half
        out = generate(SimConfig(n=1000, m=1000, params=one_block_params(0.0), seed=4))
        se = 0.5 / np.sqrt(out.x.n * out.x.m)
        assert abs(out.x.values.mean() - 0.5) <= 3.0 * se

    def test_marginal_matches_link(self):
        b = 0.7
        out = generate(SimConfig(n=1000, m=1000, params=one_block_params(b), seed=6))
        p = 1.0 / (1.0 + np.exp(-b))
        se = np.sqrt(p * (1.0 - p) / (out.x.n * out.x.m))
        assert abs(out.x.values.mean() - p) <= 4.0 * se

    def test_degenerate_row_prior(self):
        params = ModelParams(
            row_props=np.array([1.0, 0.0]),
            col_props=np.array([1.0]),
            coefs=np.zeros((2, 1, 2)),
            means=np.array([[2.0], [-50.0]]),
            covs=np.array([[[1.0]], [[1.0]]]),
        )
        out = generate(SimConfig(n=400, m=3, params=params, seed=7))
        assert np.all(out.truth.row_labels == 1)
        assert abs(out.y.values.mean() - 2.0) <= 4.0 / np.sqrt(400)

    def test_changing_m_keeps_row_draws(self):
        # row labels and covariates come from their own sub-streams
        truth = separated_params(2, 2, p=1, seed=8)
        small = generate(SimConfig(n=15, m=4, params=truth, seed=11))
        wide = generate(SimConfig(n=15, m=9, params=truth, seed=11))
        np.testing.assert_array_equal(small.truth.row_labels, wide.truth.row_labels)
        np.testing.assert_array_equal(small.y.values, wide.y.values)

    def test_rejects_empty_dimensions(self):
        truth = separated_params(1, 1, p=1, seed=0)
        with pytest.raises(ParamValidationError):
            SimConfig(n=0, m=5, params=truth, seed=0)

    def test_rejects_negative_seed(self):
        truth = separated_params(1, 1, p=1, seed=0)
        with pytest.raises(ParamValidationError, match="seed >= 0"):
            SimConfig(n=5, m=5, params=truth, seed=-1)


class TestGenerateInRowBlocks:
    """generate draws the cells a block of rows at a time into uint8: the
    bits of one (n, m) draw, in memory bounded by the block."""

    @pytest.mark.parametrize("m", [1, 3, 1000])
    @pytest.mark.parametrize("edge", ["one row", "block - 1", "block", "block + 1", "2000"])
    def test_equals_one_shot_draw(self, m, edge):
        block = bem._CHUNK_WORK // m
        n = {"one row": 1, "block - 1": block - 1, "block": block, "block + 1": block + 1,
             "2000": 2000}[edge]
        cfg = SimConfig(n=n, m=m, params=separated_params(2, 3, p=2, seed=5), seed=7)
        out = generate(cfg)
        x, yv = generate_one_shot(cfg)
        assert out.x.values.dtype == np.uint8 and out.x.values.flags.c_contiguous
        assert out.x.values.tobytes() == x.astype(np.uint8).tobytes()
        assert out.y.values.tobytes() == yv.tobytes()

    def test_peak_memory_is_bounded(self):
        # x takes 2 MB at 2000x1000; the (n, m) float64 uniforms and
        # probabilities of a one-shot draw would take 16 MB each
        truth = separated_params(2, 2, p=1, mean_scale=10.0)
        cfg = SimConfig(n=2000, m=1000, params=truth, seed=1)
        tracemalloc.start()
        try:
            generate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestSeparatedParams:
    def test_deterministic_and_valid(self):
        a = separated_params(2, 3, p=2, seed=17)
        b = separated_params(2, 3, p=2, seed=17)
        np.testing.assert_array_equal(a.coefs, b.coefs)
        np.testing.assert_array_equal(a.means, b.means)
        assert (a.g, a.d, a.p) == (2, 3, 2)

    def test_mean_scale_controls_spread(self):
        a = separated_params(2, 2, p=1, mean_scale=10.0, seed=0)
        assert a.means.max() - a.means.min() == pytest.approx(10.0)

    def test_intercept_magnitudes(self):
        a = separated_params(2, 2, p=1, intercept_scale=3.0, slope_scale=0.0, seed=0)
        np.testing.assert_allclose(np.abs(a.coefs[:, :, 0]), 3.0)
        np.testing.assert_allclose(a.coefs[:, :, 1:], 0.0)

    def test_distinct_blocks_have_distinct_signs(self):
        a = separated_params(2, 3, p=1, distinct_blocks=True, seed=2)
        signs = np.sign(a.coefs[:, :, 0])
        cols = [tuple(signs[:, l]) for l in range(3)]
        assert len(set(cols)) == 3

    @pytest.mark.parametrize("g,d,p", [(0, 2, 1), (2, 0, 1), (-1, 2, 1), (2, -3, 1), (2, 2, -1)])
    def test_rejects_unusable_sizes(self, g, d, p):
        with pytest.raises(ParamValidationError, match=f"got g={g}, d={d}, p={p}"):
            separated_params(g, d, p=p)


class TestLabelErrorRate:
    def test_identity(self):
        assert label_error_rate([1, 2, 1], [1, 2, 1]) == 0.0

    def test_swap_invariance(self):
        assert label_error_rate([2, 1, 2], [1, 2, 1]) == 0.0

    def test_single_flip(self):
        assert label_error_rate([1, 2, 2, 2], [1, 1, 2, 2]) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            label_error_rate([1, 2], [1, 2, 1])

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=12),
           st.permutations([1, 2, 3]))
    def test_relabeling_either_side_is_free(self, labels, perm):
        labels = np.asarray(labels)
        relabeled = np.asarray(perm)[labels - 1]
        assert label_error_rate(relabeled, labels) == 0.0
        assert label_error_rate(labels, relabeled) == 0.0

    @given(st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=10),
           st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=10))
    def test_symmetric_in_arguments(self, a, b):
        if len(a) != len(b):
            a = (a * len(b))[: len(b)]
        assert label_error_rate(a, b) == pytest.approx(label_error_rate(b, a))


@st.composite
def confusions(draw):
    """Rectangular count matrices up to 15 on either side; small counts
    give ties, and some rows are all zero."""
    shape = (draw(st.integers(1, 15)), draw(st.integers(1, 15)))
    top = draw(st.integers(0, 30))
    counts = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, top)))
    counts[draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))] = 0
    return counts.astype(float)


class TestMaxWeightMatching:
    """label_error_rate's assignment solver against scipy's
    linear_sum_assignment(..., maximize=True)."""

    @staticmethod
    def check(weights):
        rows, cols = _max_weight_matching(weights)
        want_rows, want_cols = linear_sum_assignment(weights, maximize=True)
        assert rows.size == cols.size == min(weights.shape)
        assert np.unique(rows).size == rows.size and np.unique(cols).size == cols.size
        assert weights[rows, cols].sum() == weights[want_rows, want_cols].sum()

    @given(confusions())
    def test_matches_scipy(self, weights):
        self.check(weights)

    def test_every_shape_up_to_fifteen(self):
        rng = np.random.default_rng(17)
        for k1 in range(1, 16):
            for k2 in range(1, 16):
                self.check(rng.integers(0, 4, size=(k1, k2)).astype(float))
        self.check(np.zeros((4, 6)))
