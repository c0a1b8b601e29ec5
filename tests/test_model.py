"""Core types, the logistic link and the Gaussian densities."""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coblock.bem import FitResult
from coblock.errors import NotPositiveDefinite, ParamValidationError
from coblock.model import (
    BinaryMatrix,
    CovariateTable,
    HardLabels,
    ModelParams,
    SoftAssignments,
    gaussian_cluster_logpdfs,
)
from coblock.simulate import _link as logistic
from helpers import bernoulli_link_logpdf, mp_gauss_logpdf, rand_params

LOG_HALF = -0.6931471805599453

finite_pred = st.floats(min_value=-700.0, max_value=700.0,
                        allow_nan=False, allow_infinity=False)


def gaussian_logpdf(y, mean, cov) -> float:
    """gaussian_cluster_logpdfs of one point under one cluster."""
    mean = np.asarray(mean, dtype=float)
    params = ModelParams(
        np.ones(1), np.ones(1), np.zeros((1, 1, mean.size + 1)), mean[None], np.asarray(cov)[None]
    )
    return float(gaussian_cluster_logpdfs(CovariateTable(np.reshape(y, (1, -1))), params)[0, 0])


class TestLogistic:
    """simulate's logistic link, the fit's sigmoid of exp(-|eta|), has the
    properties generate relies on (test_bem.TestLogisticKernels checks
    that sigmoid against 50-digit values and scipy's expit)."""

    def test_zero(self):
        assert logistic(0.0) == 0.5

    def test_saturation(self):
        assert abs(logistic(40.0) - 1.0) <= 1e-12

    def test_log_three(self):
        assert logistic(np.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_extreme_arguments_stay_finite(self):
        assert logistic(700.0) == 1.0
        assert logistic(-700.0) >= 0.0
        assert np.isfinite(logistic(-700.0))

    @given(finite_pred)
    def test_symmetry(self, u):
        assert abs(logistic(-u) - (1.0 - logistic(u))) <= 1e-15

    @given(finite_pred, finite_pred)
    def test_monotone(self, u, v):
        lo, hi = min(u, v), max(u, v)
        assert logistic(lo) <= logistic(hi)


class TestBernoulliLink:
    def test_half_probability_both_outcomes(self):
        y_aug = np.array([1.0])
        beta = np.array([0.0])
        assert bernoulli_link_logpdf(1, y_aug, beta) == pytest.approx(LOG_HALF, abs=1e-15)
        assert bernoulli_link_logpdf(0, y_aug, beta) == pytest.approx(LOG_HALF, abs=1e-15)

    def test_cancelling_predictor(self):
        # linear term 0.5*1 + (-0.25)*2 = 0, so the density is one half
        y_aug = np.array([1.0, 2.0])
        beta = np.array([0.5, -0.25])
        assert bernoulli_link_logpdf(1, y_aug, beta) == pytest.approx(LOG_HALF, abs=1e-15)

    @given(finite_pred)
    def test_complement_sums_to_one(self, u):
        y_aug = np.array([1.0])
        beta = np.array([u])
        p1 = np.exp(bernoulli_link_logpdf(1, y_aug, beta))
        p0 = np.exp(bernoulli_link_logpdf(0, y_aug, beta))
        assert abs(p1 + p0 - 1.0) <= 1e-12


class TestGaussianLogpdf:
    def test_standard_normal_at_mode(self):
        val = gaussian_logpdf(np.array([0.0]), np.array([0.0]), np.array([[1.0]]))
        assert val == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_bivariate_standard_at_mode(self):
        val = gaussian_logpdf(np.zeros(2), np.zeros(2), np.eye(2))
        assert val == pytest.approx(-1.8378770664093455, abs=1e-12)

    def test_scalar_variance_four(self):
        val = gaussian_logpdf(np.array([2.0]), np.array([0.0]), np.array([[4.0]]))
        assert val == pytest.approx(-2.112085713764618, abs=1e-12)

    def test_not_positive_definite(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            gaussian_logpdf(np.zeros(2), np.zeros(2), sigma)

    @pytest.mark.parametrize("mu,var", [(0.0, 1.0), (-1.5, 0.25), (3.0, 7.0)])
    def test_integrates_to_one(self, mu, var):
        sd = np.sqrt(var)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        lo, hi = mu - 10.0 * sd, mu + 10.0 * sd
        ys = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        dens = [np.exp(gaussian_logpdf(np.array([v]), np.array([mu]), np.array([[var]])))
                for v in ys]
        integral = 0.5 * (hi - lo) * np.dot(weights, dens)
        assert integral == pytest.approx(1.0, abs=1e-8)


class TestGaussianClusterLogpdfs:
    """The batched (n, g) kernel against 50-digit densities, row by row."""

    @staticmethod
    def check(y: CovariateTable, params: ModelParams):
        have = gaussian_cluster_logpdfs(y, params)
        assert have.shape == (y.n, params.g) and have.flags.c_contiguous
        for i in range(y.n):
            for k in range(params.g):
                want = float(mp_gauss_logpdf(y.values[i], params.means[k], params.covs[k]))
                assert have[i, k] == pytest.approx(want, rel=1e-12), (i, k)

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_random_spd_covariances(self, g, p):
        rng = np.random.default_rng(100 * g + p)
        params = rand_params(rng, g, 1, p)
        self.check(CovariateTable(rng.normal(scale=2.0, size=(7, p))), params)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_ridge_scale_variance(self, p):
        # a one-row cluster's covariance is the ridge alone
        rng = np.random.default_rng(p)
        base = rand_params(rng, 2, 1, p)
        covs = base.covs.copy()
        covs[0] = 1e-8 * np.eye(p)
        params = ModelParams(base.row_props, base.col_props, base.coefs, base.means, covs)
        rows = base.means[0] + 1e-4 * rng.normal(size=(5, p))
        self.check(CovariateTable(np.vstack([rows, rng.normal(size=(2, p))])), params)


class TestBinaryMatrix:
    def test_accepts_binary(self):
        x = BinaryMatrix([[0, 1], [1, 0]])
        assert (x.n, x.m) == (2, 2)
        assert x.values.dtype == np.uint8 and x.values.flags.c_contiguous
        assert x.values.tobytes() == bytes([0, 1, 1, 0])
        # any layout and dtype of 0/1 input is stored as C-ordered uint8
        f = BinaryMatrix(np.asfortranarray([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]))
        assert f.values.flags.c_contiguous and f.values.tobytes() == bytes([0, 1, 1, 1, 0, 1])
        # a uint8 input is copied, not frozen in place; bool and string inputs pass
        v = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        assert not np.shares_memory(BinaryMatrix(v).values, v) and v.flags.writeable
        for other in (v.astype(bool), np.array([["0", "1"], ["1", "0"]])):
            assert BinaryMatrix(other).values.tobytes() == x.values.tobytes()

    def test_rejects_other_values(self):
        # ints are checked before the uint8 cast, which would wrap 256 to 0
        bads = ([[0, 2], [1, 0]], [[0, 256]], [[0, -1]], [[0, 0.5]], [[0, np.nan]], [["0", "2"]])
        for bad in bads:
            with pytest.raises(ParamValidationError, match="row 1, column 2"):
                BinaryMatrix(bad)

    def test_rejects_empty(self):
        with pytest.raises(ParamValidationError):
            BinaryMatrix(np.empty((0, 3)))

    def test_immutable(self):
        x = BinaryMatrix([[0, 1]])
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0

    def test_construction_peak_memory(self):
        # a 2 MB uint8 input is checked without a float64 copy (16 MB)
        v = (np.random.default_rng(0).random((2000, 1000)) < 0.5).astype(np.uint8)
        tracemalloc.start()
        try:
            BinaryMatrix(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    def test_adopt_freezes_without_copy(self):
        v = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        x = BinaryMatrix._adopt(v)
        assert x.values is v and not v.flags.writeable
        assert (x.n, x.m) == (2, 2)


class TestCovariateTable:
    def test_augmented_layout(self):
        y = CovariateTable([[2.0, 3.0], [4.0, 5.0]])
        assert y.p == 2
        np.testing.assert_array_equal(y.augmented[:, 0], [1.0, 1.0])
        np.testing.assert_array_equal(y.augmented[:, 1:], y.values)

    def test_zero_covariates_allowed(self):
        y = CovariateTable(np.empty((3, 0)))
        assert y.p == 0
        assert y.augmented.shape == (3, 1)

    def test_rejects_nan(self):
        with pytest.raises(ParamValidationError):
            CovariateTable([[np.nan]])


class TestModelParams:
    def _valid(self):
        return dict(
            row_props=np.array([0.5, 0.5]),
            col_props=np.array([1.0]),
            coefs=np.zeros((2, 1, 2)),
            means=np.zeros((2, 1)),
            covs=np.array([[[1.0]], [[2.0]]]),
        )

    def test_dimensions(self):
        params = ModelParams(**self._valid())
        assert (params.g, params.d, params.p) == (2, 1, 1)

    def test_props_must_sum_to_one(self):
        bad = self._valid()
        bad["row_props"] = np.array([0.6, 0.6])
        with pytest.raises(ParamValidationError):
            ModelParams(**bad)

    def test_props_must_be_nonnegative(self):
        bad = self._valid()
        bad["row_props"] = np.array([1.2, -0.2])
        with pytest.raises(ParamValidationError):
            ModelParams(**bad)

    @pytest.mark.parametrize("field, value", [
        ("row_props", [np.nan, 0.5]), ("row_props", [np.nan, np.nan]), ("col_props", [np.nan]),
    ])
    def test_props_reject_nan(self, field, value):
        bad = self._valid()
        bad[field] = np.array(value)
        with pytest.raises(ParamValidationError, match=f"{field} sums to"):
            ModelParams(**bad)

    @pytest.mark.parametrize("value, shown", [([0.6, 0.6], "1.2"), ([np.nan, 0.5], "nan")])
    def test_sum_message_shows_a_plain_float(self, value, shown):
        bad = self._valid()
        bad["row_props"] = np.array(value)
        with pytest.raises(ParamValidationError) as info:
            ModelParams(**bad)
        assert str(info.value) == f"row_props sums to {shown}, expected 1"

    def test_cov_must_be_symmetric(self):
        bad = self._valid()
        bad["coefs"] = np.zeros((2, 1, 3))
        bad["means"] = np.zeros((2, 2))
        bad["covs"] = np.array([[[1.0, 0.3], [0.0, 1.0]]] * 2)
        with pytest.raises(ParamValidationError):
            ModelParams(**bad)

    def test_symmetry_tolerance_scales_with_the_entries(self):
        # one ulp of round-off between the off-diagonals of a covariance
        # with entries near 1e6 is about 6e-11: symmetric up to round-off
        params = self._valid()
        params["coefs"] = np.zeros((2, 1, 3))
        params["means"] = np.zeros((2, 2))
        off = 5e5
        params["covs"] = np.array([[[1e6, off], [np.nextafter(off, np.inf), 1e6]]] * 2)
        ModelParams(**params)
        params["covs"] = np.array([[[1e6, 1.0], [0.0, 1e6]]] * 2)
        with pytest.raises(ParamValidationError, match="not symmetric"):
            ModelParams(**params)

    def test_cov_must_be_positive_definite(self):
        bad = self._valid()
        bad["covs"] = np.array([[[1.0]], [[0.0]]])
        with pytest.raises(NotPositiveDefinite):
            ModelParams(**bad)

    def test_coefs_must_be_finite(self):
        bad = self._valid()
        bad["coefs"] = np.full((2, 1, 2), np.inf)
        with pytest.raises(ParamValidationError):
            ModelParams(**bad)


class TestAssignmentsAndLabels:
    def test_soft_rows_must_normalize(self):
        with pytest.raises(ParamValidationError):
            SoftAssignments(row_probs=np.array([[0.7, 0.7]]), col_probs=np.array([[1.0]]))

    def test_soft_entries_within_unit_interval(self):
        with pytest.raises(ParamValidationError):
            SoftAssignments(row_probs=np.array([[1.5, -0.5]]), col_probs=np.array([[1.0]]))

    @pytest.mark.parametrize("row_probs, col_probs", [
        ([[np.nan, 1.0]], [[1.0]]),
        ([[0.5, 0.5], [np.nan, np.nan]], [[1.0]]),
        ([[1.0]], [[np.nan]]),
    ])
    def test_soft_rejects_nan(self, row_probs, col_probs):
        with pytest.raises(ParamValidationError, match="do not sum to 1"):
            SoftAssignments(row_probs=np.array(row_probs), col_probs=np.array(col_probs))

    def test_hard_labels_are_one_based(self):
        with pytest.raises(ParamValidationError):
            HardLabels([0, 1], [1])
        lab = HardLabels([1, 2], [1, 1, 2])
        assert lab.row_labels.tolist() == [1, 2]
        assert lab.col_labels.tolist() == [1, 1, 2]


def _fit_result():
    rng = np.random.default_rng(5)
    soft = SoftAssignments(rng.dirichlet(np.ones(2), size=4), rng.dirichlet(np.ones(2), size=3))
    return FitResult(rand_params(rng, 2, 2, 1), soft, [-3.0, -2.5], True, 1)


def _table_with_pairs():
    table = CovariateTable([[0.5, 1.0], [2.0, -1.0]])
    table._aug_pairs  # built lazily; a pickled table must not carry it writable
    return table


def _arrays(obj):
    """Every ndarray reachable through obj's attributes, by path."""
    if isinstance(obj, np.ndarray):
        return {"": obj}
    if isinstance(obj, tuple):
        items = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    else:
        return {}
    return {f"{k}.{path}": a for k, v in items for path, a in _arrays(v).items()}


@pytest.mark.parametrize("make", [
    lambda: BinaryMatrix([[0, 1], [1, 1]]),
    _table_with_pairs,
    lambda: rand_params(np.random.default_rng(4), 2, 3, 2),
    lambda: SoftAssignments([[0.25, 0.75]], [[1.0, 0.0], [0.5, 0.5]]),
    lambda: HardLabels([1, 2], [2, 1, 1]),
    _fit_result,
], ids=["BinaryMatrix", "CovariateTable", "ModelParams", "SoftAssignments", "HardLabels",
        "FitResult"])
def test_pickle_round_trip_keeps_arrays_frozen(make):
    obj = make()
    want = _arrays(obj)
    got = _arrays(pickle.loads(pickle.dumps(obj)))
    assert set(got) <= set(want) and len(got) > 0
    for path, arr in got.items():
        np.testing.assert_array_equal(arr, want[path])
        assert not arr.flags.writeable, path
