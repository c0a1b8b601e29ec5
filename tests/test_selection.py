"""BIC-style criterion and the (g, d) grid search."""

import math

import numpy as np
import pytest

import coblock as cb
from coblock import bem
from coblock.bem import BemConfig
from coblock.errors import ParamValidationError
from coblock.model import ModelParams
from coblock.selection import GridCell, bic, gaussian_param_count, pick_best, select


def cell(g, d, value):
    return GridCell(g=g, d=d, free_energy=0.0, bic=value, fit=None)


class TestGaussianParamCount:
    def test_values(self):
        assert gaussian_param_count(2, 1) == 4
        assert gaussian_param_count(2, 2) == 10
        assert gaussian_param_count(3, 1) == 6
        assert gaussian_param_count(1, 0) == 0


class TestBic:
    def test_worked_example(self):
        # 200 + 1*log(100) + 4*log(100) + 1*log(50) + 8*log(5000),
        # frozen from a 50-digit evaluation
        got = bic(-100.0, n=100, m=50, p=1, g=2, d=2)
        assert got == pytest.approx(295.0754194666985, abs=1e-9)

    def test_no_covariates_penalty(self):
        got = bic(0.0, n=20, m=10, p=0, g=1, d=1)
        assert got == pytest.approx(math.log(200), abs=1e-12)

    def test_gaussian_penalty(self):
        # each free parameter of the covariate model costs log n
        rest = 10.0 + math.log(30) + math.log(20) + 8 * math.log(600)
        assert bic(-5.0, n=30, m=20, p=1, g=2, d=2) == pytest.approx(
            rest + gaussian_param_count(2, 1) * math.log(30), abs=1e-12
        )

    def test_monotone_in_dimensions(self):
        ref = bic(-10.0, n=100, m=50, p=1, g=2, d=2)
        assert bic(-10.0, n=200, m=50, p=1, g=2, d=2) > ref
        assert bic(-10.0, n=100, m=100, p=1, g=2, d=2) > ref
        assert bic(-10.0, n=100, m=50, p=2, g=2, d=2) > ref
        assert bic(-10.0, n=100, m=50, p=1, g=3, d=2) > ref
        assert bic(-10.0, n=100, m=50, p=1, g=2, d=3) > ref


class TestPickBest:
    def test_single_cell(self):
        assert pick_best([cell(3, 4, 77.0)]) == (3, 4)

    def test_minimum_wins_outside_window(self):
        cells = [cell(1, 1, 100.0), cell(2, 2, 90.0)]
        assert pick_best(cells) == (2, 2)

    def test_near_tie_prefers_smaller_model(self):
        cells = [cell(1, 1, 91.5), cell(2, 2, 90.0)]
        assert pick_best(cells) == (1, 1)

    def test_window_is_two_units(self):
        assert pick_best([cell(1, 1, 92.0), cell(2, 2, 90.0)]) == (1, 1)
        assert pick_best([cell(1, 1, 92.01), cell(2, 2, 90.0)]) == (2, 2)

    def test_equal_size_tie_prefers_lower_bic(self):
        cells = [cell(1, 4, 90.8), cell(2, 2, 90.0)]
        assert pick_best(cells) == (2, 2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParamValidationError):
            pick_best([])


class TestSelect:
    def one_block_data(self):
        params = ModelParams(
            row_props=np.array([1.0]),
            col_props=np.array([1.0]),
            coefs=np.array([[[0.3, 0.2]]]),
            means=np.array([[0.0]]),
            covs=np.array([[[1.0]]]),
        )
        return cb.generate(cb.SimConfig(n=60, m=16, params=params, seed=3))

    def test_one_block_data_selects_smallest_model(self):
        # the Gaussian term is counted once per row, so an extra row
        # cluster cannot pay its penalty on one-block data
        sim = self.one_block_data()
        cfg = BemConfig(n_restarts=2, seed=4)
        grid = select(sim.x, sim.y, [1, 2], [1, 2], cfg)
        assert set(grid.entries) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert grid.best == (1, 1)
        assert grid.failures == {}

    def test_best_matches_rescan(self):
        sim = self.one_block_data()
        grid = select(sim.x, sim.y, [1, 2], [1, 2], BemConfig(n_restarts=2, seed=5))
        assert grid.best == pick_best(grid.entries.values())
        assert grid.best_cell() is grid.entries[grid.best]

    def test_cells_score_the_final_free_energy(self):
        sim = self.one_block_data()
        grid = select(sim.x, sim.y, [1, 2], [1], BemConfig(n_restarts=1, seed=2))
        for (g, d), c in grid.entries.items():
            assert c.free_energy == c.fit.final_free_energy
            assert c.bic == bic(c.fit.final_free_energy, n=60, m=16, p=1, g=g, d=d)

    def test_deterministic(self):
        sim = self.one_block_data()
        cfg = BemConfig(n_restarts=2, seed=6)
        a = select(sim.x, sim.y, [1, 2], [1, 2], cfg)
        b = select(sim.x, sim.y, [1, 2], [1, 2], cfg)
        assert a.best == b.best
        for key in a.entries:
            assert a.entries[key].bic == b.entries[key].bic

    def test_failed_cell_is_recorded_and_excluded(self, monkeypatch):
        sim = self.one_block_data()
        # mass floor above n/g makes every g=3 restart collapse
        monkeypatch.setattr(bem, "_MIN_CLUSTER_MASS", 25.0)
        cfg = BemConfig(n_restarts=2, seed=7)
        grid = select(sim.x, sim.y, [1, 3], [1], cfg)
        assert (3, 1) in grid.failures
        assert (3, 1) not in grid.entries
        assert grid.best == (1, 1)

    def test_rejects_empty_ranges(self):
        sim = self.one_block_data()
        with pytest.raises(ParamValidationError):
            select(sim.x, sim.y, [], [1], BemConfig())
