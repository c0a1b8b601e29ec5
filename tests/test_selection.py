"""BIC-style criterion and the (g, d) grid search."""

import dataclasses
import math
import multiprocessing
import os
import re
import signal
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import coblock as cb
from coblock import bem, cli, selection
from coblock.bem import BemConfig
from coblock.errors import DimensionMismatch, ParamValidationError, WorkerLost
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
        # mass floor above n/g makes every g=3 restart collapse; a worker
        # process would not see the patch, so the cells run in-process
        monkeypatch.setattr(bem, "_MIN_CLUSTER_MASS", 25.0)
        in_process(monkeypatch)
        cfg = BemConfig(n_restarts=2, seed=7)
        grid = select(sim.x, sim.y, [1, 3], [1], cfg)
        assert (3, 1) in grid.failures
        assert (3, 1) not in grid.entries
        assert grid.best == (1, 1)

    def test_rejects_empty_ranges(self):
        sim = self.one_block_data()
        with pytest.raises(ParamValidationError):
            select(sim.x, sim.y, [], [1], BemConfig())

    def test_rejects_cells_beyond_the_data_before_fitting(self, monkeypatch):
        # d = 13 > m = 12: the error fit would raise, before any cell is fitted
        calls, fit = [], selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a: calls.append(a) or fit(*a))
        sim = cb.generate(cb.SimConfig(n=40, m=12, params=cb.separated_params(2, 2), seed=3))
        message = "need 1 <= g <= n and 1 <= d <= m, got g=1, d=13, n=40, m=12"
        with pytest.raises(ParamValidationError, match=re.escape(message)):
            select(sim.x, sim.y, range(1, 3), range(1, 14))
        assert calls == []


def in_process(monkeypatch):
    """Make select fit its cells here: a replaced fit never crosses into
    the worker processes."""
    monkeypatch.setattr(selection, "fit", lambda *a: bem.fit(*a))


def two_row_kinds():
    """Twelve rows of two distinct kinds: every g = 3 restart collapses a
    row cluster, so those cells fail with AllRestartsFailed."""
    rng = np.random.default_rng(0)
    x = np.repeat(rng.integers(0, 2, (2, 10)), 6, axis=0)
    y = np.repeat(np.array([[0.0], [5.0]]), 6, axis=0)
    return cb.BinaryMatrix(x), cb.CovariateTable(y)


class FatalMatrix(cb.BinaryMatrix):
    """A BinaryMatrix whose unpickling ends the process: every worker
    that reads a cell of it dies, as one killed mid-task would."""

    def __reduce__(self):
        return os._exit, (1,)


def grid_bytes(grid):
    """Everything a BicGrid holds, as bytes and plain values."""
    cells = {
        key: (
            c.bic,
            c.fit.free_energy_trace.tobytes(),
            c.fit.params.coefs.tobytes(),
            c.fit.params.means.tobytes(),
            c.fit.params.covs.tobytes(),
            c.fit.params.row_props.tobytes(),
            c.fit.params.col_props.tobytes(),
            c.fit.assignments.row_probs.tobytes(),
            c.fit.assignments.col_probs.tobytes(),
            c.fit.converged,
            c.fit.n_iters,
        )
        for key, c in grid.entries.items()
    }
    return cells, grid.failures, grid.best


class TestCellPool:
    """select's cells run in a pool of spawn workers unless fit is
    replaced; both paths must give the same grid and the same errors."""

    def test_pool_and_in_process_grids_are_bit_identical(self, monkeypatch):
        x, y = two_row_kinds()
        cfg = BemConfig(n_restarts=2, seed=1)
        pooled = select(x, y, range(1, 4), range(1, 4), cfg)
        if selection._usable_cpus() > 1:
            assert selection._POOL is not None
        in_process(monkeypatch)
        here = select(x, y, range(1, 4), range(1, 4), cfg)
        assert set(pooled.failures) == {(3, 1), (3, 2), (3, 3)}
        assert len(pooled.entries) == 6
        assert grid_bytes(pooled) == grid_bytes(here)

    def test_worker_error_is_raised_as_in_process(self, monkeypatch):
        x, _ = two_row_kinds()
        short_y = cb.CovariateTable(np.zeros((x.n - 1, 1)))
        cfg = BemConfig(n_restarts=1, seed=2)
        with pytest.raises(DimensionMismatch) as pooled:
            select(x, short_y, range(1, 4), range(1, 4), cfg)
        # the pool is still usable afterwards
        x, y = two_row_kinds()
        after = select(x, y, [1, 2], [1, 2], cfg)
        in_process(monkeypatch)
        with pytest.raises(DimensionMismatch) as here:
            select(x, short_y, range(1, 4), range(1, 4), cfg)
        assert str(pooled.value) == str(here.value) == "x has 12 rows but y has 11"
        assert grid_bytes(after) == grid_bytes(select(x, y, [1, 2], [1, 2], cfg))

    def test_both_paths_raise_the_first_error_in_run_order(self, monkeypatch):
        # the small cell raises ValueError (a seed below 0, which BemConfig
        # would refuse and SeedSequence raises on), the larger one fit's own
        # ParamValidationError (g beyond n, which select's check would have
        # refused); the larger runs first, so its error wins on both paths
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        x, y = two_row_kinds()
        bad = BemConfig()
        object.__setattr__(bad, "seed", -1)
        cells = [(1, 1, bad), (x.n + 1, 2, BemConfig(seed=1))]
        with pytest.raises(ValueError, match="expected non-negative integer"):
            selection._fit_cells(x, y, cells[:1])
        with pytest.raises(ParamValidationError) as pooled:
            selection._fit_cells(x, y, cells)
        in_process(monkeypatch)
        with pytest.raises(ParamValidationError) as here:
            selection._fit_cells(x, y, cells)
        message = "need 1 <= g <= n and 1 <= d <= m, got g=13, d=2, n=12, m=10"
        assert str(pooled.value) == str(here.value) == message

    def test_a_failed_cell_cancels_the_queued_ones(self, monkeypatch):
        # one worker: the failing cell (a seed below 0, which BemConfig
        # would refuse and SeedSequence raises on) is the largest, so it
        # runs first and fails at once; the slow cells queued behind it
        # must not run
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
        futures = []

        def submit(*args):
            futures.append(ProcessPoolExecutor.submit(pool, *args))
            return futures[-1]

        monkeypatch.setattr(pool, "submit", submit)
        monkeypatch.setattr(selection, "_POOL", pool)
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        sim = cb.generate(cb.SimConfig(n=300, m=60, params=cb.separated_params(2, 2), seed=1))
        slow = BemConfig(n_restarts=10, free_energy_rel_tol=0.0, max_outer_iters=50)
        bad = BemConfig()
        object.__setattr__(bad, "seed", -1)
        cells = [(3, 3, bad)] + [(1, 1, dataclasses.replace(slow, seed=s)) for s in range(12)]
        try:
            with pytest.raises(ValueError, match="expected non-negative integer"):
                selection._fit_cells(sim.x, sim.y, cells)
            assert sum(f.cancelled() for f in futures) >= 6
        finally:
            pool.shutdown()

    def test_a_dead_worker_costs_one_rerun(self, monkeypatch):
        # a worker killed between two selects (SIGKILL, the OOM killer's
        # signal) breaks the pool; the next select renews it and returns
        # the grid a select here returns
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        x, y = two_row_kinds()
        cfg = BemConfig(n_restarts=2, seed=1)
        select(x, y, [1, 2], [1, 2], cfg)
        broken = selection._POOL
        os.kill(next(iter(broken._processes)), signal.SIGKILL)
        pooled = select(x, y, [1, 2], [1, 2], cfg)
        assert selection._POOL is not broken
        in_process(monkeypatch)
        assert grid_bytes(pooled) == grid_bytes(select(x, y, [1, 2], [1, 2], cfg))

    def test_a_second_death_raises_worker_lost(self, monkeypatch, tmp_path, capsys):
        # the cells kill the fresh pool's workers too: a CoblockError that
        # names a cell, and exit status 1 from the CLI; the pool after it works
        monkeypatch.setattr(selection, "_usable_cpus", lambda: 2)
        x, y = two_row_kinds()
        cfg = BemConfig(n_restarts=1, seed=1)
        message = r"^a select worker process died twice, the second time with cell \(g=\d, d=\d\)"
        with pytest.raises(WorkerLost, match=message):
            select(FatalMatrix(x.values), y, [1, 2], [1, 2], cfg)
        monkeypatch.setattr(cli, "load_dataset", lambda *paths: (FatalMatrix(x.values), y))
        argv = ["select", "--x", "x.csv", "--y", "y.csv", "--g-range", "1:2", "--d-range", "1:2",
                "--restarts", "1", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: a select worker process died twice")
        assert isinstance(select(x, y, [1, 2], [1, 2], cfg), selection.BicGrid)
