"""Cluster-count selection by grid search over (g, d) with a BIC-style
criterion in which the maximized free energy stands in for the
intractable log-likelihood.

Penalty terms count the free parameters: g-1 row proportions, d-1
column proportions, the Gaussian means and covariance entries (against
log n, since only rows inform them), and g*d*(p+1) logistic
coefficients against log(n*m).
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import bem
from .bem import BemConfig, FitResult, _check_cluster_counts, fit
from .errors import AllRestartsFailed, ParamValidationError, WorkerLost
from .model import BinaryMatrix, CovariateTable

NEAR_TIE_WINDOW = 2.0


@dataclass(frozen=True)
class GridCell:
    """One evaluated (g, d) pair: its fit and criterion value."""

    g: int
    d: int
    free_energy: float
    bic: float
    fit: FitResult


@dataclass(frozen=True)
class BicGrid:
    """All evaluated cells keyed by (g, d), the chosen pair, and any
    cells whose every restart collapsed (absent from entries)."""

    entries: dict
    best: tuple
    failures: dict

    def best_cell(self) -> GridCell:
        return self.entries[self.best]


def gaussian_param_count(g: int, p: int) -> int:
    """Free parameters of the covariate model: g means of length p plus
    g symmetric covariances with p(p+1)/2 distinct entries each."""
    return g * p + g * p * (p + 1) // 2


def bic(free_energy: float, n: int, m: int, p: int, g: int, d: int) -> float:
    """-2 F* + (g-1) log n + lam log n + (d-1) log m + g d (p+1) log(nm),
    with F* the fit's final free energy and lam = gaussian_param_count(g, p).
    Smaller is better.
    """
    return (
        -2.0 * free_energy
        + (g - 1) * math.log(n)
        + gaussian_param_count(g, p) * math.log(n)
        + (d - 1) * math.log(m)
        + g * d * (p + 1) * math.log(n * m)
    )


def pick_best(cells) -> tuple:
    """(g, d) of the selected cell under the parsimony tie-break.

    Cells within NEAR_TIE_WINDOW of the minimum criterion value count as
    tied; among them the smallest g*d wins, then the lower criterion,
    then lexicographic (g, d).
    """
    cells = list(cells)
    if not cells:
        raise ParamValidationError("no grid cells to select from")
    floor = min(c.bic for c in cells)
    tied = [c for c in cells if c.bic <= floor + NEAR_TIE_WINDOW]
    chosen = min(tied, key=lambda c: (c.g * c.d, c.bic, c.g, c.d))
    return (chosen.g, chosen.d)


_POOL = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _pool():
    """The process-wide executor: one spawn worker per usable CPU at most,
    each started when a task finds no idle worker."""
    global _POOL
    if _POOL is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(_usable_cpus(), mp_context=multiprocessing.get_context("spawn"))
        # concurrent.futures joins the workers at exit, but a pool left to module
        # teardown can print an ignored AttributeError from its weakref callback
        atexit.register(_POOL.shutdown)
    return _POOL


def _fit_cell(x, y, g, d, cfg):
    """One cell's fit, or its AllRestartsFailed as a value."""
    try:
        return fit(x, y, g, d, cfg)
    except AllRestartsFailed as exc:
        return exc


def _fit_cells(x, y, cells):
    """_fit_cell of each (g, d, cfg) in cells, returned in their order.

    The cells run largest g*d first, ties in cell order, so that the
    largest does not run last beside an idle worker. They run through the
    process pool's map, or through the builtin map here if one CPU is
    usable, there is one cell, or fit has been replaced (a replacement
    cannot cross a process boundary). Either way the first exception in
    that run order is raised, and a cell's bytes do not depend on where it
    ran; the pool's map cancels the cells still queued. If a worker dies,
    the pool is dropped and the whole call runs once more on a fresh one;
    a second death raises WorkerLost, naming the cell being awaited.
    """
    global _POOL
    order = sorted(range(len(cells)), key=lambda i: -cells[i][0] * cells[i][1])
    run = [cells[i] for i in order]
    if len(cells) < 2 or fit is not bem.fit or _usable_cpus() < 2:
        results = list(map(_fit_cell, repeat(x), repeat(y), *zip(*run)))
    else:
        # imported here: multiprocessing would add 2 MB to every process that imports coblock
        from concurrent.futures.process import BrokenProcessPool

        for renewed in (False, True):
            results = []
            try:
                for result in _pool().map(_fit_cell, repeat(x), repeat(y), *zip(*run)):
                    results.append(result)
                break
            except BrokenProcessPool as exc:
                # shutting a broken pool down settles its futures; the next _pool() is fresh
                atexit.unregister(_POOL.shutdown)
                _POOL.shutdown()
                _POOL = None
                if renewed:
                    g, d, _ = run[len(results)]
                    raise WorkerLost(
                        f"a select worker process died twice, the second time with cell "
                        f"(g={g}, d={d}) unfitted: {exc}"
                    ) from exc
    by_index = dict(zip(order, results))
    return [by_index[i] for i in range(len(cells))]


def select(
    x: BinaryMatrix, y: CovariateTable, g_range, d_range, cfg: BemConfig | None = None
) -> BicGrid:
    """Fit every (g, d) in the ranges and choose by the criterion.

    Each cell gets its own deterministic seed derived from cfg.seed, so
    the whole grid is reproducible and cells are independent. They are
    fitted on min(usable CPUs, cells) spawn workers kept for the life of
    the process, with the bytes of a fit here (see _fit_cells); spawn
    re-imports the main module, so a script that calls select needs an
    `if __name__ == "__main__":` guard. A cell whose restarts all fail
    is recorded under failures and excluded. The cells run largest g*d
    first, ties in pair order, and any other exception of a cell is
    raised, the first in that run order. A worker that dies costs the
    whole grid one more run on a fresh pool, with the same bytes; if a
    worker of that pool dies too, select raises WorkerLost. Every pair
    is checked against the data's shape, as fit checks it, before the
    first cell is fitted.
    """
    if cfg is None:
        cfg = BemConfig()
    g_values = sorted(set(int(g) for g in g_range))
    d_values = sorted(set(int(d) for d in d_range))
    if not g_values or not d_values:
        raise ParamValidationError("g_range and d_range must be non-empty")

    pairs = [(g, d) for g in g_values for d in d_values]
    for g, d in pairs:
        _check_cluster_counts(x.n, x.m, g, d)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(len(pairs), dtype=np.uint64)
    cells = [(g, d, replace(cfg, seed=int(s))) for (g, d), s in zip(pairs, seeds)]
    entries = {}
    failures = {}
    for (g, d), result in zip(pairs, _fit_cells(x, y, cells)):
        if isinstance(result, AllRestartsFailed):
            failures[(g, d)] = str(result)
            continue
        f_star = result.final_free_energy
        entries[(g, d)] = GridCell(
            g=g, d=d, free_energy=f_star, bic=bic(f_star, x.n, x.m, y.p, g, d), fit=result
        )
    if not entries:
        raise AllRestartsFailed("every grid cell failed")
    return BicGrid(entries=entries, best=pick_best(entries.values()), failures=failures)
