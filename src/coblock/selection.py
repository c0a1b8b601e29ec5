"""Cluster-count selection by grid search over (g, d) with a BIC-style
criterion in which the maximized free energy stands in for the
intractable log-likelihood.

Penalty terms count the free parameters: g-1 row proportions, d-1
column proportions, the Gaussian means and covariance entries (against
log n, since only rows inform them), and g*d*(p+1) logistic
coefficients against log(n*m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bem import BemConfig, FitResult, _check_cluster_counts, fit
from .errors import AllRestartsFailed, ParamValidationError
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


def select(
    x: BinaryMatrix, y: CovariateTable, g_range, d_range, cfg: BemConfig | None = None
) -> BicGrid:
    """Fit every (g, d) in the ranges and choose by the criterion.

    Each cell gets its own deterministic seed derived from cfg.seed, so
    the whole grid is reproducible and cells are independent. A cell
    whose restarts all fail is recorded under failures and excluded.
    Every pair is checked against the data's shape, as fit checks it,
    before the first cell is fitted.
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
    entries = {}
    failures = {}
    for (g, d), cell_seed in zip(pairs, seeds):
        try:
            result = fit(x, y, g, d, replace(cfg, seed=int(cell_seed)))
        except AllRestartsFailed as exc:
            failures[(g, d)] = str(exc)
            continue
        f_star = result.final_free_energy
        entries[(g, d)] = GridCell(
            g=g, d=d, free_energy=f_star, bic=bic(f_star, x.n, x.m, y.p, g, d), fit=result
        )
    if not entries:
        raise AllRestartsFailed("every grid cell failed")
    return BicGrid(entries=entries, best=pick_best(entries.values()), failures=failures)
