"""The benchmark's three workloads.

Each workload builds one operation's inputs from an integer seed
(set-up, timed as setup_s), runs the operation through coblock's public
entry points and checks the outputs. run() times each command it
issues, under the name the README gives it; op_s is their sum. The ground-truth parameters are fixed per workload; the seed
draws the data and the fitting seed. Sizes are scaled so that a run of
a few tens of seconds covers many datasets, which keeps the data's
share of the run-to-run spread small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

import coblock as cb
from coblock import cli
from coblock.dataio import load_dataset, read_labels_csv, write_params_json

# fit correctness: the fitted labels may disagree with the generating
# ones on at most this share of rows / columns (after the best matching
# of cluster indices). Rows are well separated by their covariates, so
# any row error is a defect; up to two of the six column clusters may be
# confused because their intercept sign patterns repeat (g=2 allows only
# four patterns) and the slopes that separate the twins are small.
ROW_ERROR_TOL = 0.02
COL_ERROR_TOL = 0.35


class Outcome:
    """Result of checking one operation."""

    def __init__(self, ok, row_error=math.nan, col_error=math.nan, reason=""):
        self.ok = ok
        self.row_error = row_error
        self.col_error = col_error
        self.reason = reason


def _digest(x, y):
    """Fingerprint of a dataset's values, so a round-trip check need not
    keep the expected arrays resident while the program runs."""
    h = hashlib.sha256()
    for a in (x, y):
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _errors(labels, truth):
    return (
        cb.label_error_rate(labels.row_labels, truth.row_labels),
        cb.label_error_rate(labels.col_labels, truth.col_labels),
    )


class FitTall:
    """One in-memory fit of a tall matrix: long (n, g, d) arrays, so
    bem's vector kernels dominate and dataio does no work.

    One split-merge round instead of the default two: a second round
    runs only when the first improved the fit, which happens on about
    two datasets in five, so per-fit work was bimodal (11 or 17 single
    fits) and run medians jumped between the modes from seed to seed.
    """

    name = "fit_tall"
    g, d = 2, 6

    def __init__(self, toy=False):
        self.n, self.m = (300, 30) if toy else (5000, 100)
        self.restarts = 2 if toy else 5

    def build(self, data_seed, fit_seed, workdir):
        truth = cb.separated_params(self.g, self.d, p=1, mean_scale=10.0)
        sim = cb.generate(cb.SimConfig(n=self.n, m=self.m, params=truth, seed=data_seed))
        cfg = cb.BemConfig(
            n_restarts=self.restarts,
            init_strategy="kmeans_like",
            split_merge_rounds=1,
            seed=fit_seed,
        )
        return sim, cfg

    def run(self, inputs, call):
        sim, cfg = inputs
        t0 = time.perf_counter()
        result = call("bem.fit", cb.fit, sim.x, sim.y, self.g, self.d, cfg)
        return result, {"fit_s": time.perf_counter() - t0}

    def check(self, inputs, result):
        sim, _ = inputs
        if not math.isfinite(result.final_free_energy):
            return Outcome(False, reason="final free energy is not finite")
        row_err, col_err = _errors(result.map_labels, sim.truth)
        ok = row_err <= ROW_ERROR_TOL and col_err <= COL_ERROR_TOL
        reason = "" if ok else f"row_error {row_err:.3f}, col_error {col_err:.3f} over tolerance"
        return Outcome(ok, row_err, col_err, reason)


class SelectGrid:
    """One BIC grid search over g 1:3 x d 2:4 on a small matrix: the
    same bem code as fit_tall in the opposite regime, where Python
    per-call overhead dominates (about a hundred fits per select).

    Shape and config are those of acceptance criterion 7 except for a
    cap of 10 sweeps per fit (the default of `coblock benchmark
    --max-iters`): uncapped, the over-fitted cells wander for hundreds
    of data-dependent sweeps, so one select takes 10-30 s and a run
    could not cover enough datasets to be steady.
    """

    name = "select_grid"
    g_range, d_range = range(1, 4), range(2, 5)

    def __init__(self, toy=False):
        self.n, self.m = (120, 30) if toy else (300, 60)
        self.restarts = 1 if toy else 3

    def build(self, data_seed, fit_seed, workdir):
        truth = cb.separated_params(
            2, 3, p=1, mean_scale=10.0, intercept_scale=3.0, distinct_blocks=True
        )
        sim = cb.generate(cb.SimConfig(n=self.n, m=self.m, params=truth, seed=data_seed))
        cfg = cb.BemConfig(
            n_restarts=self.restarts,
            init_strategy="kmeans_like",
            cov_weight="1",
            max_outer_iters=10,
            seed=fit_seed,
        )
        return sim, cfg

    def run(self, inputs, call):
        sim, cfg = inputs
        t0 = time.perf_counter()
        grid = call("selection.select", cb.select, sim.x, sim.y, self.g_range, self.d_range, cfg)
        return grid, {"select_s": time.perf_counter() - t0}

    def check(self, inputs, grid):
        sim, _ = inputs
        if grid.best != (2, 3):
            return Outcome(False, reason=f"grid picked {grid.best}, expected (2, 3)")
        row_err, col_err = _errors(grid.best_cell().fit.map_labels, sim.truth)
        return Outcome(True, row_err, col_err)


class CliWide:
    """`coblock simulate` then `coblock influence --restarts 3`, in
    process, on a wide matrix: dataio's per-cell Python writing and
    parsing sit beside bem streaming x through `x @ r`, and memory is at
    its largest.

    Set-up generates the expected data but keeps only its digest and the
    true labels, so the benchmark's own copy of x is not resident while
    the commands run and does not inflate peak_rss_mb.
    """

    name = "cli_wide"
    g, d = 2, 2

    def __init__(self, toy=False):
        self.n, self.m = (150, 60) if toy else (2000, 1000)

    def build(self, data_seed, fit_seed, workdir):
        truth = cb.separated_params(self.g, self.d, p=1, mean_scale=10.0)
        params = workdir / "truth.json"
        write_params_json(params, truth)
        # the expected data, for the round-trip check of the written CSVs
        sim = cb.generate(cb.SimConfig(n=self.n, m=self.m, params=truth, seed=data_seed))
        expected = _digest(sim.x.values, sim.y.values), sim.truth
        data, out = workdir / "data", workdir / "influence"
        simulate = ["simulate", "--params", str(params), "--n", str(self.n),
                    "--m", str(self.m), "--out", str(data), "--seed", str(data_seed)]
        influence = ["influence", "--x", str(data / "x.csv"), "--y", str(data / "y.csv"),
                     "--g", str(self.g), "--d", str(self.d), "--out", str(out),
                     "--restarts", "3", "--seed", str(fit_seed)]
        return expected, data, out, simulate, influence

    def run(self, inputs, call):
        _, _, _, simulate, influence = inputs
        # the commands print one status line each; keep stdout for results
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            sim_code = call("cli.simulate", cli.main, simulate)
            t1 = time.perf_counter()
            inf_code = call("cli.influence", cli.main, influence)
            t2 = time.perf_counter()
        return (sim_code, inf_code), {"simulate_s": t1 - t0, "influence_s": t2 - t1}

    def check(self, inputs, codes):
        (digest, truth), data, out, _, _ = inputs
        if codes != (0, 0):
            return Outcome(False, reason=f"exit codes {codes}")
        x, y = load_dataset(data / "x.csv", data / "y.csv")
        if _digest(x.values, y.values) != digest:
            return Outcome(False, reason="x.csv/y.csv do not reproduce the generated data")
        del x, y
        labels = read_labels_csv(Path(out) / "labels.csv")
        if labels.row_labels.size != self.n or labels.col_labels.size != self.m:
            return Outcome(False, reason="labels.csv has the wrong number of rows or columns")
        row_err, col_err = _errors(labels, truth)
        return Outcome(True, row_err, col_err)


WORKLOADS = {w.name: w for w in (FitTall, SelectGrid, CliWide)}
