"""End-to-end acceptance checks.

Each test prints one [acceptance] PASS/FAIL line outside the capture so
the verdicts are visible in the terminal regardless of pytest flags.
The heavy recovery batches are shared between the row-recovery and
trend tests through a module-scoped fixture. Criteria 4 to 7 run the
studies of scripts/ through the same functions as the scripts do.
"""

import subprocess
import sys

import numpy as np
import pytest

import coblock as cb
from coblock.bem import (
    ColStats,
    ParamTerms,
    free_energy,
    weighted_logistic_gradient,
    weighted_logistic_hessian,
    weighted_logistic_objective,
)
from coblock.cli import main

import timing_study
from error_rate_study import run_point
from helpers import rand_instance, rand_params, rand_soft
from oracle import exact_loglik
from selection_study import picks


@pytest.fixture
def report(capfd):
    def _report(name, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance] {name}: {verdict} ({detail})", flush=True)
        assert ok, f"{name}: {detail}"

    return _report


def test_criterion_1_lower_bound(report):
    """free_energy never exceeds the enumerated log-likelihood."""
    rng = np.random.default_rng(101)
    worst = -np.inf
    for trial in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        params = rand_params(rng, 2, 2, 1)
        x, y = rand_instance(rng, n, m, 1)
        exact = exact_loglik(x, y, params)
        t = rand_soft(rng, n, 2)
        r = rand_soft(rng, m, 2)
        fe = free_energy(t, ColStats.of(x, r), ParamTerms.of(y, params))
        worst = max(worst, fe - exact)
        res = cb.fit(x, y, 2, 2, cb.BemConfig(n_restarts=2, seed=int(rng.integers(2**31))))
        worst = max(worst, res.final_free_energy - exact_loglik(x, y, res.params))
    report("criterion 1 (variational lower bound)", worst <= 1e-9,
           f"100 instances, worst slack {worst:.3e}")


def test_criterion_2_monotone_ascent(report):
    """The four-phase trace never loses more than 1e-9 relative."""
    worst = -np.inf
    for rep in range(20):
        truth = cb.separated_params(2, 2, p=1, seed=rep)
        sim = cb.generate(cb.SimConfig(n=200, m=40, params=truth, seed=rep))
        res = cb.fit(sim.x, sim.y, 2, 2, cb.BemConfig(n_restarts=2, seed=rep))
        trace = np.asarray(res.free_energy_trace)
        drops = -(np.diff(trace)) - 1e-9 * np.abs(trace[:-1])
        worst = max(worst, float(drops.max()))
    report("criterion 2 (monotone ascent)", worst <= 0.0,
           f"20 fits, worst excess drop {worst:.3e}")


def test_criterion_3_newton_raphson_derivatives(report):
    """Analytic gradient and Hessian agree with central differences."""
    rng = np.random.default_rng(33)
    h = 1e-6
    worst_g, worst_h = 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(4, 40))
        p = int(rng.integers(0, 4))
        y = cb.CovariateTable(rng.standard_normal((n, p)))
        beta = rng.standard_normal(p + 1)
        weights = rng.random(n) + 0.05
        mass = float(rng.random() * 3.0 + 0.1)
        counts = rng.random(n) * mass * weights
        args = (y.augmented, weights, counts, mass)

        grad = weighted_logistic_gradient(beta, *args)
        hess = weighted_logistic_hessian(beta, *args)
        for a in range(p + 1):
            e = np.zeros(p + 1)
            e[a] = h
            fd = (weighted_logistic_objective(beta + e, *args)
                  - weighted_logistic_objective(beta - e, *args)) / (2 * h)
            worst_g = max(worst_g, abs(fd - grad[a]) / max(1.0, abs(fd)))
            fd_row = (weighted_logistic_gradient(beta + e, *args)
                      - weighted_logistic_gradient(beta - e, *args)) / (2 * h)
            rel = np.abs(fd_row - hess[a]) / np.maximum(1.0, np.abs(fd_row))
            worst_h = max(worst_h, float(rel.max()))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    report("criterion 3 (Newton-Raphson derivatives)", ok,
           f"50 problems, grad rel {worst_g:.2e}, hess rel {worst_h:.2e}")


@pytest.fixture(scope="module")
def recovery_batches():
    """Mean row and column error over 20 replications per design point."""
    return {
        (d, n): run_point(d, n, m=60, reps=20, restarts=10)
        for d, n in [(6, 400), (6, 800), (12, 400)]
    }


def test_criterion_4_row_recovery(recovery_batches, report):
    row_err = recovery_batches[(6, 400)][0]
    report("criterion 4 (row recovery)", row_err <= 0.15,
           f"d=6 n=400, mean row error {row_err:.4f} over 20 reps")


def test_criterion_5_error_trends(recovery_batches, report):
    col_d6 = recovery_batches[(6, 400)][1]
    col_d12 = recovery_batches[(12, 400)][1]
    col_n800 = recovery_batches[(6, 800)][1]
    ok = col_d12 >= col_d6 and col_n800 <= col_d6
    report("criterion 5 (error trends)", ok,
           f"col err d12 {col_d12:.4f} >= d6 {col_d6:.4f}; "
           f"n800 {col_n800:.4f} <= n400 {col_d6:.4f}")


def test_criterion_6_runtime_scaling(tmp_path, report):
    """Mean fit time grows linearly in n, faster for more column clusters.

    scripts/timing_study.py at its defaults pins the work per fit (every
    restart runs the iteration cap, checked through timing.csv's sweeps
    column; fixed restarts) so only the per-iteration cost varies with
    n; means over 5 fresh datasets per point absorb the dataset-to-dataset
    variance. It runs in its own process because it pins BLAS to one
    thread before numpy loads: a multi-threaded BLAS makes the per-sweep
    cost depend on how the machine schedules its threads, which is not
    linear in n.
    """
    proc = subprocess.run(
        [sys.executable, timing_study.__file__, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    raw = np.genfromtxt(tmp_path / "timing.csv", delimiter=",", names=True)
    pinned = bool(np.all(raw["sweeps"] == 10))
    fits = timing_study.line_fits(raw)
    (slope2, r2_2), (slope6, r2_6) = fits[2], fits[6]
    ok = pinned and r2_2 >= 0.9 and r2_6 >= 0.9 and slope6 > slope2
    report("criterion 6 (runtime scaling)", ok,
           f"sweeps {int(raw['sweeps'].min())}-{int(raw['sweeps'].max())} of 10; "
           f"R2 d=2 {r2_2:.4f}, d=6 {r2_6:.4f}; "
           f"slope d=6 {slope6:.2e} > d=2 {slope2:.2e}")


def test_criterion_7_model_selection(report):
    """Grid search recovers the generating (2, 3) on separated data.

    Selection runs with the covariate density counted once per row so
    the Gaussian term cannot swamp the penalty on the binary part.
    """
    hits = sum(best == (2, 3) for best in picks(20))
    report("criterion 7 (model selection)", hits >= 16,
           f"picked (2,3) in {hits}/20 runs")


def test_criterion_8_influence(report):
    """A probability-matched column outranks its complement; the scores
    decompose into the fixed-label Bernoulli log-likelihood."""
    z = np.array([1, 1, 2, 2, 1, 2])
    n, g, d, icpt = z.size, 2, 1, 3.0
    coefs = np.array([[[icpt, 0.0]], [[-icpt, 0.0]]])
    params = cb.ModelParams(
        row_props=np.full(g, 0.5), col_props=np.ones(d),
        coefs=coefs, means=np.zeros((g, 1)), covs=np.tile(np.eye(1), (g, 1, 1)),
    )
    matched = (z == 1).astype(float)
    x = cb.BinaryMatrix(np.column_stack([matched, 1.0 - matched]))
    y = cb.CovariateTable(np.zeros((n, 1)))
    labels = cb.HardLabels(z, np.array([1, 1]))
    t = np.full((n, g), 0.02 / g) + 0.98 * np.eye(g)[z - 1]
    r = np.full((2, d), 1.0)
    res = cb.FitResult(
        params=params,
        assignments=cb.SoftAssignments(t, r),
        free_energy_trace=[-1.0],
        converged=True,
        n_iters=1,
    )
    rep = cb.influence_report(x, y, res)
    ranks_ok = list(rep.ranking) == [1, 2] and rep.scores[0] > rep.scores[1]

    eta = np.einsum(
        "iq,ijq->ij", y.augmented,
        params.coefs[(z - 1)[:, None], (labels.col_labels - 1)[None, :]],
    )
    bern = float(np.sum(x.values * eta - np.logaddexp(0.0, eta)))
    logrho = np.log(params.col_props[labels.col_labels - 1]).sum()
    resid = abs(rep.scores.sum() - logrho - bern)
    report("criterion 8 (influence)", ranks_ok and resid <= 1e-9,
           f"matched ranks first, identity residual {resid:.2e}")


def test_criterion_9_cli_determinism(tmp_path, report):
    """Rerunning each command with the same seed reproduces every byte.

    The benchmark's timing.csv holds wall-clock measurements, which are
    not a function of the inputs, so for that command the manifest is
    the deterministic surface checked here.
    """
    truth = cb.separated_params(2, 2, p=1, seed=3)
    from coblock.dataio import write_params_json
    write_params_json(tmp_path / "truth.json", truth)
    sim_args = lambda out: [
        "simulate", "--params", str(tmp_path / "truth.json"),
        "--n", "40", "--m", "12", "--out", str(out), "--seed", "9",
    ]
    assert main(sim_args(tmp_path / "sim_a")) == 0
    assert main(sim_args(tmp_path / "sim_b")) == 0
    x, y = str(tmp_path / "sim_a" / "x.csv"), str(tmp_path / "sim_a" / "y.csv")
    data = ["--x", x, "--y", y, "--restarts", "2", "--seed", "1"]
    reruns = {
        "fit": ["fit", *data, "--g", "2", "--d", "2"],
        "select": ["select", *data, "--g-range", "1:2", "--d-range", "1:2"],
        "influence": ["influence", *data, "--g", "2", "--d", "2"],
        "benchmark": [
            "benchmark", "--n-list", "30", "--m", "8", "--g", "2", "--d-list", "2",
            "--reps", "1", "--restarts", "1", "--max-iters", "2", "--seed", "1",
        ],
    }
    diffs = []
    for name, argv in reruns.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        skip = {"timing.csv"} if name == "benchmark" else set()
        for pa in sorted(a.iterdir()):
            if pa.name in skip:
                continue
            if pa.read_bytes() != (b / pa.name).read_bytes():
                diffs.append(f"{name}/{pa.name}")
    ok = not diffs and (tmp_path / "sim_a" / "x.csv").read_bytes() == (
        tmp_path / "sim_b" / "x.csv").read_bytes()
    report("criterion 9 (CLI determinism)", ok,
           "all reruns byte-identical" if ok else f"differs: {diffs}")
