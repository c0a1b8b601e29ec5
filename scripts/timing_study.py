"""Fit-time scaling in n, summarized as per-d linear regressions.

Runs the benchmark command, in which every restart runs exactly
--max-iters sweeps, so every fit does the same number of sweeps, then
regresses the mean time at each (n, d) point on n and prints slope and
R squared per d. BLAS is pinned to one thread: with several threads the
per-sweep cost depends on thread scheduling and is not linear in n.

Usage:
    python3 scripts/timing_study.py --n-list 2000,6000,10000 --d-list 2,6 --reps 5
"""

if __name__ == "__main__":
    import os

    # must be set before numpy loads its BLAS; an import of line_fits
    # leaves the importer's environment as it is
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coblock.cli import main as cli_main  # noqa: E402


def line_fits(raw):
    """Per d of a loaded timing.csv: (slope, R squared) of the mean
    seconds at each n regressed on n."""
    fits = {}
    for d in sorted({int(v) for v in raw["d"]}):
        sub = raw[raw["d"] == d]
        ns = np.unique(sub["n"])
        means = np.array([sub["seconds"][sub["n"] == n].mean() for n in ns])
        slope, intercept = np.polyfit(ns, means, 1)
        resid = means - (slope * ns + intercept)
        r2 = 1.0 - resid @ resid / ((means - means.mean()) @ (means - means.mean()))
        fits[d] = (slope, r2)
    return fits


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-list", default="2000,6000,10000")
    ap.add_argument("--d-list", default="2,6")
    ap.add_argument("--m", type=int, default=100)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--restarts", type=int, default=5)
    ap.add_argument("--max-iters", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="directory for timing.csv (default: temp)")
    args = ap.parse_args()

    out = args.out or tempfile.mkdtemp(prefix="timing_study_")
    rc = cli_main([
        "benchmark", "--out", out, "--n-list", args.n_list, "--m", str(args.m),
        "--g", "2", "--d-list", args.d_list, "--reps", str(args.reps),
        "--restarts", str(args.restarts), "--max-iters", str(args.max_iters),
        "--seed", str(args.seed),
    ])
    if rc != 0:
        sys.exit(rc)

    raw = np.genfromtxt(Path(out) / "timing.csv", delimiter=",", names=True)
    print(f"\n{'d':>4} {'slope_s_per_row':>16} {'r_squared':>10}")
    for d, (slope, r2) in line_fits(raw).items():
        print(f"{d:>4} {slope:>16.3e} {r2:>10.4f}")
    print(f"raw timings in {out}/timing.csv")


if __name__ == "__main__":
    main()
