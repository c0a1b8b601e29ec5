"""Label-recovery error rates across a grid of (d, n) design points.

Replays the simulation design used in the recovery experiments: two
well-separated row clusters, block intercepts +/-3, unit-scale slopes,
and reports mean row and column error over seeded replications.

Usage:
    python3 scripts/error_rate_study.py --d-list 6,12 --n-list 400,800 --reps 20
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import coblock as cb


def run_point(d, n, m, reps, restarts):
    """Mean row and column error of fits with g=2 over reps seeded draws.

    Separated truth: row means +/-5 with unit variances, block
    intercepts +/-3, unit-scale slopes so that column clusters sharing
    an intercept sign pattern stay identifiable. Acceptance criteria 4
    and 5 call this with m=60, 20 reps and 10 restarts.
    """
    row_errs, col_errs = [], []
    for rep in range(reps):
        truth = cb.separated_params(
            2, d, p=1, mean_scale=10.0, intercept_scale=3.0,
            slope_scale=1.0, seed=1000 + rep,
        )
        sim = cb.generate(cb.SimConfig(n=n, m=m, params=truth, seed=77 + rep))
        cfg = cb.BemConfig(n_restarts=restarts, seed=11 + rep)
        res = cb.fit(sim.x, sim.y, 2, d, cfg)
        row_errs.append(cb.label_error_rate(res.map_labels.row_labels, sim.truth.row_labels))
        col_errs.append(cb.label_error_rate(res.map_labels.col_labels, sim.truth.col_labels))
    return float(np.mean(row_errs)), float(np.mean(col_errs))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d-list", default="6,12")
    ap.add_argument("--n-list", default="400,800")
    ap.add_argument("--m", type=int, default=60)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--restarts", type=int, default=10)
    ap.add_argument("--out", default=None, help="optional CSV path for the summary table")
    args = ap.parse_args()

    d_values = [int(v) for v in args.d_list.split(",")]
    n_values = [int(v) for v in args.n_list.split(",")]
    rows = []
    print(f"{'d':>4} {'n':>6} {'row_err':>9} {'col_err':>9}")
    for d in d_values:
        for n in n_values:
            row_err, col_err = run_point(d, n, args.m, args.reps, args.restarts)
            rows.append((d, n, row_err, col_err))
            print(f"{d:>4} {n:>6} {row_err:>9.4f} {col_err:>9.4f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d", "n", "mean_row_error", "mean_col_error"])
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
