"""How often BIC grid search recovers the generating model size.

Simulates from a separated (2, 3) truth and tallies the selected (g, d)
over seeded runs. The covariate density is counted once per row, so the
Gaussian part cannot swamp the penalty on the binary part.

Usage:
    python3 scripts/selection_study.py --runs 20
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import coblock as cb


def picks(runs, n=300, m=60, restarts=3, g_max=3, d_max=4):
    """Yield the (g, d) that select picks on each of runs seeded draws
    from a separated (2, 3) truth; acceptance criterion 7 counts them."""
    for run in range(runs):
        truth = cb.separated_params(
            2, 3, p=1, mean_scale=10.0, intercept_scale=3.0,
            seed=500 + run, distinct_blocks=True,
        )
        sim = cb.generate(cb.SimConfig(n=n, m=m, params=truth, seed=900 + run))
        cfg = cb.BemConfig(n_restarts=restarts, seed=13 + run)
        yield cb.select(sim.x, sim.y, range(1, g_max + 1), range(2, d_max + 1), cfg).best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=20)
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--m", type=int, default=60)
    ap.add_argument("--restarts", type=int, default=3)
    ap.add_argument("--g-max", type=int, default=3)
    ap.add_argument("--d-max", type=int, default=4)
    args = ap.parse_args()

    tally = Counter()
    chosen = picks(args.runs, args.n, args.m, args.restarts, args.g_max, args.d_max)
    for run, best in enumerate(chosen):
        tally[best] += 1
        print(f"run {run:>3}: best (g, d) = {best}")

    print("\nselected (g, d) counts (truth is (2, 3)):")
    for pair, count in sorted(tally.items()):
        print(f"  {pair}: {count}/{args.runs}")


if __name__ == "__main__":
    main()
