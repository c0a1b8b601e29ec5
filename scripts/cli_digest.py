"""SHA-256 of every file the CLI writes on six fixed workloads.

Runs, in process and with relative paths inside a fresh temporary
directory:
  - the acceptance criterion 9 fixture: `simulate` (n=40, m=12), then
    `fit`, `select`, `influence` and `benchmark` on its files;
  - a wide matrix: `simulate` at 2000x1000, then `influence --restarts 3`;
  - three covariates, so the multivariate Gaussian path runs: `simulate`
    (n=40, m=12), then `fit`, `select` and `influence` on its files;
  - four column clusters, so split-merge runs with d >= 3 and keeps a
    move: `simulate` (n=40, m=16), then `fit --d 4`;
  - five column clusters at 1500x300: `simulate`, then `fit --d 5
    --restarts 4`. Split-merge there scores and sharpens proper subsets
    of the columns at sizes where BLAS blocks its products, so a change
    in how those products are formed shows in the bytes;
  - over-fitted cells: `simulate` (n=8, m=8), then `select` over g 1:4
    and d 1:3. Row clusters there hold too few rows to span the
    covariate, so the logistic M-step meets singular Newton systems.
It writes one "digest  path" line per output file, sorted by path, to
OUT. timing.csv holds wall-clock times and is left out. BLAS is pinned
to one thread so the bytes do not depend on thread scheduling.

Two commits write the same bytes exactly when their OUT files are
equal. Copy this script into each checkout's scripts/ directory, run it
there and diff the two files:

    python3 scripts/cli_digest.py digests.txt

--keep DIR also copies the whole output tree to DIR (which must not
exist yet), so two trees can be compared file by file with
scripts/cli_diff.py when the digests differ.
"""

import os

# must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import coblock as cb  # noqa: E402
from coblock.cli import main as cli_main  # noqa: E402
from coblock.dataio import write_params_json  # noqa: E402

FIXTURE = [
    ["simulate", "--params", "c9/truth.json", "--n", "40", "--m", "12",
     "--out", "c9/sim", "--seed", "9"],
    ["fit", "--x", "c9/sim/x.csv", "--y", "c9/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g", "2", "--d", "2", "--out", "c9/fit"],
    ["select", "--x", "c9/sim/x.csv", "--y", "c9/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g-range", "1:2", "--d-range", "1:2", "--out", "c9/select"],
    ["influence", "--x", "c9/sim/x.csv", "--y", "c9/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g", "2", "--d", "2", "--out", "c9/influence"],
    ["benchmark", "--n-list", "30", "--m", "8", "--g", "2", "--d-list", "2", "--reps", "1",
     "--restarts", "1", "--max-iters", "2", "--seed", "1", "--out", "c9/benchmark"],
]
WIDE = [
    ["simulate", "--params", "wide/truth.json", "--n", "2000", "--m", "1000",
     "--out", "wide/sim", "--seed", "5"],
    ["influence", "--x", "wide/sim/x.csv", "--y", "wide/sim/y.csv", "--restarts", "3",
     "--seed", "6", "--g", "2", "--d", "2", "--out", "wide/influence"],
]
P3 = [
    ["simulate", "--params", "p3/truth.json", "--n", "40", "--m", "12",
     "--out", "p3/sim", "--seed", "9"],
    ["fit", "--x", "p3/sim/x.csv", "--y", "p3/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g", "2", "--d", "2", "--out", "p3/fit"],
    ["select", "--x", "p3/sim/x.csv", "--y", "p3/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g-range", "1:3", "--d-range", "1:2", "--out", "p3/select"],
    ["influence", "--x", "p3/sim/x.csv", "--y", "p3/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g", "2", "--d", "2", "--out", "p3/influence"],
]

D4 = [
    ["simulate", "--params", "d4/truth.json", "--n", "40", "--m", "16",
     "--out", "d4/sim", "--seed", "9"],
    ["fit", "--x", "d4/sim/x.csv", "--y", "d4/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g", "2", "--d", "4", "--out", "d4/fit"],
]

D5 = [
    ["simulate", "--params", "d5/truth.json", "--n", "1500", "--m", "300",
     "--out", "d5/sim", "--seed", "9"],
    ["fit", "--x", "d5/sim/x.csv", "--y", "d5/sim/y.csv", "--restarts", "4", "--seed", "1",
     "--g", "2", "--d", "5", "--out", "d5/fit"],
]

OVER = [
    ["simulate", "--params", "over/truth.json", "--n", "8", "--m", "8",
     "--out", "over/sim", "--seed", "9"],
    ["select", "--x", "over/sim/x.csv", "--y", "over/sim/y.csv", "--restarts", "2", "--seed", "1",
     "--g-range", "1:4", "--d-range", "1:3", "--out", "over/select"],
]


def digests(root: Path):
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "timing.csv":
            yield hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(root).as_posix()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file to write the digests to")
    parser.add_argument("--keep", type=Path, help="directory to copy the output tree to")
    args = parser.parse_args()
    out = args.out.resolve()
    keep = args.keep.resolve() if args.keep else None
    if keep is not None and keep.exists():
        parser.error(f"--keep {keep} already exists")
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, truth in (
                ("c9", cb.separated_params(2, 2, p=1, seed=3)),
                ("wide", cb.separated_params(2, 2, p=1, mean_scale=10.0)),
                ("p3", cb.separated_params(2, 2, p=3, seed=3)),
                ("d4", cb.separated_params(2, 4, p=1, seed=1)),
                ("d5", cb.separated_params(2, 5, p=1, mean_scale=10.0)),
                ("over", cb.separated_params(2, 2, p=1, seed=3)),
            ):
                Path(name).mkdir()
                write_params_json(Path(name) / "truth.json", truth)
            for argv in FIXTURE + WIDE + P3 + D4 + D5 + OVER:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
                if code != 0:
                    print(f"coblock {' '.join(argv)} exited {code}", file=sys.stderr)
                    return 1
            lines = [f"{digest}  {path}\n" for digest, path in digests(Path(tmp))]
            if keep is not None:
                shutil.copytree(tmp, keep)
        finally:
            os.chdir(here)
    out.write_text("".join(lines))
    print(f"{len(lines)} files digested into {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
