"""SHA-256 of every bit of each result of the benchmark's operations.

    python3 scripts/op_digest.py --workload cli_wide --seed 51 --ops 25 digests.txt

Builds operations 0 .. N-1 of a perfbench workload from --seed as
perfbench/run.py builds them, runs each through coblock with BLAS pinned
to one thread, and writes one line per operation to OUT: its index and
the SHA-256 of
  - fit_tall: the FitResult, that is its trace, every parameter array,
    both posteriors, n_iters and converged;
  - select_grid: each grid cell's (g, d), free energy, criterion and fit
    as above, then the chosen pair and the failed cells' messages;
  - cli_wide: the two exit codes and every file under the operation's
    directory except manifest.json, which holds paths, and timing.csv.
An operation that raises is written as its index, "raised", and its
exception's type and message. The benchmark's checks are not run.

Two commits give the benchmark's operations the same bits when their
OUT files are equal. Copy this script into each checkout's scripts/
directory, run it there and diff the two files. --toy builds the
workloads at their smoke-test sizes. select spawns its workers, which
re-import the main module, so everything runs under the main guard.
"""

import os

if __name__ == "__main__":  # must be set before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _op_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from coblock.bem import FitResult  # noqa: E402
from coblock.selection import BicGrid  # noqa: E402

SKIPPED_FILES = ("manifest.json", "timing.csv")


def _update(h, *values):
    """Feed values to h: arrays with their dtype and shape, the rest by repr."""
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())


def _fit(h, res: FitResult):
    p = res.params
    _update(h, res.free_energy_trace, p.row_props, p.col_props, p.coefs, p.means, p.covs,
            p.cov_chols, res.assignments.row_probs, res.assignments.col_probs, res.n_iters,
            res.converged)


def digest(out, workdir: Path) -> str:
    """SHA-256 of an operation's output out, the files under workdir included."""
    h = hashlib.sha256()
    if isinstance(out, FitResult):
        _fit(h, out)
    elif isinstance(out, BicGrid):
        for key in sorted(out.entries):
            cell = out.entries[key]
            _update(h, key, cell.free_energy, cell.bic)
            _fit(h, cell.fit)
        _update(h, out.best, sorted(out.failures.items()))
    else:
        _update(h, out)
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name not in SKIPPED_FILES:
            _update(h, path.relative_to(workdir).as_posix())
            h.update(path.read_bytes())
    return h.hexdigest()


def op_line(workload, seed: int, index: int) -> str:
    """One operation's line of OUT, without its newline."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        try:
            inputs = workload.build(*_op_seeds(seed, index), workdir)
            out, _ = workload.run(inputs, lambda name, fn, *args: fn(*args))
        except Exception as exc:  # recorded, as the benchmark counts it
            return f"{index} raised {type(exc).__name__}: {exc}"
        return f"{index} {digest(out, workdir)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True, help="operations 0 .. OPS-1")
    parser.add_argument("--toy", action="store_true", help="the smoke test's sizes")
    parser.add_argument("out", type=Path, help="file to write the digests to")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](toy=args.toy)
    lines = [op_line(workload, args.seed, i) + "\n" for i in range(args.ops)]
    args.out.write_text("".join(lines))
    raised = sum(" raised " in line for line in lines)
    print(f"{len(lines)} operations digested into {args.out} ({raised} raised)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
