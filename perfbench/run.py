"""coblock benchmark: one closed-loop workload run, printed as JSON.

    python3 perfbench/run.py --workload fit_tall --seed 1 --seconds 40 --trace 0

One client in one process runs one operation at a time, each started
after the previous one finished, until the next would overrun
--seconds; the first always runs, so --seconds 0 runs exactly one.
Every operation gets fresh inputs drawn from --seed and its
index, and its outputs are checked. With --trace 0 nothing is hooked and
the end-to-end metrics are printed; with --trace 1 each input runs both
untraced and traced (hooks from tracing.py) and the per-layer metrics
and the tracing overhead are printed. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
status is 1 if any check failed and 2 if coblock cannot be imported
from this checkout's src/.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads it: single-core sweep cost is what the
# benchmark measures, and thread scheduling would only add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

# Inputs of every operation are built this many times (identically, from
# the same seed) and setup_s is the median build: one build per operation
# takes milliseconds, too few samples for a steady median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _import_coblock():
    """Import coblock from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import coblock
    except ImportError as exc:
        print(f"perfbench: cannot import coblock from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(coblock.__file__).resolve().parents:
        print(f"perfbench: coblock was imported from {coblock.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(HERE))


def environment():
    """Versions and machine facts recorded with every result."""
    import numpy as np
    import scipy

    blas = (np.__config__.CONFIG.get("Build Dependencies") or {}).get("blas") or {}
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def _plain_call(name, fn, *args):
    return fn(*args)


def _op_seeds(seed, index):
    import numpy as np

    data_seed, fit_seed = np.random.SeedSequence([seed % 2**64, index]).generate_state(2)
    return int(data_seed), int(fit_seed)


def run(workload, seed, seconds, trace, log=sys.stderr):
    """Closed loop over operations.

    Returns (result, info): result is the dict printed as the last line;
    info maps further figures (the issue-level names of each command's
    time, label errors, failed_frac) to (value, unit) for the lines above.
    """
    from tracing import Hooks, Tracer, layer_metrics

    workdir = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    hooks = Hooks() if trace else None
    setup, plain, traced, tracers = [], [], [], []
    phases, row_err, col_err = {}, [], []
    attempted = failed = 0

    def attempt(inputs, call, record=True):
        """One checked operation; its wall time (the sum of its command
        times), or None if it raised. Command times and label errors are
        recorded for untraced ones."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        try:
            out, times = workload.run(inputs, call)
            took = sum(times.values())
            outcome = workload.check(inputs, out)
        except Exception:
            failed += 1
            print(f"perfbench: {workload.name} op {index} raised:", file=log)
            traceback.print_exc(file=log)
            return None
        detail = " ".join(f"{k} {v:.4f}" for k, v in times.items())
        print(f"perfbench: {workload.name} op {index} {took:.4f} s ({detail})", file=log)
        if not outcome.ok:
            failed += 1
            print(f"perfbench: {workload.name} op {index} failed: {outcome.reason}", file=log)
        if record:
            for k, v in times.items():
                phases.setdefault(k, []).append(v)
            row_err.append(outcome.row_error)
            col_err.append(outcome.col_error)
        return took

    def traced_attempt(inputs):
        tracer = Tracer()
        hooks.install(tracer)
        try:
            took = attempt(inputs, tracer.call, record=False)
        finally:
            hooks.remove()
        if took is not None:
            traced.append(took)
            tracers.append(tracer)

    start = time.perf_counter()
    index = 0
    try:
        while True:
            t_cycle = time.perf_counter()
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                inputs = workload.build(*_op_seeds(seed, index), workdir)
                setup.append(time.perf_counter() - t0)
            # a traced run times each input untraced and traced, alternating
            # which goes first so that warm caches favour neither side
            if trace and index % 2:
                traced_attempt(inputs)
            took = attempt(inputs, _plain_call)
            if took is not None:
                plain.append(took)
            if trace and not index % 2:
                traced_attempt(inputs)
            index += 1
            now = time.perf_counter()
            if now + (now - t_cycle) > start + seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if trace:
        metrics = layer_metrics(tracers, hooks.absent) if tracers else {}
        if plain and traced:
            base = statistics.median(plain)
            metrics["trace.overhead_s"] = statistics.median(traced) - base
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
        units = {name: _layer_unit(name) for name in metrics}
        if hooks.absent:
            print(f"perfbench: absent hook targets: {', '.join(hooks.absent)}", file=log)
    else:
        metrics = {
            "op_s": statistics.median(plain) if plain else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END_UNITS
    info = {"samples": (len(plain), "count")}
    info.update({k: (statistics.median(v), "s") for k, v in phases.items()})
    info["row_error"] = (_mean(row_err), "fraction")
    info["col_error"] = (_mean(col_err), "fraction")
    info["failed_frac"] = (failed / attempted, "fraction")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info


def _mean(values):
    values = [v for v in values if not math.isnan(v)]
    return sum(values) / len(values) if values else math.nan


def _layer_unit(name):
    if name == "dataio.load_cells_per_s":
        return "1/s"
    if name in ("bem.s_per_sweep", "trace.overhead_s"):
        return "s"
    if name.endswith("_s"):
        return "s/op"
    if name in ("bem.objective_evals_per_step", "trace.overhead_frac"):
        return "ratio"
    if name.startswith("trace."):
        return "count"
    return "count/op"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    _import_coblock()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](toy=args.toy)
    env = environment()
    result, info = run(workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in info.items():
        print(f"info {name} {value!r} {unit}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
