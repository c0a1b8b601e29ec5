"""Paired benchmark runs of a parent commit against the working tree.

    python3 scripts/bench_pairs.py --workload select_grid --pairs 10 \
        --first-seed 1101 --what "what the change does" --out BENCH_name.json

For each seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

once in an export of the parent commit (`git archive`, extracted to a
temporary directory) and once in the working tree, back to back,
alternating which side runs first, and never two runs at once. The
export is deleted when the script ends, and every run has finished by
then. --workload may be repeated; each workload runs the seeds
first-seed .. first-seed + pairs - 1.

The output holds `what`, `command`, `method`, `parent_commit`, `env`
(from perfbench's own report, plus `affinity_cpus`, the number of CPUs
this process may run on: select_grid's op_s scales with it, since select
fits its cells on one worker process per usable CPU) and, per workload, the seeds, which side
ran first, the per-run `op_s`, `peak_rss_mb`, `setup_s`, `attempted` and
`failed` of each side, its `failures` (per run, the list of perfbench's
"op N failed: reason" lines and of its "op N raised:" lines, each with the
last line of the traceback), and a `summary`: median and quartiles of each
metric per side, the number of pairs in which the change reads lower,
the relative change of the medians, the failed-operation share, and
`shared_failed_share`, the failed share over the `shared_ops` operations
that both sides ran (each seed's indices below the smaller `attempted`;
a faster side runs more operations, and the ones only it reaches may
fail on both commits). If
--out exists and was made against the same parent commit, the workloads
run now replace or join the ones it holds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("op_s", "peak_rss_mb", "setup_s")
ENV_KEYS = ("blas", "blas_threads", "blas_version", "nproc", "numpy", "python", "scipy")


def export(rev: str, dest: Path) -> str:
    """Extract the committed files of rev into dest; returns its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


FAILED_OP = re.compile(r"perfbench: \S+ op \d+ (failed: |raised:$)")
OP_INDEX = re.compile(r"perfbench: \S+ op (\d+) ")


def failed_ops(stderr: str) -> list:
    """perfbench's lines on failed operations, in order: each "op N failed:
    reason" line as printed, and each "op N raised:" line with the last
    line of its traceback appended."""
    out, raised = [], None
    for line in stderr.splitlines():
        if line.startswith("perfbench: "):
            failed = FAILED_OP.match(line)
            if failed:
                out.append(line)
            raised = line if failed and line.endswith("raised:") else None
        elif raised is not None and line.strip():
            out[-1] = f"{raised} {line.strip()}"
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One perfbench run; returns (metrics, attempted, failed, failures, env),
    failures being failed_ops of its stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    metrics = {k: round(result["metrics"][k]["value"], 6) for k in METRICS}
    return metrics, result["attempted"], result["failed"], failed_ops(proc.stderr), env


def dump(doc) -> str:
    """JSON with one key per line and each list of numbers or names on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
                  text) + "\n"


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summarize(parent: dict, change: dict) -> dict:
    out = {}
    for k in METRICS:
        p, c = parent[k], change[k]
        pm, pq1, pq3 = quartiles(p)
        cm, cq1, cq3 = quartiles(c)
        out[k] = {
            "parent_median": round(pm, 6), "parent_q1": round(pq1, 6),
            "parent_q3": round(pq3, 6), "change_median": round(cm, 6),
            "change_q1": round(cq1, 6), "change_q3": round(cq3, 6),
            "change_better_pairs": sum(b < a for a, b in zip(p, c)),
            "pairs": len(p), "rel_change": round(cm / pm - 1.0, 6),
        }
    out["failed_share"] = {
        side: round(sum(runs["failed"]) / max(sum(runs["attempted"]), 1), 6)
        for side, runs in (("parent", parent), ("change", change))
    }
    # a faster side runs more operations in the same seconds; compare
    # failures over the indices 0 .. min(attempted) - 1 that both ran
    shared = [min(p, c) for p, c in zip(parent["attempted"], change["attempted"])]
    out["shared_ops"] = sum(shared)
    out["shared_failed_share"] = {
        side: round(sum(int(OP_INDEX.match(line)[1]) < ops
                        for failures, ops in zip(runs["failures"], shared)
                        for line in failures) / max(sum(shared), 1), 6)
        for side, runs in (("parent", parent), ("change", change))
    }
    return out


def bench(workload, seeds, seconds, parent_dir, log):
    sides = {"parent": parent_dir, "change": ROOT}
    runs = {s: {k: [] for k in (*METRICS, "attempted", "failed", "failures")} for s in sides}
    first, env = [], {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            metrics, attempted, failed, failures, run_env = run_once(
                sides[side], workload, seed, seconds)
            env = env or run_env
            for k in METRICS:
                runs[side][k].append(metrics[k])
            runs[side]["attempted"].append(attempted)
            runs[side]["failed"].append(failed)
            runs[side]["failures"].append(failures)
            print(f"{workload} seed {seed} {side}: op_s {metrics['op_s']:.4f} "
                  f"failed {failed}/{attempted}", file=log, flush=True)
    entry = {"seeds": list(seeds), "first": first, **runs,
             "summary": summarize(runs["parent"], runs["change"])}
    return entry, {**{k: env[k] for k in ENV_KEYS if k in env},
                   "affinity_cpus": len(os.sched_getaffinity(0))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1001)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    seeds = range(args.first_seed, args.first_seed + args.pairs)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        commit = export(args.parent, parent_dir)
        doc = {}
        if args.out.exists():
            doc = json.loads(args.out.read_text())
            if doc.get("parent_commit") != commit:
                sys.exit(f"{args.out} was made against {doc.get('parent_commit')}, not {commit}")
        doc.update({
            "what": args.what,
            "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {args.seconds:g} --trace 0",
            "method": "one pair per seed, parent (a git archive export) and change (the "
                      "working tree) run back to back on the same host, alternating which "
                      "side runs first; summary values are median and quartiles over seeds; "
                      "change_better_pairs counts pairs where the change reads lower",
            "parent_commit": commit,
            "env": doc.get("env", {}),
        })
        workloads = doc.setdefault("workloads", {})
        for workload in args.workload:
            workloads[workload], doc["env"] = bench(
                workload, seeds, args.seconds, parent_dir, sys.stderr
            )
            args.out.write_text(dump(doc))
    for workload in args.workload:
        summary = workloads[workload]["summary"]
        s, shared = summary["op_s"], summary["shared_failed_share"]
        iqr = s["parent_q3"] - s["parent_q1"]
        print(f"{workload}: op_s median {s['parent_median']:.4f} -> {s['change_median']:.4f} s, "
              f"change lower in {s['change_better_pairs']}/{s['pairs']} pairs, "
              f"median gain {s['parent_median'] - s['change_median']:.4f} s "
              f"vs parent IQR {iqr:.4f} s; failed share over the {summary['shared_ops']} "
              f"operations both ran {shared['parent']:.4f} -> {shared['change']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
