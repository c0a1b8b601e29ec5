"""End-to-end speed along git history, chained from the BENCH_*.json files.

    python3 scripts/bench_trajectory.py

Each BENCH_*.json at the repository root holds paired runs of one change
against its parent commit (see scripts/bench_pairs.py). The files were
measured on different hosts, so their seconds do not compare across
files; the ratio of the change's median op_s to the parent's, taken
within one file, does. This script reads only those files, orders them
by where their parent commit sits in the history of HEAD, oldest first,
and prints for each workload and each end-to-end metric (op_s,
peak_rss_mb, setup_s) one line per file that measured it: the file, its
parent commit, the change/parent median ratio and the running product
of the ratios so far, which estimates the metric of that change relative
to the first parent measured. A change not benchmarked on a workload or
metric is missing from its product. A line whose file ran on a different
number of usable CPUs than the file before it in the same product ends
in "cpus A -> B": select fits its grid cells on one worker process per
usable CPU, so its op_s ratios from hosts of different sizes measure the
host as well as the change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("op_s", "peak_rss_mb", "setup_s")


def read_record(path: Path):
    """(file name, parent commit, {(workload, metric): (parent median, change
    median)}) of one BENCH_*.json, from each workload's summary, for each
    of METRICS the summary holds."""
    doc = json.loads(Path(path).read_text())
    medians = {
        (workload, metric): (entry["summary"][metric]["parent_median"],
                             entry["summary"][metric]["change_median"])
        for workload, entry in doc["workloads"].items()
        for metric in METRICS if metric in entry["summary"]
    }
    return Path(path).name, doc["parent_commit"], medians


def read_cpus(path: Path):
    """The number of CPUs the runs of one BENCH_*.json could use: the
    affinity count bench_pairs.py records, else (older files) the
    machine's nproc, else None."""
    env = json.loads(Path(path).read_text()).get("env", {})
    return env.get("affinity_cpus", env.get("nproc"))


def cpu_changes(names, cpus):
    """{name: (CPUs before, CPUs now)} for each file of one chain, in order,
    whose known CPU count differs from the known count of the file before it."""
    return {b: (cpus[a], cpus[b]) for a, b in zip(names, names[1:])
            if None not in (cpus[a], cpus[b]) and cpus[a] != cpus[b]}


def chain(records):
    """Per (workload, metric), the (name, ratio, running product) of each
    record that measured it, in the order given; records are (name,
    medians) pairs with medians as read_record returns them."""
    rows = {}
    for name, medians in records:
        for key, (parent, change) in medians.items():
            line = rows.setdefault(key, [])
            ratio = change / parent
            line.append((name, ratio, (line[-1][2] if line else 1.0) * ratio))
    return rows


def history_order(records):
    """records sorted by their parent commit's place in HEAD's history, oldest first."""
    commits = subprocess.run(["git", "rev-list", "--reverse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
    place = {commit: i for i, commit in enumerate(commits)}
    stray = [name for name, parent, _ in records if parent not in place]
    if stray:
        sys.exit(f"parent commit not in the history of HEAD: {', '.join(stray)}")
    return sorted(records, key=lambda record: place[record[1]])


def main() -> int:
    paths = sorted(ROOT.glob("BENCH_*.json"))
    records = history_order([read_record(path) for path in paths])
    cpus = {path.name: read_cpus(path) for path in paths}
    parents = {name: parent[:7] for name, parent, _ in records}
    rows = chain((name, medians) for name, _, medians in records)
    for workload, metric in sorted(rows, key=lambda key: (key[0], METRICS.index(key[1]))):
        print(workload, metric)
        changed = cpu_changes([name for name, _, _ in rows[(workload, metric)]], cpus)
        for name, ratio, product in rows[(workload, metric)]:
            mark = f"  cpus {changed[name][0]} -> {changed[name][1]}" if name in changed else ""
            print(f"  {name:40s} {parents[name]}  ratio {ratio:.3f}  product {product:.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
