"""scripts/bench_trajectory.py: reading BENCH_*.json records and chaining
their ratios per workload and end-to-end metric."""

import json

import pytest

from bench_trajectory import chain, cpu_changes, read_cpus, read_record


def _write(path, parent, medians, env=None):
    """A record whose summaries hold medians {(workload, metric): (parent, change)}."""
    workloads = {}
    for (workload, metric), (p, c) in medians.items():
        summary = workloads.setdefault(workload, {"summary": {}})["summary"]
        summary[metric] = {"parent_median": p, "change_median": c}
    doc = {"parent_commit": parent, "workloads": workloads}
    if env is not None:
        doc["env"] = env
    path.write_text(json.dumps(doc))
    return path


def test_ratios_chain_per_workload(tmp_path):
    first_medians = {("fit", "op_s"): (2.0, 1.0), ("cli", "op_s"): (1.0, 1.5),
                     ("cli", "peak_rss_mb"): (90.0, 72.0)}
    first = _write(tmp_path / "BENCH_a.json", "aaa", first_medians)
    # measured on another host: only the ratio within the file counts
    second = _write(tmp_path / "BENCH_b.json", "bbb", {("fit", "op_s"): (10.0, 8.0),
                                                       ("cli", "peak_rss_mb"): (120.0, 60.0)})
    records = [read_record(first), read_record(second)]
    assert records[0] == ("BENCH_a.json", "aaa", first_medians)

    rows = chain((name, medians) for name, _, medians in records)
    assert rows[("cli", "op_s")] == [("BENCH_a.json", 1.5, 1.5)]
    (a_name, a_ratio, a_product), (b_name, b_ratio, b_product) = rows[("fit", "op_s")]
    assert (a_name, b_name) == ("BENCH_a.json", "BENCH_b.json")
    assert (a_ratio, a_product) == (0.5, 0.5)
    assert b_ratio == pytest.approx(0.8) and b_product == pytest.approx(0.4)
    # a second metric chains on its own: 0.8, then 0.8 * 0.5
    (_, rss_a, rss_a_product), (_, rss_b, rss_b_product) = rows[("cli", "peak_rss_mb")]
    assert (rss_a, rss_a_product) == (pytest.approx(0.8), pytest.approx(0.8))
    assert (rss_b, rss_b_product) == (0.5, pytest.approx(0.4))
    assert ("fit", "peak_rss_mb") not in rows


def test_a_change_of_usable_cpus_is_marked(tmp_path):
    medians = {("select", "op_s"): (1.0, 0.6)}
    paths = [
        _write(tmp_path / "BENCH_a.json", "aaa", medians, {"nproc": 2}),
        # the affinity count wins over nproc when both are recorded
        _write(tmp_path / "BENCH_b.json", "bbb", medians, {"nproc": 8, "affinity_cpus": 2}),
        _write(tmp_path / "BENCH_c.json", "ccc", medians, {"nproc": 4, "affinity_cpus": 4}),
        # a file without env says nothing about its host
        _write(tmp_path / "BENCH_d.json", "ddd", medians),
        _write(tmp_path / "BENCH_e.json", "eee", medians, {"nproc": 4, "affinity_cpus": 4}),
    ]
    cpus = {path.name: read_cpus(path) for path in paths}
    assert cpus == {"BENCH_a.json": 2, "BENCH_b.json": 2, "BENCH_c.json": 4,
                    "BENCH_d.json": None, "BENCH_e.json": 4}
    assert cpu_changes([path.name for path in paths], cpus) == {"BENCH_c.json": (2, 4)}
