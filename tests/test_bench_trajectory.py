"""scripts/bench_trajectory.py: reading BENCH_*.json records and chaining
their op_s ratios."""

import json

import pytest

from bench_trajectory import chain, read_record


def _write(path, parent, medians):
    workloads = {
        workload: {"summary": {"op_s": {"parent_median": p, "change_median": c}}}
        for workload, (p, c) in medians.items()
    }
    path.write_text(json.dumps({"parent_commit": parent, "workloads": workloads}))
    return path


def test_ratios_chain_per_workload(tmp_path):
    first = _write(tmp_path / "BENCH_a.json", "aaa", {"fit": (2.0, 1.0), "cli": (1.0, 1.5)})
    # measured on another host: only the ratio within the file counts
    second = _write(tmp_path / "BENCH_b.json", "bbb", {"fit": (10.0, 8.0)})
    records = [read_record(first), read_record(second)]
    assert records[0] == ("BENCH_a.json", "aaa", {"fit": (2.0, 1.0), "cli": (1.0, 1.5)})

    rows = chain((name, medians) for name, _, medians in records)
    assert rows["cli"] == [("BENCH_a.json", 1.5, 1.5)]
    (a_name, a_ratio, a_product), (b_name, b_ratio, b_product) = rows["fit"]
    assert (a_name, b_name) == ("BENCH_a.json", "BENCH_b.json")
    assert (a_ratio, a_product) == (0.5, 0.5)
    assert b_ratio == pytest.approx(0.8) and b_product == pytest.approx(0.4)
