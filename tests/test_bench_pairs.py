"""scripts/bench_pairs.py: the failed operations of each run are kept."""

import io
import json

import bench_pairs

STUB = '''
import json, sys
seed = sys.argv[sys.argv.index("--seed") + 1]
print("perfbench: w op 0 0.1000 s (w_s 0.1000)", file=sys.stderr)
print("perfbench: w op 1 raised:", file=sys.stderr)
print("Traceback (most recent call last):", file=sys.stderr)
print('  File "run.py", line 9, in <module>', file=sys.stderr)
print("ValueError: seed " + seed, file=sys.stderr)
print("perfbench: w op 2 0.1000 s (w_s 0.1000)", file=sys.stderr)
print("perfbench: w op 2 failed: grid picked (2, 4), expected (2, 3)", file=sys.stderr)
attempted, failed = 3, 2
'''

# a faster side: one more operation, which fails
FURTHER = '''
print("perfbench: w op 3 0.1000 s (w_s 0.1000)", file=sys.stderr)
print("perfbench: w op 3 failed: grid picked (2, 4), expected (2, 3)", file=sys.stderr)
attempted, failed = 4, 3
'''

REPORT = '''
metrics = {k: {"value": 1.0, "unit": "s"} for k in ("op_s", "peak_rss_mb", "setup_s")}
print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": metrics}))
sys.exit(1)
'''


def expected(seed):
    return ["perfbench: w op 1 raised: ValueError: seed " + str(seed),
            "perfbench: w op 2 failed: grid picked (2, 4), expected (2, 3)"]


def checkout(path, stub):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(stub)
    return path


def test_failed_operations_are_recorded_per_side_and_seed(tmp_path, monkeypatch):
    checkout(tmp_path, STUB + REPORT)
    _, attempted, failed, failures, _ = bench_pairs.run_once(tmp_path, "w", 7, 0.0)
    assert (attempted, failed, failures) == (3, 2, expected(7))
    # both sides run the stub
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    entry, _ = bench_pairs.bench("w", [5, 6], 0.0, tmp_path, io.StringIO())
    for side in ("parent", "change"):
        assert entry[side]["failures"] == [expected(5), expected(6)]
    assert json.loads(bench_pairs.dump(entry))["change"]["failures"][1] == expected(6)


def test_failures_are_compared_over_the_operations_both_sides_ran(tmp_path, monkeypatch):
    parent = checkout(tmp_path / "parent", STUB + REPORT)
    monkeypatch.setattr(bench_pairs, "ROOT", checkout(tmp_path / "change", STUB + FURTHER + REPORT))
    entry, _ = bench_pairs.bench("w", [5, 6], 0.0, parent, io.StringIO())
    assert entry["change"]["attempted"] == [4, 4]
    assert entry["change"]["failures"][0][-1].startswith("perfbench: w op 3 failed:")
    summary = entry["summary"]
    assert summary["failed_share"] == {"parent": round(4 / 6, 6), "change": 0.75}
    assert summary["shared_ops"] == 6
    assert summary["shared_failed_share"] == {"parent": round(4 / 6, 6), "change": round(4 / 6, 6)}
