"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and twice traced (one operation each,
--toy sizes) and checks the printed metrics against BENCHMARK.json, that
every hook attaches, and that the traced counts repeat exactly.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COMMAND_TIMES = {
    "fit_tall": ["fit_s"],
    "select_grid": ["select_s"],
    "cli_wide": ["simulate_s", "influence_s"],
}
# counts that must repeat exactly between two traced runs of one seed
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count/op"]


@functools.lru_cache(maxsize=None)
def _run(workload, trace, repeat=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    info = {}
    for line in lines:
        if line.startswith("info "):
            _, name, value, unit = line.split()
            info[name] = (float(value), unit)
    return result, info


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result, info = _result(_run(workload, 0))
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in COMMAND_TIMES[workload]:
        assert info[name][1] == "s" and info[name][0] > 0
    for name in ("row_error", "col_error", "failed_frac"):
        assert info[name][1] == "fraction"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_hooks_and_repeatable_counts(workload):
    first, _ = _result(_run(workload, 1, 0))
    second, _ = _result(_run(workload, 1, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(first) == expected
    assert first["metrics"]["trace.hooks_absent"]["value"] == 0
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["bem.sweeps"]["value"] > 0


def _import_benchmark():
    sys.path.insert(0, str(HERE))
    import run

    run._import_coblock()
    import tracing
    import workloads

    return run, tracing, workloads


def test_absent_hook_target_is_reported_not_raised(monkeypatch):
    _, tracing, _ = _import_benchmark()
    assert tracing.Hooks().absent == []
    gone = tracing.Hook("coblock.bem", "weighted_logistic_hessian_removed", None, "x")
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (gone,))
    hooks = tracing.Hooks()
    assert hooks.absent == ["coblock.bem.weighted_logistic_hessian_removed"]
    hooks.install(tracing.Tracer())
    hooks.remove()


def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys):
    run, _, workloads = _import_benchmark()

    class Broken(workloads.FitTall):
        def check(self, inputs, result):
            return workloads.Outcome(False, reason="forced failure")

    monkeypatch.setitem(workloads.WORKLOADS, "fit_tall", Broken)
    argv = ["--workload", "fit_tall", "--seed", "1", "--seconds", "0", "--toy"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("fit_tall", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
