"""scripts/op_digest.py: one digest line per benchmark operation."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "op_digest.py"


@pytest.mark.parametrize("workload", ["fit_tall", "select_grid", "cli_wide"])
def test_two_runs_write_the_same_file(workload, tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.txt"
        proc = subprocess.run([sys.executable, str(SCRIPT), "--workload", workload, "--seed", "3",
                               "--ops", "2", "--toy", str(out)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_text())
    lines = outs[0].splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1"]
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert lines[0] != lines[1] and outs[0] == outs[1]


@pytest.fixture
def op_digest(monkeypatch):
    # the script imports perfbench/run.py, which pins BLAS in os.environ
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    import op_digest

    return op_digest


def test_a_raising_operation_is_written_as_its_error(op_digest):
    class Raising:
        def build(self, data_seed, fit_seed, workdir):
            return None

        def run(self, inputs, call):
            raise ValueError("no such operation")

    assert op_digest.op_line(Raising(), 1, 3) == "3 raised ValueError: no such operation"
