"""Command-line driver: file plumbing, determinism, error reporting."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest

import coblock as cb
from coblock import cli
from coblock.cli import main
from coblock.dataio import load_dataset, read_labels_csv, read_params_json, write_params_json


@pytest.fixture
def dataset(tmp_path):
    """A small separated dataset on disk, plus its truth params file."""
    truth = cb.separated_params(2, 2, p=1, mean_scale=8.0, intercept_scale=3.0, seed=31)
    params_path = tmp_path / "truth.json"
    write_params_json(params_path, truth)
    out = tmp_path / "sim"
    rc = main([
        "simulate", "--params", str(params_path), "--n", "60", "--m", "16",
        "--out", str(out), "--seed", "5",
    ])
    assert rc == 0
    return {
        "x": out / "x.csv",
        "y": out / "y.csv",
        "truth_labels": out / "truth_labels.csv",
        "params": params_path,
        "dir": out,
    }


def read_all_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestDefaults:
    @pytest.mark.parametrize("command, flags", [
        ("fit", ["--g", "2", "--d", "2"]),
        ("select", ["--g-range", "1:2", "--d-range", "1:2"]),
        ("influence", ["--g", "2", "--d", "2"]),
    ])
    def test_flags_default_to_bem_config(self, command, flags):
        # the CLI and the library share one set of defaults
        argv = [command, "--x", "x.csv", "--y", "y.csv", "--out", "out", *flags]
        cfg = cli._bem_config(cli.build_parser().parse_args(argv))
        assert asdict(cfg) == asdict(cb.BemConfig())

    def test_benchmark_shares_seed_and_weight(self):
        # benchmark keeps its own restarts and sweeps; seed and weight are the library's
        args = cli.build_parser().parse_args(["benchmark", "--n-list", "10", "--out", "out"])
        cfg = cli._bem_config(args, free_energy_rel_tol=0.0, split_merge_rounds=0)
        assert asdict(cfg) == asdict(cb.BemConfig(
            max_outer_iters=10, free_energy_rel_tol=0.0, n_restarts=1, split_merge_rounds=0
        ))


class TestSimulate:
    def test_writes_parseable_files(self, dataset):
        x, y = load_dataset(dataset["x"], dataset["y"])
        assert (x.n, x.m, y.p) == (60, 16, 1)
        labels = read_labels_csv(dataset["truth_labels"])
        assert labels.row_labels.size == 60
        assert labels.col_labels.size == 16

    def test_seed_changes_bytes_not_shapes(self, dataset, tmp_path):
        other = tmp_path / "sim2"
        rc = main([
            "simulate", "--params", str(dataset["params"]), "--n", "60", "--m", "16",
            "--out", str(other), "--seed", "6",
        ])
        assert rc == 0
        assert (other / "x.csv").read_bytes() != dataset["x"].read_bytes()
        x, y = load_dataset(other / "x.csv", other / "y.csv")
        assert (x.n, x.m, y.p) == (60, 16, 1)


class TestFit:
    def test_outputs_and_recovery(self, dataset, tmp_path):
        out = tmp_path / "fit"
        rc = main([
            "fit", "--x", str(dataset["x"]), "--y", str(dataset["y"]),
            "--g", "2", "--d", "2", "--out", str(out), "--restarts", "4", "--seed", "0",
        ])
        assert rc == 0
        for name in ("labels.csv", "params.json", "free_energy.csv", "manifest.json"):
            assert (out / name).exists()
        est = read_labels_csv(out / "labels.csv")
        tru = read_labels_csv(dataset["truth_labels"])
        assert cb.label_error_rate(est.row_labels, tru.row_labels) <= 0.1
        fitted = read_params_json(out / "params.json")
        assert (fitted.g, fitted.d) == (2, 2)

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        argv = lambda out: [
            "fit", "--x", str(dataset["x"]), "--y", str(dataset["y"]),
            "--g", "2", "--d", "2", "--out", str(out), "--restarts", "2", "--seed", "1",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv(a)) == 0
        assert main(argv(b)) == 0
        assert read_all_bytes(a) == read_all_bytes(b)

    def test_free_energy_csv_is_nondecreasing(self, dataset, tmp_path):
        out = tmp_path / "fit"
        main([
            "fit", "--x", str(dataset["x"]), "--y", str(dataset["y"]),
            "--g", "2", "--d", "2", "--out", str(out), "--restarts", "2", "--seed", "2",
        ])
        with open(out / "free_energy.csv") as fh:
            vals = [float(row["value"]) for row in csv.DictReader(fh)]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-9 * np.abs(np.array(vals[:-1])))


class TestSelect:
    def test_grid_csv_and_best(self, dataset, tmp_path):
        out = tmp_path / "sel"
        rc = main([
            "select", "--x", str(dataset["x"]), "--y", str(dataset["y"]),
            "--g-range", "1:2", "--d-range", "1:2", "--out", str(out),
            "--restarts", "2", "--seed", "3",
        ])
        assert rc == 0
        with open(out / "bic_grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {(int(r["g"]), int(r["d"])) for r in rows} == {(1, 1), (1, 2), (2, 1), (2, 2)}
        best_row = min(rows, key=lambda r: float(r["bic"]))
        manifest = (out / "manifest.json").read_text()
        assert f'"best_g": {best_row["g"]}' in manifest
        assert f'"best_d": {best_row["d"]}' in manifest


class TestInfluence:
    def test_report_files(self, dataset, tmp_path):
        out = tmp_path / "inf"
        rc = main([
            "influence", "--x", str(dataset["x"]), "--y", str(dataset["y"]),
            "--g", "2", "--d", "2", "--out", str(out), "--restarts", "2", "--seed", "4",
        ])
        assert rc == 0
        with open(out / "influence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        ranks = sorted(int(r["rank"]) for r in rows)
        assert ranks == list(range(1, 17))
        by_rank = sorted(rows, key=lambda r: int(r["rank"]))
        scores = [float(r["score"]) for r in by_rank]
        assert scores == sorted(scores, reverse=True)


class TestManifest:
    def test_layout_of_every_command(self, dataset, tmp_path):
        # "command", "version", the echoed arguments, "config" (not for
        # simulate), then the results, in that order
        data = {"x": str(dataset["x"]), "y": str(dataset["y"])}
        fitted = asdict(cb.BemConfig(n_restarts=1, seed=3))
        cases = [
            (None, {"params": str(dataset["params"]), "n": 60, "m": 16, "seed": 5}, None, []),
            (["fit", "--g", "2", "--d", "2"], {**data, "g": 2, "d": 2}, fitted,
             ["converged", "n_iters", "free_energy"]),
            (["select", "--g-range", "1:2", "--d-range", "2:2"],
             {**data, "g_range": "1:2", "d_range": "2:2"}, fitted,
             ["best_g", "best_d", "best_bic", "failures"]),
            (["influence", "--g", "2", "--d", "2"], {**data, "g": 2, "d": 2}, fitted,
             ["top_column"]),
            (["benchmark", "--n-list", "30", "--m", "8", "--d-list", "2", "--max-iters", "2"],
             {"n_list": "30", "m": 8, "g": 2, "d_list": "2", "reps": 1},
             asdict(cb.BemConfig(max_outer_iters=2, free_energy_rel_tol=0.0, n_restarts=1,
                                 seed=3, split_merge_rounds=0)),
             []),
        ]
        for argv, echoed, config, results in cases:
            if argv is None:
                command, out = "simulate", dataset["dir"]
            else:
                command, out = argv[0], tmp_path / argv[0]
                if command != "benchmark":
                    argv = argv + ["--x", data["x"], "--y", data["y"]]
                assert main(argv + ["--restarts", "1", "--seed", "3", "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            config_key = [] if config is None else ["config"]
            assert list(manifest) == ["command", "version", *echoed, *config_key, *results]
            assert (manifest["command"], manifest["version"]) == (command, cb.__version__)
            assert {key: manifest[key] for key in echoed} == echoed, command
            assert manifest.get("config") == config, command


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main([
            "fit", "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2.csv"),
            "--g", "1", "--d", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_cov_weight_is_not_a_flag(self, tmp_path, capsys):
        # the covariate density is counted once per row; there is no other reading
        with pytest.raises(SystemExit) as exc:
            main([
                "fit", "--x", "x.csv", "--y", "y.csv", "--g", "1", "--d", "1",
                "--out", str(tmp_path / "out"), "--cov-weight", "1",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cov-weight 1" in capsys.readouterr().err

    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_dir_that_cannot_be_made(
        self, dataset, tmp_path, capsys, monkeypatch, under_file
    ):
        # fit, select and influence make --out before they fit, so an --out
        # that cannot be made fails without the fitting work
        def never(*args, **kwargs):
            pytest.fail("fitted before making --out")

        monkeypatch.setattr(cli, "fit", never)
        monkeypatch.setattr(cli, "select", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if under_file else taken
        data = ["--x", str(dataset["x"]), "--y", str(dataset["y"]), "--restarts", "1"]
        for command in (
            ["fit", "--g", "1", "--d", "1"],
            ["select", "--g-range", "1:2", "--d-range", "1:1"],
            ["influence", "--g", "1", "--d", "1"],
        ):
            rc = main(command + data + ["--out", str(out)])
            assert rc == 1, command
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot create output directory {out}: ")
            assert err.count("\n") == 1

    def test_non_binary_cell(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_text("0,2\n1,0\n")
        (tmp_path / "y.csv").write_text("1\n2\n")
        rc = main([
            "fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--g", "1", "--d", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "line 1, column 2" in capsys.readouterr().err

    def test_non_utf8_input(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_bytes(b"0,1\n1,\xff\n")
        (tmp_path / "y.csv").write_text("1\n2\n")
        rc = main([
            "fit", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--g", "1", "--d", "1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: x file") and err.count("\n") == 1
        assert "not UTF-8" in err

    def test_simulate_refuses_zero_covariates(self, tmp_path, capsys):
        # blank lines are skipped on reading, so a y.csv cannot carry p = 0
        write_params_json(tmp_path / "p0.json", cb.separated_params(2, 2, p=0, seed=2))
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--params", str(tmp_path / "p0.json"), "--n", "10", "--m", "4",
            "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (out / "x.csv").exists() and not (out / "y.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command in ("fit", "select", "influence")
            for flag, value in (
                ("--restarts", "0"), ("--max-iters", "0"), ("--tol", "-1"), ("--tol", "nan")
            )
        ]
        + [
            (command, flag, value)
            for command in ("fit", "influence")
            for flag, value in (("--g", "0"), ("--d", "0"), ("--d", "-1"))
        ]
        + [("benchmark", flag, "0") for flag in ("--restarts", "--max-iters", "--reps")]
        + [
            (command, "--seed", "-1")
            for command in ("simulate", "fit", "select", "influence", "benchmark")
        ],
    )
    def test_unusable_counts_fail_before_any_file(self, tmp_path, capsys, command, flag, value):
        # the input files do not exist: the flag must be named first
        argv = {
            "fit": ["--g", "1", "--d", "1"],
            "select": ["--g-range", "1:1", "--d-range", "1:1"],
            "influence": ["--g", "1", "--d", "1"],
            "benchmark": ["--n-list", "10"],
            "simulate": ["--params", str(tmp_path / "nope.json"), "--n", "5", "--m", "5"],
        }[command]
        if command not in ("benchmark", "simulate"):
            argv += ["--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2.csv")]
        out = tmp_path / "out"
        rc = main([command, *argv, "--out", str(out), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--g", "0"], ["--g", "-1"], ["--d-list", "0"]])
    def test_benchmark_unusable_cluster_counts(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = main(["benchmark", "--n-list", "10", "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need g >= 1") and err.count("\n") == 1
        assert not out.exists()

    def test_simulate_rejects_nan_proportions(self, tmp_path, capsys):
        # json reads NaN; a NaN proportion must not reach the sampler
        write_params_json(tmp_path / "p.json", cb.separated_params(2, 2, p=1, seed=2))
        text = (tmp_path / "p.json").read_text()
        (tmp_path / "p.json").write_text(text.replace('"row_props": [0.5,', '"row_props": [NaN,'))
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--params", str(tmp_path / "p.json"), "--n", "10", "--m", "4",
            "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row_props sums to") and err.count("\n") == 1
        assert not (out / "x.csv").exists()

    @pytest.mark.parametrize("ranges, message", [
        (["--g-range", "2-3", "--d-range", "1:1"], "range '2-3' is not of the form A:B"),
        (["--g-range", "1:1", "--d-range", "1:x"], "range '1:x' has non-integer endpoints"),
        (["--g-range", "0:2", "--d-range", "1:1"], "range '0:2' must satisfy 1 <= A <= B"),
    ], ids=["form", "endpoints", "order"])
    def test_bad_range_fails_before_any_file(self, tmp_path, capsys, ranges, message):
        # the input files do not exist: the range must be named first
        out = tmp_path / "out"
        rc = main([
            "select", "--x", str(tmp_path / "nope.csv"), "--y", str(tmp_path / "nope2.csv"),
            *ranges, "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_bad_range_syntax(self, tmp_path, capsys):
        (tmp_path / "x.csv").write_text("0,1\n")
        (tmp_path / "y.csv").write_text("1\n")
        rc = main([
            "select", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--g-range", "2-3", "--d-range", "1:1", "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
