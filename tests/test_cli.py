import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tvcox
from tvcox.cli import main
from tvcox.data import SurvivalDataset, write_csv


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def simulate_csv(tmp_path, capsys, n=150, seed=5, name="data.csv"):
    path = tmp_path / name
    rc, out, err = run(["simulate", "--setting", "3", "--n", str(n),
                        "--seed", str(seed), "--out", str(path)], capsys)
    assert rc == 0, err
    return str(path)


def read_rows(path):
    """(comment lines, header, data rows) of one output CSV."""
    lines = open(path).read().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    rows = list(csv.reader(body))
    return comments, rows[0], rows[1:]


class TestFitCommand:
    def test_writes_three_outputs_and_exits_zero(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys)
        out = tmp_path / "fit"
        rc, stdout, _ = run(["fit", "--data", data, "--K", "4", "--optimizer",
                             "newton", "--out", str(out)], capsys)
        assert rc == 0
        assert "converged" in stdout
        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"] is True
        assert doc["resolved_config"]["K"] == 4
        assert doc["resolved_config"]["optimizer"] == "newton"
        assert len(doc["tests"]) == 2
        comments, header, rows = read_rows(out / "curves.csv")
        assert comments[0] == "# tvcox 0.1.0"
        assert comments[1].startswith("# config: {")
        assert header == ["time", "covariate", "estimate", "se", "lower", "upper"]
        assert len(rows) == 2 * 100  # P covariates x 100 grid points
        _, theader, trows = read_rows(out / "tests.csv")
        assert theader == ["covariate", "statistic", "df", "p_value", "information"]
        assert [r[0] for r in trows] == ["x1", "x2"]
        assert all(r[4] == "empirical" for r in trows)

    def test_exit_two_when_stopped_at_max_iterations(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys)
        out = tmp_path / "fit"
        rc, stdout, _ = run(["fit", "--data", data, "--K", "4", "--max-iter", "3",
                             "--out", str(out)], capsys)
        assert rc == 2
        assert "stopped" in stdout
        doc = json.loads((out / "fit.json").read_text())
        assert doc["converged"] is False
        assert doc["reason"] == "max-iterations"

    def test_capacity_guard_exits_one_without_outputs(self, tmp_path, capsys):
        # 40 covariates x K = 51 puts the full Hessian over the guard that
        # the Newton path enforces
        rng = np.random.default_rng(0)
        n = 120
        ds = SurvivalDataset(
            time=np.linspace(0.05, 2.9, n), status=np.ones(n, dtype=np.int8),
            stratum=np.zeros(n, dtype=np.int64),
            covariates=rng.normal(size=(n, 40)),
            covariate_names=tuple(f"x{p+1}" for p in range(40)),
            stratum_labels=("s001",))
        data = tmp_path / "wide.csv"
        write_csv(str(data), ds)
        out = tmp_path / "fit"
        rc, _, err = run(["fit", "--data", str(data), "--K", "51",
                          "--optimizer", "newton", "--out", str(out)], capsys)
        assert rc == 1
        assert err.startswith("ERROR CAPACITY:")
        assert not (out / "fit.json").exists()

    def test_outputs_byte_identical_across_reruns(self, tmp_path, capsys):
        # rerun into the same directory: the config echo embeds --out, so
        # determinism is judged with identical arguments
        data = simulate_csv(tmp_path, capsys)
        out = tmp_path / "fit"
        texts = []
        for _ in range(2):
            rc, _, _ = run(["fit", "--data", data, "--K", "4", "--optimizer",
                            "newton", "--out", str(out)], capsys)
            assert rc == 0
            texts.append({name: (out / name).read_text()
                          for name in ("fit.json", "curves.csv", "tests.csv")})
        assert texts[0]["curves.csv"] == texts[1]["curves.csv"]
        assert texts[0]["tests.csv"] == texts[1]["tests.csv"]
        strip = lambda t: [l for l in t.splitlines() if "wall_time_sec" not in l]
        assert strip(texts[0]["fit.json"]) == strip(texts[1]["fit.json"])

    def test_config_file_merge_with_flag_precedence(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"K": 4, "nu": 0.123, "optimizer": "newton"}))
        out = tmp_path / "fit"
        rc, _, _ = run(["fit", "--config", str(cfg), "--data", data,
                        "--K", "5", "--out", str(out)], capsys)
        assert rc == 0
        resolved = json.loads((out / "fit.json").read_text())["resolved_config"]
        assert resolved["K"] == 5           # explicit flag beats the file
        assert resolved["nu"] == 0.123      # file beats the default
        assert resolved["optimizer"] == "newton"
        comments, _, _ = read_rows(out / "curves.csv")
        assert '"K": 5' in comments[1]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iters": 3}))
        rc, _, err = run(["fit", "--config", str(cfg), "--data", data,
                          "--K", "4", "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert err.startswith("ERROR USAGE:")
        assert "max_iters" in err


class TestConfigFile:
    """--config values go through the type of their flag, as flag text does."""

    def run_fit(self, tmp_path, capsys, data, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return run(["fit", "--config", str(cfg), "--data", data, "--optimizer", "newton",
                    "--out", str(tmp_path / "fit")], capsys)

    def test_numbers_given_as_strings_are_parsed(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys)
        rc, _, err = self.run_fit(tmp_path, capsys, data, {"K": "4", "nu": "0.1"})
        assert rc == 0, err
        resolved = json.loads((tmp_path / "fit" / "fit.json").read_text())["resolved_config"]
        assert resolved["K"] == 4 and resolved["nu"] == 0.1

    @pytest.mark.parametrize("values", [
        {"K": "four"}, {"K": 4.5}, {"K": [4]}, {"nu": "fast"}, {"max_iter": 2.5},
        {"tol": None}, {"seed": True}, {"optimizer": "sgd"},
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, values):
        rc, _, err = self.run_fit(tmp_path, capsys, "unread.csv", values)
        assert rc == 1
        assert err.startswith("ERROR USAGE:") and len(err.splitlines()) == 1
        assert next(iter(values)) in err

    @pytest.mark.parametrize("document", ['"x"', '[1, "a"]', "3"])
    def test_file_must_hold_an_object(self, tmp_path, capsys, document):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(document)
        rc, _, err = run(["fit", "--config", str(cfg), "--data", "unread.csv", "--K", "4"],
                         capsys)
        assert rc == 1
        assert err == "ERROR USAGE: config file must hold a JSON object\n"


class TestSimulateCommand:
    def test_deterministic_with_expected_line_counts(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        snapshots = []
        for _ in range(2):
            rc, stdout, _ = run(["simulate", "--setting", "3", "--n", "1000",
                                 "--seed", "9", "--out", str(path)], capsys)
            assert rc == 0
            assert "wrote 1000 subjects" in stdout
            snapshots.append(path.read_bytes())
        a, b = snapshots
        assert a == b
        lines = a.decode().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert len(comments) == 2
        assert len(lines) - len(comments) == 1001  # header + one row per subject

    def test_setting3_rejects_extra_covariates(self, tmp_path, capsys):
        rc, _, err = run(["simulate", "--setting", "3", "--n", "50", "--P", "5",
                          "--seed", "1", "--out", str(tmp_path / "x.csv")], capsys)
        assert rc == 1
        assert err.startswith("ERROR USAGE:")
        assert "two covariates" in err

    def test_other_settings_require_P(self, tmp_path, capsys):
        rc, _, err = run(["simulate", "--setting", "1", "--n", "50",
                          "--seed", "1", "--out", str(tmp_path / "x.csv")], capsys)
        assert rc == 1
        assert "missing required option --P" in err


class TestUsageErrors:
    def test_missing_data_flag(self, capsys):
        rc, _, err = run(["fit", "--K", "4"], capsys)
        assert rc == 1
        assert "missing required option --data" in err

    def test_nonexistent_data_file(self, tmp_path, capsys):
        rc, _, err = run(["fit", "--data", str(tmp_path / "absent.csv"),
                          "--K", "4", "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert err.startswith("ERROR USAGE:")
        assert "absent.csv" in err

    def test_unknown_flag_reports_usage(self, capsys):
        rc, _, err = run(["fit", "--bogus", "1"], capsys)
        assert rc == 1
        assert err.startswith("ERROR USAGE:")

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TVCOX_NUM_THREADS", "many")
        rc, _, err = run(["simulate", "--setting", "3", "--n", "10",
                          "--seed", "1", "--out", "x.csv"], capsys)
        assert rc == 1
        assert "TVCOX_NUM_THREADS" in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "tvcox 0.1.0"


class TestBenchCommand:
    def bench_args(self, out, seed=3):
        return ["bench", "--setting", "3", "--n", "120", "--K", "4",
                "--optimizers", "newton,mmsa", "--replicates", "2",
                "--tol", "1e-5", "--seed", str(seed), "--out", str(out)]

    def test_rows_pairing_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc, stdout, _ = run(self.bench_args(out), capsys)
        assert rc == 0
        assert "complete optimizers: newton, mmsa" in stdout
        comments, header, rows = read_rows(out)
        assert header == ["replicate", "scenario", "optimizer", "n", "P", "K",
                          "time_sec", "bias", "imse", "rejection_rate", "status"]
        assert len(rows) == 4
        # sorted by (replicate, optimizer) and paired across optimizers
        assert [(r[0], r[2]) for r in rows] == [
            ("0", "mmsa"), ("0", "newton"), ("1", "mmsa"), ("1", "newton")]
        assert all(r[1] == "setting3" and r[10] == "ok" for r in rows)
        assert all(r[9] in ("0", "1") for r in rows)

    def test_reruns_identical_except_wall_time(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert run(self.bench_args(out), capsys)[0] == 0
            outs.append(read_rows(out))
        for got, want in zip(outs[0][2], outs[1][2]):
            assert got[:6] == want[:6]
            assert got[7:] == want[7:]

    def test_exit_one_when_no_optimizer_completes(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc, stdout, _ = run(
            ["bench", "--setting", "1", "--n", "250", "--P", "40", "--K", "51",
             "--optimizers", "newton", "--replicates", "2", "--seed", "3",
             "--out", str(out)], capsys)
        assert rc == 1
        assert "complete optimizers: none" in stdout
        _, _, rows = read_rows(out)
        assert len(rows) == 2
        assert all(r[10] == "error:CAPACITY" for r in rows)
        assert all(r[6] == "" for r in rows)  # no timing for failed runs

    def test_unknown_optimizer_rejected(self, tmp_path, capsys):
        rc, _, err = run(["bench", "--setting", "3", "--n", "50", "--K", "4",
                          "--optimizers", "newton,sgd", "--replicates", "1",
                          "--seed", "1", "--out", str(tmp_path / "b.csv")], capsys)
        assert rc == 1
        assert "unknown optimizer 'sgd'" in err


class TestCvCommand:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys, n=200, seed=7)
        out = tmp_path / "cv"
        texts = []
        for _ in range(2):
            rc, stdout, _ = run(["cv", "--data", data, "--K-grid", "4,5",
                                 "--folds", "4", "--seed", "2", "--out",
                                 str(out)], capsys)
            assert rc == 0
            assert "K=4 cv=" in stdout and "K=5 cv=" in stdout
            assert "chosen K = " in stdout
            texts.append((out / "cv.csv").read_text())
        assert texts[0] == texts[1]
        comments, header, rows = read_rows(out / "cv.csv")
        assert header == ["K", "fold", "score"]
        assert len(rows) == 2 * 4
        assert sorted({r[0] for r in rows}) == ["4", "5"]

    def test_bad_grid_rejected(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys, n=60, seed=8)
        rc, _, err = run(["cv", "--data", data, "--K-grid", "4;5",
                          "--seed", "1", "--out", str(tmp_path)], capsys)
        assert rc == 1
        assert "cannot parse --K-grid" in err


class TestEntryPoint:
    def test_module_invocation_in_subprocess(self, tmp_path):
        out = tmp_path / "sub.csv"
        # The child must import the same tvcox source as this process, which
        # need not be installed: put its directory first on the child's path.
        package_root = os.path.dirname(os.path.dirname(tvcox.__file__))
        pythonpath = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "tvcox.cli", "simulate", "--setting", "3",
             "--n", "40", "--seed", "2", "--out", str(out)],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "TVCOX_NUM_THREADS": "1",
                 "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "wrote 40 subjects" in proc.stdout


class TestThreadCap:
    """TVCOX_NUM_THREADS reaches the BLAS libraries only before numpy loads."""

    @staticmethod
    def run_child(code, **env):
        package_root = os.path.dirname(os.path.dirname(tvcox.__file__))
        pythonpath = os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath, **env})

    def test_import_sets_blas_variables_before_numpy(self):
        proc = self.run_child(
            "import os, tvcox\n"
            "print(*(os.environ.get(v) for v in "
            "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))",
            TVCOX_NUM_THREADS="1", OPENBLAS_NUM_THREADS="3")
        assert proc.returncode == 0, proc.stderr
        # a variable the user set is kept
        assert proc.stdout.split() == ["1", "3", "1"]

    def test_warns_when_numpy_was_loaded_first(self, tmp_path):
        out = tmp_path / "t.csv"
        proc = self.run_child(
            "import importlib.util, sys\n"
            "import numpy\n"
            "from tvcox.cli import main\n"
            "print(importlib.util.find_spec('threadpoolctl') is not None)\n"
            f"sys.exit(main(['simulate', '--setting', '3', '--n', '10', "
            f"'--seed', '1', '--out', {str(out)!r}]))",
            TVCOX_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
        has_threadpoolctl = proc.stdout.splitlines()[0] == "True"
        if has_threadpoolctl:
            assert proc.stderr == ""
        else:
            assert proc.stderr.splitlines() == [
                "WARNING: TVCOX_NUM_THREADS=1 not applied: numpy was loaded "
                "before tvcox and threadpoolctl is not installed"]
