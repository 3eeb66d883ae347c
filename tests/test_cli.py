import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tvcox
from tvcox import cli
from tvcox.cli import main
from tvcox.data import SurvivalDataset, write_csv

from conftest import count_risk_indexes


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


def run_child(code, **env):
    """Run ``code`` in a fresh interpreter that imports this process's tvcox."""
    package_root = os.path.dirname(os.path.dirname(tvcox.__file__))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath, **env})


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

    def test_builds_one_risk_index(self, tmp_path, capsys, monkeypatch):
        data = simulate_csv(tmp_path, capsys)
        built = count_risk_indexes(monkeypatch)
        rc, _, err = run(["fit", "--data", data, "--K", "4", "--optimizer", "newton",
                          "--out", str(tmp_path / "fit")], capsys)
        assert rc == 0, err
        assert built == [150]

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

    def test_subsampled_mmsa_converges_and_reruns_identically(self, tmp_path, capsys):
        data = str(tmp_path / "data.csv")
        rc, _, err = run(["simulate", "--setting", "1", "--n", "200", "--P", "2",
                          "--seed", "5", "--out", data], capsys)
        assert rc == 0, err
        out = tmp_path / "fit"
        texts = []
        for _ in range(2):
            rc, stdout, _ = run(["fit", "--data", data, "--K", "4", "--optimizer", "mmsa",
                                 "--eta", "0.2", "--out", str(out)], capsys)
            assert rc == 0
            assert "converged" in stdout
            texts.append((out / "fit.json").read_text())
        strip = lambda t: "\n".join(l for l in t.splitlines() if "wall_time_sec" not in l)
        assert strip(texts[0]) == strip(texts[1])

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


class TestResidualsFromTheFitsLastPass:
    """``_fit_and_tests`` builds the residuals from the means of the fit's last pass."""

    def fit_and_count(self, monkeypatch, **cfg):
        """``_fit_and_tests`` on a two-stratum scenario, and the risk-set passes after the fit."""
        ds = tvcox.generate(tvcox.ScenarioSpec(setting=1, n=300, P=3, J=2, seed=5))
        spec = tvcox.make_spec(degree=3, K=4, event_times=ds.event_times)
        passes = []
        # each stratum's pass, in either of its forms
        for name in ("_chunk_loop", "_uniform_pass"):
            def counted(*args, real_pass=getattr(tvcox.likelihood, name)):
                passes.append(args[0])
                return real_pass(*args)
            monkeypatch.setattr(tvcox.likelihood, name, counted)
        fit_fn, after_fit = cli.inference.fit_by_name(cfg["optimizer"]), []

        def fit_then_mark(*args):
            result = fit_fn(*args)
            # the data the fit ran on, which _fit_and_tests drops
            after_fit.append((len(passes), result.fitting_data))
            return result
        monkeypatch.setattr(cli.inference, "fit_by_name", lambda name: fit_then_mark)
        fit, resid, tests = cli._fit_and_tests(
            ds, spec, dict(dict(nu=0.05, eta=1.0, max_iter=20000, tol=1e-8, seed=1), **cfg))
        monkeypatch.undo()
        ((mark, fitting_data),) = after_fit
        assert fit.fitting_data is None
        return fit, resid, len(passes) - mark, fitting_data

    def test_a_converged_newton_fit_makes_no_pass(self, monkeypatch):
        fit, resid, after, fitting_data = self.fit_and_count(monkeypatch, optimizer="newton")
        assert fit.converged and after == 0
        fresh = tvcox.score_residuals(*fitting_data, fit.theta)
        np.testing.assert_allclose(resid.V, fresh.V, rtol=1e-12, atol=0)
        final = tvcox.evaluate_report(*fitting_data, fit.theta, want_full=True)
        scale = np.abs(resid.psi).sum(axis=0).max()
        np.testing.assert_allclose(resid.total, final.gradient, rtol=0, atol=1e-12 * scale)

    def test_a_subsampled_mmsa_fit_makes_one_pass(self, monkeypatch):
        # its last pass is loglik-only, which computes no means
        fit, resid, after, fitting_data = self.fit_and_count(
            monkeypatch, optimizer="mmsa", eta=0.2, max_iter=60)
        assert fit.risk_set_means is None
        assert after == len(fitting_data[1].strata) == 2
        fresh = tvcox.score_residuals(*fitting_data, fit.theta)
        assert np.array_equal(resid.V, fresh.V) and np.array_equal(resid.total, fresh.total)


def _former_csv_text(header, rows, comments):
    """The writer that ``cli._csv_file`` replaced: the whole file as one string."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


class TestOutputs:
    """Outputs are written row by row, after the fit's data and residuals are released."""

    @pytest.mark.parametrize("comments", [[], ["tvcox 0.1.0", 'config: {"out": "a, \\"b\\""}']],
                             ids=["bare", "comments"])
    def test_streamed_rows_match_the_former_text(self, tmp_path, comments):
        header = ["time", "covariate", "note"]
        rows = [["0.5", "x1", 1], ["a,b", 'say "hi"', "two\nlines"],
                ["1e-300", "βeta ü", "日本"], ["", None, 2.5]]
        streamed, former = tmp_path / "streamed.csv", tmp_path / "former.csv"
        cli._atomic_write(str(streamed), cli._csv_file(header, iter(rows), comments))
        cli._atomic_write(str(former), _former_csv_text(header, rows, comments))
        assert streamed.read_bytes() == former.read_bytes()

    def test_writing_outputs_never_peaks_above_the_fit(self, tmp_path, capsys, monkeypatch):
        # the CI's wide instance, P=40 > K=4: the separable form and 40 Wald
        # tests.  Holding the fit's data, the residuals and every curves.csv
        # row as text while writing peaked above the fit.
        data = str(tmp_path / "p.csv")
        rc, _, err = run(["simulate", "--setting", "1", "--n", "300", "--P", "40",
                          "--seed", "5", "--out", data], capsys)
        assert rc == 0, err
        fit_peak = []
        real_fit_by_name = cli.inference.fit_by_name
        real_covariance = cli.inference.covariance_from_residuals

        def fit_by_name(name):
            fit_fn = real_fit_by_name(name)

            def fit_then_read_peak(*args):
                result = fit_fn(*args)
                fit_peak.append(tracemalloc.get_traced_memory()[1])
                return result
            return fit_then_read_peak

        def covariance_then_reset_peak(resid):
            cov = real_covariance(resid)
            tracemalloc.reset_peak()
            return cov
        monkeypatch.setattr(cli.inference, "fit_by_name", fit_by_name)
        monkeypatch.setattr(cli.inference, "covariance_from_residuals",
                            covariance_then_reset_peak)
        tracemalloc.start()
        try:
            rc, _, err = run(["fit", "--data", data, "--K", "4", "--optimizer", "newton",
                              "--tol", "1e-8", "--out", str(tmp_path / "p")], capsys)
            _, outputs_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0, err
        assert outputs_peak < fit_peak[0]
        _, _, rows = read_rows(tmp_path / "p" / "curves.csv")
        assert len(rows) == 40 * 100


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

    def test_lines_end_in_newline_only_and_round_trip(self, tmp_path, capsys):
        path = simulate_csv(tmp_path, capsys, n=40)
        text = open(path, "rb").read()
        assert b"\r" not in text
        assert text.count(b"\n") == 2 + 1 + 40  # comments, header, one row per subject
        ds = tvcox.load_csv(path)
        assert ds.n == 40 and ds.covariate_names == ("x1", "x2")

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

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--data", "{data}", "--K", "4", "--eta", "0"],
         "subsample_fraction must be in (0, 1]"),
        (["fit", "--data", "{data}", "--K", "4", "--nu", "-1"],
         "learning_rate must be positive"),
        (["fit", "--data", "{data}", "--K", "4", "--config", "{tmp}/missing.json"],
         "cannot read config file: "),
        (["bench", "--setting", "3", "--n", "60", "--K", "4", "--replicates", "1",
          "--seed", "1", "--optimizers", ","],
         "--optimizers must list at least one optimizer"),
        (["cv", "--data", "{data}", "--K-grid", ",", "--seed", "1"],
         "--K-grid must list at least one K"),
        (["fit", "--data", "{data}", "--K", "4", "--optimizer", "adagrad"],
         "unknown optimizer 'adagrad'"),
        (["bench", "--setting", "3", "--n", "60", "--K", "4", "--replicates", "1",
          "--seed", "1", "--optimizers", "newton,gradient"],
         "unknown optimizer 'gradient'"),
    ])
    def test_rejected_values_write_nothing(self, argv, message, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys, n=60, seed=8)
        out = tmp_path / "out"
        argv = [a.format(data=data, tmp=tmp_path) for a in argv] + ["--out", str(out)]
        rc, _, err = run(argv, capsys)
        assert rc == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR USAGE: " + message)
        assert not out.exists()

    def test_failed_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "fit.json"

        def writer(name):
            with open(name, "w") as fh:
                fh.write("partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            cli._atomic_write(str(target), writer)
        assert list(tmp_path.iterdir()) == []

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

    def test_zero_replicates_rejected(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc, stdout, err = run(["bench", "--setting", "3", "--n", "50", "--K", "4",
                               "--optimizers", "newton", "--replicates", "0",
                               "--seed", "1", "--out", str(out)], capsys)
        assert rc == 1
        assert stdout == ""
        assert err.splitlines() == ["ERROR USAGE: --replicates must be at least 1"]
        assert not out.exists()


    def test_invalid_scenario_is_a_usage_error_as_in_simulate(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        errors = []
        for argv in (["bench", "--K", "4", "--optimizers", "newton", "--replicates", "1"],
                     ["simulate"]):
            rc, stdout, err = run(argv + ["--setting", "3", "--n", "0", "--seed", "1",
                                          "--out", str(out)], capsys)
            assert rc == 1 and stdout == ""
            errors.append(err)
        assert errors[0] == errors[1] == "ERROR USAGE: need n >= J >= 1\n"
        assert not out.exists()

    def test_full_hessian_beyond_memory_fails_with_capacity(self, tmp_path, capsys,
                                                            monkeypatch):
        # between what MMSA's blocks passes need on these replicates (at most
        # 59152 bytes) and what Newton's full passes need (at least 61432)
        monkeypatch.setattr(tvcox.likelihood, "_physical_memory", lambda: 60_000)
        out = tmp_path / "b.csv"
        rc, stdout, _ = run(self.bench_args(out), capsys)
        assert rc == 0  # MMSA needs no full Hessian
        assert "complete optimizers: mmsa" in stdout
        _, _, rows = read_rows(out)
        assert [r[10] for r in rows if r[2] == "newton"] == ["error:CAPACITY"] * 2


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

    def test_single_fold_rejected(self, tmp_path, capsys):
        data = simulate_csv(tmp_path, capsys, n=60, seed=8)
        out = tmp_path / "cv"
        rc, _, err = run(["cv", "--data", data, "--K-grid", "4", "--folds", "1",
                          "--seed", "1", "--out", str(out)], capsys)
        assert rc == 1
        assert err.splitlines() == ["ERROR USAGE: --folds must be at least 2"]
        assert not out.exists()


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
            env={"PATH": "/usr/bin:/bin", "OMP_NUM_THREADS": "1",
                 "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "wrote 40 subjects" in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        proc = run_child(
            "import sys, tvcox.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]



def test_fit_frees_the_loaded_dataset_before_the_residuals(tmp_path, capsys, monkeypatch):
    # the fit runs on its own standardized copy, so only the covariate names
    # of the loaded dataset are needed once it returns
    import weakref

    data = simulate_csv(tmp_path, capsys)
    loaded, alive = [], []
    real_load, real_residuals = cli.load_csv, cli.likelihood.score_residuals

    def load(path):
        dataset = real_load(path)
        loaded.append(weakref.ref(dataset))
        return dataset

    def residuals(*args):
        alive.append(loaded[0]() is not None)
        return real_residuals(*args)
    monkeypatch.setattr(cli, "load_csv", load)
    monkeypatch.setattr(cli.likelihood, "score_residuals", residuals)
    rc, _, err = run(["fit", "--data", data, "--K", "4", "--optimizer", "newton",
                      "--out", str(tmp_path / "fit")], capsys)
    assert rc == 0, err
    assert alive == [False]
    _, _, rows = read_rows(tmp_path / "fit" / "tests.csv")
    assert [r[0] for r in rows] == ["x1", "x2"]
