"""Smoke test of the benchmark harness at tiny sizes; no timing assertions.

    python3 -m pytest -q benchmarks/tests

Runs every workload's timed and traced paths with their correctness
checks at about n=200, checks that traced counts repeat exactly, and
that the benchmark refuses to run where the tvcox sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("data.build_risk_index.calls", "likelihood.loglik.calls",
          "likelihood.blocks.calls", "likelihood.full.calls", "optimizers.iterations",
          "likelihood.dense_mb", "trace.spans")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def run_ok(name, trace, seed=3):
    proc = bench("--workload", name, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, report, last = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(last)


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


@pytest.mark.parametrize("name", NAMES)
def test_timed_run_passes_its_checks(name):
    report, result = run_ok(name, trace=0)
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 3 + 1 + 1  # set-ups, memory repetition, timed loop
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert report["command_s"]["count"] >= 1
    assert report["fail_rate"] == 0
    if workloads.WORKLOADS[name].K is not None:
        assert report["loglik_gap"] is not None and report["loglik_gap"] > -1e-6


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_pass_and_repeat_their_counts(name):
    first, result = run_ok(name, trace=1)
    assert result["correct"] and result["failed"] == 0, first["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    measured = first["measured"]
    assert abs(measured["trace.self_sum_s"]["value"]
               - measured["trace.command_s"]["value"]) < 1e-3
    second, _ = run_ok(name, trace=1)
    for key in COUNTS:
        assert second["measured"][key] == measured[key], key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
