"""Benchmark of the tvcox CLI: one workload, one seed, one run.

    python3 benchmarks/run.py --workload newton_n8k --seed 1 --seconds 8 --trace 0

Run from the repository root (or any checkout holding ``src/tvcox``).
With ``--trace 0`` it
  * draws the workload's CSV with a fresh-process ``tvcox simulate``,
    several times, and reports the median as ``setup_s``;
  * starts a worker process (``worker.py``) that runs the workload's CLI
    command in process, closed loop, one command at a time, and checks
    every output;
  * prints the end-to-end metrics named in ``BENCHMARK.json``.
With ``--trace 1`` the worker instead runs one untraced and one traced
command and the per-layer metrics are printed.

Workers get ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to the number of usable CPUs before numpy loads.
Scratch files go under ``.bench_work/`` in the checkout; the run's own
directory is removed at the end, span dumps of traced runs are kept.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and a JSON line with every measured value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_REPS = 3
MIN_SAMPLES = 1      # timed commands per run, however long they take
RUN_LIMIT_S = 170    # the whole run, set-up included, ends before this
WORKER_SPARE_S = 10  # kept back from the worker's deadline for start-up


def percentile_report(samples) -> dict:
    """Median, sample count, and the highest of a few fixed percentiles that
    has at least ten samples above it."""
    out = {"median": statistics.median(samples), "count": len(samples)}
    ordered = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75):
        rank = pct / 100 * (len(ordered) - 1)
        value = ordered[min(int(rank + 0.5), len(ordered) - 1)]
        if sum(s > value for s in ordered) >= 10:
            out[f"p{pct:g}"] = value
            break
    return out


def cpu_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        l3 = 0
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "l3_mib": round(l3 / 2**20, 1) if l3 > 0 else None}


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("TVCOX_NUM_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_setup(workload, seed, csv_path, env, deadline):
    """Fresh-process ``tvcox simulate``; returns (seconds, problem or None, digest)."""
    argv = [sys.executable, "-m", "tvcox.cli", *workload.simulate_argv(seed, str(csv_path))]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        return seconds, f"simulate exit code {proc.returncode}: {proc.stderr.strip()}", None
    return seconds, None, hashlib.sha256(csv_path.read_bytes()).hexdigest()


def run_worker(job, env, deadline) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (about n=200); timings are meaningless")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "tvcox" / "cli.py").is_file():
        print(f"error: no tvcox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.get(args.workload, args.tiny)
    info = cpu_info()
    env = worker_env(info["nproc"])
    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    csv_path = work / "data.csv"
    work.mkdir(parents=True)
    try:
        setup, problems = [], []
        if not args.trace:
            digests = set()
            for _ in range(SETUP_REPS):
                seconds, problem, digest = run_setup(workload, args.seed, csv_path, env, deadline)
                setup.append(seconds)
                problems += [problem] if problem else []
                digests.update([digest] if digest else [])
            if len(digests) > 1:
                problems.append("simulate wrote different CSVs for the same seed")
        job = {"workload": workload.name, "tiny": args.tiny, "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace),
               "min_samples": MIN_SAMPLES, "csv": str(csv_path), "out": str(work / "out"),
               "trace_file": str(work.parent / f"trace-{workload.name}-s{args.seed}.json"),
               "deadline": deadline - time.monotonic() - WORKER_SPARE_S}
        result = run_worker(job, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = result["attempted"] + len(setup)
    failed = result["failed"] + len(problems)  # each set-up problem fails one command
    problems += result["problems"]
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": {**info, **result["machine"],
                          "blas_threads": env["OPENBLAS_NUM_THREADS"]},
              "fail_rate": failed / attempted, "attempted": attempted, "failed": failed,
              "problems": problems}
    if args.trace:
        measured = {k: (v, "count" if k.endswith((".calls", ".iterations", ".spans"))
                        else "MB-computed" if k == "likelihood.dense_mb" else "s", None)
                    for k, v in result["per_layer"].items()}
    else:
        command = result["command_s"]
        per_iter = [1000 * s / max(result["iterations"], 1) for s in command]
        report.update(command_s={**percentile_report(command), "samples": command},
                      iter_ms=percentile_report(per_iter),
                      setup_s={**percentile_report(setup), "samples": setup},
                      iterations=result["iterations"], chosen_K=result["chosen_K"],
                      loglik_gap=result["loglik_gap"],
                      reference_loglik=result["reference_loglik"])
        measured = {name: (report[name]["median"], unit, report[name]["count"])
                    for name, unit in (("command_s", "s"), ("iter_ms", "ms"), ("setup_s", "s"))}
        measured["peak_mem_mb"] = (result["peak_mem_mib"], "MiB", 1)
        if result["loglik_gap"] is not None:
            measured["loglik_gap"] = (result["loglik_gap"], "loglik", 1)

    print(f"tvcox benchmark: {workload.name} seed {args.seed} "
          f"({'traced' if args.trace else 'timed'}, {info['nproc']} BLAS threads)")
    for name, (value, unit, count) in measured.items():
        print(f"  {name:32s} {value:14.6g} {unit}" + (f"  (n={count})" if count else ""))
    print(f"  {'fail_rate':32s} {report['fail_rate']:14.6g} share  ({failed}/{attempted})")
    for problem in problems:
        print(f"  FAILED {problem}")
    report["measured"] = {k: {"value": v, "unit": u} for k, (v, u, _) in measured.items()}
    print(json.dumps(report))
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
               for m in declared_metrics(args.trace)}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
