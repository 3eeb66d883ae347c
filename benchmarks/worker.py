"""Benchmark worker: runs one workload's CLI command in a fresh process.

``run.py`` starts this script with the BLAS thread variables already in
its environment, so numpy sees them when it loads.  The job arrives as a
JSON object in ``argv[1]``; the result leaves as one JSON object on the
last line of stdout.

Timed mode (``trace`` false):
  1. one untimed repetition under tracemalloc, for the peak memory, the
     optimizer iteration count and the first outputs;
  2. for fit workloads, the reference optimum: Newton at tol 1e-12 on the
     same CSV, started from the fitted coefficients;
  3. the closed loop: the same command again and again, one at a time,
     until ``seconds`` have passed and at least ``min_samples`` ran.
Every repetition is checked; its outputs must equal the first ones.

Traced mode (``trace`` true): a traced ``simulate`` writes the CSV, then
one untraced and one traced run of the command; both are checked and
their outputs must be equal.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

REL_TOL = 1e-9  # Newton fits must match the reference optimum to this relative error
SELF_SUM_TOL = 1e-3  # seconds: traced self times must add up to the traced wall time


def run_command(cli, argv):
    """``cli.main(argv)`` with stdout captured; returns (exit code, stdout, seconds).

    The exit code is None when the command raised.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - start
    return rc, buf.getvalue(), seconds


@contextlib.contextmanager
def count_iterations():
    """Sum the ``iterations`` of every fit made through ``inference._FIT_BY_NAME``.

    Both ``fit`` (via ``fit_by_name``) and ``cv`` (for each fold) reach the
    optimizers through that table.
    """
    from tvcox import inference

    table = inference._FIT_BY_NAME
    originals = dict(table)
    total = [0]

    def counted(fit):
        def run(*args, **kwargs):
            result = fit(*args, **kwargs)
            total[0] += result.iterations
            return result
        return run

    table.update({name: counted(fit) for name, fit in originals.items()})
    try:
        yield total
    finally:
        table.update(originals)


def flag(command, name):
    return command[command.index(name) + 1]


def read_outputs(workload, out_dir: Path) -> dict:
    """The command's output files, with the run-dependent wall time removed."""
    if workload.subcommand == "cv":
        return {"cv.csv": (out_dir / "cv.csv").read_text()}
    doc = json.loads((out_dir / "fit.json").read_text())
    doc.pop("wall_time_sec")
    return {"fit.json": doc,
            "curves.csv": (out_dir / "curves.csv").read_text(),
            "tests.csv": (out_dir / "tests.csv").read_text()}


def check(workload, rc, stdout, outputs, iterations, reference=None) -> list:
    """Correctness problems of one command run; empty when it passed."""
    if rc != 0:
        return ["raised an exception" if rc is None else f"exit code {rc}"]
    problems = []
    if workload.subcommand == "fit":
        doc = outputs["fit.json"]
        if doc["converged"] is not True:
            problems.append(f"fit.json converged is {doc['converged']!r}")
        if doc["iterations"] != iterations:
            problems.append(f"fit.json iterations {doc['iterations']} != counted {iterations}")
        ll = doc["loglik"]
        if not math.isfinite(ll):
            problems.append(f"loglik {ll} is not finite")
        elif reference is not None:
            gap = reference - ll
            if not math.isfinite(gap) or gap < -REL_TOL * abs(reference):
                problems.append(f"loglik {ll!r} is above the reference optimum {reference!r}")
            elif workload.newton and gap > REL_TOL * abs(reference):
                problems.append(f"loglik {ll!r} misses the reference optimum {reference!r} "
                                f"by more than {REL_TOL:g} relative")
        return problems
    grid = [int(k) for k in flag(workload.command, "--K-grid").split(",")]
    folds = int(flag(workload.command, "--folds"))
    rows = [line.split(",") for line in outputs["cv.csv"].splitlines()
            if line and not line.startswith("#")][1:]
    scores = {K: 0.0 for K in grid}
    for K, _, score in rows:
        scores[int(K)] += float(score)
    if len(rows) != len(grid) * folds or not all(math.isfinite(float(r[2])) for r in rows):
        problems.append(f"cv.csv needs {len(grid) * folds} finite fold scores")
    best = max(grid, key=lambda K: (scores[K], -K))  # ties go to the smallest K
    if chosen_K(stdout) != best:
        problems.append(f"chosen K {chosen_K(stdout)} is not the best summed score's K {best}")
    return problems


def chosen_K(stdout):
    found = re.search(r"chosen K = (\d+)", stdout)
    return int(found.group(1)) if found else None


def reference_loglik(workload, csv_path, theta) -> float:
    """Newton at tol 1e-12 on the same CSV, warm-started at ``theta``."""
    import numpy as np
    from tvcox.data import load_csv
    from tvcox.optimizers import MmsaConfig, newton_fit
    from tvcox.splines import make_spec

    dataset = load_csv(csv_path)
    spec = make_spec(degree=3, K=workload.K, event_times=dataset.event_times)
    return newton_fit(dataset, spec, MmsaConfig(tol=1e-12),
                      init_theta=np.asarray(theta)).loglik


def dense_mb(csv_path) -> float:
    """Bytes of one dense n_j x m_j float64 array per stratum, summed, in MB."""
    from tvcox.data import build_risk_index, load_csv

    index = build_risk_index(load_csv(csv_path))
    return 8 * sum(s.order.size * s.dt.size for s in index.strata) / 1e6


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Attempts:
    """Counts attempted and failed commands and keeps the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def timed(job, cli, workload, attempts) -> dict:
    csv_path, out_dir = job["csv"], Path(job["out"])
    argv = workload.command_argv(csv_path, str(out_dir))
    start_all = time.perf_counter()
    with count_iterations() as counted:
        tracemalloc.start()
        try:
            rc, stdout, _ = run_command(cli, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    iterations = counted[0]
    first = read_outputs(workload, out_dir) if rc == 0 else None
    reference = gap = None
    if workload.K is not None and first is not None:
        reference = reference_loglik(workload, csv_path, first["fit.json"]["theta"])
        gap = reference - first["fit.json"]["loglik"]
    attempts.record("memory repetition",
                    check(workload, rc, stdout, first, iterations, reference))

    samples = []
    loop_start = time.perf_counter()
    while len(samples) < job["min_samples"] or time.perf_counter() - loop_start < job["seconds"]:
        last = samples[-1] if samples else 0.0
        if time.perf_counter() - start_all + last > job["deadline"]:
            break
        rc, stdout, seconds = run_command(cli, argv)
        outputs = read_outputs(workload, out_dir) if rc == 0 else None
        problems = check(workload, rc, stdout, outputs, iterations, reference)
        if not problems and outputs != first:
            problems.append("outputs differ from the first repetition")
        attempts.record(f"timed repetition {len(samples) + 1}", problems)
        samples.append(seconds)
    return {"command_s": samples, "iterations": iterations, "peak_mem_mib": peak / 2**20,
            "reference_loglik": reference, "loglik_gap": gap,
            "chosen_K": chosen_K(stdout) if workload.subcommand == "cv" else None}


def layer_metrics(spans, self_s) -> dict:
    """Per-layer self times and counts of one traced command."""
    def total(match):
        return sum(t for span, t in zip(spans, self_s) if match(span[0]))

    def calls(name):
        return sum(1 for span in spans if span[0] == name)

    def named(*names):
        return lambda name: name in names

    def layer(prefix):
        return lambda name: name.startswith(prefix + ".")

    report = "likelihood.evaluate_report."
    tests = ("test_all_covariates", "wald_test_empirical", "wald_test_observed",
             "contrast_matrix", "chi_square_upper_tail")
    return {
        "cli.self_s": total(layer("cli")),
        "data.load_csv_s": total(named("data.load_csv")),
        "data.build_risk_index_s": total(named("data.build_risk_index")),
        "data.build_risk_index.calls": calls("data.build_risk_index"),
        "data.self_s": total(layer("data")),
        "splines.s": total(layer("splines")),
        "likelihood.loglik_s": total(named(report + "loglik", "likelihood.loglik")),
        "likelihood.loglik.calls": calls(report + "loglik"),
        "likelihood.blocks_s": total(named(report + "blocks", "likelihood.block_hessians",
                                           "likelihood.block_hessian")),
        "likelihood.blocks.calls": calls(report + "blocks"),
        "likelihood.full_s": total(named(report + "full", "likelihood.full_hessian")),
        "likelihood.full.calls": calls(report + "full"),
        "likelihood.residuals_s": total(named("likelihood.score_residuals")),
        "likelihood.self_s": total(layer("likelihood")),
        "optimizers.fit_s": sum(end - start for name, start, end, _, _ in spans
                                if name.startswith("optimizers.") and name.endswith("_fit")),
        "optimizers.self_s": total(layer("optimizers")),
        "inference.tests_s": total(named(*(f"inference.{t}" for t in tests))),
        "inference.cv_self_s": total(named("inference.cross_validate_K")),
        "inference.self_s": total(layer("inference")),
    }


def traced(job, cli, workload, attempts) -> dict:
    csv_path, out_dir = job["csv"], Path(job["out"])
    argv = workload.command_argv(csv_path, str(out_dir))
    with tr.Tracer(f"{workload.name}-{job['seed']}-setup") as setup_trace:
        rc, _, _ = run_command(cli, workload.simulate_argv(job["seed"], csv_path))
    attempts.record("traced simulate", [] if rc == 0 else [f"exit code {rc}"])

    with count_iterations() as counted:
        rc, stdout, untraced_s = run_command(cli, argv)
    iterations = counted[0]
    untraced = read_outputs(workload, out_dir) if rc == 0 else None
    attempts.record("untraced command", check(workload, rc, stdout, untraced, iterations))

    # the counter wraps the traced fit functions, so it is installed second
    with tr.Tracer(f"{workload.name}-{job['seed']}-command") as trace, \
            count_iterations() as counted:
        rc, stdout, traced_s = run_command(cli, argv)
    outputs = read_outputs(workload, out_dir) if rc == 0 else None
    problems = check(workload, rc, stdout, outputs, counted[0])
    if not problems and outputs != untraced:
        problems.append("traced outputs differ from the untraced run's")
    spans = trace.spans
    self_s = tr.self_times(spans)
    self_sum = sum(self_s)
    if abs(self_sum - traced_s) > SELF_SUM_TOL:
        problems.append(f"span self times sum to {self_sum:.6f} s, traced wall is {traced_s:.6f} s")
    attempts.record("traced command", problems)

    metrics = layer_metrics(spans, self_s)
    metrics.update({
        "likelihood.dense_mb": dense_mb(csv_path),
        "optimizers.iterations": counted[0],
        "simulate.generate_s": sum(e - s for n, s, e, _, _ in setup_trace.spans
                                   if n == "simulate.generate"),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.command_s": traced_s,
        "trace.untraced_command_s": untraced_s,
        "trace.self_sum_s": self_sum,
        "trace.spans": len(spans),
    })
    trace_file = Path(job["trace_file"])
    trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run"],
                                      "setup": setup_trace.spans, "command": spans}))
    return {"per_layer": metrics}


def main() -> int:
    job = json.loads(sys.argv[1])
    workload = workloads.get(job["workload"], job["tiny"])
    import tvcox.cli as cli

    attempts = Attempts()
    run = traced if job["trace"] else timed
    result = run(job, cli, workload, attempts)
    result.update(attempted=attempts.attempted, failed=attempts.failed,
                  problems=attempts.problems, machine=machine())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
