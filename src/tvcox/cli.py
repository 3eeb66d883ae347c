"""Batch command line surface.

Subcommands: ``fit`` (estimate curves and constancy tests from a CSV),
``simulate`` (draw a scenario dataset), ``bench`` (paired-replicate
optimizer comparison), ``cv`` (cross-validated choice of K).

Exit codes: 0 success/convergence, 2 fit stopped at max-iterations,
1 any error.  Errors print one machine-parsable line ``ERROR <CODE>:
message`` on stderr.  Output files are written to a temporary name and
renamed, so a failed run leaves no partial files; every output embeds the
resolved configuration and the version string.  A ``--config`` JSON object
may set any flag of its subcommand, parsed like the flag's text; explicit
flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import inference, likelihood, simulate
from ._version import __version__
from .data import _load_bytes, csv_shape, load_csv, prepare, write_csv
from .errors import TvcoxError, UsageError
from .optimizers import MmsaConfig
from .splines import make_spec


def _optimizer(name: str) -> str:
    """Flag type of --optimizer: a name that ``inference.fit_by_name`` knows."""
    # argparse lets a UsageError through: a flag and a --config value get one message
    try:
        inference.fit_by_name(name)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return name


_REQUIRED = object()  # the default of a flag that a subcommand cannot run without

# Every flag once: the type that parses its text, which a --config value
# also goes through, and its default in each subcommand that takes it.
_OPTIONS = {
    "data": (str, {"fit": _REQUIRED, "cv": _REQUIRED}),
    "K": (int, {"fit": _REQUIRED, "bench": _REQUIRED}),
    "K_grid": (str, {"cv": _REQUIRED}),
    "setting": (int, {"simulate": _REQUIRED, "bench": _REQUIRED}),
    "n": (int, {"simulate": _REQUIRED, "bench": _REQUIRED}),
    "P": (int, {"simulate": None, "bench": None}),  # see _scenario_P
    "J": (int, {"simulate": 1, "bench": 1}),
    "gamma": (float, {"simulate": 1.0, "bench": 1.0}),
    "degree": (int, {"fit": 3, "bench": 3, "cv": 3}),
    "optimizer": (_optimizer, {"fit": "mmsa", "cv": "newton"}),
    "optimizers": (str, {"bench": _REQUIRED}),
    "replicates": (int, {"bench": _REQUIRED}),
    "folds": (int, {"cv": 5}),
    "nu": (float, {"fit": 0.05, "bench": 0.05, "cv": 0.05}),
    "eta": (float, {"fit": 1.0, "bench": 1.0, "cv": 1.0}),
    "tol": (float, {"fit": 1e-6, "bench": 1e-6, "cv": 1e-6}),
    "max_iter": (int, {"fit": 20000, "bench": 20000, "cv": 20000}),
    "seed": (int, {"fit": 1, "simulate": _REQUIRED, "bench": _REQUIRED, "cv": _REQUIRED}),
    "out": (str, {"fit": ".", "simulate": _REQUIRED, "bench": _REQUIRED, "cv": "."}),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which this CLI reserves
    # for the max-iterations outcome; route through UsageError instead
    def error(self, message):
        raise UsageError(message)


def _atomic_write(path: str, content) -> None:
    """Write a new file beside ``path``, then rename it to ``path``.

    ``content`` is the text, or a function that writes the file it is given the name of.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-tvcox-")
    os.close(fd)
    try:
        if callable(content):
            content(tmp)
        else:
            Path(tmp).write_text(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_file(header, rows, comments):
    """An ``_atomic_write`` file callback: comment lines, the header, then ``rows``.

    ``rows`` may be any iterable; its rows are written one at a time, so a
    generator's rows are never all held at once.
    """
    def write(path):
        with open(path, "w") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    return write


def _comments(resolved: dict) -> list:
    return [f"tvcox {__version__}",
            "config: " + json.dumps(resolved, sort_keys=True)]


def _flags(command: str) -> dict:
    """``{name: (type, default)}`` of the flags of a subcommand, in table order."""
    return {name: (typ, defaults[command])
            for name, (typ, defaults) in _OPTIONS.items() if command in defaults}


def _resolve(args: argparse.Namespace) -> dict:
    """Layer defaults, then --config file values, then explicit flags.

    A file value is parsed like the text of its flag, so it is checked the same way.
    """
    flags = _flags(args.command)
    cfg = {name: default for name, (_, default) in flags.items() if default is not _REQUIRED}
    if args.config:
        try:
            with open(args.config) as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot read config file: {e}") from None
        if not isinstance(file_vals, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(file_vals) - set(flags)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_vals.items():
            try:
                if type(value) not in (str, int, float):
                    raise ValueError
                cfg[key] = flags[key][0](str(value))
            except ValueError:
                raise UsageError(
                    f"config key {key!r}: invalid value {json.dumps(value)}") from None
    for name in flags:
        if getattr(args, name) is not None:
            cfg[name] = getattr(args, name)
    for name, (_, default) in flags.items():
        if default is _REQUIRED and cfg.get(name) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
    return cfg


def _scenario_P(cfg: dict) -> None:
    """Default P to the two covariates of setting 3; other settings need it."""
    if cfg["P"] is None:
        if cfg["setting"] != 3:
            raise UsageError("missing required option --P")
        cfg["P"] = 2


def _scenario(cfg: dict, seed: int) -> simulate.ScenarioSpec:
    try:
        return simulate.ScenarioSpec(setting=cfg["setting"], n=cfg["n"], P=cfg["P"],
                                     J=cfg["J"], gamma=cfg["gamma"], seed=seed)
    except TvcoxError as e:
        raise UsageError(str(e)) from None


def _mmsa_config(cfg: dict) -> MmsaConfig:
    try:
        return MmsaConfig(learning_rate=cfg["nu"], subsample_fraction=cfg["eta"],
                          max_iterations=cfg["max_iter"], tol=cfg["tol"],
                          seed=cfg["seed"])
    except ValueError as e:
        raise UsageError(str(e)) from None


def _fit(data, spec, cfg):
    """The fit that ``cfg`` names, of a dataset or prepared data, with the data it ran on."""
    return inference.fit_by_name(cfg["optimizer"])(data, spec, _mmsa_config(cfg))


def _require_capacity(cfg, K):
    """Refuse, before the CSV is parsed, a load or a fit larger than physical memory.

    n is the count of the file's data rows and P that of its header's
    covariates, both read without parsing a row.  The load is refused when
    ``load_csv``'s measured peak for n rows of P covariates, rounded up,
    exceeds physical memory, and the fit when the arrays that it holds for
    certain, from n, P and K alone, do (``likelihood._fit_bytes``); the
    passes check their own needs once the risk index is built.  n is exact
    and the fit's count is a floor, so a file is refused only near where
    its load or its fit would run out of memory.
    """
    n, P = csv_shape(cfg["data"])
    likelihood._require_memory(_load_bytes(n, P), f"loading {n} rows of {P} covariates")
    likelihood._require_memory(likelihood._fit_bytes(n, P, K, cfg["optimizer"] == "newton"),
                               f"a fit of {n} rows, {P} covariates and K={K}")


def _residuals_and_tests(fit, spec):
    """The fit's score residuals and Wald tests; drops the fit's data once the residuals are built."""
    resid = likelihood.score_residuals(*fit.fitting_data, fit.theta, fit.risk_set_means)
    # read; neither is held through the Wald tests and the outputs
    fit.fitting_data = fit.risk_set_means = None
    tests = inference.test_all_covariates(fit.theta, resid) if spec.K >= 2 else []
    return resid, tests


def _fit_and_tests(dataset, spec, cfg):
    """Fit plus the inference pieces the fit/bench commands share."""
    fit = _fit(dataset, spec, cfg)
    return (fit, *_residuals_and_tests(fit, spec))


def cmd_fit(args) -> int:
    """fit coefficient curves from a CSV dataset"""
    cfg = _resolve(args)
    _require_capacity(cfg, cfg["K"])
    dataset = load_csv(cfg["data"])
    spec = make_spec(degree=cfg["degree"], K=cfg["K"], event_times=dataset.event_times)
    names = dataset.covariate_names
    # the prepared index holds the covariates on the fitting scale: the
    # loaded dataset is freed before the first pass, and the prepared data,
    # which the fit keeps, once the residuals are built
    data, dataset = prepare(dataset), None
    fit, data = _fit(data, spec, cfg), None
    resid, tests = _residuals_and_tests(fit, spec)
    if tests:
        # the tests keep V's inverse on the bundle, the covariance's source:
        # V and the residuals' factors are not held beside its copy, which
        # with one copy of X in the fit would peak above the fit itself
        resid.V = resid.centered = resid.basis_rows = None
    cov = inference.covariance_from_residuals(resid)
    resid = None  # read; not held while the outputs are written
    lo, hi = spec.domain
    grid = np.linspace(lo, hi, 100)
    curves = inference.curve_with_bands(fit.theta, cov, spec, grid, fit.transform)

    out = cfg["out"]
    comments = _comments(cfg)
    doc = fit.to_json_dict(__version__)
    doc["resolved_config"] = cfg
    doc["tests"] = [t.to_dict() for t in tests]
    _atomic_write(os.path.join(out, "fit.json"), json.dumps(doc, indent=2) + "\n")

    rows = ([f"{t:.17g}", name,
             f"{curves.estimate[p, g]:.17g}", f"{curves.se[p, g]:.17g}",
             f"{curves.lower[p, g]:.17g}", f"{curves.upper[p, g]:.17g}"]
            for p, name in enumerate(names)
            for g, t in enumerate(curves.times))
    _atomic_write(os.path.join(out, "curves.csv"),
                  _csv_file(["time", "covariate", "estimate", "se", "lower", "upper"],
                            rows, comments))
    test_rows = ([names[t.covariate], f"{t.statistic:.17g}",
                  t.df, f"{t.p_value:.17g}", t.information] for t in tests)
    _atomic_write(os.path.join(out, "tests.csv"),
                  _csv_file(["covariate", "statistic", "df", "p_value", "information"],
                            test_rows, comments))
    print(f"tvcox {__version__}: {fit.optimizer} {'converged' if fit.converged else 'stopped'} "
          f"({fit.reason}) after {fit.iterations} iterations, loglik {fit.loglik:.6f}")
    return 0 if fit.converged else 2


def cmd_simulate(args) -> int:
    """generate a scenario dataset CSV"""
    cfg = _resolve(args)
    _scenario_P(cfg)
    dataset = simulate.generate(_scenario(cfg, cfg["seed"]))
    _atomic_write(cfg["out"], lambda tmp: write_csv(tmp, dataset, header_comments=_comments(cfg)))
    print(f"tvcox {__version__}: wrote {dataset.n} subjects "
          f"({int(dataset.status.sum())} events) to {cfg['out']}")
    return 0


def cmd_bench(args) -> int:
    """paired-replicate optimizer comparison"""
    cfg = _resolve(args)
    _scenario_P(cfg)
    names = [_optimizer(s.strip()) for s in cfg["optimizers"].split(",") if s.strip()]
    if not names:
        raise UsageError("--optimizers must list at least one optimizer")
    if cfg["replicates"] < 1:
        raise UsageError("--replicates must be at least 1")

    rows = []
    ok = {name: 0 for name in names}
    for r in range(cfg["replicates"]):
        rep_seed = int(np.random.SeedSequence([cfg["seed"], r]).generate_state(1, np.uint64)[0])
        scen = _scenario(cfg, rep_seed)
        data, prepared = simulate.generate(scen), None
        spec = make_spec(degree=cfg["degree"], K=cfg["K"], event_times=data.event_times)
        for name in names:
            run_cfg = dict(cfg, optimizer=name, seed=rep_seed)
            base = [r, f"setting{cfg['setting']}", name, cfg["n"], cfg["P"], cfg["K"]]
            try:
                # every optimizer fits the replicate's one prepared copy, so
                # time_sec leaves out its making; a failure to prepare it is
                # recorded in each optimizer's row
                prepared = prepared or prepare(data)
                fit, resid, tests = _fit_and_tests(prepared, spec, run_cfg)
                rep = simulate.metrics(fit, scen)
                p_star = scen.test_covariate
                reject = ""
                if tests and p_star is not None:
                    reject = int(tests[p_star].p_value < 0.05)
                rows.append(base + [f"{fit.wall_time_sec:.6f}", f"{rep.bias:.17g}",
                                    f"{rep.imse:.17g}", reject, "ok"])
                ok[name] += 1
            except TvcoxError as e:
                rows.append(base + ["", "", "", "", f"error:{e.code}"])
    rows.sort(key=lambda row: (row[0], row[2]))
    _atomic_write(cfg["out"], _csv_file(
        ["replicate", "scenario", "optimizer", "n", "P", "K", "time_sec",
         "bias", "imse", "rejection_rate", "status"], rows, _comments(cfg)))
    complete = [name for name in names if ok[name] == cfg["replicates"]]
    print(f"tvcox {__version__}: bench wrote {len(rows)} rows to {cfg['out']}; "
          f"complete optimizers: {', '.join(complete) if complete else 'none'}")
    return 0 if complete else 1


def cmd_cv(args) -> int:
    """choose K by cross-validated partial likelihood"""
    cfg = _resolve(args)
    try:
        candidates = [int(s) for s in str(cfg["K_grid"]).split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --K-grid {cfg['K_grid']!r}") from None
    if not candidates:
        raise UsageError("--K-grid must list at least one K")
    if cfg["folds"] < 2:
        raise UsageError("--folds must be at least 2")
    _require_capacity(cfg, max(candidates))
    dataset = load_csv(cfg["data"])
    report = inference.cross_validate_K(dataset, candidates, folds=cfg["folds"],
                                        config=_mmsa_config(cfg), degree=cfg["degree"],
                                        optimizer=cfg["optimizer"])
    rows = ([K, k, f"{report.per_fold[i, k]:.17g}"]
            for i, K in enumerate(report.candidates) for k in range(report.folds))
    _atomic_write(os.path.join(cfg["out"], "cv.csv"),
                  _csv_file(["K", "fold", "score"], rows, _comments(cfg)))
    for K, score in zip(report.candidates, report.scores):
        print(f"K={K} cv={score:.6f}")
    print(f"chosen K = {report.chosen_K}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tvcox",
                     description="Time-varying covariate effects in stratified Cox models")
    parser.add_argument("--version", action="version", version=f"tvcox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func in (("fit", cmd_fit), ("simulate", cmd_simulate), ("bench", cmd_bench),
                          ("cv", cmd_cv)):
        p = sub.add_parser(command, help=func.__doc__)
        p.add_argument("--config", help="JSON file of option values; flags override")
        for name, (typ, _) in _flags(command).items():
            p.add_argument("--" + name.replace("_", "-"), type=typ)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except TvcoxError as e:
        print(f"ERROR {e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        # file-system failures on user-supplied paths (--data, --out)
        print(f"ERROR USAGE: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
