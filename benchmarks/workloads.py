"""Workload table of the tvcox benchmark.

Every workload draws a setting-1 dataset with ``tvcox simulate`` from the
benchmark seed and then runs one ``tvcox fit`` or ``tvcox cv`` command on
it.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``.  ``TINY`` shrinks each workload's dataset for the smoke
test; the command itself is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    P: int
    J: int
    command: tuple          # CLI words after the subcommand's --data/--out
    K: int | None = None    # basis size of a fit command, for the reference fit
    newton: bool = False    # fit reaches the optimum, so it must match the reference

    @property
    def subcommand(self) -> str:
        return self.command[0]

    def simulate_argv(self, seed: int, csv_path: str) -> list:
        return ["simulate", "--setting", "1", "--n", str(self.n), "--P", str(self.P),
                "--J", str(self.J), "--seed", str(seed), "--out", csv_path]

    def command_argv(self, csv_path: str, out_dir: str) -> list:
        return [self.subcommand, "--data", csv_path, "--out", out_dir, *self.command[1:]]


WORKLOADS = {w.name: w for w in (
    Workload("newton_n8k", n=8000, P=4, J=1, K=6, newton=True,
             command=("fit", "--optimizer", "newton", "--tol", "1e-8", "--K", "6")),
    Workload("mmsa_sub_n2k", n=2000, P=4, J=1, K=5,
             command=("fit", "--optimizer", "mmsa", "--eta", "0.2", "--K", "5")),
    Workload("newton_p40", n=2000, P=40, J=1, K=8, newton=True,
             command=("fit", "--optimizer", "newton", "--tol", "1e-8", "--K", "8")),
    Workload("cv_j8_n8k", n=8000, P=4, J=8,
             command=("cv", "--optimizer", "newton", "--tol", "1e-8", "--K-grid", "4,5,6",
                      "--folds", "5", "--seed", "2")),
)}

# smoke-test sizes: about n=200 (MMSA needs 400 to converge at eta 0.2)
TINY = {
    "newton_n8k": dict(n=200),
    "mmsa_sub_n2k": dict(n=400),
    "newton_p40": dict(n=400, P=6),
    "cv_j8_n8k": dict(n=400, J=2),
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload
