"""Synthetic stratified survival data and estimation-quality metrics.

Three scenario families share one hazard model
lambda(t | x) = 0.5 exp(x' beta(t)) with administrative-style censoring
C ~ Uniform(0, 3):

* setting 1: AR(1)-correlated normal covariates (lag correlation 0.6),
  effects beta_1 = 1, beta_2(t) = sin(3 pi t / 4), beta_3 = -1,
  beta_4(t) = -(t/3)^2 exp(t/2), any further effects 0;
* setting 2: independent Bernoulli covariates with prevalences evenly
  spaced on [0.05, 0.2], same effect pattern;
* setting 3: two normal covariates with beta_1 = 1 and
  beta_2(t) = gamma sin(3 pi t / 4); gamma = 0 is the constancy null.

Death times invert the cumulative hazard by bisection on a fine trapezoid
grid.  The grid is scanned in blocks of columns, and each subject leaves
the scan at the cell where its cumulative hazard reaches its target, so
no array grows with grid points times subjects.  Draws are capped at the
censoring horizon, where they can only be observed censored anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .errors import InvalidSpecError
from .optimizers import FitResult
from .splines import evaluate_batch

__all__ = [
    "ScenarioSpec",
    "MetricsReport",
    "METRIC_GRID",
    "true_beta",
    "true_beta_matrix",
    "draw_covariates",
    "draw_survival_times",
    "generate",
    "metrics",
]

BASELINE_HAZARD = 0.5
CENSOR_HORIZON = 3.0
HAZARD_GRID_STEP = 1e-3
INVERSION_TOL = 1e-8
_SCAN_BLOCK = 64  # grid columns per block of the crossing scan
METRIC_GRID = np.linspace(0.05, 2.8, 100)

_TV_TAGS = ("sin_tv", "poly_exp_tv", "gamma_sin_tv")


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation scenario.

    ``gamma`` scales the time-varying effect of setting 3 and is ignored
    elsewhere.  ``seed`` keys all draws; fixed seed means an identical
    dataset.
    """

    setting: int
    n: int
    P: int
    J: int = 1
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.setting not in (1, 2, 3):
            raise InvalidSpecError(f"setting must be 1, 2 or 3, got {self.setting}")
        if self.setting == 3 and self.P != 2:
            raise InvalidSpecError("setting 3 uses exactly two covariates")
        if self.P < 1:
            raise InvalidSpecError("P must be at least 1")
        if not self.n >= self.J >= 1:
            raise InvalidSpecError("need n >= J >= 1")
        if not 0 <= self.gamma <= 3:
            raise InvalidSpecError("gamma must lie in [0, 3]")

    @property
    def coefficient_tags(self) -> tuple:
        """Per-covariate true-effect tags, in covariate order."""
        if self.setting == 3:
            return ("constant:1", "gamma_sin_tv")
        base = ["constant:1", "sin_tv", "constant:-1", "poly_exp_tv"]
        tags = (base + ["constant:0"] * max(0, self.P - 4))[: self.P]
        return tuple(tags)

    @property
    def test_covariate(self) -> int | None:
        """Index of the first truly time-varying covariate, if any."""
        for p, tag in enumerate(self.coefficient_tags):
            if tag in _TV_TAGS:
                return p
        return None

    def to_dict(self) -> dict:
        return {"setting": self.setting, "n": self.n, "P": self.P, "J": self.J,
                "gamma": self.gamma, "seed": self.seed}


@dataclass(frozen=True)
class MetricsReport:
    """Per-fit estimation quality against the scenario truth."""

    grid: np.ndarray
    bias_per_covariate: np.ndarray
    imse_per_covariate: np.ndarray
    bias: float   # mean absolute per-covariate bias
    imse: float   # mean per-covariate IMSE
    wall_time_sec: float
    optimizer: str


def true_beta(tag: str, t, gamma: float = 0.0) -> np.ndarray:
    """Evaluate a true-effect tag on times t.

    Tags: ``constant:<c>``, ``sin_tv`` (sin(3 pi t/4)), ``poly_exp_tv``
    (-(t/3)^2 exp(t/2)), ``gamma_sin_tv`` (gamma sin(3 pi t/4)).
    """
    t = np.asarray(t, dtype=float)
    if tag.startswith("constant:"):
        return np.full_like(t, float(tag.split(":", 1)[1]))
    if tag == "sin_tv":
        return np.sin(3 * np.pi * t / 4)
    if tag == "poly_exp_tv":
        return -((t / 3.0) ** 2) * np.exp(t / 2.0)
    if tag == "gamma_sin_tv":
        return gamma * np.sin(3 * np.pi * t / 4)
    raise InvalidSpecError(f"unknown coefficient tag '{tag}'")


def true_beta_matrix(tags, grid, gamma: float = 0.0) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    return np.vstack([true_beta(tag, grid, gamma) for tag in tags])


def draw_covariates(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """n x P covariates for the scenario.

    Settings 1 and 3 build the AR(1) chain Z_k = 0.6 Z_{k-1} + 0.8 eps_k,
    giving unit marginals and Cov(Z_a, Z_b) = 0.6^|a-b|.  Setting 2 draws
    independent Bernoulli columns.
    """
    n, P = spec.n, spec.P
    if spec.setting == 2:
        prevalences = np.linspace(0.05, 0.2, P)
        return (rng.random((n, P)) < prevalences).astype(float)
    X = np.empty((n, P))
    X[:, 0] = rng.standard_normal(n)
    for k in range(1, P):
        X[:, k] = 0.6 * X[:, k - 1] + 0.8 * rng.standard_normal(n)
    return X


def _hazard_at(X: np.ndarray, tags, gamma: float, t: np.ndarray) -> np.ndarray:
    """lambda(t_i | x_i) with a per-subject time vector."""
    eta = np.zeros(t.shape)
    for p, tag in enumerate(tags):
        eta += X[:, p] * true_beta(tag, t, gamma)
    return BASELINE_HAZARD * np.exp(eta)


def _scan_crossings(X: np.ndarray, betas: np.ndarray, tau: np.ndarray):
    """Find where each subject's cumulative hazard on the grid reaches tau.

    The grid is scanned in blocks of ``_SCAN_BLOCK`` columns.  A block holds
    (columns x subjects) with row 0 repeating the previous block's last
    column, and only the subjects still below tau enter it.  The running
    sum adds one column's trapezoid terms at a time, the additions of a
    row-wise cumsum in the same order.  Every term is >= 0, so Lambda never
    decreases and the first column at or above tau is one past the count
    of columns below it.

    Returns that column j (at least 1), Lambda and lambda at column j - 1,
    and ``beyond``: Lambda stays below tau at the grid end, where j is the
    last column.
    """
    n, G = X.shape[0], betas.shape[1]
    j = np.full(n, G - 1)
    Lam_left, lam_left = np.empty(n), np.empty(n)
    beyond = np.zeros(n, dtype=bool)
    active = np.arange(n)
    Lam_carry = np.zeros(n)
    for c0 in range(1, G, _SCAN_BLOCK):
        tau_a = tau[active]
        lam = np.matmul(betas[:, c0 - 1:c0 + _SCAN_BLOCK].T, X[active].T)
        np.exp(lam, out=lam)
        lam *= BASELINE_HAZARD
        Lam = np.empty_like(lam)
        Lam[0] = Lam_carry
        np.add(lam[1:], lam[:-1], out=Lam[1:])
        Lam[1:] *= HAZARD_GRID_STEP / 2
        # a row at a time: np.cumsum(Lam, axis=0, out=Lam) gives the same bits
        # but ran 4.5-8 times slower on numpy 2.4.6, 95 -> 433 us on a
        # 65 x 2000 block and 177 -> 1398 us on 65 x 4096
        for r in range(1, Lam.shape[0]):
            Lam[r] += Lam[r - 1]
        crossed = Lam[-1] >= tau_a
        cols = np.flatnonzero(crossed)
        k = 1 + np.count_nonzero(Lam[1:, cols] < tau_a[cols], axis=0)
        j[active[cols]] = c0 - 1 + k
        Lam_left[active[cols]] = Lam[k - 1, cols]
        lam_left[active[cols]] = lam[k - 1, cols]
        keep = ~crossed
        active = active[keep]
        if not active.size:
            break
        Lam_carry = Lam[-1, keep]
    else:  # still below tau at the grid end: bracket in its last cell
        beyond[active] = True
        Lam_left[active] = Lam[-2, keep]
        lam_left[active] = lam[-2, keep]
    return j, Lam_left, lam_left, beyond


def draw_survival_times(X: np.ndarray, tags, gamma: float, u: np.ndarray, *,
                        grid_end: float = CENSOR_HORIZON,
                        cap: float | None = CENSOR_HORIZON) -> np.ndarray:
    """Death times solving Lambda(D) = -log u by grid bracketing + bisection.

    The cumulative hazard is summed by trapezoid on a grid of step 1e-3,
    scanned in blocks of columns; each subject leaves the scan at the cell
    where Lambda reaches its target, so memory stays a few MiB whatever
    ``grid_end`` is.  Within that cell the inverse is bisected until
    |Lambda(D) + log u| < 1e-8.  Draws whose target exceeds Lambda at the
    grid end are set to ``cap`` (or to ``grid_end`` when uncapped; choose
    ``grid_end`` large enough that this is negligible).  Subjects go
    through in chunks of 4096 rows: the bisection stops when a whole chunk
    meets the tolerance, so the chunks fix every draw's last iterate.
    """
    n = X.shape[0]
    tau = -np.log(np.clip(u, 1e-300, None))  # u = 0 lands in the capped branch
    grid = np.arange(0.0, grid_end + HAZARD_GRID_STEP / 2, HAZARD_GRID_STEP)
    betas = true_beta_matrix(tags, grid, gamma)
    ceiling = grid_end if cap is None else cap
    D = np.empty(n)
    for start in range(0, n, 4096):
        rows = slice(start, min(start + 4096, n))
        tau_c = tau[rows]
        j, Lam_left, lam_left, beyond = _scan_crossings(X[rows], betas, tau_c)
        t_left = grid[j - 1]
        lo, hi = t_left.copy(), grid[j]
        mid = 0.5 * (lo + hi)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lam_mid = _hazard_at(X[rows], tags, gamma, mid)
            F = Lam_left + (mid - t_left) * (lam_left + lam_mid) / 2 - tau_c
            if np.abs(F[~beyond]).max(initial=0.0) < INVERSION_TOL:
                break
            takes_hi = F >= 0
            hi = np.where(takes_hi, mid, hi)
            lo = np.where(takes_hi, lo, mid)
        D_c = mid
        D_c[beyond] = ceiling
        D_c[tau_c == 0.0] = 0.0
        D[rows] = np.minimum(D_c, ceiling) if cap is not None else D_c
    return D


def generate(spec: ScenarioSpec) -> SurvivalDataset:
    """Draw one scenario dataset; deterministic for a fixed seed.

    Draw order is fixed (covariates, then the inversion uniforms, then
    censoring) so the stream is stable across code paths.  Subjects go to
    the J strata round-robin.
    """
    rng = np.random.default_rng(spec.seed)
    X = draw_covariates(spec, rng)
    u = rng.random(spec.n)
    C = rng.uniform(0.0, CENSOR_HORIZON, spec.n)
    D = draw_survival_times(X, spec.coefficient_tags, spec.gamma, u)
    T = np.minimum(D, C)
    delta = (D < C).astype(np.int8)
    stratum = (np.arange(spec.n) % spec.J).astype(np.int64)
    labels = tuple(f"s{j + 1:03d}" for j in range(spec.J))
    names = tuple(f"x{p + 1}" for p in range(spec.P))
    return SurvivalDataset(time=T, status=delta, stratum=stratum,
                           stratum_labels=labels, covariates=X,
                           covariate_names=names)


def metrics(fit: FitResult, scenario: ScenarioSpec, grid=None) -> MetricsReport:
    """Bias and IMSE of the fitted curves against the scenario truth.

    Per covariate: bias_p is the grid mean of (estimate - truth), IMSE_p
    the grid mean of its square.  The scalar summaries average |bias_p|
    and IMSE_p over covariates.
    """
    grid = METRIC_GRID if grid is None else np.asarray(grid, dtype=float)
    B = evaluate_batch(fit.spec, grid).values
    est = fit.theta_original @ B.T
    truth = true_beta_matrix(scenario.coefficient_tags, grid, scenario.gamma)
    if est.shape[0] != truth.shape[0]:
        raise ValueError("fit and scenario disagree on covariate count")
    err = est - truth
    bias_p = err.mean(axis=1)
    imse_p = (err ** 2).mean(axis=1)
    return MetricsReport(grid=grid, bias_per_covariate=bias_p,
                         imse_per_covariate=imse_p,
                         bias=float(np.abs(bias_p).mean()),
                         imse=float(imse_p.mean()),
                         wall_time_sec=fit.wall_time_sec,
                         optimizer=fit.optimizer)
