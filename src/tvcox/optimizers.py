"""Optimizers for the spline-expanded stratified Cox partial likelihood.

The headline algorithm is a block-wise steepest ascent in an adaptive
quadratic norm (MMSA): at each iteration the covariate block with the
largest quadratic-approximation gain

    c_p = grad_p' (-hess_p + ridge I)^{-1} grad_p

is selected and moved along its ridged Newton direction with a fixed
learning rate.  The minorizing-surrogate normalization mu_p = dir_p / c_p
keeps the directional derivative identically 1 (it cannot rank blocks and
its step length grows without bound as c_p -> 0), so c_p is both the
selector and the step scaling; the literal normalized quantities remain
available through :func:`mmsa_block_quantities` and the fit trace.

Baselines used for benchmarking: full-Hessian Newton with backtracking,
fixed-step gradient ascent, cyclic coordinate ascent, and Adagrad on
subsampled gradients.  All optimizers standardize covariates internally by
default and record the transform on the result.

Each ``*_fit`` is a small step function run by one private loop,
``_drive``, which owns the stopping, the trace and the ``FitResult``.  Every
iteration is checked in one order: the method's own guard (MMSA's ascent
check, gradient ascent's ten decreases), then the score test (none in
stochastic MMSA and Adagrad), then the relative change of the full-data
log likelihood.  A stochastic MMSA draw with no events, or with every
block score below tol, makes no update, so the unchanged log likelihood
stops the fit one iteration later.  The reported log likelihood is a
loglik-only pass at the returned theta, reused when a step already made
that pass there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from . import likelihood as lk
from .data import RiskIndex, SurvivalDataset, build_risk_index, standardize
from .errors import (
    AscentViolationError,
    ConditioningError,
    StepSizeError,
)
from .splines import BasisMatrix, SplineSpec, evaluate_batch

__all__ = [
    "MmsaConfig",
    "FitResult",
    "mmsa_block_quantities",
    "mmsa_fit",
    "newton_fit",
    "gradient_ascent_fit",
    "coordinate_ascent_fit",
    "adagrad_fit",
    "verify_ascent_condition",
]

ARMIJO_C = 1e-4      # sufficient-increase constant for backtracking
ARMIJO_SHRINK = 0.5
MAX_HALVINGS = 60    # below 2^-60 the step is numerically zero
ASCENT_SLACK = 1e-10
RIDGE_CEIL = 1e-2


@dataclass(frozen=True)
class MmsaConfig:
    """Shared optimizer configuration.

    Attributes
    ----------
    learning_rate : float
        Step scale nu, > 0.  Used by MMSA, gradient ascent and Adagrad.
    subsample_fraction : float
        Fraction eta in (0, 1] of subjects drawn (without replacement) per
        iteration; 1.0 disables subsampling.  Stochastic runs typically
        use 0.2.
    max_iterations : int
    tol : float
        Convergence threshold for both the score criterion and the
        relative log-likelihood change.
    ridge : float
        Diagonal added to negated Hessian blocks before factorization;
        escalated geometrically up to 1e-2 when a block is not positive
        definite.
    seed : int
        Keys the counter-based generator that draws per-iteration
        subsamples.
    """

    learning_rate: float = 0.05
    subsample_fraction: float = 1.0
    max_iterations: int = 20000
    tol: float = 1e-6
    ridge: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < self.subsample_fraction <= 1:
            raise ValueError("subsample_fraction must be in (0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "subsample_fraction": self.subsample_fraction,
            "max_iterations": self.max_iterations,
            "tol": self.tol,
            "ridge": self.ridge,
            "seed": self.seed,
        }


@dataclass
class FitResult:
    """Outcome of one optimizer run.

    ``theta`` is on the fitting (standardized) scale when a transform is
    present; ``theta_original`` undoes the scaling.  ``trace`` holds one
    entry per update: (selected block or -1 when the optimizer has no
    block structure, stopping-criterion value, log-likelihood before the
    update).  ``converged`` is False only for the max-iterations reason.
    """

    theta: np.ndarray
    spec: SplineSpec
    transform: object | None
    loglik: float
    iterations: int
    converged: bool
    reason: str  # score-threshold | loglik-relative-change | max-iterations
    trace: list
    optimizer: str
    config: MmsaConfig
    wall_time_sec: float = 0.0

    @property
    def theta_original(self) -> np.ndarray:
        if self.transform is None:
            return self.theta
        return self.theta / np.asarray(self.transform.scale)[:, None]

    def to_json_dict(self, version: str, max_trace: int | None = None) -> dict:
        trace = self.trace if max_trace is None else self.trace[:max_trace]
        return {
            "version": version,
            "optimizer": self.optimizer,
            "theta": [[float(v) for v in row] for row in self.theta],
            "theta_original": [[float(v) for v in row] for row in self.theta_original],
            "spline_spec": self.spec.to_dict(),
            "standardization": None if self.transform is None else self.transform.to_dict(),
            "loglik": float(self.loglik),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "reason": self.reason,
            "config": self.config.to_dict(),
            "trace": [[int(b), float(c), float(l)] for b, c, l in trace],
            "wall_time_sec": float(self.wall_time_sec),
        }


def _prepare(dataset: SurvivalDataset, spec: SplineSpec, do_standardize: bool):
    transform = None
    work = dataset
    if do_standardize:
        work, transform = standardize(dataset)
    basis = evaluate_batch(spec, work.time)
    index = build_risk_index(work)
    return work, transform, basis, index


def _ridged_solve(A: np.ndarray, rhs: np.ndarray, ridge: float, label: str):
    """Solve (A + eps I) x = rhs with geometric ridge escalation.

    A is a negated Hessian (block or full), expected positive semi-definite;
    escalation covers indefiniteness from sparse right-tail risk sets.
    """
    eps = ridge
    eye = np.eye(A.shape[0])
    while True:
        try:
            cf = cho_factor(A + eps * eye, lower=True, check_finite=False)
            return cho_solve(cf, rhs, check_finite=False), eps
        except LinAlgError:
            if eps >= RIDGE_CEIL:
                raise ConditioningError(
                    f"{label} not positive definite up to ridge {RIDGE_CEIL}") from None
            eps = 1e-8 if eps == 0 else eps * 10
            eps = min(eps, RIDGE_CEIL)


def mmsa_block_quantities(report: lk.LikelihoodReport, p: int, ridge: float):
    """Block score c_p and ridged Newton direction for block p.

    Returns ``(c_p, newton_dir_p)`` with
    ``newton_dir_p = (-hess_p + ridge I)^{-1} grad_p`` and
    ``c_p = grad_p' newton_dir_p >= 0``.  The minorizing surrogate's
    normalized direction is ``newton_dir_p / c_p`` whenever ``c_p > 0``.
    """
    g = report.gradient_block(p)
    if not np.any(g):
        return 0.0, np.zeros_like(g)
    direction, _ = _ridged_solve(-report.block_hessians[p], g, ridge, f"Hessian block {p}")
    return max(float(g @ direction), 0.0), direction


def _subsample(work: SurvivalDataset, basis: BasisMatrix, config: MmsaConfig,
               iteration: int):
    """Draw the eta-fraction subsample for one iteration.

    Counter-based: Philox keyed by the seed with the iteration as counter,
    so any iteration's draw is reproducible in isolation.  Returns
    (dataset, index, basis) or None when the draw contains no events.
    """
    n = work.n
    k = min(n, max(1, int(round(config.subsample_fraction * n))))
    gen = np.random.Generator(np.random.Philox(key=config.seed,
                                               counter=[0, 0, 0, iteration]))
    rows = np.sort(gen.choice(n, size=k, replace=False))
    if work.status[rows].sum() == 0:
        return None
    sub = work.subset(rows)
    sub_basis = BasisMatrix(times=basis.times[rows], values=basis.values[rows])
    return sub, build_risk_index(sub), sub_basis


class _Problem:
    """One fit's data on the fitting scale and its likelihood passes."""

    def __init__(self, dataset: SurvivalDataset, spec: SplineSpec, do_standardize: bool):
        self.work, self.transform, self.basis, self.index = _prepare(
            dataset, spec, do_standardize)
        self._latest = None  # (theta, loglik) of the latest loglik-only pass

    def report(self, theta, **wants) -> lk.LikelihoodReport:
        return lk.evaluate_report(self.work, self.index, self.basis, theta, **wants)

    def loglik(self, theta: np.ndarray) -> float:
        """Full-data log likelihood at theta from a loglik-only pass, kept for reuse."""
        if self._latest is None or not np.array_equal(self._latest[0], theta):
            self._latest = (theta.copy(), self.report(theta, want_gradient=False).loglik)
        return self._latest[1]


def _drive(optimizer: str, make_step, dataset: SurvivalDataset, spec: SplineSpec,
           config: MmsaConfig | None, init_theta, do_standardize: bool) -> FitResult:
    """Run one fit with the step function that ``make_step(problem, config)`` returns.

    ``step(theta, m, ll_prev)`` evaluates iteration m, runs the method's
    guard and returns ``(loglik, score, move)``: the full-data log
    likelihood and the stopping criterion, each None when not evaluated,
    and ``move(theta)``, which updates and returns ``(theta, trace entry
    or None)``, or returns None when there is no update.
    """
    config = config or MmsaConfig()
    t0 = time.perf_counter()
    problem = _Problem(dataset, spec, do_standardize)
    P, K = problem.work.P, spec.K
    theta = np.zeros((P, K)) if init_theta is None else lk.as_matrix(init_theta, P, K).copy()
    step = make_step(problem, config)
    trace = []
    updates = 0
    ll_prev = None
    reason = "max-iterations"

    for m in range(1, config.max_iterations + 1):
        ll, score, move = step(theta, m, ll_prev)
        if score is not None and score < config.tol:
            reason = "score-threshold"
            break
        if ll is not None:
            if ll_prev is not None and abs(ll - ll_prev) / (1.0 + abs(ll_prev)) < config.tol:
                reason = "loglik-relative-change"
                break
            ll_prev = ll
        moved = move(theta)
        if moved is None:
            continue
        theta, entry = moved
        updates += 1
        if entry is not None:
            trace.append(entry)

    return FitResult(theta=theta, spec=spec, transform=problem.transform,
                     loglik=float(problem.loglik(theta)), iterations=updates,
                     converged=reason != "max-iterations", reason=reason, trace=trace,
                     optimizer=optimizer, config=config,
                     wall_time_sec=time.perf_counter() - t0)


def _best_block(report: lk.LikelihoodReport, ridge: float):
    """``(p*, c_p*, direction)`` of the block with the largest score."""
    quantities = [mmsa_block_quantities(report, p, ridge) for p in range(report.P)]
    p_star = int(np.argmax([c for c, _ in quantities]))  # first maximum = smallest index
    return p_star, *quantities[p_star]


def _mmsa_step(problem: _Problem, config: MmsaConfig):
    nu = config.learning_rate

    def full(theta, m, ll_prev):
        rep = problem.report(theta, want_blocks=True)
        ll = rep.loglik
        if ll_prev is not None and ll < ll_prev - ASCENT_SLACK:
            raise AscentViolationError(
                f"log likelihood decreased by {ll_prev - ll:.3e} at iteration {m}; "
                f"reduce learning_rate below {nu}")
        p_star, c_star, direction = _best_block(rep, config.ridge)

        def move(theta):
            theta[p_star] += nu * direction
            return theta, (p_star, c_star, ll)
        return ll, c_star, move

    def stochastic(theta, m, ll_prev):
        # the stopping tests use the full data; the draw only picks the update
        ll = problem.loglik(theta)
        drawn = _subsample(problem.work, problem.basis, config, m)

        def move(theta):
            if drawn is None:
                return None  # eventless draw: no usable score this iteration
            rep = lk.evaluate_report(*drawn, theta, want_loglik=False, want_blocks=True)
            p_star, c_star, direction = _best_block(rep, config.ridge)
            if c_star < config.tol:
                return None  # no ascent direction on this draw
            theta[p_star] += nu * direction
            return theta, (p_star, c_star, ll)
        return ll, None, move

    return stochastic if config.subsample_fraction < 1.0 else full


def mmsa_fit(dataset: SurvivalDataset, spec: SplineSpec, config: MmsaConfig | None = None,
             init_theta=None, do_standardize: bool = True) -> FitResult:
    """Block-selected ascent fit of the coefficient matrix.

    Per iteration: evaluate the gradient and the P diagonal Hessian blocks
    (on an eta-subsample when configured), pick p* = argmax_p c_p (ties to
    the smallest index), and move that block by ``nu`` times its ridged
    Newton direction.  Stops when max_p c_p < tol, when the relative
    change of the full-data log likelihood falls below tol, or at
    max_iterations.

    Raises
    ------
    AscentViolationError
        If a full-data iteration decreases the log likelihood by more than
        1e-10; the learning rate is too large for the ascent property.
    ConditioningError
        If a block stays non-PD after ridge escalation.
    """
    return _drive("mmsa", _mmsa_step, dataset, spec, config, init_theta, do_standardize)


def _backtrack(problem: _Problem, theta, direction, g_dot_d, ll0):
    """Armijo backtracking from unit step; returns (new_theta, new_ll) or None."""
    step = 1.0
    for _ in range(MAX_HALVINGS):
        cand = theta + step * direction
        ll_new = problem.loglik(cand)
        if ll_new >= ll0 + ARMIJO_C * step * g_dot_d:
            return cand, ll_new
        step *= ARMIJO_SHRINK
    return None  # numerically zero step; caller treats as no movement


def _newton_step(problem: _Problem, config: MmsaConfig, guard: int):
    def step(theta, m, ll_prev):
        rep = problem.report(theta, want_full=True, guard=guard)
        ll, g = rep.loglik, rep.gradient
        gnorm = np.abs(g).max()

        def move(theta):
            flat_dir, _ = _ridged_solve(-rep.full_hessian, g, config.ridge, "full Hessian")
            moved = _backtrack(problem, theta, flat_dir.reshape(theta.shape),
                               float(g @ flat_dir), ll)
            if moved is None:
                return None  # relative-change stop fires next iteration
            return moved[0], (-1, float(gnorm), float(ll))
        return ll, gnorm, move
    return step


def newton_fit(dataset: SurvivalDataset, spec: SplineSpec, config: MmsaConfig | None = None,
               init_theta=None, do_standardize: bool = True,
               guard: int = lk.FULL_HESSIAN_GUARD) -> FitResult:
    """Full-Hessian Newton ascent with backtracking line search.

    The dense PK x PK Hessian is built each iteration (guarded by
    ``guard``), ridged if necessary, and the step halved until the Armijo
    condition holds.  Stops on gradient sup-norm < tol (reported as
    score-threshold) or relative log-likelihood change < tol.
    """
    return _drive("newton", lambda problem, cfg: _newton_step(problem, cfg, guard),
                  dataset, spec, config, init_theta, do_standardize)


def _gradient_step(problem: _Problem, config: MmsaConfig):
    decreases = 0

    def step(theta, m, ll_prev):
        nonlocal decreases
        rep = problem.report(theta)
        ll, g = rep.loglik, rep.gradient
        if ll_prev is not None:
            decreases = decreases + 1 if ll < ll_prev else 0
            if decreases >= 10:
                raise StepSizeError(
                    f"log likelihood decreased 10 consecutive iterations at "
                    f"learning_rate {config.learning_rate}")
        gnorm = np.abs(g).max()

        def move(theta):
            theta += config.learning_rate * g.reshape(theta.shape)
            return theta, (-1, float(gnorm), float(ll))
        return ll, gnorm, move
    return step


def gradient_ascent_fit(dataset: SurvivalDataset, spec: SplineSpec,
                        config: MmsaConfig | None = None, init_theta=None,
                        do_standardize: bool = True) -> FitResult:
    """Fixed-step full-data gradient ascent, the simplest baseline.

    Raises StepSizeError after 10 consecutive log-likelihood decreases
    (divergence at the configured learning rate).
    """
    return _drive("gradient", _gradient_step, dataset, spec, config, init_theta, do_standardize)


def _coordinate_step(problem: _Problem, config: MmsaConfig):
    def step(theta, m, ll_prev):
        rep = problem.report(theta)
        ll, g = rep.loglik, rep.gradient
        gnorm = np.abs(g).max()

        def move(theta):
            P, K = theta.shape
            ll_cur = ll
            for p in range(P):
                for k in range(K):
                    rep_pk = problem.report(theta, want_loglik=False, want_blocks=True)
                    g_pk = rep_pk.gradient[p * K + k]
                    if g_pk == 0.0:
                        continue
                    # 1x1 solve through the shared factorization path, so the
                    # PK=1 case reproduces newton_fit's iterates exactly
                    d1, _ = _ridged_solve(-rep_pk.block_hessians[p][k:k + 1, k:k + 1],
                                          np.array([g_pk]), config.ridge,
                                          f"coordinate ({p},{k}) curvature")
                    d_pk = d1[0]
                    direction = np.zeros_like(theta)
                    direction[p, k] = d_pk
                    moved = _backtrack(problem, theta, direction, g_pk * d_pk, ll_cur)
                    if moved is not None:
                        theta, ll_cur = moved
            return theta, (-1, float(gnorm), float(ll))
        return ll, gnorm, move
    return step


def coordinate_ascent_fit(dataset: SurvivalDataset, spec: SplineSpec,
                          config: MmsaConfig | None = None, init_theta=None,
                          do_standardize: bool = True) -> FitResult:
    """Cyclic coordinate ascent over the PK scalar coefficients.

    Each coordinate takes a 1-D ridged Newton step with Armijo
    backtracking; stopping matches newton_fit per full cycle.  One trace
    entry is recorded per cycle.
    """
    return _drive("coordinate", _coordinate_step, dataset, spec, config, init_theta,
                  do_standardize)


def _adagrad_step(problem: _Problem, config: MmsaConfig):
    acc = 0.0
    checked = False  # the last update was a 50th and ended in a full-data loglik

    def step(theta, m, ll_prev):
        nonlocal checked
        ll = problem.loglik(theta) if checked else None  # kept from the check: no pass
        checked = False

        def move(theta):
            nonlocal acc, checked
            if config.subsample_fraction < 1.0:
                drawn = _subsample(problem.work, problem.basis, config, m)
                if drawn is None:
                    return None
                g = lk.evaluate_report(*drawn, theta, want_loglik=False).gradient
            else:
                g = problem.report(theta, want_loglik=False).gradient
            acc = acc + g * g
            theta += (config.learning_rate * g / (np.sqrt(acc) + 1e-8)).reshape(theta.shape)
            if m % 50 != 0:
                return theta, None
            checked = True
            return theta, (-1, float(np.abs(g).max()), float(problem.loglik(theta)))
        return ll, None, move
    return step


def adagrad_fit(dataset: SurvivalDataset, spec: SplineSpec,
                config: MmsaConfig | None = None, init_theta=None,
                do_standardize: bool = True) -> FitResult:
    """Adagrad ascent on eta-subsampled gradients.

    Per-coordinate step nu / (sqrt(accumulated squared gradient) + 1e-8),
    accumulator updated before the step.  Convergence is assessed on the
    full-data log likelihood every 50 iterations; one trace entry is
    recorded per checkpoint.
    """
    return _drive("adagrad", _adagrad_step, dataset, spec, config, init_theta, do_standardize)



def verify_ascent_condition(dataset: SurvivalDataset, index: RiskIndex,
                            basis: BasisMatrix, report_at_theta: lk.LikelihoodReport,
                            theta_next, nu: float,
                            guard: int = lk.FULL_HESSIAN_GUARD) -> bool:
    """Diagnostic check of the surrogate-minorization eigenvalue bound.

    Evaluates lambda_max(H^{-1/2} (-hess(theta_mid)) H^{-1/2}) < 1/nu at the
    midpoint of theta and theta_next, with H the block-diagonal matrix of
    normalized blocks H_p = c_p (-hess_p) from the report.  The true bound
    involves an unknowable mean-value point; the midpoint is a practical
    surrogate, so this is a diagnostic rather than a guarantee.  Blocks
    with c_p <= 0 or indefinite curvature make H singular; the condition
    cannot be certified and False is returned.
    """
    P, K = report_at_theta.P, report_at_theta.K
    if report_at_theta.gradient is None or report_at_theta.block_hessians is None:
        raise ValueError("report must carry the gradient and block Hessians")
    theta_next = lk.as_matrix(theta_next, P, K)
    mid = 0.5 * (report_at_theta.theta + theta_next)
    neg_hess_mid = -lk.evaluate_report(dataset, index, basis, mid, want_loglik=False,
                                       want_gradient=False, want_full=True,
                                       guard=guard).full_hessian
    # H^{-1/2} assembled block by block from eigendecompositions
    inv_sqrt = np.zeros((P * K, P * K))
    for p in range(P):
        g = report_at_theta.gradient_block(p)
        A = -report_at_theta.block_hessians[p]
        lam, U = eigh(A)
        if lam.min() <= 0:
            return False
        c_p = float(g @ (U @ ((U.T @ g) / lam)))
        if c_p <= 0:
            return False
        sl = slice(p * K, (p + 1) * K)
        inv_sqrt[sl, sl] = (U * (1.0 / np.sqrt(c_p * lam))) @ U.T
    M = inv_sqrt @ neg_hess_mid @ inv_sqrt
    lam_max = eigh(0.5 * (M + M.T), eigvals_only=True)[-1]
    return bool(lam_max < 1.0 / nu)
