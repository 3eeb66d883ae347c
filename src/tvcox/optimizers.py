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
and cyclic coordinate ascent.  All optimizers standardize covariates
internally by default and record the transform, and the data they fitted,
on the result.  A fit takes a dataset, or the data that
``data.prepare`` made from one, and runs on prepared data either way:
its one array of the covariates is its risk index's ``Xs``, on the
fitting scale, so a caller that prepares the data and releases the
dataset leaves the fit holding one copy of the covariates.

Each ``*_fit`` is a small step function run by one private loop,
``_drive``, which holds all of a fit's loop state: the latest full-data
log likelihood, the updates made since it, the trace and the
``FitResult``.  A step function computes one iteration's criterion and
update, and keeps no state between iterations; the fit's ``_Problem``
holds its data, its latest pass and, for the line searches of Newton and
coordinate ascent, whether the latest unit step was accepted, which
``_backtrack`` reads to choose the next unit step's pass.  Every
iteration is checked in one order: the method's own guard (MMSA's ascent
check), then the score test (none in stochastic MMSA), then the relative
change of the full-data log likelihood.  That test compares each
full-data log likelihood with the previous one and allows tol per update
made between them, so a step that makes no update cannot pass it by
leaving theta where it was.
The loop reads the full-data log likelihood itself.  For the full-data
methods it does so on every iteration, off the pass the step just made.
Stochastic MMSA draws its updates from subsamples, and the loop reads it
only at the first iteration and after every window of 20 updates, by a
loglik-only pass; a draw with no events, or with every block score below
tol, makes no update and brings the next check no closer.  A draw is a
risk index over a subset of the fit's own rows, one filter of the flat
order and of the covariates of the fit's index, read together with the
fit's data and basis, so it copies only its own rows and sorts nothing.
The reported
log likelihood is read off the latest full-data pass when it was made at
the returned theta, of whatever kind, since every pass kind reports the
same value; otherwise a loglik-only pass is made there.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import likelihood as lk
from .data import PreparedData, RiskIndex, SurvivalDataset, prepare
from .errors import AscentViolationError, ConditioningError
from .splines import BasisMatrix, SplineSpec, evaluate_batch

__all__ = [
    "MmsaConfig",
    "FitResult",
    "mmsa_block_quantities",
    "mmsa_fit",
    "newton_fit",
    "coordinate_ascent_fit",
    "verify_ascent_condition",
]

ARMIJO_C = 1e-4      # sufficient-increase constant for backtracking
ARMIJO_SHRINK = 0.5
MAX_HALVINGS = 60    # below 2^-60 the step is numerically zero
ASCENT_SLACK = 1e-10
RIDGE_CEIL = 1e-2
_CHECK_WINDOW = 20   # updates between stochastic MMSA's full-data log likelihoods


@dataclass(frozen=True)
class MmsaConfig:
    """Shared optimizer configuration.

    Attributes
    ----------
    learning_rate : float
        Step scale nu, > 0.  Used by MMSA only.
    subsample_fraction : float
        Fraction eta in (0, 1] of subjects drawn (without replacement) per
        iteration; 1.0 disables subsampling.  Stochastic runs typically
        use 0.2.
    max_iterations : int
    tol : float
        Convergence threshold for both the score criterion and the
        relative log-likelihood change.  The relative change between two
        full-data log likelihoods is compared with tol times the number
        of updates between them (at least one): the mean change per
        update.
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
        return asdict(self)


@dataclass
class FitResult:
    """Outcome of one optimizer run.

    ``theta`` is on the fitting (standardized) scale when a transform is
    present; ``theta_original`` undoes the scaling.  ``fitting_data`` is the
    ``(prepared, index, basis)`` the fit ran on, in the likelihood
    functions' argument order, as in
    ``score_residuals(*fit.fitting_data, fit.theta, fit.risk_set_means)``:
    the ``PreparedData`` (see ``data.prepare``), its risk index, whose
    ``Xs`` is the fit's one array of the covariates, on the fitting scale,
    and the basis at every row's time.  The result keeps these arrays alive
    until the field is cleared, as ``tvcox fit`` and ``bench`` clear it
    once the residuals are built.
    ``risk_set_means`` is the m x P array of risk-set means, over every
    stratum's event times, of the pass that the fit's log likelihood was
    read off, at the returned theta (that pass's
    ``LikelihoodReport.risk_set_means``), so that call makes no likelihood
    pass; a loglik-only pass computes none, and then it is None and
    ``score_residuals`` makes one.  ``trace`` holds
    one entry per update: (selected block or -1 when the optimizer has no
    block structure, stopping-criterion value, full-data log likelihood at
    the fitting loop's latest check).  For
    the full-data methods that check is made at the theta the update starts
    from; stochastic MMSA makes it at the first iteration and after every 20
    updates.  ``iterations`` is the number of updates, ``len(trace)``.
    ``converged`` is False only for the max-iterations reason.
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
    fitting_data: tuple | None = field(default=None, repr=False, compare=False)
    risk_set_means: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def theta_original(self) -> np.ndarray:
        if self.transform is None:
            return self.theta
        return self.theta / np.asarray(self.transform.scale)[:, None]

    def to_json_dict(self, version: str) -> dict:
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
            "trace": [[int(b), float(c), float(l)] for b, c, l in self.trace],
            "wall_time_sec": float(self.wall_time_sec),
        }


def _ridged_solve(A: np.ndarray, rhs: np.ndarray, ridge: float, label: str):
    """Solve (A + eps I) x = rhs with geometric ridge escalation.

    A is a negated Hessian (block or full), expected positive semi-definite;
    escalation covers indefiniteness from sparse right-tail risk sets.  The
    Cholesky factorization is the positive-definiteness test.  The ridge
    overwrites A's own diagonal, so no copy of A is made: each try sets it
    from a saved copy of the diagonal to ``diagonal + eps``, which rounds as
    ``A + eps I`` would, and the saved diagonal is written back before the
    function returns or raises.  A is therefore unchanged afterwards, but
    must not be read elsewhere while the solve runs.
    """
    diagonal = A.diagonal().copy()
    eps = ridge
    try:
        while True:
            A.flat[::A.shape[0] + 1] = diagonal + eps
            try:
                np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                if eps >= RIDGE_CEIL:
                    raise ConditioningError(
                        f"{label} not positive definite up to ridge {RIDGE_CEIL}") from None
                eps = 1e-8 if eps == 0 else eps * 10
                eps = min(eps, RIDGE_CEIL)
            else:
                return np.linalg.solve(A, rhs), eps
    finally:
        A.flat[::A.shape[0] + 1] = diagonal


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


def _subsample(data: tuple, config: MmsaConfig, iteration: int) -> RiskIndex | None:
    """The risk index of the eta-fraction subsample drawn for one iteration.

    Counter-based: Philox keyed by the seed with the iteration as counter,
    so any iteration's draw is reproducible in isolation.  The draw keeps
    the fit's ``(prepared, basis)`` and its row numbers: its index is one
    filter of the fit's index by the drawn rows, of its flat order, which
    keeps the order sorted, and of its ``Xs``, so a draw reads the fit's
    covariates on the fitting scale, copies only its own rows of them and
    sorts nothing.  Returns that index, or None when the draw contains no
    events.
    """
    work, index, _ = data
    n = work.n
    k = min(n, max(1, int(round(config.subsample_fraction * n))))
    gen = np.random.Generator(np.random.Philox(key=config.seed,
                                               counter=[0, 0, 0, iteration]))
    drawn = np.zeros(n, dtype=bool)
    drawn[gen.choice(n, size=k, replace=False)] = True
    if not work.status[drawn].any():
        return None
    return RiskIndex(work, within=index, drawn=drawn)


class _Problem:
    """One fit's data on the fitting scale and its likelihood passes.

    ``data`` is ``(prepared, index, basis)``: ``prepare``'s data, given or
    made here from a dataset, its index, whose ``Xs`` is the fit's one array
    of the covariates, and the basis at every row's time.
    """

    def __init__(self, data: SurvivalDataset | PreparedData, spec: SplineSpec,
                 do_standardize: bool):
        if not isinstance(data, PreparedData):
            data = prepare(data, do_standardize)
        self.transform = data.transform
        self.data = (data, data.index, evaluate_batch(spec, data.time))
        self._latest = None  # (wants, report) of the latest pass, of any kind
        self.unit_accepted = True  # the latest line search accepted its unit step

    def latest_at(self, theta) -> lk.LikelihoodReport | None:
        """The latest pass, when it was made at theta."""
        kept = self._latest
        return kept[1] if kept is not None and np.array_equal(kept[1].theta, theta) else None

    def report(self, theta, **wants) -> lk.LikelihoodReport:
        """Full-data pass at theta, reused when the latest pass made there had these wants."""
        if self.latest_at(theta) is None or self._latest[0] != wants:
            self._latest = None  # released before the new pass allocates its arrays
            self._latest = (wants, lk.evaluate_report(*self.data, theta, **wants))
        return self._latest[1]

    def negated_hessian(self, theta) -> np.ndarray:
        """The full Hessian of the pass at theta, negated in place and detached from it.

        The kept report no longer holds the array, and no longer counts as a
        full pass, so a later request for one at theta makes a fresh pass;
        its log likelihood and means stay readable.
        """
        rep = self.report(theta, want_full=True)
        H, rep.full_hessian = rep.full_hessian, None
        self._latest = (None, rep)
        return np.negative(H, out=H)

    def loglik(self, theta: np.ndarray) -> float:
        """Full-data log likelihood at theta, read off the latest pass when it was made
        there (every pass kind reports the same value), else from a loglik-only pass."""
        kept = self.latest_at(theta)
        return kept.loglik if kept is not None else self.report(theta, want_gradient=False).loglik


def _drive(optimizer: str, make_step, dataset: SurvivalDataset | PreparedData,
           spec: SplineSpec, config: MmsaConfig | None, init_theta,
           do_standardize: bool) -> FitResult:
    """Run one fit with the step function that ``make_step(problem, config)`` returns.

    ``dataset`` is a dataset, which ``prepare(dataset, do_standardize)``
    prepares, or prepared data, which carries its own standardization, so
    ``do_standardize`` is not read for it.

    ``make_step`` returns ``(step, check_every)``.  ``step(theta, m, ll_prev)``
    evaluates iteration m, runs the method's guard and returns
    ``(score, move)``: the stopping criterion, or None when the method has
    none, and ``move(theta)``, which updates and returns
    ``(theta, block, criterion)``, or returns None when there is no update.
    After the score test the loop reads the full-data log likelihood,
    ``problem.loglik(theta)``, at the first iteration and whenever
    ``check_every`` updates (0: every iteration) have been made since the
    previous read; for full-data methods that reads the pass the step just
    made.  The relative change of a read from the previous one stops the
    fit below tol times the updates made between them (at least one).  Each
    update appends ``(block, criterion, ll_prev)`` to the trace.
    """
    config = config or MmsaConfig()
    t0 = time.perf_counter()
    problem = _Problem(dataset, spec, do_standardize)
    P, K = dataset.P, spec.K
    theta = np.zeros((P, K)) if init_theta is None else lk.as_matrix(init_theta, P, K).copy()
    step, check_every = make_step(problem, config)
    trace = []
    since = 0  # updates since ll_prev
    ll_prev = None
    reason = "max-iterations"

    for m in range(1, config.max_iterations + 1):
        score, move = step(theta, m, ll_prev)
        if score is not None and score < config.tol:
            reason = "score-threshold"
            break
        if ll_prev is None or since >= check_every:
            ll = problem.loglik(theta)
            tol = config.tol * max(1, since)
            if ll_prev is not None and abs(ll - ll_prev) / (1.0 + abs(ll_prev)) < tol:
                reason = "loglik-relative-change"
                break
            ll_prev, since = ll, 0
        moved = move(theta)
        if moved is None:
            continue
        theta, block, criterion = moved
        since += 1
        trace.append((block, criterion, ll_prev))

    ll = problem.loglik(theta)
    final = problem.latest_at(theta)  # the pass ll was read off
    return FitResult(theta=theta, spec=spec, transform=problem.transform,
                     loglik=float(ll), iterations=len(trace),
                     converged=reason != "max-iterations", reason=reason, trace=trace,
                     optimizer=optimizer, config=config,
                     wall_time_sec=time.perf_counter() - t0, fitting_data=problem.data,
                     risk_set_means=None if final is None else final.risk_set_means)


def _best_block(report: lk.LikelihoodReport, ridge: float):
    """``(p*, c_p*, direction)`` of the block with the largest score.

    Every block is ridged and solved at once: one stacked copy of the
    negated blocks, the ridge written onto their diagonals, one Cholesky
    factorization of the stack as its positive-definiteness test and one
    stacked solve.  Each block's score and direction are those of
    ``mmsa_block_quantities``, bit for bit.  Where some block needs the
    ridge escalated, the stack's factorization fails, and every block goes
    through ``mmsa_block_quantities`` and its escalation instead.
    """
    P, K = report.P, report.K
    G = report.gradient.reshape(P, K)
    A = np.negative(report.block_hessians)
    A[:, np.arange(K), np.arange(K)] += ridge
    try:
        np.linalg.cholesky(A)
        D = np.linalg.solve(A, G[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        quantities = [mmsa_block_quantities(report, p, ridge) for p in range(P)]
    else:
        # a block with a zero gradient scores 0 with a zero direction, unsolved
        quantities = [(max(float(g @ d), 0.0), d) if g.any() else (0.0, np.zeros(K))
                      for g, d in zip(G, D)]
    p_star = int(np.argmax([c for c, _ in quantities]))  # first maximum = smallest index
    return p_star, *quantities[p_star]


def _mmsa_step(problem: _Problem, config: MmsaConfig):
    nu = config.learning_rate

    def update(theta, p_star, c_star, direction):
        theta[p_star] += nu * direction
        return theta, p_star, c_star

    def full(theta, m, ll_prev):
        rep = problem.report(theta, want_blocks=True)
        ll = rep.loglik
        if ll_prev is not None and ll < ll_prev - ASCENT_SLACK:
            raise AscentViolationError(
                f"log likelihood decreased by {ll_prev - ll:.3e} at iteration {m}; "
                f"reduce learning_rate below {nu}")
        p_star, c_star, direction = _best_block(rep, config.ridge)
        return c_star, lambda theta: update(theta, p_star, c_star, direction)

    def stochastic(theta, m, ll_prev):
        # the draw only picks the update; the stopping test needs a full-data
        # pass, which costs many subsample passes, so the loop makes it once
        # per window of updates
        drawn = _subsample(problem.data, config, m)

        def move(theta):
            if drawn is None:
                return None  # eventless draw: no usable score this iteration
            work, _, basis = problem.data
            rep = lk.evaluate_report(work, drawn, basis, theta, want_blocks=True)
            p_star, c_star, direction = _best_block(rep, config.ridge)
            if c_star < config.tol:
                return None  # no ascent direction on this draw
            return update(theta, p_star, c_star, direction)
        return None, move

    return (stochastic, _CHECK_WINDOW) if config.subsample_fraction < 1.0 else (full, 0)


def mmsa_fit(dataset: SurvivalDataset | PreparedData, spec: SplineSpec,
             config: MmsaConfig | None = None, init_theta=None,
             do_standardize: bool = True) -> FitResult:
    """Block-selected ascent fit of the coefficient matrix.

    Per iteration: evaluate the gradient and the P diagonal Hessian blocks
    (on an eta-subsample when configured: the drawn rows of the fitted
    data, through a risk index that filters the fit's), pick
    p* = argmax_p c_p (ties to the smallest index), and move that block by
    ``nu`` times its ridged Newton direction.  Stops when max_p c_p < tol,
    when the relative change of the full-data log likelihood falls below
    tol per update, or at max_iterations.  With subsampling, a draw whose max_p c_p is below
    tol makes no update and has no score test, and the fitting loop reads
    the full-data log likelihood only at the first iteration and after
    every 20 updates: the fit stops when the relative change since the
    previous such read is below 20 * tol, and returns the theta it was
    read at.  Only full-data fits guard the ascent property.

    Raises
    ------
    AscentViolationError
        If a full-data iteration decreases the log likelihood by more than
        1e-10; the learning rate is too large for the ascent property.
    ConditioningError
        If a block stays non-PD after ridge escalation.
    """
    return _drive("mmsa", _mmsa_step, dataset, spec, config, init_theta, do_standardize)


def _backtrack(problem: _Problem, theta, direction, g_dot_d, ll0, unit_wants=None):
    """Armijo backtracking from unit step; returns (new_theta, new_ll, step) or None.

    Halved steps are evaluated by loglik-only passes.  ``unit_wants`` names
    the pass that the method's next evaluation reuses when the unit step is
    accepted; the unit step gets that pass while the problem's previous
    line search accepted its unit step, and a loglik-only pass otherwise,
    so that a failing run of steps wastes no such pass after the first.
    """
    step = 1.0
    for _ in range(MAX_HALVINGS):
        cand = theta + step * direction
        if unit_wants and problem.unit_accepted and step == 1.0:
            ll_new = problem.report(cand, **unit_wants).loglik
        else:
            ll_new = problem.loglik(cand)
        if ll_new >= ll0 + ARMIJO_C * step * g_dot_d:
            problem.unit_accepted = step == 1.0
            return cand, ll_new, step
        step *= ARMIJO_SHRINK
    problem.unit_accepted = False
    return None  # numerically zero step; caller treats as no movement


def _newton_step(problem: _Problem, config: MmsaConfig):
    def step(theta, m, ll_prev):
        rep = problem.report(theta, want_full=True)
        # move holds neither the report nor its Hessian: it takes the Hessian off
        # this pass, which the problem keeps, and solves with it in place, so
        # the array is freed once the solve returns
        ll, g = rep.loglik, rep.gradient
        gnorm = np.abs(g).max()

        def move(theta):
            flat_dir, _ = _ridged_solve(problem.negated_hessian(theta), g, config.ridge,
                                        "full Hessian")
            moved = _backtrack(problem, theta, flat_dir.reshape(theta.shape),
                               float(g @ flat_dir), ll, {"want_full": True})
            if moved is None:
                return None  # relative-change stop fires next iteration
            return moved[0], -1, float(gnorm)
        return gnorm, move
    return step, 0


def newton_fit(dataset: SurvivalDataset | PreparedData, spec: SplineSpec,
               config: MmsaConfig | None = None, init_theta=None,
               do_standardize: bool = True) -> FitResult:
    """Full-Hessian Newton ascent with backtracking line search.

    The dense PK x PK Hessian is built each iteration, ridged if necessary,
    and the step halved until the Armijo condition holds.  Stops on
    gradient sup-norm < tol (reported as score-threshold) or relative
    log-likelihood change < tol.  A pass whose Hessian and its solve would
    exceed physical memory raises ``CapacityError`` before it allocates; no
    other limit applies to PK.

    The unit step is evaluated by a full pass, which becomes the next
    iteration's pass when the step is accepted, so an iteration whose unit
    step passes makes one likelihood pass.  After an iteration whose unit
    step failed Armijo, the next unit step gets a loglik-only pass instead,
    as halved steps always do, so that a failing run of steps wastes no
    full pass after the first.
    """
    return _drive("newton", _newton_step, dataset, spec, config, init_theta, do_standardize)


def _coordinate_step(problem: _Problem, config: MmsaConfig):
    def step(theta, m, ll_prev):
        # a blocks pass, which the first coordinate's report then reuses
        rep = problem.report(theta, want_blocks=True)
        ll, g = rep.loglik, rep.gradient
        gnorm = np.abs(g).max()

        def move(theta):
            P, K = theta.shape
            ll_cur, start = ll, theta
            for p in range(P):
                for k in range(K):
                    rep_pk = problem.report(theta, want_blocks=True)
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
                    moved = _backtrack(problem, theta, direction, g_pk * d_pk, ll_cur,
                                       {"want_blocks": True})
                    if moved is not None:
                        theta, ll_cur, _ = moved
            if theta is start:
                return None  # no line search accepted a step, as in Newton
            return theta, -1, float(gnorm)
        return gnorm, move
    return step, 0


def coordinate_ascent_fit(dataset: SurvivalDataset | PreparedData, spec: SplineSpec,
                          config: MmsaConfig | None = None, init_theta=None,
                          do_standardize: bool = True) -> FitResult:
    """Cyclic coordinate ascent over the PK scalar coefficients.

    Each coordinate takes a 1-D ridged Newton step with Armijo
    backtracking; stopping matches newton_fit per full cycle.  One trace
    entry is recorded per cycle that moves some coordinate; a cycle whose
    line searches all fail makes no update, as a failed Newton step does.
    As in newton_fit, the unit step gets the blocks pass that the next
    coordinate reuses when it is accepted, while the previous unit step was
    accepted, and a loglik-only pass otherwise.
    """
    return _drive("coordinate", _coordinate_step, dataset, spec, config, init_theta,
                  do_standardize)


def verify_ascent_condition(dataset: SurvivalDataset, index: RiskIndex,
                            basis: BasisMatrix, report_at_theta: lk.LikelihoodReport,
                            theta_next, nu: float) -> bool:
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
    # -hess(mid) as a P x K x P x K array: block (p, q) is [p, :, q, :]
    neg_hess_mid = -lk.full_hessian(dataset, index, basis, mid).reshape(P, K, P, K)
    # the P diagonal blocks S_p of H^{-1/2}, from eigendecompositions
    S = np.empty((P, K, K))
    for p in range(P):
        g = report_at_theta.gradient_block(p)
        A = -report_at_theta.block_hessians[p]
        lam, U = np.linalg.eigh(A)
        if lam.min() <= 0:
            return False
        c_p = float(g @ (U @ ((U.T @ g) / lam)))
        if c_p <= 0:
            return False
        S[p] = (U * (1.0 / np.sqrt(c_p * lam))) @ U.T
    # block (p, q) of M = H^{-1/2} (-hess(mid)) H^{-1/2} is S_p (-hess(mid))_pq S_q
    M = S[:, None] @ neg_hess_mid.transpose(0, 2, 1, 3) @ S[None]
    M = M.transpose(0, 2, 1, 3).reshape(P * K, P * K)
    lam_max = np.linalg.eigvalsh(0.5 * (M + M.T))[-1]
    return bool(lam_max < 1.0 / nu)
