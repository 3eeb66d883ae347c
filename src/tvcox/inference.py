"""Wald tests for time-varying effects, confidence bands, and K selection.

The null hypothesis "covariate p has a time-constant effect" is, by the
partition of unity of the basis, equivalent to equality of the K spline
coefficients of block p.  It is tested with the quadratic form

    S_p = (C_p theta)' (C_p Cov C_p')^{-1} (C_p theta)  ~  chi2(K - 1)

where C_p contrasts the block's first coefficient against the others and
Cov is the inverse of either the empirical information V (sum of score
residual outer products, the cheap default) or the observed information
-hess(theta).  K is selected by 5-fold cross-validated partial likelihood
in the full-minus-training form, which avoids scoring held-out subjects
on broken risk sets.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import likelihood as lk
from . import optimizers as opt
from .data import SurvivalDataset, build_risk_index, prepare
from .errors import ConditioningError, FoldConstructionError, RankDeficiencyError
from .splines import SplineSpec, evaluate_batch, make_spec

__all__ = [
    "Z95",
    "WaldTest",
    "CurveEstimate",
    "CrossValidationReport",
    "contrast_matrix",
    "wald_test_empirical",
    "wald_test_observed",
    "test_all_covariates",
    "chi_square_upper_tail",
    "covariance_from_residuals",
    "covariance_from_hessian",
    "curve_with_bands",
    "build_folds",
    "cross_validate_K",
]

Z95 = 1.959964  # two-sided 95% normal quantile
RIDGE_START = 1e-10
RIDGE_CEIL = 1e-2


@dataclass(frozen=True)
class WaldTest:
    """One covariate's constancy test."""

    covariate: int
    statistic: float
    df: int
    p_value: float
    information: str  # "empirical" | "observed"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CurveEstimate:
    """Fitted coefficient curves with pointwise 95% bands, original scale.

    All arrays are P x G for a grid of G times.
    """

    times: np.ndarray
    estimate: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class CrossValidationReport:
    candidates: list
    scores: list          # summed CV score per candidate
    per_fold: np.ndarray  # len(candidates) x folds
    chosen_K: int
    folds: int
    seed: int


def contrast_matrix(p: int, P: int, K: int) -> np.ndarray:
    """(K-1) x PK contrast whose kernel within block p is the constant direction.

    Row k carries +1 on the block's first coefficient and -1 on its
    (k+1)-th, so C_p theta = 0 iff theta_p1 = ... = theta_pK.
    """
    if not 0 <= p < P:
        raise ValueError(f"covariate index {p} out of range for P={P}")
    C = np.zeros((K - 1, P * K))
    C[:, p * K] = 1.0
    C[np.arange(K - 1), p * K + 1 + np.arange(K - 1)] = -1.0
    return C


def chi_square_upper_tail(x: float, df: int) -> float:
    """Upper tail P(chi2_df > x), the regularized incomplete gamma Q(df/2, x/2).

    For integer df the tail has closed forms in h = x/2:

        even df:  Q = sum_{j < df/2}     exp(-h) h^j / j!
        odd df:   Q = erfc(sqrt h) + sum_{j < (df-1)/2} exp(-h) h^(j+1/2) / Gamma(j+3/2)

    Each term is formed in log space, so a far tail (df 60, x 1600: about
    7e-295) does not underflow to 0 the way a recurrence from exp(-h) does.
    """
    if not x >= 0:
        raise ValueError("x must be non-negative")
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    a = (int(df) % 2) / 2.0  # 0 for even df, 1/2 for odd
    log_h = math.log(h)
    terms = (math.exp(-h + (j + a) * log_h - math.lgamma(j + a + 1)) for j in range(int(df) // 2))
    # rounded terms can sum to 1 + 2**-52 at small x
    return min(1.0, (math.erfc(math.sqrt(h)) if a else 0.0) + math.fsum(terms))


def _factor_spd(A: np.ndarray, label: str, escalate: bool) -> np.ndarray:
    """Lower Cholesky factor of A, with optional geometric ridge escalation from 1e-10.

    The factorization is the positive-definiteness test: a non-PD matrix
    raises ``LinAlgError``, and the ridge grows until it passes.  As in
    ``optimizers._ridged_solve``, the ridge goes onto A's own diagonal, set
    from a saved copy of it, and the saved diagonal is written back before
    the function returns, so no identity or ridged copy of A is made.
    """
    A = np.require(A, float, "W")  # an integer or read-only A is copied
    diagonal = A.diagonal().copy()
    eps = 0.0
    scale = float(max(A.max(), -A.min())) or 1.0
    try:
        while True:
            try:
                return np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                if not escalate or eps >= RIDGE_CEIL:
                    raise RankDeficiencyError(f"{label} is singular") from None
                eps = RIDGE_START if eps == 0.0 else eps * 10
                A.flat[::A.shape[0] + 1] = diagonal + eps * scale
    finally:
        A.flat[::A.shape[0] + 1] = diagonal


def _inverse_bytes(N: int) -> int:
    """Bytes that ``_inverse_spd`` holds at once for an N x N matrix A.

    While A's Cholesky factor L is inverted: A, L, LAPACK's copy of L, the
    identity that its solve overwrites, and the L^{-1} returned; then
    L^{-T} L^{-1} beside A and L^{-1}, which is less.  A copy of A that
    the factorization makes is released before the inversion.  A fixed
    8 KiB counts the saved diagonal and small objects.
    """
    return 8 * (5 * N * N + N) + 8192


def _inverse_spd(A: np.ndarray, label: str) -> np.ndarray:
    """Inverse of the ridged SPD matrix A as L^{-T} L^{-1}, symmetric by construction.

    Raises ``CapacityError`` before it allocates when ``_inverse_bytes``
    exceeds the machine's physical memory.
    """
    lk._require_memory(_inverse_bytes(len(A)), f"inverting the {label}")
    L_inv = np.linalg.inv(_factor_spd(A, label, escalate=True))
    return L_inv.T @ L_inv


def _empirical_covariance(score_residuals) -> np.ndarray:
    """Inverse of the empirical information V, ridged if needed.

    A ``ScoreResiduals`` bundle keeps this inverse, so one fit's P Wald
    tests and its covariance share a single factorization of V.
    """
    if not isinstance(score_residuals, lk.ScoreResiduals):
        V = score_residuals.V if hasattr(score_residuals, "V") else np.asarray(score_residuals)
        return _inverse_spd(V, "empirical information")
    if score_residuals._V_inverse is None:
        score_residuals._V_inverse = _inverse_spd(score_residuals.V, "empirical information")
    return score_residuals._V_inverse


def _coefficient_blocks(theta_hat) -> np.ndarray:
    """theta_hat as a checked P x K float matrix with K >= 2."""
    theta = np.asarray(theta_hat, dtype=float)
    if theta.ndim != 2:
        raise ValueError("theta_hat must be a P x K matrix")
    if theta.shape[1] < 2:
        raise ValueError("constancy test needs K >= 2")
    return theta


def _wald(theta: np.ndarray, covariance: np.ndarray, p: int, kind: str) -> WaldTest:
    """Test of block p, given the inverse of the information.

    Reads only block p: its row of theta and its K x K diagonal block of
    the covariance, contrasted by the K-1 rows of ``contrast_matrix(0, 1, K)``.
    """
    P, K = theta.shape
    if not 0 <= p < P:
        raise ValueError(f"covariate index {p} out of range for P={P}")
    C, block = contrast_matrix(0, 1, K), slice(p * K, (p + 1) * K)
    d = C @ theta[p]
    inner = C @ covariance[block, block] @ C.T
    inner = 0.5 * (inner + inner.T)
    # S = d' inner^{-1} d = |L^{-1} d|^2 with inner = L L'
    z = np.linalg.solve(_factor_spd(inner, f"contrast covariance for covariate {p}",
                                    escalate=False), d)
    stat = float(z @ z)
    return WaldTest(covariate=p, statistic=stat, df=K - 1,
                    p_value=chi_square_upper_tail(stat, K - 1), information=kind)


def wald_test_empirical(theta_hat, score_residuals, p: int) -> WaldTest:
    """Constancy test for covariate p using the empirical information V.

    ``score_residuals`` is the bundle from the likelihood module (or any
    object exposing ``V``).  The statistic is invariant to covariate
    standardization, so theta and V may live on the fitting scale.
    """
    theta = _coefficient_blocks(theta_hat)
    return _wald(theta, _empirical_covariance(score_residuals), p, "empirical")


def wald_test_observed(theta_hat, full_hessian, p: int) -> WaldTest:
    """Constancy test for covariate p using the observed information -hess."""
    theta = _coefficient_blocks(theta_hat)
    return _wald(theta, covariance_from_hessian(full_hessian), p, "observed")


def test_all_covariates(theta_hat, score_residuals) -> list:
    theta = _coefficient_blocks(theta_hat)
    cov = _empirical_covariance(score_residuals)
    return [_wald(theta, cov, p, "empirical") for p in range(theta.shape[0])]


def covariance_from_residuals(score_residuals) -> np.ndarray:
    """Inverse of the empirical information, ridged if needed (desk scale)."""
    return _empirical_covariance(score_residuals).copy()


def covariance_from_hessian(full_hessian) -> np.ndarray:
    return _inverse_spd(-np.asarray(full_hessian), "observed information")


def curve_with_bands(theta_hat, covariance, spec: SplineSpec, grid,
                     transform=None) -> CurveEstimate:
    """Coefficient curves beta_p(t) = theta_p' B(t) with pointwise 95% bands.

    ``covariance`` is the PK x PK covariance of the flattened coefficient
    estimate on the fitting scale; only its P diagonal K x K blocks are
    read, each symmetrized on its own.  When ``transform`` is given, curves
    and bands are mapped back to the original covariate scale (divide block
    p by its standardization scale).
    """
    theta = np.asarray(theta_hat, dtype=float)
    P, K = theta.shape
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    B = evaluate_batch(spec, grid).values  # G x K, clamped to the domain
    est = theta @ B.T
    cov = np.asarray(covariance)
    se = np.empty_like(est)
    for p in range(P):
        block = cov[p * K:(p + 1) * K, p * K:(p + 1) * K]
        var = np.einsum("gk,kl,gl->g", B, 0.5 * (block + block.T), B)
        if var.min() < -1e-10:
            raise ConditioningError(
                f"negative band variance for covariate {p}; covariance is not PSD")
        se[p] = np.sqrt(np.clip(var, 0.0, None))
    if transform is not None:
        scale = np.asarray(transform.scale, dtype=float)[:, None]
        est = est / scale
        se = se / scale
    return CurveEstimate(times=grid, estimate=est, se=se,
                         lower=est - Z95 * se, upper=est + Z95 * se)


def build_folds(dataset: SurvivalDataset, folds: int, seed: int) -> np.ndarray:
    """Fold label per subject, stratified by (stratum, event status).

    Rows of each (stratum, status) cell are shuffled and dealt round-robin
    so every fold sees the cell's share of events.  A shuffle leaving some
    fold without events is redrawn with a new derived seed, up to 10
    attempts.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    keys = dataset.stratum.astype(np.int64) * 2 + dataset.status.astype(np.int64)
    for attempt in range(10):
        rng = np.random.default_rng([seed, attempt])
        assign = np.empty(dataset.n, dtype=np.int64)
        offset = 0
        for key in np.unique(keys):
            rows = np.flatnonzero(keys == key)
            rows = rng.permutation(rows)
            assign[rows] = (offset + np.arange(rows.size)) % folds
            offset += rows.size
        counts = np.bincount(assign[dataset.status == 1], minlength=folds)
        if counts.min() > 0:
            return assign
    raise FoldConstructionError(
        f"could not build {folds} folds with events in each after 10 shuffles")


_FIT_BY_NAME = {
    "mmsa": opt.mmsa_fit,
    "newton": opt.newton_fit,
    "coordinate": opt.coordinate_ascent_fit,
}


def fit_by_name(name: str):
    try:
        return _FIT_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown optimizer '{name}'; "
                         f"choose from {sorted(_FIT_BY_NAME)}") from None


def cross_validate_K(dataset: SurvivalDataset, candidate_Ks, folds: int = 5,
                     config: opt.MmsaConfig | None = None, degree: int = 3,
                     optimizer: str = "newton") -> CrossValidationReport:
    """Choose K by cross-validated partial likelihood.

    For fold k with training fit theta_k, the fold score is
    CV_k = loglik_full(theta_k) - loglik_train(theta_k), where loglik_train
    is the fold fit's reported log likelihood: the partial likelihood is
    invariant to the fit's standardization.  Each fold fit runs, as
    ``tvcox fit`` does, on the prepared data of its training rows.  The
    chosen K maximizes the summed score; ties go to the smallest K, then
    the first occurrence.
    """
    config = config or opt.MmsaConfig()
    candidates = [int(K) for K in candidate_Ks]
    if not candidates:
        raise ValueError("candidate_Ks must be non-empty")
    fit = fit_by_name(optimizer)
    assign = build_folds(dataset, folds, config.seed)
    full_index = build_risk_index(dataset)

    per_fold = np.zeros((len(candidates), folds))
    for i, K in enumerate(candidates):
        spec = make_spec(degree=degree, K=K, event_times=dataset.event_times)
        full_basis = evaluate_batch(spec, dataset.time)
        for k in range(folds):
            # the training rows' subset is released once prepared, so the
            # fold fit holds one copy of their covariates
            result = fit(prepare(dataset.subset(np.flatnonzero(assign != k))), spec, config)
            theta, ll_train = result.theta_original, result.loglik
            del result  # frees its fitting data before the full-data pass and the next fit
            ll_full = lk.evaluate_report(dataset, full_index, full_basis,
                                         theta, want_gradient=False).loglik
            per_fold[i, k] = ll_full - ll_train

    scores = per_fold.sum(axis=1)
    best = scores.max()
    chosen_i = min((i for i in range(len(candidates)) if scores[i] == best),
                   key=lambda i: (candidates[i], i))
    return CrossValidationReport(candidates=candidates, scores=[float(s) for s in scores],
                                 per_fold=per_fold, chosen_K=candidates[chosen_i],
                                 folds=folds, seed=config.seed)
