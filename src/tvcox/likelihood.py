"""Stratified Cox log partial likelihood with spline-expanded effects.

The linear predictor of subject ``i`` evaluated at time ``t`` is
``x_i' Theta B(t)`` where ``Theta`` is the P x K coefficient matrix and
``B(t)`` the spline basis vector.  With Breslow handling of ties the log
partial likelihood is

    l(Theta) = sum_events [ x_i' Theta B(T_i)
               - log sum_{i' in R(T_i)} exp(x_{i'}' Theta B(T_i)) ],

risk sets taken within the event's stratum.  Because the basis changes
with the event time, denominators cannot be shared across times; they are
shared across events tied at the same time, and each distinct time's risk
set is a contiguous prefix of the stratum's descending-time ordering.

Each stratum is evaluated in one pass over its distinct event times, in
fixed-width chunks of columns.  Because the prefix lengths ``L`` ascend, a
chunk of event times ``[a, b)`` reads only the first ``L[b-1]`` rows of the
ordering, and only the band of rows ``[L[a], L[b-1])`` lies outside some of
its risk sets; those entries are set to ``-inf`` before exponentiation.
Each chunk holds at most ``_CHUNK_ENTRIES`` linear predictors, so memory is
linear in the stratum size and no n_j x m array is ever formed.  A per-column
max shift keeps the exponentials stable.  Flat coefficient vectors follow
the row-major convention theta = vec(Theta): block p occupies
theta[p*K:(p+1)*K].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RiskIndex, SurvivalDataset
from .errors import CapacityError, NumericOverflowError
from .splines import BasisMatrix

__all__ = [
    "LikelihoodReport",
    "ScoreResiduals",
    "as_matrix",
    "as_vector",
    "evaluate_report",
    "loglik",
    "gradient",
    "block_hessian",
    "block_hessians",
    "full_hessian",
    "score_residuals",
]

FULL_HESSIAN_GUARD = 2000  # refuse to build PK x PK beyond this
_CHUNK_ENTRIES = 1 << 18   # linear predictors per chunk: 2 MiB of float64


def as_matrix(theta, P: int, K: int) -> np.ndarray:
    """Coefficients as a P x K matrix from either layout."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape == (P, K):
        return theta
    if theta.shape == (P * K,):
        return theta.reshape(P, K)
    raise ValueError(f"theta must have shape ({P},{K}) or ({P * K},), got {theta.shape}")


def as_vector(theta, P: int, K: int) -> np.ndarray:
    """Row-major flat coefficients: block p at [p*K:(p+1)*K]."""
    return as_matrix(theta, P, K).reshape(-1)


@dataclass
class LikelihoodReport:
    """One evaluation of the likelihood and requested derivatives."""

    theta: np.ndarray            # P x K
    loglik: float | None
    gradient: np.ndarray | None  # flat, PK
    block_hessians: np.ndarray | None  # P x K x K
    full_hessian: np.ndarray | None    # PK x PK

    @property
    def P(self) -> int:
        return self.theta.shape[0]

    @property
    def K(self) -> int:
        return self.theta.shape[1]

    def gradient_block(self, p: int) -> np.ndarray:
        K = self.K
        return self.gradient[p * K:(p + 1) * K]


@dataclass
class ScoreResiduals:
    """Per-event score residuals Psi and the empirical information.

    ``psi[e]`` is the flattened (x_e - zbar) outer B(T_e) for event e;
    their sum equals the gradient, and V = Psi' Psi estimates the
    information without second derivatives.
    """

    psi: np.ndarray         # n_events x PK
    event_rows: np.ndarray  # original dataset rows, one per event
    total: np.ndarray       # column sum, equals the gradient
    V: np.ndarray           # PK x PK


def _group_basis(s, basis_values):
    # tied events share a time, hence identical basis rows; take the first
    return basis_values[s.event_rows[s.event_starts[:-1]]]


def _risk_set_pass(s, M, mats=()):
    """Risk-set log denominators and weighted means for one stratum.

    ``M`` (m x P) holds the basis-mixed coefficients of the stratum's m
    distinct event times; ``mats`` are arrays with one row per subject in
    ``s.order``.  Returns ``log S_g + shift_g`` for every event time g,
    where S_g sums the shifted exponentials over the risk set
    ``order[:L[g]]`` and shift_g is the largest linear predictor in it, and
    for each array A in ``mats`` the (m x A.shape[1]) risk-weighted means
    ``E'A / S``.
    """
    n, m = s.order.size, s.dt.size
    width = max(1, _CHUNK_ENTRIES // n)
    # a leading column of ones makes S the first column of E @ A
    A = np.concatenate([np.ones((n, 1)), *mats], axis=1)
    lse = np.empty(m)
    means = np.empty((m, A.shape[1] - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, m, width):
            b = min(a + width, m)
            rows, lo = s.L[b - 1], s.L[a]
            eta = M[a:b] @ s.Xs[:rows].T  # one event time per row
            band = eta[:, lo:rows]
            band[np.arange(lo, rows) >= s.L[a:b, None]] = -np.inf
            shift = eta.max(axis=1)
            eta -= shift[:, None]
            E = np.exp(eta, out=eta)  # masked entries exp(-inf) = 0
            ES = E @ A[:rows]
            S = ES[:, 0]
            if not (np.all(np.isfinite(S)) and np.all(np.isfinite(shift))):
                raw = M[a:b] @ s.Xs[:rows].T
                bad = np.flatnonzero(~np.all(np.isfinite(raw), axis=0))
                row = s.order[bad[0]] if bad.size else s.order[0]
                raise NumericOverflowError(
                    f"non-finite linear predictor for subject row {int(row)}")
            lse[a:b] = np.log(S) + shift
            means[a:b] = ES[:, 1:] / S[:, None]
    return lse, np.split(means, np.cumsum([X.shape[1] for X in mats])[:-1], axis=1)


def evaluate_report(dataset: SurvivalDataset, index: RiskIndex, basis: BasisMatrix,
                    theta, *, want_loglik: bool = True, want_gradient: bool = True,
                    want_blocks: bool = False, want_full: bool = False,
                    guard: int = FULL_HESSIAN_GUARD) -> LikelihoodReport:
    """Evaluate the likelihood and any of its derivatives in one pass.

    Parameters
    ----------
    basis : BasisMatrix
        Basis rows at every observed time (``evaluate_batch(spec, dataset.time)``);
        only event rows are read.
    theta : ndarray
        Coefficients, flat (PK) or matrix (P x K).

    Raises
    ------
    NumericOverflowError
        If a linear predictor is non-finite (diverged coefficients).
    CapacityError
        If the full Hessian is requested and P*K exceeds ``guard``.
    """
    P = dataset.P
    K = basis.values.shape[1]
    Theta = as_matrix(theta, P, K)
    if not np.all(np.isfinite(Theta)):
        raise NumericOverflowError("non-finite coefficients")
    if want_full and P * K > guard:
        raise CapacityError(f"full Hessian size {P * K} exceeds guard {guard}")

    ll = 0.0
    G = np.zeros((P, K)) if (want_gradient or want_full) else None
    Hb = np.zeros((P, K, K)) if want_blocks else None
    Hf = np.zeros((P, K, P, K)) if want_full else None
    iu = np.triu_indices(P) if want_full else None

    for s in index.strata:
        Bg = _group_basis(s, basis.values)
        M = Bg @ Theta.T
        mats = [s.Xs] if (G is not None or Hb is not None) else []
        if want_blocks:
            mats.append(s.Xs * s.Xs)
        if want_full:
            mats.append(s.Xs[:, iu[0]] * s.Xs[:, iu[1]])
        lse, means = _risk_set_pass(s, M, mats)
        d = s.d
        if want_loglik:
            ll += float((s.SX * M).sum() - (d * lse).sum())
        if not mats:
            continue
        Zbar = means[0]
        A = s.SX - d[:, None] * Zbar
        if G is not None:
            G += A.T @ Bg
        if want_blocks or want_full:
            BB = Bg[:, :, None] * Bg[:, None, :]
        if want_blocks:
            W = (means[1] - Zbar * Zbar) * d[:, None]
            Hb -= np.tensordot(W.T, BB, axes=1)
        if want_full:
            Wf = (means[-1] - Zbar[:, iu[0]] * Zbar[:, iu[1]]) * d[:, None]
            blocks = np.tensordot(Wf.T, BB, axes=1)
            for c in range(iu[0].size):
                p, q = iu[0][c], iu[1][c]
                Hf[p, :, q, :] -= blocks[c]
                if p != q:
                    Hf[q, :, p, :] -= blocks[c]

    return LikelihoodReport(
        theta=Theta.copy(),
        loglik=ll if want_loglik else None,
        gradient=G.reshape(-1) if G is not None else None,
        block_hessians=Hb,
        full_hessian=Hf.reshape(P * K, P * K) if want_full else None,
    )


def loglik(dataset, index, basis, theta) -> float:
    """Log partial likelihood at theta."""
    return evaluate_report(dataset, index, basis, theta,
                           want_gradient=False).loglik


def gradient(dataset, index, basis, theta) -> np.ndarray:
    """Flat gradient; equals the column sum of the score residuals."""
    return evaluate_report(dataset, index, basis, theta,
                           want_loglik=False).gradient


def block_hessians(dataset, index, basis, theta) -> np.ndarray:
    """All P diagonal blocks of the Hessian, shape (P, K, K)."""
    return evaluate_report(dataset, index, basis, theta, want_loglik=False,
                           want_gradient=False, want_blocks=True).block_hessians


def block_hessian(dataset, index, basis, theta, p: int) -> np.ndarray:
    """Hessian block of covariate p (negative semi-definite)."""
    return block_hessians(dataset, index, basis, theta)[p]


def full_hessian(dataset, index, basis, theta, guard: int = FULL_HESSIAN_GUARD) -> np.ndarray:
    """Dense PK x PK Hessian; guarded against accidental huge builds."""
    return evaluate_report(dataset, index, basis, theta, want_loglik=False,
                           want_gradient=False, want_full=True, guard=guard).full_hessian


def score_residuals(dataset: SurvivalDataset, index: RiskIndex, basis: BasisMatrix,
                    theta) -> ScoreResiduals:
    """Per-event residuals Psi and the empirical information V = Psi' Psi."""
    P = dataset.P
    K = basis.values.shape[1]
    Theta = as_matrix(theta, P, K)
    if not np.all(np.isfinite(Theta)):
        raise NumericOverflowError("non-finite coefficients")
    chunks = []
    rows = []
    for s in index.strata:
        Bg = _group_basis(s, basis.values)
        M = Bg @ Theta.T
        _, (Zbar,) = _risk_set_pass(s, M, [s.Xs])
        dx = dataset.covariates[s.event_rows] - Zbar[s.event_group]
        psi = dx[:, :, None] * basis.values[s.event_rows][:, None, :]
        chunks.append(psi.reshape(s.event_rows.size, P * K))
        rows.append(s.event_rows)
    psi = np.concatenate(chunks) if chunks else np.zeros((0, P * K))
    event_rows = np.concatenate(rows) if rows else np.zeros(0, dtype=int)
    return ScoreResiduals(psi=psi, event_rows=event_rows,
                          total=psi.sum(axis=0), V=psi.T @ psi)
