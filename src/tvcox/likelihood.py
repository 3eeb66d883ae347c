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

Every evaluation returns the log likelihood, and every kind of pass
computes it the same way: the risk-set sums S are their own product
``E 1`` of the risk weights with a vector of ones, and the weighted
moments a separate product ``E A`` over one moment array ``A``, which
holds the requested columns only, written side by side once per stratum:
the covariates, and the products of the covariate pairs whose Hessian
blocks the pass builds (see below).  A
loglik-only pass and a full-Hessian pass at the same theta therefore
report the same value, bit for bit, which the ascent guard, the Armijo
test and the stopping rules rely on when they compare values from
different passes.

Each stratum is evaluated in one pass over its distinct event times, in
fixed-width chunks of columns.  Because the prefix lengths ``L`` ascend, a
chunk of event times ``[a, b)`` reads only the first ``L[b-1]`` rows of the
ordering, and only the band of rows ``[L[a], L[b-1])`` lies outside some of
its risk sets; those entries are set to ``-inf`` before exponentiation.
A chunk spans at most 32 event times, whatever the stratum size, so it
holds at most 32 n_j linear predictors, and every chunk of a pass writes
them into the same buffer: memory is linear in the stratum size and no
n_j x m array is ever formed.  A wider chunk would not pay on a small
stratum: its band grows with the width, and every entry of the band is
exponentiated only for the mask to discard it.  The predictors are formed
on the K side: with ``U = Xs Theta`` (n_j x K), made once per stratum, a
chunk's predictors are ``B_g U'``, whose inner dimension is K, not P.
Each chunk is exponentiated unshifted, so no row max or subtraction runs
where its risk-set sums S all lie in [1e-250, 1e250].  A chunk whose S
leave that range, which takes a predictor above about 575 or a risk set
whose predictors all lie below about -575, is made again with each risk
set's exact max as its shift.
Where U is all zero, as at every fit's start Theta = 0, each risk weight is
exactly 1: S_g is the risk-set size L_g, the means are prefix sums, and the
pass makes no GEMM and no exponential.  Every pass that computes first
moments keeps each stratum's risk-set means on its report, from which
``score_residuals`` builds the residuals without a pass of its own.
Flat coefficient vectors follow the row-major convention theta =
vec(Theta): block p occupies theta[p*K:(p+1)*K].

The full Hessian is

    H = -sum_g d_g [ sum_i w_gi x_i x_i' - zbar_g zbar_g' ] (x) B_g B_g',

with risk weights w_gi and risk-set means zbar_g at event time g.  Its
diagonal blocks (p = q) and the product form of the whole Hessian come
from one pair path: the pass carries the products x_ip x_iq of a set of
covariate pairs as extra moment columns, the P(P+1)/2 pairs p <= q for
the product form or the P diagonal pairs when only the blocks are wanted,
and each pair (p, q) gets its K x K block.  The full Hessian takes one of
two forms: the product form, from the pairs p <= q, or the separable form,
which uses

    sum_g d_g B_g B_g' (x) sum_i w_gi x_i x_i'  =  sum_i (x_i x_i') (x) C_i,
    C_i = sum_g d_g w_gi B_g B_g',

so the pass spreads the entries k <= l of each d_g B_g B_g' over its
risk set instead.  The second moments are ``(Xs (x) C)' Xs``, one GEMM per
chunk of subjects, and the mean term is ``ZB' ZB``, row g of ZB being
``zbar_g (x) sqrt(d_g) B_g``, one symmetric GEMM per chunk of event times;
each chunk is written into one buffer that all of a stratum's chunks
reuse, so neither an n x P*T nor an m x PK array is formed.
B-splines have local support, so B_k B_l is zero at every event time for
basis functions far enough apart (a cubic basis: four or more).  Only the
pairs whose functions are both non-zero at some event time are spread;
the others' second moments are sums of exact zeros, so their Hessian
entries are the mean term alone.  The second moments of a spread pair
(k, l) are P x P; symmetrized, they are subtracted from entry (k, l) of
every K x K block of the Hessian, and from entry (l, k), so the Hessian
is exactly symmetric.
Each form's extra pass columns are its cost, so the separable form is used
exactly when P(P+1)/2 > K(K+1)/2, that is when P > K.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

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
    "full_hessian",
    "score_residuals",
]

FULL_HESSIAN_GUARD = 2000  # refuse to build PK x PK beyond this
_CHUNK_TIMES = 32          # event times per chunk of the risk-set pass, at most
_CHUNK_ENTRIES = 1 << 16   # entries per GEMM row chunk: 512 KiB of float64
_S_FLOOR = 1e-250          # a chunk's risk-set sums outside [_S_FLOOR, 1 / _S_FLOOR]: made again


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
    """One evaluation of the likelihood and requested derivatives.

    ``loglik`` is always set, and is the same value whichever derivatives
    the pass computed; a derivative that was not requested is None.
    ``risk_set_means`` holds, for every stratum of the index in order, the
    m x P risk-weighted means of the covariates over the risk sets of its m
    distinct event times; a pass that computes no first moments (loglik
    only) leaves it None.
    """

    theta: np.ndarray            # P x K
    loglik: float
    gradient: np.ndarray | None  # flat, PK
    block_hessians: np.ndarray | None  # P x K x K
    full_hessian: np.ndarray | None    # PK x PK
    risk_set_means: tuple | None = field(default=None, repr=False, compare=False)

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
    # ridged inverse of V (the empirical covariance), kept by the first
    # inference call that needs it and shared by the Wald tests
    _V_inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def _factors(s, basis_values, Theta):
    """A stratum's factors of its linear predictors.

    Returns ``Bg`` (m x K), the basis rows of the m distinct event times,
    and ``U = Xs Theta`` (n x K), so the linear predictors are ``Bg U'``,
    with inner dimension K.  A non-finite U is left for the pass to report
    by subject.
    """
    # tied events share a time, hence identical basis rows; take the first
    Bg = basis_values[s.event_rows[s.event_starts[:-1]]]
    with np.errstate(over="ignore", invalid="ignore"):
        return Bg, s.Xs @ Theta


def _risk_set_pass(s, Bg, U, A=None, spread=None):
    """Risk-set log denominators and weighted means for one stratum.

    ``Bg`` (m x K) and ``U`` (n x K) are the factors from ``_factors``:
    ``Bg U'`` are the linear predictors.  ``A``, if given, is the moment
    array, with one row per subject in ``s.order``.  Returns ``log S_g +
    shift_g`` for every event time g, where S_g sums the shifted
    exponentials over the risk set ``order[:L[g]]`` and shift_g is 0, or
    the largest predictor in the risk set for a chunk whose unshifted sums
    leave ``[_S_FLOOR, 1 / _S_FLOOR]``; and the (m x A.shape[1])
    risk-weighted means ``E'A / S`` (m x 0 without A).
    S is always its own product ``E @ ones``, whatever ``A`` holds, so the
    log denominators do not depend on the moments requested; the moments
    come from one ``E @ A``, and without A from no product.
    ``spread``, if given, is a pair ``(W, C)`` of arrays with one row per
    event time and one row per subject: each row of W is spread over its
    risk set by the risk weights, ``C += E (W / S)``.  Every chunk's
    predictors are written into one buffer, so the pass holds one chunk.
    Where ``U`` is all zero, ``_uniform_pass`` gives the same outputs in
    closed form.
    """
    if not U.any():
        return _uniform_pass(s, A, spread)
    return _chunk_loop(s, Bg, U, A, spread)


def _chunk_loop(s, Bg, U, A, spread):
    """``_risk_set_pass``'s outputs, a chunk of at most ``_CHUNK_TIMES`` event times at a time."""
    n, m = s.order.size, s.dt.size
    ones = np.ones(n)
    lse = np.empty(m)
    means = np.empty((m, 0 if A is None else A.shape[1]))
    buf = np.empty(min(_CHUNK_TIMES, m) * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, m, _CHUNK_TIMES):
            b = min(a + _CHUNK_TIMES, m)
            rows, lo = s.L[b - 1], s.L[a]
            out = buf[:(b - a) * rows].reshape(b - a, rows)
            outside = np.arange(lo, rows) >= s.L[a:b, None]
            # one event time per row, unshifted: masked entries exp(-inf) = 0
            eta = np.matmul(Bg[a:b], U[:rows].T, out=out)
            eta[:, lo:rows][outside] = -np.inf
            E = np.exp(eta, out=eta)
            S = E @ ones[:rows]
            shift = 0.0
            # every weight is at most S, so within the range E @ A overflows
            # only for moments beyond about 1e58
            if not np.all((S >= _S_FLOOR) & (S <= 1 / _S_FLOOR)):
                # sums out of range, or a non-finite predictor: shift by the exact max
                eta = np.matmul(Bg[a:b], U[:rows].T, out=out)
                finite = np.all(np.isfinite(eta), axis=0)
                if not finite.all():
                    row = s.order[np.flatnonzero(~finite)[0]]
                    raise NumericOverflowError(
                        f"non-finite linear predictor for subject row {int(row)}")
                eta[:, lo:rows][outside] = -np.inf
                shift = eta.max(axis=1)
                eta -= shift[:, None]
                E = np.exp(eta, out=eta)
                S = E @ ones[:rows]
            lse[a:b] = np.log(S) + shift
            if A is not None:
                means[a:b] = (E @ A[:rows]) / S[:, None]
            if spread is not None:
                W, C = spread
                C[:rows] += E.T @ (W[a:b] / S[:, None])
    return lse, means


def _uniform_pass(s, A, spread):
    """``_risk_set_pass``'s outputs where every linear predictor is zero.

    Each risk weight is exactly 1, so S_g = L_g, the means are prefix sums
    over each event time's new rows ``[L[g-1], L[g])``, and row i of the
    spread is the sum of ``W_g / L_g`` over the event times whose risk sets
    hold it, a reverse cumulative sum.
    """
    L = s.L
    new = np.r_[0, L[:-1]]  # first row of each event time's new rows
    lse = np.log(L)
    if A is None:
        means = np.empty((L.size, 0))
    else:
        means = np.add.reduceat(A[:L[-1]], new, axis=0)
        np.cumsum(means, axis=0, out=means)
        means /= L[:, None]
    if spread is not None:
        W, C = spread
        R = np.cumsum((W / L[:, None])[::-1], axis=0)[::-1]
        C[:L[-1]] += np.repeat(R, L - new, axis=0)
    return lse, means


def _chunk_rows(n: int, width: int, least: int) -> int:
    """Rows per chunk where n rows of ``width`` products are made a chunk at a time.

    ``_CHUNK_ENTRIES // width`` rows, but at least ``least``, then stretched
    so that the n rows split into equal chunks with no short one left over:
    never more than n, nor twice the unstretched length.
    """
    return -(-n // max(1, n // max(least, _CHUNK_ENTRIES // width)))


def _add_second_moments(out, Xs, C):
    """Add ``sum_i (x_i (x) C_i) x_i'`` to ``out`` (P*T x P), a row chunk at a time.

    Every chunk's n_r x P*T products are written into one buffer, and every
    chunk's GEMM into one P*T x P product.  A chunk has at least P rows (or
    all n), so the product is never larger than a chunk.
    """
    n, P = Xs.shape
    step = _chunk_rows(n, P * C.shape[1], P)
    buf = np.empty((step, P, C.shape[1]))
    prod = np.empty_like(out)
    for r in range(0, n, step):
        X = Xs[r:r + step]
        XC = np.multiply(X[:, :, None], C[r:r + step, None, :], out=buf[:X.shape[0]])
        out += np.matmul(XC.reshape(X.shape[0], -1).T, X, out=prod)


def _add_mean_term(out, Zbar, Bg, d):
    """Add ``sum_g d_g (zbar_g zbar_g') (x) (B_g B_g')`` to ``out`` (PK x PK).

    As ``ZB' ZB``, row g of ZB being ``zbar_g (x) sqrt(d_g) B_g``: sqrt(d)
    on both factors weights the term by d, and numpy computes ``ZB' ZB`` as
    a symmetric product, so the term is exactly symmetric.  ZB is made a
    chunk of event times at a time in one buffer, and every chunk's GEMM
    goes into one PK x PK product.  A chunk has at least PK rows (or all
    m), so the product is never larger than a chunk.
    """
    m, P = Zbar.shape
    PK = P * Bg.shape[1]
    step = _chunk_rows(m, PK, PK)
    buf = np.empty((step, P, Bg.shape[1]))
    prod = np.empty_like(out)
    sB = Bg * np.sqrt(d)[:, None]
    for a in range(0, m, step):
        Z = Zbar[a:a + step]
        ZB = np.multiply(Z[:, :, None], sB[a:a + step, None, :],
                         out=buf[:Z.shape[0]]).reshape(Z.shape[0], PK)
        out += np.matmul(ZB.T, ZB, out=prod)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _full_pass_bytes(index: RiskIndex, P: int, K: int, separable: bool) -> int:
    """Bytes of the largest arrays a full-Hessian pass holds at once.

    Counted at the largest stratum: the vector of ones, U (n x K), Bg (m x
    K), the one buffer of linear predictors that every chunk reuses and its
    band mask at a byte an entry (at most ``_CHUNK_TIMES`` event times, so
    at most 32 n entries each), Hf and one Hf-sized array beside it (the
    separable mean term's GEMM product, or the product form's negated pair
    blocks), the risk-set means the report keeps for every stratum (m x P
    each), and for each form its own arrays (see the comments below).
    The separable form's second moments and mean term are made a chunk at a
    time, each chunk written into one buffer that every chunk reuses, and
    its symmetry needs no Hf-sized copy.  Each stratum's
    arrays are released before the next stratum's pass, so they are counted
    once.  The separable form is counted with all K(K+1)/2 basis pairs; it
    spreads only the pairs that overlap at some event time, so its count is
    an upper bound.
    """
    n = max(s.order.size for s in index.strata)
    m = max(s.dt.size for s in index.strata)
    kept = P * sum(s.dt.size for s in index.strata)
    T, pairs = K * (K + 1) // 2, P * (P + 1) // 2
    if separable:
        # C and one C-sized addition to it (the moments are Xs itself, read
        # in place); the P*T x P second moments and their chunks' GEMM
        # product; the chunk buffers of the second moments and the mean term,
        # each at most twice _chunk_rows' unstretched length
        PK = P * K
        entries = (2 * n * T + 2 * P * P * T
                   + min(n, 2 * max(P, _CHUNK_ENTRIES // (P * T))) * P * T
                   + min(m, 2 * max(PK, _CHUNK_ENTRIES // PK)) * PK)
    else:
        # the moment array [Xs, pair products]; its risk-set means and the
        # pairs' weighted form; the basis products B_g B_g' the pair blocks
        # contract it with
        entries = n * (P + pairs) + m * (P + 2 * pairs + K * K)
    chunk = min(_CHUNK_TIMES, m) * n
    return 8 * (entries + n * (1 + K) + m * K + chunk + 2 * (P * K) ** 2
                + kept) + chunk


def evaluate_report(dataset: SurvivalDataset, index: RiskIndex, basis: BasisMatrix,
                    theta, *, want_gradient: bool = True, want_blocks: bool = False,
                    want_full: bool = False) -> LikelihoodReport:
    """Evaluate the likelihood and any of its derivatives in one pass.

    The log likelihood is always evaluated, and is identical whichever
    derivatives are requested.

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
        If the full Hessian is requested and P*K exceeds
        ``FULL_HESSIAN_GUARD``, or its pass would need more bytes than the
        machine's physical memory.
    """
    P = dataset.P
    K = basis.values.shape[1]
    Theta = as_matrix(theta, P, K)
    if not np.all(np.isfinite(Theta)):
        raise NumericOverflowError("non-finite coefficients")
    separable = want_full and P > K  # fewer pass columns: K(K+1)/2 < P(P+1)/2
    if want_full:
        if P * K > FULL_HESSIAN_GUARD:
            raise CapacityError(f"full Hessian size {P * K} exceeds guard {FULL_HESSIAN_GUARD}")
        need, have = _full_pass_bytes(index, P, K, separable), _physical_memory()
        if have is not None and need > have:
            raise CapacityError(f"full Hessian pass needs about {need / 2**30:.1f} GiB, "
                                f"more than the {have / 2**30:.1f} GiB of physical memory")

    # covariate pairs (p, q) whose K x K blocks the pass builds
    pairs = (np.triu_indices(P) if want_full and not separable
             else (np.arange(P),) * 2 if want_blocks else None)
    ll = 0.0
    kept = []  # each stratum's risk-set means
    G = np.zeros((P, K)) if (want_gradient or want_full) else None
    Hf = np.zeros((P * K, P * K)) if want_full else None
    if pairs is not None:
        pair_blocks = np.zeros((pairs[0].size, K, K))
    if separable:
        # the basis pairs k <= l that are both non-zero at some event time;
        # every other pair's d_g B_g B_g' entry is zero at every event time
        nz = basis.values[np.concatenate([s.event_rows for s in index.strata])] != 0
        ku = np.nonzero(np.triu(nz.T @ nz))
        second = np.zeros((P * ku[0].size, P))

    for s in index.strata:
        Bg, U = _factors(s, basis.values, Theta)
        d = s.d
        A = None if G is None else s.Xs
        if pairs is not None:
            # the covariates and their pair products side by side, one moment
            # array; a product at a time, so no n x pairs temporary is made
            A = np.empty((s.order.size, P + pairs[0].size))
            A[:, :P] = s.Xs
            for c, (p, q) in enumerate(zip(*pairs)):
                np.multiply(s.Xs[:, p], s.Xs[:, q], out=A[:, P + c])
        C = np.zeros((s.order.size, ku[0].size)) if separable else None
        spread = (Bg[:, ku[0]] * Bg[:, ku[1]] * d[:, None], C) if separable else None
        lse, means = _risk_set_pass(s, Bg, U, A, spread)
        A = None  # released before the means are read
        ll += float((s.SX * (Bg @ Theta.T)).sum() - (d * lse).sum())
        if means.shape[1]:  # the pass computed first moments
            Zbar = np.ascontiguousarray(means[:, :P])  # a copy when the means are wider
            kept.append(Zbar)
        if G is not None:
            G += (s.SX - d[:, None] * Zbar).T @ Bg
        if pairs is not None:
            W = (means[:, P:] - Zbar[:, pairs[0]] * Zbar[:, pairs[1]]) * d[:, None]
            pair_blocks += np.tensordot(W.T, Bg[:, :, None] * Bg[:, None, :], axes=1)
        if separable:
            _add_second_moments(second, s.Xs, C)
            C = spread = None  # released before the mean term's buffers
            _add_mean_term(Hf, Zbar, Bg, d)
        # released before the next stratum's pass allocates its own
        Bg = U = lse = means = W = None

    H4 = Hf.reshape(P, K, P, K) if want_full else None  # block (p, q) is H4[p, :, q, :]
    if separable:
        # with T spread pairs, row p*T + t, column q of the second moments
        # is entry (p, k), (q, l) of spread pair t = (k, l), and (p, l), (q, k);
        # the mean term is exactly symmetric, so subtracting each pair's
        # symmetrized P x P block keeps Hf exactly symmetric
        for t, (k, l) in enumerate(zip(*ku)):
            S = second[t::ku[0].size]
            S = 0.5 * (S + S.T)
            H4[:, k, :, l] -= S
            if k != l:
                H4[:, l, :, k] -= S
    elif want_full:
        H4[pairs[0], :, pairs[1], :] = H4[pairs[1], :, pairs[0], :] = -pair_blocks

    return LikelihoodReport(
        theta=Theta.copy(),
        loglik=ll,
        gradient=G.reshape(-1) if G is not None else None,
        block_hessians=-pair_blocks[pairs[0] == pairs[1]] if want_blocks else None,
        full_hessian=Hf,
        risk_set_means=tuple(kept) if kept else None,
    )


def loglik(dataset, index, basis, theta) -> float:
    """Log partial likelihood at theta."""
    return evaluate_report(dataset, index, basis, theta,
                           want_gradient=False).loglik


def full_hessian(dataset, index, basis, theta) -> np.ndarray:
    """Dense PK x PK Hessian; refused past ``FULL_HESSIAN_GUARD``."""
    return evaluate_report(dataset, index, basis, theta, want_gradient=False,
                           want_full=True).full_hessian


def score_residuals(dataset: SurvivalDataset, index: RiskIndex, basis: BasisMatrix,
                    theta, risk_set_means=None) -> ScoreResiduals:
    """Per-event residuals Psi and the empirical information V = Psi' Psi.

    ``risk_set_means`` are the risk-set means of a pass made at theta, as
    ``LikelihoodReport.risk_set_means`` or ``FitResult.risk_set_means`` keep
    them; the residuals are then built from them with no risk-set pass.
    Without them, one gradient pass at theta computes them.
    """
    if risk_set_means is None:
        risk_set_means = evaluate_report(dataset, index, basis, theta).risk_set_means
    P, K = dataset.P, basis.values.shape[1]
    rows = np.concatenate([s.event_rows for s in index.strata])
    zbar = np.concatenate([Z[s.event_group] for s, Z in zip(index.strata, risk_set_means)])
    psi = ((dataset.covariates[rows] - zbar)[:, :, None]
           * basis.values[rows][:, None, :]).reshape(rows.size, P * K)
    return ScoreResiduals(psi=psi, event_rows=rows, total=psi.sum(axis=0), V=psi.T @ psi)
