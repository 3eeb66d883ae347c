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
A chunk spans at most 32 event times, whatever the stratum size, and reads
its rows in row blocks of at most 2048 (``_CHUNK_ENTRIES // _CHUNK_TIMES``),
so a block holds at most 2^16 linear predictors.  S and the moments are
sums over the blocks, and every block of a pass is written into the same
buffer, so a pass without a spread holds 512 KiB of predictors whatever
the stratum size, and no n_j x m array is ever formed.  Every pass kind
takes the same blocks, so the log likelihood does not depend on the kind.
A pass that spreads needs a chunk's S before it spreads the chunk, so it
keeps the chunk's blocks side by side, at most 32 n_j predictors.  A wider
chunk would not pay on a small stratum: its band grows with the width, and
every entry of the band is exponentiated only for the mask to discard it.
The predictors are formed on the K side: with ``U = Xs Theta`` (n_j x K),
made once per stratum, a block's predictors are ``B_g U_blk'``, whose
inner dimension is K, not P.
Each chunk is exponentiated unshifted, so no row max or subtraction runs
where its risk-set sums S all lie in [1e-250, 1e250].  A chunk whose S
leave that range, which takes a predictor above about 575 or a risk set
whose predictors all lie below about -575, is made again with each risk
set's exact max over all of the chunk's blocks as its shift.
Where U is all zero, as at every fit's start Theta = 0, each risk weight is
exactly 1: S_g is the risk-set size L_g, the means are prefix sums, and the
pass makes no GEMM and no exponential.  Every pass that computes first
moments writes every stratum's risk-set means into one m x P array over
all event times and keeps that array on its report, from which
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
and each pair (p, q) gets its K x K block.  Its weights
``d (mean of x_p x_q - zbar_p zbar_q)`` are written over the pair's
moment means, and its block is made over the basis pairs k <= l that are
both non-zero at some event time, entry (k, l) mirrored to (l, k), so
that each block is exactly symmetric.  The full Hessian takes one of
two forms: the product form, from the pairs p <= q, or the separable form,
which uses

    sum_g d_g B_g B_g' (x) sum_i w_gi x_i x_i'  =  sum_i (x_i x_i') (x) C_i,
    C_i = sum_g d_g w_gi B_g B_g',

so the pass spreads the entries k <= l of each d_g B_g B_g' over its
risk set instead.  B-splines have local support, so B_k B_l is zero at
every event time for basis functions far enough apart (a cubic basis: four
or more); only the pairs whose functions are both non-zero at some event
time are spread, and every other entry of the Hessian is zero.  Each
spread pair t = (k, l) has one P x P block, whose entry (p, q) is entry
(k, l), and entry (l, k), of the Hessian's K x K block (p, q).  The
stratified likelihood is a sum over strata, and both terms of the block
are sums over rows, so it is one difference of two Grams over all strata,

    Z'Z - Y'Y,   Z = Zbar sqrt(W_t),   Y = Xs sqrt(C_t),

made after the strata's passes: ``W_t = d B_k B_l`` over every stratum's
event times and ``Zbar`` their risk-set means, ``C_t`` over every
stratum's rows and ``Xs`` their covariates, each Gram over the rows where
its weights are non-zero.  Both weights are non-negative where the basis
is, which every B-spline basis is, and the separable form requires it of
the event times' basis rows.  numpy computes each Gram ``A'A`` as an
exactly symmetric product, so the blocks, and Hf, are exactly symmetric.
So the pass holds C over every row (n x T), the weights over every event
time (m x T) and the means (m x P) until the Grams are made;
``_weighted_gram`` gathers each Gram's rows a chunk at a time into one
buffer, so no n x P*T array is formed.  The T pairs' P x P blocks are
made, and C and the weights released, before Hf is allocated, so Hf is
held beside the blocks only, and beside no chunk loop's buffers.
Each form's extra pass columns are its cost, so the separable form is used
exactly when P(P+1)/2 > K(K+1)/2, that is when P > K.

The score residuals ``psi_e = (x_e - zbar_e) (x) B(T_e)`` are products of
two factors, the centred covariates (n_events x P) and the basis rows
(n_events x K), and ``score_residuals`` keeps those instead of Psi.  Their
sum is ``(x - zbar)' B``, and the empirical information V = Psi' Psi is
built block by block: block (k, l) is ``C_k' C_l`` with
``C_k = (x - zbar) * B_k``, over the events where both basis functions are
non-zero, for the pairs that are both non-zero at some event.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import RiskIndex, SurvivalDataset
from .errors import CapacityError, InvalidSpecError, NumericOverflowError
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
_CHUNK_ENTRIES = 1 << 16   # entries per row block of a pass or per Gram row chunk: 512 KiB
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
    ``risk_set_means`` is the pass's one m x P array of the risk-weighted
    means of the covariates over the risk sets of the index's m distinct
    event times, every stratum's in index order (stratum j's rows are
    ``index.strata[j].times``); a pass that computes no first moments
    (loglik only) leaves it None.
    """

    theta: np.ndarray            # P x K
    loglik: float
    gradient: np.ndarray | None  # flat, PK
    block_hessians: np.ndarray | None  # P x K x K
    full_hessian: np.ndarray | None    # PK x PK
    risk_set_means: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    """Per-event score residuals and the empirical information.

    The residual of event e is the flattened (x_e - zbar_e) outer B(T_e);
    the residuals sum to the gradient, and V = Psi' Psi estimates the
    information without second derivatives.  The bundle keeps the two
    factors of the residuals, ``centered`` (x_e - zbar_e) and
    ``basis_rows`` (B(T_e)), one row per entry of ``event_rows``, and
    ``psi`` forms the n_events x PK residuals from them each time it is read.
    """

    event_rows: np.ndarray  # original dataset rows, one per event
    total: np.ndarray       # column sum of the residuals, equals the gradient
    V: np.ndarray           # PK x PK
    centered: np.ndarray | None = field(default=None, repr=False)    # n_events x P
    basis_rows: np.ndarray | None = field(default=None, repr=False)  # n_events x K
    # ridged inverse of V (the empirical covariance), kept by the first
    # inference call that needs it and shared by the Wald tests
    _V_inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def psi(self) -> np.ndarray:
        """The n_events x PK residuals, row e the flattened ``centered[e]`` outer ``basis_rows[e]``."""
        D, B = self.centered, self.basis_rows
        return (D[:, :, None] * B[:, None, :]).reshape(D.shape[0], -1)


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
    risk set by the risk weights, ``C += E (W / S)``.  Without ``spread``
    every row block of every chunk is written into one buffer of at most
    ``_CHUNK_ENTRIES`` predictors; with it, the pass holds one chunk's
    blocks side by side, at most ``_CHUNK_TIMES`` n predictors.
    Where ``U`` is all zero, ``_uniform_pass`` gives the same outputs in
    closed form.
    """
    if not U.any():
        return _uniform_pass(s, A, spread)
    return _chunk_loop(s, Bg, U, A, spread)


def _chunk_loop(s, Bg, U, A, spread):
    """``_risk_set_pass``'s outputs, a chunk of at most ``_CHUNK_TIMES`` event times at a time.

    A chunk of event times ``[a, b)`` reads the rows ``[0, L[b-1])``, taken
    in row blocks of ``_CHUNK_ENTRIES // _CHUNK_TIMES`` rows, so a block
    holds at most ``_CHUNK_ENTRIES`` predictors; S and the moments are sums
    over the blocks of ``E_blk @ ones`` and ``E_blk @ A_blk``.  Every pass
    kind takes the same blocks, so S, and the log likelihood, do not depend
    on the pass kind.  A pass without ``spread`` writes every block into one
    buffer.  A spreading pass needs S before it spreads, so it keeps a
    chunk's blocks side by side in a buffer of the chunk's width times the
    stratum's rows, and spreads them once S is known.
    """
    n, m = s.order.size, s.dt.size
    step = max(1, _CHUNK_ENTRIES // _CHUNK_TIMES)  # rows per block
    ones = np.ones(min(step, n))
    lse = np.empty(m)
    means = np.empty((m, 0 if A is None else A.shape[1]))
    buf = np.empty(min(_CHUNK_TIMES, m) * (n if spread is not None else min(step, n)))
    # row n - k of the stairs (3n bytes, a view) is k entries False, then
    # True: the mask of a block's band for an event time whose risk set ends
    # k rows into it.  A broadcast comparison would make each mask with
    # buffers of up to 128 KiB
    steps = np.zeros(3 * n, bool)
    steps[n:] = True
    stairs = np.ndarray((2 * n + 1, n), bool, steps, strides=(1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, m, _CHUNK_TIMES):
            b = min(a + _CHUNK_TIMES, m)
            Ba, La = Bg[a:b], s.L[a:b]
            rows, lo = int(La[-1]), int(La[0])  # rows before lo are in every risk set
            blocks = [(r, min(r + step, rows)) for r in range(0, rows, step)]

            def predictors(r0, r1, check=False):
                """The block's predictors, each row one event time; its entries
                outside the risk sets -inf, so that they exponentiate to 0."""
                at = (b - a) * r0 if spread is not None else 0
                eta = np.matmul(Ba, U[r0:r1].T, out=buf[at:at + (b - a) * (r1 - r0)]
                                .reshape(b - a, r1 - r0))
                if check:
                    finite = np.all(np.isfinite(eta), axis=0)
                    if not finite.all():
                        row = s.order[r0 + np.flatnonzero(~finite)[0]]
                        raise NumericOverflowError(
                            f"non-finite linear predictor for subject row {int(row)}")
                c = max(lo, r0)
                if c < r1:
                    np.copyto(eta[:, c - r0:], -np.inf, where=stairs[n + c - La, :r1 - c])
                return eta

            def sums(shift):
                """S of the chunk's exponentials, shifted by ``shift``; their moments
                ``E'A`` are written into the chunk's rows of the means."""
                for r0, r1 in blocks:
                    eta = predictors(r0, r1)
                    if shift is not None:
                        eta -= shift[:, None]
                    E = np.exp(eta, out=eta)
                    if r0 == 0:
                        S = E @ ones[:r1]
                        if A is not None:
                            np.matmul(E, A[:r1], out=means[a:b])
                    else:
                        S += E @ ones[:r1 - r0]
                        if A is not None:
                            means[a:b] += E @ A[r0:r1]
                return S

            S = sums(None)  # unshifted
            shift = 0.0
            # every weight is at most S, so within the range E @ A overflows
            # only for moments beyond about 1e58
            if not np.all((S >= _S_FLOOR) & (S <= 1 / _S_FLOOR)):
                # sums out of range, or a non-finite predictor: each event
                # time's exact max over every block as its shift
                shift = np.full(b - a, -np.inf)
                for r0, r1 in blocks:
                    np.maximum(shift, predictors(r0, r1, check=True).max(axis=1), out=shift)
                S = sums(shift)
            lse[a:b] = np.log(S) + shift
            if A is not None:
                means[a:b] /= S[:, None]
            if spread is not None:
                W, C = spread
                V = W[a:b] / S[:, None]
                for r0, r1 in blocks:
                    E = buf[(b - a) * r0:(b - a) * r1].reshape(b - a, r1 - r0)
                    C[r0:r1] += E.T @ V
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


def _weighted_gram(M, w):
    """``M' diag(w) M`` (P x P) for an n x P ``M`` and non-negative weights ``w``.

    The Gram ``A' A`` of ``A = M sqrt(w)`` over the rows where ``w`` is
    non-zero, gathered a row chunk of at most ``_CHUNK_ENTRIES`` entries,
    but at least P rows, at a time, so a chunk's P x P product is never
    larger than the chunk; every chunk is written into one buffer.  numpy
    computes each ``A' A`` as an exactly symmetric product, so their sum is
    exactly symmetric.
    """
    rows, P = w.nonzero()[0], M.shape[1]
    step = max(P, _CHUNK_ENTRIES // P)
    buf = np.empty((min(rows.size, step), P))
    out = np.zeros((P, P))
    for r in range(0, rows.size, step):
        chunk = rows[r:r + step]
        A = np.take(M, chunk, axis=0, out=buf[:chunk.size], mode="clip")  # unbuffered
        A *= np.sqrt(w[chunk, None])
        out += A.T @ A
    return out


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(need: int, what: str) -> None:
    """Raise ``CapacityError`` when ``need`` bytes exceed the machine's physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise CapacityError(f"{what} needs about {need / 2**30:.1f} GiB, "
                            f"more than the {have / 2**30:.1f} GiB of physical memory")


def _pass_bytes(index: RiskIndex, P: int, K: int, form: str) -> int:
    """Bytes of the largest arrays a pass of ``form`` holds at once.

    ``form`` is ``"blocks"`` (the gradient and the P diagonal Hessian
    blocks), or the full Hessian's ``"product"`` or ``"separable"`` form,
    counted together with a Newton iteration's solve of it.  Held
    throughout: the gradient and the risk-set means of every stratum (m x P
    over all strata).  A stratum's pass is counted at the largest stratum:
    the vector of ones, U (n x K), Bg (m x K), the one buffer of linear
    predictors that every row block reuses and its band mask at a byte an
    entry (at most ``_CHUNK_ENTRIES`` entries each; the separable form's
    spreading pass keeps a chunk's blocks side by side, so at most
    ``_CHUNK_TIMES`` n), and for each form its own arrays (see the comments
    below).  Each stratum's arrays are released before the next stratum's
    pass, so they are counted once.  A full pass hands Hf to the solve, which ridges it in
    place; the Cholesky factor and LAPACK's copy of Hf in the solve are two
    more arrays of its size.  The separable form is counted with all
    K(K+1)/2 basis pairs; it spreads only the pairs that overlap at some
    event time, so its count is an upper bound.
    """
    # the largest stratum's rows and event times
    n, m = (int((a[1:] - a[:-1]).max()) for a in (index.row_starts, index.time_starts))
    rows, times = index.order.size, index.dt.size  # over all strata
    step = n if form == "separable" else min(n, max(1, _CHUNK_ENTRIES // _CHUNK_TIMES))
    chunk = min(_CHUNK_TIMES, m) * step
    # the moment array [Xs, pair products] and its risk-set means, over
    # which the pairs' weights are written; then the basis products B_k B_l
    # of the basis pairs k <= l (m x T), and the pair blocks over those
    # pairs and as K x K blocks, counted with room to spare as m x (2 pairs
    # + K^2) and 3 pairs x K^2 entries.  A separable pass builds the P
    # diagonal pairs' blocks when asked for them too, so they are counted
    # for it as for a blocks pass
    pairs = P * (P + 1) // 2 if form == "product" else P
    entries = n * (1 + K) + m * K + chunk
    entries += n * (P + pairs) + m * (P + 3 * pairs + K * K) + 3 * pairs * K * K
    if form == "product":
        entries += 3 * (P * K) ** 2  # Hf beside its solve
    elif form == "separable":
        T = K * (K + 1) // 2
        # one _weighted_gram: the rows it reads, its chunk buffer, the
        # chunk's square-root weights, its product and their sum; beside it
        # the pair's other Gram
        gram = rows + min(rows, max(P, _CHUNK_ENTRIES // P)) * (P + 2) + 3 * P * P
        # the largest of four stages that follow one another: the event
        # times' basis rows and two of their pair products beside the spread
        # weights; a stratum's pass beside C over every row, the weights and
        # one C-sized addition to C; the T P x P pair blocks beside C, the
        # weights, a Gram and any diagonal pair blocks; Hf beside the solve's
        # factor and LAPACK's copy of it, which outweighs the blocks beside Hf
        spread = (rows + times) * T
        entries = max(times * (K + 3 * T), entries + spread + n * T,
                      spread + T * P * P + gram + pairs * K * K, 3 * (P * K) ** 2)
    return 8 * (entries + P * times + P * K) + chunk


def _residual_bytes(index: RiskIndex, P: int, K: int) -> int:
    """Bytes of the largest arrays ``score_residuals`` holds at once.

    Over all n_e events: five index vectors (the event rows and their
    means' rows, the time order and both reordered); the centred
    covariates and the risk-set means subtracted from them, or later two
    blocks' factors C_k and C_l; the basis rows and two non-zero masks of
    them; then V, a P x P block and the column sum.  The means passed in,
    and a gradient pass made when none are, are not counted.
    """
    e = index.n_events
    return 8 * (e * (5 + 3 * P + K) + (P * K) ** 2 + P * P + P * K) + 2 * e * K


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
        ``FULL_HESSIAN_GUARD``, or a full or a blocks pass would need more
        bytes than the machine's physical memory.
    InvalidSpecError
        If the full Hessian takes the separable form (P > K) and the basis
        row of an event time is negative somewhere: the form takes square
        roots of d B_k B_l.  No basis this package builds has a negative
        entry.
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
        form = "separable" if separable else "product"
        _require_memory(_pass_bytes(index, P, K, form), "full Hessian pass")
    elif want_blocks:
        _require_memory(_pass_bytes(index, P, K, "blocks"), "Hessian blocks pass")

    # covariate pairs (p, q) whose K x K blocks the pass builds
    pairs = (np.triu_indices(P) if want_full and not separable
             else (np.arange(P),) * 2 if want_blocks else None)
    ll = 0.0
    Zbar = None  # every stratum's risk-set means, made once the first stratum's pass returns
    G = np.zeros((P, K)) if (want_gradient or want_full) else None
    if pairs is not None or separable:
        # the basis rows of every stratum's event times, the only rows a pass reads
        Bg = basis.values[index.event_rows[index.event_starts[:-1]]]
        # the basis pairs k <= l that are both non-zero at some event time;
        # every other pair's B_k B_l is zero at every event time
        ku = np.nonzero(np.triu((Bg != 0).T @ (Bg != 0)))
    if pairs is not None:
        # entries (k, l) of the covariate pairs' K x K blocks, over the basis pairs ku
        pair_blocks = np.zeros((pairs[0].size, ku[0].size))
    if separable:
        if (Bg < 0).any():
            raise InvalidSpecError("the separable full Hessian needs non-negative basis rows")
        # each spread pair's weights d B_k B_l at every event time, and the
        # spread C over every row, both over all strata
        Wt = Bg[:, ku[0]] * Bg[:, ku[1]]
        Wt *= index.d[:, None]
        C = np.zeros((index.order.size, ku[0].size))
    Bg = None

    for s in index.strata:
        Bg, U = _factors(s, basis.values, Theta)
        A = None if G is None else s.Xs
        if pairs is not None:
            # the covariates and their pair products side by side, one moment
            # array; a product at a time, so no n x pairs temporary is made
            A = np.empty((s.order.size, P + pairs[0].size))
            A[:, :P] = s.Xs
            for c, (p, q) in enumerate(zip(*pairs)):
                np.multiply(s.Xs[:, p], s.Xs[:, q], out=A[:, P + c])
        spread = (Wt[s.times], C[s.rows]) if separable else None
        lse, means = _risk_set_pass(s, Bg, U, A, spread)
        A = None  # released before the means are read
        ll += float((s.SX * (Bg @ Theta.T)).sum() - (s.d * lse).sum())
        if means.shape[1]:  # the pass computed first moments
            if Zbar is None:  # a gradient pass over one stratum returns them all
                Zbar = means if means.shape == (index.dt.size, P) else np.empty((index.dt.size, P))
            Zbar[s.times] = means[:, :P]  # nothing to copy where Zbar is the means
        if G is not None:
            G += (s.SX - s.d[:, None] * Zbar[s.times]).T @ Bg
        if pairs is not None:
            # each pair's weights d (mean of x_p x_q - zbar_p zbar_q), written
            # over its moment means, and the basis products B_k B_l of ku
            W, Z = means[:, P:], Zbar[s.times]
            for c, (p, q) in enumerate(zip(*pairs)):
                W[:, c] -= Z[:, p] * Z[:, q]
            W *= s.d[:, None]
            BB = np.empty((Bg.shape[0], ku[0].size))
            for t, (k, l) in enumerate(zip(*ku)):
                np.multiply(Bg[:, k], Bg[:, l], out=BB[:, t])
            pair_blocks += W.T @ BB
        # released before the next stratum's pass allocates its own
        Bg = U = lse = means = W = BB = spread = None

    if separable:
        # each spread pair's P x P block over all strata, made before Hf;
        # its Grams are exactly symmetric, so the block, and Hf, are too
        spread_blocks = np.empty((ku[0].size, P, P))
        for t in range(ku[0].size):
            spread_blocks[t] = _weighted_gram(Zbar, Wt[:, t]) - _weighted_gram(index.Xs, C[:, t])
        C = Wt = None
    if pairs is not None:
        # each covariate pair's K x K block, entry (k, l) and its mirror (l, k)
        # from one sum, so that every block is exactly symmetric
        upper, pair_blocks = pair_blocks, np.zeros((pairs[0].size, K, K))
        pair_blocks[:, ku[0], ku[1]] = pair_blocks[:, ku[1], ku[0]] = upper
        upper = None
    Hf = np.zeros((P * K, P * K)) if want_full else None
    H4 = Hf.reshape(P, K, P, K) if want_full else None  # block (p, q) is H4[p, :, q, :]
    if separable:
        # spread pair (k, l)'s block is entry (k, l) of every K x K block, and entry (l, k)
        H4[:, ku[0], :, ku[1]] = H4[:, ku[1], :, ku[0]] = spread_blocks
    elif want_full:
        H4[pairs[0], :, pairs[1], :] = H4[pairs[1], :, pairs[0], :] = -pair_blocks

    return LikelihoodReport(
        theta=Theta.copy(),
        loglik=ll,
        gradient=G.reshape(-1) if G is not None else None,
        block_hessians=-pair_blocks[pairs[0] == pairs[1]] if want_blocks else None,
        full_hessian=Hf,
        risk_set_means=Zbar,
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
    """Per-event residual factors, their sum and the empirical information V = Psi' Psi.

    ``risk_set_means`` are the risk-set means of a pass made at theta, as
    ``LikelihoodReport.risk_set_means`` or ``FitResult.risk_set_means`` keep
    them; the residuals are then built from them with no risk-set pass.
    Without them, one gradient pass at theta computes them.  The events are
    taken in order of time, so the events where a basis function is
    non-zero are one run of rows, and each block of V is made over the rows
    where both of its functions can be non-zero; Psi itself is not formed.

    Raises
    ------
    CapacityError
        If the residuals and V would need more bytes than the machine's
        physical memory.
    """
    P, K = dataset.P, basis.values.shape[1]
    _require_memory(_residual_bytes(index, P, K), "score residuals")
    if risk_set_means is None:
        risk_set_means = evaluate_report(dataset, index, basis, theta).risk_set_means
    # each event's row of the means, which hold every stratum's event times in index order
    group = np.repeat(np.arange(index.dt.size), np.diff(index.event_starts))
    by_time = np.argsort(dataset.time[index.event_rows], kind="stable")
    rows, group = index.event_rows[by_time], group[by_time]
    centered = dataset.covariates[rows]
    centered -= risk_set_means[group]
    group = by_time = None  # released before the basis rows and V
    B = basis.values[rows]
    nz = B != 0
    overlap = nz.T @ nz  # the basis pairs that are both non-zero at some event
    # each basis function's run of events [first, stop) where it is non-zero
    first, stop = nz.argmax(axis=0), len(nz) - nz[::-1].argmax(axis=0)
    V = np.zeros((P * K, P * K))
    V4 = V.reshape(P, K, P, K)  # block (k, l) of the basis pairs is V4[:, k, :, l]
    for k in range(K):
        if not overlap[k, k]:
            continue
        Ck = centered[first[k]:stop[k]] * B[first[k]:stop[k], k, None]
        V4[:, k, :, k] = Ck.T @ Ck  # a symmetric product
        for l in range(k + 1, K):
            if overlap[k, l]:
                a, b = max(first[k], first[l]), min(stop[k], stop[l])
                block = Ck[a - first[k]:b - first[k]].T @ (centered[a:b] * B[a:b, l, None])
                V4[:, k, :, l] = block
                V4[:, l, :, k] = block.T
    return ScoreResiduals(event_rows=rows, total=(centered.T @ B).reshape(-1), V=V,
                          centered=centered, basis_rows=B)
