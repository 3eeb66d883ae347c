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
``1' E`` of a vector of ones with the risk weights, and the weighted
moments a separate product ``A' E`` over one moment array ``A``, which
holds the requested columns only, written side by side for one stratum
at a time by its pass: the covariates, and the products of the covariate
pairs whose Hessian blocks the pass builds (see below).  A loglik-only
pass and a full-Hessian pass at the same theta therefore report the same
value, bit for bit, which the ascent guard, the Armijo test and the
stopping rules rely on when they compare values from different passes.

Each stratum is evaluated in one pass over its distinct event times, in
fixed-width chunks of columns.  The pass writes the stratum's log
denominators and risk-set means straight into its rows of one array of
each over all m event times of all strata; the log likelihood, the
gradient and the pair weights below are then made once over those
arrays and the index's flat arrays.  Because the prefix lengths ``L``
ascend, a chunk of event times ``[a, b)`` reads only the first
``L[b-1]`` rows of the ordering, and only the band of rows
``[L[a], L[b-1])`` lies outside some of its risk sets; those entries are
set to ``-inf`` before exponentiation.  A chunk spans at most 32 event
times, whatever the stratum size, and reads its rows in row blocks of at
most 2048 (``_CHUNK_ENTRIES // _CHUNK_TIMES``), so a block holds at most
2^16 linear predictors.  S and the moments are sums over the blocks, and
every block of a pass is written into the same buffer, so a pass without
a spread holds 512 KiB of predictors whatever the stratum size, and no
n_j x m array is ever formed.  Every pass kind takes the same blocks, so
the log likelihood does not depend on the kind.  A pass that spreads
needs a chunk's S before it spreads the chunk, so it keeps the chunk's
blocks one after another, at most 32 n_j predictors.  A wider chunk
would not pay on a small stratum: its band grows with the width, and
every entry of the band is exponentiated only for the mask to discard
it.  The predictors are formed on the K side: with ``U = Xs Theta``
(n_j x K), made by the stratum's pass and released with it, a block is a
(rows x event times) array ``U_blk B_a'``, whose inner dimension is K,
not P, and its S and moments are ``1' E_blk`` and ``A_blk' E_blk``.
OpenBLAS runs the predictor and moment products faster in this shape
than in the (event times x rows) block ``B_a U_blk'`` (see
``_chunk_loop``).
Each chunk is exponentiated unshifted, so no row max or subtraction runs
where its risk-set sums S all lie in [1e-250, 1e250].  A chunk whose S
leave that range, which takes a predictor above about 575 or a risk set
whose predictors all lie below about -575, is made again with each risk
set's exact max over all of the chunk's blocks as its shift.
Where Theta is all zero, as at every fit's start, each risk weight is
exactly 1: S_g is the risk-set size L_g, the means are prefix sums, and
the pass makes no GEMM and no exponential.  Every pass that computes
first moments keeps the m x P risk-set means of the covariates over all
event times on its report, from which ``score_residuals`` builds the
residuals without a pass of its own.
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
moment means, and its block is one product over the event times of all
strata, made over the basis pairs k <= l that are both non-zero at some
event time, entry (k, l) mirrored to (l, k), so that each block is
exactly symmetric.  The full Hessian takes one of
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


def _moments(Xs, width, pairs):
    """A stratum's moment array of ``width`` columns, None for no columns.

    Its covariates ``Xs``, and beside them the products of the covariate
    ``pairs`` (two index arrays), made a product at a time so that no rows
    x pairs temporary is made.
    """
    P = Xs.shape[1]
    if width <= P:
        return Xs if width else None
    A = np.empty((Xs.shape[0], width))
    A[:, :P] = Xs
    for c, (p, q) in enumerate(zip(*pairs)):
        np.multiply(Xs[:, p], Xs[:, q], out=A[:, P + c])
    return A


def _chunk_loop(s, Bg, Theta, lse, means, pairs=None, spread=None):
    """Risk-set log denominators and weighted means for one stratum, written in place.

    ``Bg`` (m x K) holds the basis rows of the stratum's m distinct event
    times, and ``U = Xs Theta`` (n x K) is made here, so ``U Bg'`` are the
    linear predictors, one row per subject and one column per event time; a
    non-finite U is reported by subject.  The moment array ``A``, one row per
    subject in ``s.order``, has as many columns as ``means``: none, the
    covariates, or the covariates and the products of the covariate
    ``pairs`` (see ``_moments``); it and U are held for this stratum only.
    Writes ``log S_g + shift_g`` for every event time g into ``lse`` (m),
    where S_g sums the shifted exponentials over the risk set ``order[:L[g]]``
    and shift_g is 0, or the largest predictor in the risk set for a chunk
    whose unshifted sums leave ``[_S_FLOOR, 1 / _S_FLOOR]``; and the risk-
    weighted means ``(A'E / S)'`` into ``means`` (m x columns).  Both are
    the stratum's rows of the pass's arrays over all event times.
    S is always its own product ``ones @ E``, whatever ``A`` holds, so the
    log denominators do not depend on the moments requested; the moments
    come from one ``A' @ E``, and without A from no product.
    ``spread``, if given, is a pair ``(W, C)`` of arrays with one row per
    event time and one row per subject: each row of W is spread over its
    risk set by the risk weights, ``C += E (W / S)``.
    Where Theta is all zero, ``_uniform_pass`` gives the same outputs in
    closed form.

    The event times are taken a chunk of at most ``_CHUNK_TIMES`` at a time.
    A chunk of event times ``[a, b)`` reads the rows ``[0, L[b-1])``, taken
    in row blocks of ``_CHUNK_ENTRIES // _CHUNK_TIMES`` rows, so a block
    holds at most ``_CHUNK_ENTRIES`` predictors.  A block is a (rows x
    times) array: its predictors are ``U_blk @ BaT``, with ``BaT`` a
    contiguous K x times copy of the chunk's basis rows made once per
    chunk.  Its rows from ``L[a]`` on, the band outside some of the chunk's
    risk sets, are masked with a transposed view of the stairs below.  S
    and the moments are sums over the blocks of ``ones_blk @ E_blk`` and
    ``A_blk' @ E_blk``; the moments, a (columns x times) array, are divided
    by S and written into the chunk's rows of the means transposed.  Every
    pass kind takes the same blocks and makes S with the same call, so S,
    and the log likelihood, do not depend on the pass kind.  A pass without
    ``spread`` writes every block into one buffer of at most
    ``_CHUNK_ENTRIES`` predictors.  A spreading pass needs S before it
    spreads, so it writes a chunk's blocks one after another into a buffer
    of the stratum's rows times the chunk's width, at most ``_CHUNK_TIMES``
    n predictors, and spreads them a block at a time once S is known; one
    product over all of the chunk's rows would add a temporary of rows x
    spread pairs.

    The blocks are (rows x times), not (times x rows), because OpenBLAS
    runs the pass's products faster in this shape.  Median us per 2048 x 32
    block, 2 BLAS threads on 2 vCPUs (numpy 2.4, OpenBLAS), (times x rows)
    against (rows x times): the predictors 55 against 19-26; the moments of
    14 columns (a product-form full pass at P=4) 82-86 against 46-53, of 4
    columns 33-35 against 15-20, and of 40 columns 214-246 against 175-284.
    ``exp`` and S take the same time in either shape.
    """
    n, m = s.order.size, s.dt.size
    step = max(1, _CHUNK_ENTRIES // _CHUNK_TIMES)  # rows per block
    ones = np.ones(min(step, n))
    A = _moments(s.Xs, means.shape[1], pairs)
    buf = np.empty(min(_CHUNK_TIMES, m) * (n if spread is not None else min(step, n)))
    # row n - k of the stairs (3n bytes, a view) is k entries False, then
    # True: transposed, the mask of a block's band for an event time whose
    # risk set ends k rows into it.  A broadcast comparison would make each
    # mask with buffers of up to 128 KiB
    steps = np.zeros(3 * n, bool)
    steps[n:] = True
    stairs = np.ndarray((2 * n + 1, n), bool, steps, strides=(1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        U = s.Xs @ Theta
        for a in range(0, m, _CHUNK_TIMES):
            b = min(a + _CHUNK_TIMES, m)
            w, BaT, La = b - a, np.ascontiguousarray(Bg[a:b].T), s.L[a:b]
            rows, lo = int(La[-1]), int(La[0])  # rows before lo are in every risk set
            blocks = [(r, min(r + step, rows)) for r in range(0, rows, step)]

            def predictors(r0, r1, check=False):
                """The block's predictors, each column one event time; its entries
                outside the risk sets -inf, so that they exponentiate to 0."""
                at = w * r0 if spread is not None else 0
                eta = np.matmul(U[r0:r1], BaT, out=buf[at:at + w * (r1 - r0)]
                                .reshape(r1 - r0, w))
                if check:
                    finite = np.all(np.isfinite(eta), axis=1)
                    if not finite.all():
                        row = s.order[r0 + np.flatnonzero(~finite)[0]]
                        raise NumericOverflowError(
                            f"non-finite linear predictor for subject row {int(row)}")
                c = max(lo, r0)
                if c < r1:
                    np.copyto(eta[c - r0:], -np.inf, where=stairs[n + c - La, :r1 - c].T)
                return eta

            def sums(shift):
                """S of the chunk's exponentials, shifted by ``shift``, and their
                moments ``A'E`` (columns x times; None without A)."""
                M = None
                for r0, r1 in blocks:
                    eta = predictors(r0, r1)
                    if shift is not None:
                        eta -= shift
                    E = np.exp(eta, out=eta)
                    if r0 == 0:
                        S = ones[:r1] @ E
                        if A is not None:
                            M = A[:r1].T @ E
                    else:
                        S += ones[:r1 - r0] @ E
                        if A is not None:
                            M += A[r0:r1].T @ E
                return S, M

            S, M = sums(None)  # unshifted
            shift = 0.0
            # every weight is at most S, so within the range A'E overflows
            # only for moments beyond about 1e58
            if not np.all((S >= _S_FLOOR) & (S <= 1 / _S_FLOOR)):
                # sums out of range, or a non-finite predictor: each event
                # time's exact max over every block as its shift
                shift = np.full(w, -np.inf)
                for r0, r1 in blocks:
                    np.maximum(shift, predictors(r0, r1, check=True).max(axis=0), out=shift)
                S, M = sums(shift)
            lse[a:b] = np.log(S) + shift
            if A is not None:
                M /= S
                means[a:b] = M.T
            if spread is not None:
                W, C = spread
                V = W[a:b].T / S  # T x times, used transposed
                for r0, r1 in blocks:
                    C[r0:r1] += buf[w * r0:w * r1].reshape(r1 - r0, w) @ V.T


def _uniform_pass(s, Bg, Theta, lse, means, pairs=None, spread=None):
    """``_chunk_loop``'s outputs where Theta, and so every linear predictor, is zero.

    It takes ``_chunk_loop``'s arguments and reads neither ``Bg`` nor
    ``Theta``.  Each risk weight is exactly 1, so S_g = L_g, the means are
    prefix sums over each event time's new rows ``[L[g-1], L[g])``, and row
    i of the spread is the sum of ``W_g / L_g`` over the event times whose
    risk sets hold it, a reverse cumulative sum.
    """
    L = s.L
    new = np.r_[0, L[:-1]]  # first row of each event time's new rows
    np.log(L, out=lse)
    A = _moments(s.Xs, means.shape[1], pairs)
    if A is not None:
        np.add.reduceat(A[:L[-1]], new, axis=0, out=means)
        np.cumsum(means, axis=0, out=means)
        means /= L[:, None]
    if spread is not None:
        W, C = spread
        R = np.cumsum((W / L[:, None])[::-1], axis=0)[::-1]
        C[:L[-1]] += np.repeat(R, L - new, axis=0)


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
    throughout, over all m event times of all strata: their basis rows Bg
    (m x K), their log denominators (m) and their moment means (m x
    columns: the covariates and the covariate pairs' products), into which
    every stratum's pass writes its rows; then the gradient and the m x P
    risk-set means that the report keeps.  Beside them, the larger of two
    stages that follow one another.  First a stratum's pass, counted at the
    largest stratum: the vector of ones, U (n x K), the moment array (n x
    columns), the one buffer of linear predictors that every row block
    reuses and its band mask at a byte an entry (at most ``_CHUNK_ENTRIES``
    entries each; the separable form's spreading pass keeps a chunk's blocks
    one after another, so at most ``_CHUNK_TIMES`` n); each stratum's arrays
    are released before the next stratum's pass, so they are counted once.
    Then the sums over every event time, whose largest temporary is
    counted as m x (P + K^2): an m x P product, or the basis products
    B_k B_l of the basis pairs k <= l beside a column.  A full pass hands
    Hf to the solve, which ridges it in place; the Cholesky factor and
    LAPACK's copy of Hf in the solve are two more arrays of its size.  The
    separable form is counted with all K(K+1)/2 basis pairs; it spreads
    only the pairs that overlap at some event time, so its count is an
    upper bound.  A fixed 8 KiB counts what is not an array of these sizes.
    """
    # the largest stratum's rows and event times
    n, m = (int((a[1:] - a[:-1]).max()) for a in (index.row_starts, index.time_starts))
    rows, times = index.order.size, index.dt.size  # over all strata
    step = n if form == "separable" else min(n, max(1, _CHUNK_ENTRIES // _CHUNK_TIMES))
    chunk = min(_CHUNK_TIMES, m) * step
    # the moment array's columns beyond the covariates: its covariate pairs.
    # A separable pass builds the P diagonal pairs' blocks when asked for
    # them too, so they are counted for it as for a blocks pass
    pairs = P * (P + 1) // 2 if form == "product" else P
    # the pair blocks over the basis pairs and as K x K blocks, counted with
    # room to spare as 3 pairs x K^2 entries
    entries = (times * (K + 1 + P + pairs) + 3 * pairs * K * K
               + max(n * (1 + K + P + pairs) + chunk, times * (P + K * K)))
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
        # weights; the strata's passes and the sums after them beside C
        # over every row, the weights and one C-sized addition to C; the T
        # P x P pair blocks beside C, the weights, a Gram and any diagonal
        # pair blocks; Hf beside the solve's factor and LAPACK's copy of it,
        # which outweighs the blocks beside Hf
        spread = (rows + times) * T
        entries = max(times * (K + 3 * T), entries + spread + n * T,
                      spread + T * P * P + gram + pairs * K * K, 3 * (P * K) ** 2)
    # and 8 KiB for the pass's Python objects and small temporaries, about
    # 6 KiB beyond its arrays on a stratum of 120
    return 8 * (entries + P * times + P * K) + chunk + 8192


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
    # the basis rows of every stratum's event times, the only rows a pass reads
    Bg = basis.values[index.event_rows[index.event_starts[:-1]]]
    if pairs is not None or separable:
        # the basis pairs k <= l that are both non-zero at some event time;
        # every other pair's B_k B_l is zero at every event time
        ku = np.nonzero(np.triu((Bg != 0).T @ (Bg != 0)))
    if separable:
        if (Bg < 0).any():
            raise InvalidSpecError("the separable full Hessian needs non-negative basis rows")
        # each spread pair's weights d B_k B_l at every event time, and the
        # spread C over every row, both over all strata
        Wt = Bg[:, ku[0]] * Bg[:, ku[1]]
        Wt *= index.d[:, None]
        C = np.zeros((index.order.size, ku[0].size))

    # every event time's log denominator and moment means, each stratum's
    # rows written in place by its pass: the covariates' means, and beside
    # them the pairs' products' means
    m = index.dt.size
    lse = np.empty(m)
    means = np.empty((m, 0 if not (want_gradient or want_full or want_blocks)
                      else P if pairs is None else P + pairs[0].size))
    stratum_pass = _chunk_loop if Theta.any() else _uniform_pass
    for s in index.strata:
        stratum_pass(s, Bg[s.times], Theta, lse[s.times], means[s.times], pairs,
                     (Wt[s.times], C[s.rows]) if separable else None)

    # the rest once over every event time, an m x P temporary at a time,
    # each written in place
    eta = Bg @ Theta.T
    ll = float(np.multiply(eta, index.SX, out=eta).sum() - (index.d * lse).sum())
    Zbar = means[:, :P] if means.shape[1] else None
    G = eta = lse = None
    if want_gradient or want_full:
        R = index.d[:, None] * Zbar
        G = np.subtract(index.SX, R, out=R).T @ Bg
        R = None
    if pairs is not None:
        # each pair's weights d (mean of x_p x_q - zbar_p zbar_q), written
        # over its moment means, and the basis products B_k B_l of ku; then
        # entries (k, l) of the covariate pairs' K x K blocks
        W = means[:, P:]
        for c, (p, q) in enumerate(zip(*pairs)):
            W[:, c] -= Zbar[:, p] * Zbar[:, q]
        W *= index.d[:, None]
        BB = np.empty((m, ku[0].size))
        for t, (k, l) in enumerate(zip(*ku)):
            np.multiply(Bg[:, k], Bg[:, l], out=BB[:, t])
        pair_blocks = W.T @ BB
        W = BB = None
        # the means alone outlive the pass, not the pairs' weights beside them
        Zbar = Zbar.copy()
    means = Bg = None

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
