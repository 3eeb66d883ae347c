import tracemalloc
import types

import numpy as np
import pytest

import tvcox as tv
import tvcox.likelihood as likelihood_module
from tvcox import CapacityError, InvalidSpecError, NumericOverflowError
from tvcox.likelihood import as_matrix, as_vector, evaluate_report

from conftest import make_instance
from reference import brute_loglik, brute_score_residuals, fd_gradient, fd_hessian


def report_for(ds, spec, theta, **kw):
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    return evaluate_report(ds, index, basis, theta, **kw)


# frozen desk values, derived by hand and cross-checked by brute force:
# ll(0) = -log 6, grad(0) = -1/6, hess(0) = -17/36,
# residuals {1/3, -1/2}, V = 13/36
D0_LL0 = -1.791759469228055
D0_GRAD0 = -1.0 / 6.0
D0_HESS0 = -17.0 / 36.0
D0_V = 13.0 / 36.0


class TestD0:
    def test_loglik_at_zero(self, d0):
        ds, spec = d0
        rep = report_for(ds, spec, np.zeros((1, 1)))
        assert rep.loglik == pytest.approx(D0_LL0, abs=1e-12)

    def test_gradient_at_zero(self, d0):
        ds, spec = d0
        rep = report_for(ds, spec, np.zeros((1, 1)))
        assert rep.gradient[0] == pytest.approx(D0_GRAD0, abs=1e-12)

    def test_hessian_at_zero(self, d0):
        ds, spec = d0
        rep = report_for(ds, spec, np.zeros((1, 1)), want_blocks=True, want_full=True)
        assert rep.block_hessians[0][0, 0] == pytest.approx(D0_HESS0, abs=1e-12)
        assert rep.full_hessian[0, 0] == pytest.approx(D0_HESS0, abs=1e-12)

    def test_score_residuals_at_zero(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time)
        res = tv.score_residuals(ds, tv.build_risk_index(ds), basis, np.zeros((1, 1)))
        np.testing.assert_allclose(np.sort(res.psi.ravel()), [-0.5, 1 / 3], atol=1e-12)
        assert res.V[0, 0] == pytest.approx(D0_V, abs=1e-12)
        # residuals sum to the gradient
        assert res.total[0] == pytest.approx(D0_GRAD0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_loglik_matches_brute_force(seed):
    ds, spec, basis, index = make_instance(seed, n=50, P=2, K=3)
    rng = np.random.default_rng(seed + 100)
    for _ in range(3):
        theta = rng.normal(0, 0.4, (ds.P, spec.K))
        got = evaluate_report(ds, index, basis, theta, want_gradient=False).loglik
        want = brute_loglik(ds, basis.values, theta)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_gradient_matches_finite_differences(seed):
    ds, spec, basis, index = make_instance(seed, n=40, P=2, K=3)
    rng = np.random.default_rng(seed + 7)
    theta = rng.normal(0, 0.3, (ds.P, spec.K))
    got = evaluate_report(ds, index, basis, theta).gradient
    want = fd_gradient(lambda v: brute_loglik(ds, basis.values, v), theta)
    np.testing.assert_allclose(got, want, rtol=2e-7, atol=2e-7)


@pytest.mark.parametrize("seed", range(3))
def test_hessians_match_finite_differences(seed):
    ds, spec, basis, index = make_instance(seed, n=35, P=2, K=3)
    rng = np.random.default_rng(seed + 17)
    theta = rng.normal(0, 0.3, (ds.P, spec.K))
    rep = evaluate_report(ds, index, basis, theta, want_blocks=True, want_full=True)

    def grad(v):
        return evaluate_report(ds, index, basis, v).gradient

    H = fd_hessian(grad, theta)
    np.testing.assert_allclose(rep.full_hessian, H, rtol=1e-6, atol=1e-6)
    K = spec.K
    for p in range(ds.P):
        np.testing.assert_allclose(rep.block_hessians[p],
                                   H[p * K:(p + 1) * K, p * K:(p + 1) * K],
                                   rtol=1e-6, atol=1e-6)


def test_full_hessian_diagonal_blocks_equal_block_hessians():
    ds, spec, basis, index = make_instance(21, n=70, P=3, K=4)
    theta = np.random.default_rng(0).normal(0, 0.2, (3, 4))
    rep = evaluate_report(ds, index, basis, theta, want_blocks=True, want_full=True)
    K = spec.K
    for p in range(ds.P):
        np.testing.assert_allclose(
            rep.block_hessians[p],
            rep.full_hessian[p * K:(p + 1) * K, p * K:(p + 1) * K], atol=1e-12)
    # symmetry
    np.testing.assert_allclose(rep.full_hessian, rep.full_hessian.T, atol=1e-12)


def test_score_residuals_match_brute_force_and_sum_to_gradient():
    ds, spec, basis, index = make_instance(31, n=45, P=2, K=3)
    theta = np.random.default_rng(5).normal(0, 0.3, (2, 3))
    res = tv.score_residuals(ds, index, basis, theta)
    order, want = brute_score_residuals(ds, basis.values, theta)
    got = {int(r): res.psi[i] for i, r in enumerate(res.event_rows)}
    for i, r in enumerate(order):
        np.testing.assert_allclose(got[int(r)], want[i], atol=1e-10)
    grad = evaluate_report(ds, index, basis, theta).gradient
    np.testing.assert_allclose(res.psi.sum(axis=0), grad, atol=1e-10)
    np.testing.assert_allclose(res.V, res.psi.T @ res.psi, atol=1e-12)
    # V is PSD
    assert np.linalg.eigvalsh(0.5 * (res.V + res.V.T)).min() > -1e-10


def test_permutation_invariance():
    ds, spec, basis, index = make_instance(41, n=60, P=2, K=3)
    theta = np.random.default_rng(2).normal(0, 0.3, (2, 3))
    rep = evaluate_report(ds, index, basis, theta, want_blocks=True, want_full=True)
    perm = np.random.default_rng(3).permutation(ds.n)
    ds2 = ds.subset(perm)
    rep2 = report_for(ds2, spec, theta, want_blocks=True, want_full=True)
    assert rep2.loglik == pytest.approx(rep.loglik, rel=1e-12)
    np.testing.assert_allclose(rep2.gradient, rep.gradient, atol=1e-10)
    np.testing.assert_allclose(rep2.full_hessian, rep.full_hessian, atol=1e-10)


def test_stratum_isolation():
    # evaluating strata together equals summing their separate evaluations
    ds, spec, basis, index = make_instance(51, n=80, P=2, K=3, J=3)
    theta = np.random.default_rng(4).normal(0, 0.3, (2, 3))
    whole = evaluate_report(ds, index, basis, theta).loglik
    parts = 0.0
    for j in range(ds.J):
        rows = np.flatnonzero(ds.stratum == j)
        if ds.status[rows].sum() == 0:
            continue
        parts += report_for(ds.subset(rows), spec, theta).loglik
    assert whole == pytest.approx(parts, rel=1e-12)


def test_covariate_shift_invariance():
    # adding a constant to a covariate cancels within each risk-set ratio
    ds, spec, basis, index = make_instance(61, n=50, P=2, K=3)
    theta = np.random.default_rng(6).normal(0, 0.3, (2, 3))
    base = evaluate_report(ds, index, basis, theta).loglik
    shifted = tv.SurvivalDataset(ds.time, ds.status, ds.stratum, ds.stratum_labels,
                                 ds.covariates + np.array([3.0, -1.5]),
                                 ds.covariate_names)
    assert report_for(shifted, spec, theta).loglik == pytest.approx(base, rel=1e-10)


def test_concavity_along_random_segments():
    ds, spec, basis, index = make_instance(71, n=40, P=2, K=3)
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.normal(0, 0.5, (2, 3))
        b = rng.normal(0, 0.5, (2, 3))
        la = evaluate_report(ds, index, basis, a, want_gradient=False).loglik
        lb = evaluate_report(ds, index, basis, b, want_gradient=False).loglik
        lm = evaluate_report(ds, index, basis, 0.5 * (a + b),
                             want_gradient=False).loglik
        assert lm >= 0.5 * (la + lb) - 1e-9


def test_ties_share_denominator(d0):
    # duplicate event times must produce one denominator per distinct time:
    # 2 tied events among 3 subjects at theta=0 with x=(1,0,1)
    ds = tv.SurvivalDataset(np.array([1.0, 1.0, 2.0]), np.array([1, 1, 0]),
                            np.zeros(3, dtype=np.int64), ("s",),
                            np.array([[1.0], [0.0], [1.0]]), ("x",))
    _, spec = d0
    rep = report_for(ds, spec, np.zeros((1, 1)))
    # both events see the full 3-subject denominator: 2 * -log(3)
    assert rep.loglik == pytest.approx(-2 * np.log(3), abs=1e-12)


def test_capacity_guard(monkeypatch):
    ds, spec, basis, index = make_instance(81, n=30, P=2, K=3)
    monkeypatch.setattr(likelihood_module, "FULL_HESSIAN_GUARD", 5)
    with pytest.raises(CapacityError):
        evaluate_report(ds, index, basis, np.zeros((2, 3)), want_full=True)


def test_overflow_names_a_subject():
    ds, spec, basis, index = make_instance(91, n=30, P=2, K=3)
    theta = np.full((2, 3), 1e308)
    with pytest.raises(NumericOverflowError):
        evaluate_report(ds, index, basis, theta, want_gradient=False)
    with pytest.raises(NumericOverflowError):
        evaluate_report(ds, index, basis, np.full((2, 3), np.nan), want_gradient=False)


def test_vec_conventions_round_trip():
    m = np.arange(12.0).reshape(3, 4)
    assert as_matrix(as_vector(m, 3, 4), 3, 4).tolist() == m.tolist()
    np.testing.assert_array_equal(as_vector(m, 3, 4), np.arange(12.0))


def test_as_matrix_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match=r"theta must have shape \(2,3\) or \(6,\), got \(5,\)"):
        as_matrix(np.zeros(5), 2, 3)


def test_score_residuals_reject_non_finite_coefficients():
    ds, spec, basis, index = make_instance(92, n=30, P=2, K=3)
    theta = np.zeros((2, 3))
    theta[1, 2] = np.nan
    with pytest.raises(NumericOverflowError, match="non-finite coefficients"):
        tv.score_residuals(ds, index, basis, theta)


def test_report_flags_control_outputs():
    ds, spec, basis, index = make_instance(101, n=25, P=2, K=3)
    rep = evaluate_report(ds, index, basis, np.zeros((2, 3)), want_gradient=False)
    assert rep.gradient is None and rep.block_hessians is None
    rep = evaluate_report(ds, index, basis, np.zeros((2, 3)))
    assert rep.gradient is not None and rep.full_hessian is None


PASS_KINDS = {"loglik": dict(want_gradient=False), "gradient": {},
              "blocks": dict(want_blocks=True), "full": dict(want_full=True)}


# (n, P, K, J, seed) of setting-1 scenarios: P <= K and P > K (the product
# and separable full Hessians), small enough for the brute-force oracle
# and past 4000 subjects
@pytest.mark.parametrize("n,P,K,J,seed", [
    (300, 3, 5, 1, 100), (800, 6, 4, 2, 101), (2000, 4, 5, 3, 102), (4000, 8, 5, 2, 104)])
def test_every_pass_kind_reports_the_same_loglik(n, P, K, J, seed):
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, J=J, seed=seed))
    spec = tv.make_spec(degree=min(3, K - 1), K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    rng = np.random.default_rng(seed - 100)
    for scale in (0.15, 0.3, 0.45):
        theta = rng.normal(0, scale, (P, K))
        lls = {kind: evaluate_report(ds, index, basis, theta, **kw).loglik
               for kind, kw in PASS_KINDS.items()}
        assert len(set(lls.values())) == 1, lls
        if n <= 800:
            assert lls["loglik"] == pytest.approx(brute_loglik(ds, basis.values, theta),
                                                  rel=1e-10)


@pytest.mark.parametrize("P,K", [(2, 3), (3, 3), (5, 2), (6, 3)])
def test_blocks_pass_equals_diagonal_of_full_pass(P, K):
    # P <= K builds the full Hessian in the product form, P > K separably
    ds, spec, basis, index = make_instance(211, n=90, P=P, K=K, degree=min(2, K - 1))
    theta = np.random.default_rng(19).normal(0, 0.3, (P, K))
    blocks = evaluate_report(ds, index, basis, theta, want_gradient=False,
                             want_blocks=True).block_hessians
    full = evaluate_report(ds, index, basis, theta, want_full=True).full_hessian
    assert blocks.shape == (P, K, K)
    for p in range(P):
        np.testing.assert_allclose(blocks[p], full[p * K:(p + 1) * K, p * K:(p + 1) * K],
                                   rtol=1e-12, atol=1e-12 * np.abs(full).max())


# The risk-set pass walks each stratum's distinct event times in chunks of
# at most _CHUNK_TIMES.  Shrinking the constant makes the small instances
# below split into many chunks: width 1 gives one event time per chunk,
# width 3 a few event times per chunk, with a band of rows outside some of
# each chunk's risk sets.  The ids name the entry budgets (1 and 60 linear
# predictors) that gave these widths on the instances' strata of about 20
# subjects, when the width was derived from _CHUNK_ENTRIES.
MULTI_CHUNK = [pytest.param(1, id="1"), pytest.param(3, id="60")]


def _chunk_count(s, width):
    return -(-s.dt.size // width)


def _event_basis_rows(s, basis):
    """The basis rows of the stratum's distinct event times."""
    return basis.values[s.event_rows[s.event_starts[:-1]]]


def _all_outputs(ds, index, basis, theta):
    rep = evaluate_report(ds, index, basis, theta, want_blocks=True, want_full=True)
    res = tv.score_residuals(ds, index, basis, theta)
    return [np.array(rep.loglik), rep.gradient, rep.block_hessians,
            rep.full_hessian, res.psi]


def _assert_matches_brute_force(ds, index, basis, theta, rep):
    """The loglik, gradient and score residuals against the brute-force oracles."""
    assert rep.loglik == pytest.approx(brute_loglik(ds, basis.values, theta),
                                       rel=1e-12, abs=1e-12)
    want = fd_gradient(lambda v: brute_loglik(ds, basis.values, v), theta)
    np.testing.assert_allclose(rep.gradient, want, rtol=2e-7, atol=2e-7)
    res = tv.score_residuals(ds, index, basis, theta)
    order, psi = brute_score_residuals(ds, basis.values, theta)
    got = {int(r): res.psi[i] for i, r in enumerate(res.event_rows)}
    for i, r in enumerate(order):
        np.testing.assert_allclose(got[int(r)], psi[i], atol=1e-10)


def _multi_chunk_instances(width):
    """The inputs of the multi-chunk oracle test, at chunks of ``width`` event times.

    Two strata of about 20, each in three or more chunks; and the product
    form (P <= K) on the 20 unequal strata of ``_many_strata_instance``,
    among them one-subject and eventless strata, whose passes write their
    rows of the arrays over all event times at 16 offsets.
    """
    ds, spec, basis, index = make_instance(111, n=40, P=2, K=3)
    assert min(_chunk_count(s, width) for s in index.strata) >= 3
    yield ds, basis, index
    ds, _, basis = _many_strata_instance(261, P=3, K=4)
    index = tv.build_risk_index(ds)
    assert len(index.strata) >= 16 and max(_chunk_count(s, width) for s in index.strata) >= 3
    yield ds, basis, index


@pytest.mark.parametrize("width", MULTI_CHUNK)
def test_multi_chunk_pass_matches_oracles(width, monkeypatch):
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", width)
    for ds, basis, index in _multi_chunk_instances(width):
        P, K = ds.P, basis.values.shape[1]
        assert P <= K  # the product form
        # Theta = 0 takes the closed form, a random theta the chunk loop
        for theta in (np.zeros((P, K)), np.random.default_rng(12).normal(0, 0.3, (P, K))):
            reps = {kind: evaluate_report(ds, index, basis, theta, want_blocks=True, **kw)
                    if kind == "full" else evaluate_report(ds, index, basis, theta, **kw)
                    for kind, kw in PASS_KINDS.items()}
            assert len({r.loglik for r in reps.values()}) == 1
            rep = reps["full"]
            _assert_matches_brute_force(ds, index, basis, theta, rep)
            for kind in ("gradient", "blocks"):
                np.testing.assert_allclose(reps[kind].risk_set_means, rep.risk_set_means,
                                           rtol=1e-12, atol=1e-12)
            H = fd_hessian(lambda v: evaluate_report(ds, index, basis, v).gradient, theta)
            np.testing.assert_allclose(rep.full_hessian, H, rtol=1e-6, atol=1e-6)
            for blocks in (rep.block_hessians, reps["blocks"].block_hessians):
                for p in range(P):
                    np.testing.assert_allclose(blocks[p], H[p * K:(p + 1) * K, p * K:(p + 1) * K],
                                               rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("width", MULTI_CHUNK)
def test_multi_chunk_equals_single_chunk(width, monkeypatch):
    ds, spec, basis, index = make_instance(121, n=90, P=3, K=4, J=2)
    theta = np.random.default_rng(13).normal(0, 0.3, (ds.P, spec.K))
    assert all(_chunk_count(s, likelihood_module._CHUNK_TIMES) == 1
               for s in index.strata)
    assert min(_chunk_count(s, width) for s in index.strata) >= 3
    single = _all_outputs(ds, index, basis, theta)
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", width)
    many = _all_outputs(ds, index, basis, theta)
    for want, got in zip(single, many):
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("width", MULTI_CHUNK)
def test_multi_chunk_tied_events_share_one_denominator(width, monkeypatch):
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", width)
    ds, spec, basis, index = make_instance(131, n=60, P=2, K=3)
    assert any(s.d.max() > 1 for s in index.strata)  # the instance has ties
    theta = np.random.default_rng(14).normal(0, 0.4, (ds.P, spec.K))
    for s in index.strata:
        Bg = _event_basis_rows(s, basis)
        lse = np.full(s.dt.size, np.nan)
        likelihood_module._chunk_loop(s, Bg, theta, lse, np.empty((s.dt.size, 0)))
        assert lse.shape == (s.dt.size,)
        stratum = ds.stratum[s.order[0]]
        for g, t in enumerate(s.dt):
            at_risk = (ds.stratum == stratum) & (ds.time >= t)
            eta = ds.covariates[at_risk] @ (theta @ Bg[g])
            want = eta.max() + np.log(np.exp(eta - eta.max()).sum())
            assert lse[g] == pytest.approx(want, rel=1e-12, abs=1e-12)
            # every event tied at t has exactly this risk set
            tied = s.event_rows[s.event_starts[g]:s.event_starts[g + 1]]
            assert np.all(ds.time[tied] == t)
            assert tied.size == s.d[g]


def test_overflow_in_a_later_chunk_names_the_subject(monkeypatch):
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", 1)
    ds, spec, basis, _ = make_instance(141, n=30, P=2, K=3, J=1)
    # the earliest event is at risk only at the earliest event time, which
    # is the last column of the pass: every earlier chunk stays finite
    events = np.flatnonzero(ds.status == 1)
    row = int(events[np.argmin(ds.time[events])])
    X = ds.covariates.copy()
    X[row] = 1e308
    big = tv.SurvivalDataset(ds.time, ds.status, ds.stratum, ds.stratum_labels,
                             X, ds.covariate_names)
    index = tv.build_risk_index(big)
    assert index.strata[0].dt.size > 1
    with pytest.raises(NumericOverflowError, match=f"subject row {row}$"):
        evaluate_report(big, index, basis, np.ones((2, 3)), want_gradient=False)


def test_pass_memory_is_linear_in_stratum_size():
    # one stratum of 20000: a dense n x m float64 array would be ~1.7 GB
    rng = np.random.default_rng(151)
    n = 20000
    ds = tv.SurvivalDataset(
        time=rng.exponential(1.0, n), status=(rng.random(n) < 0.55).astype(int),
        stratum=np.zeros(n, dtype=np.int64), stratum_labels=("s",),
        covariates=rng.standard_normal((n, 2)), covariate_names=("x0", "x1"))
    spec = tv.make_spec(degree=2, K=4, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    theta = rng.normal(0, 0.3, (2, 4))
    tracemalloc.start()
    try:
        index = tv.build_risk_index(ds)
        ll = tv.loglik(ds, index, basis, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(ll)
    assert peak < 64 * 2 ** 20
    (s,) = index.strata
    dense = s.order.size * s.dt.size
    for name in s.__slots__:
        assert np.asarray(getattr(s, name)).size < dense, name


# With P > K the full Hessian takes the separable form: the pass spreads
# d_g B_g B_g' over each risk set and row-chunked weighted Grams give each
# spread basis pair's second moments and mean term.  Every instance above
# has P <= K and takes the product form.
SEPARABLE = [(4, 3), (5, 2)]


def _separable_instance(seed, P, K, n=60, J=2):
    return make_instance(seed, n=n, P=P, K=K, J=J, degree=min(2, K - 1))


def _count_separable_strata(monkeypatch):
    """One entry per stratum whose risk-set pass spreads basis pairs."""
    return _record_spread_pairs(monkeypatch)


def _record_gram_chunks(monkeypatch):
    """The number of row chunks of every weighted Gram a pass makes."""
    chunks = []
    real = likelihood_module._weighted_gram

    def recorded(M, w):
        n, P = M.shape
        chunks.append(-(-n // max(P, likelihood_module._CHUNK_ENTRIES // P)))
        return real(M, w)
    monkeypatch.setattr(likelihood_module, "_weighted_gram", recorded)
    return chunks


def _assert_full_hessian_matches_fd(ds, index, basis, theta):
    rep = evaluate_report(ds, index, basis, theta, want_blocks=True, want_full=True)
    H = fd_hessian(lambda v: evaluate_report(ds, index, basis, v).gradient, theta)
    np.testing.assert_allclose(rep.full_hessian, H, rtol=1e-6, atol=1e-6)
    K = basis.values.shape[1]
    for p in range(ds.P):
        np.testing.assert_allclose(rep.block_hessians[p],
                                   rep.full_hessian[p * K:(p + 1) * K, p * K:(p + 1) * K],
                                   rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(rep.full_hessian, rep.full_hessian.T)
    return rep


@pytest.mark.parametrize("P,K", SEPARABLE)
def test_separable_hessian_matches_finite_differences(P, K, monkeypatch):
    ds, spec, basis, index = _separable_instance(161, P, K)
    assert len(index.strata) == 2
    calls = _count_separable_strata(monkeypatch)
    theta = np.random.default_rng(15).normal(0, 0.3, (P, K))
    _assert_full_hessian_matches_fd(ds, index, basis, theta)
    assert len(calls) == 2  # one separable assembly per stratum: the separable form ran


# both constants shrunk: a pass of many event-time chunks, and weighted
# Grams in many row chunks of at most `chunk` entries (the test id)
@pytest.mark.parametrize("P,K", SEPARABLE)
@pytest.mark.parametrize("chunk, width", [(1, 1), (60, 3)], ids=["1", "60"])
def test_separable_hessian_in_many_chunks(P, K, chunk, width, monkeypatch):
    monkeypatch.setattr(likelihood_module, "_CHUNK_ENTRIES", chunk)
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", width)
    ds, spec, basis, index = _separable_instance(171, P, K)
    for s in index.strata:
        assert _chunk_count(s, width) >= 3
    calls = _count_separable_strata(monkeypatch)
    theta = np.random.default_rng(16).normal(0, 0.3, (P, K))
    chunks = _record_gram_chunks(monkeypatch)
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    assert len(calls) == len(index.strata)
    assert sum(c > 1 for c in chunks) >= 3  # Grams made in more than one chunk
    _assert_matches_brute_force(ds, index, basis, theta, rep)
    monkeypatch.undo()
    whole = evaluate_report(ds, index, basis, theta, want_full=True).full_hessian
    np.testing.assert_allclose(rep.full_hessian, whole, rtol=1e-12,
                               atol=1e-12 * np.abs(whole).max())


def test_separable_and_product_forms_agree(monkeypatch):
    # the same Hessian from both forms: the product form at P <= K, and the
    # separable form on the same data padded with covariates fixed at zero
    ds, spec, basis, index = make_instance(181, n=70, P=2, K=3)
    theta = np.random.default_rng(17).normal(0, 0.3, (2, 3))
    product = evaluate_report(ds, index, basis, theta, want_full=True).full_hessian
    wide = tv.SurvivalDataset(ds.time, ds.status, ds.stratum, ds.stratum_labels,
                              np.hstack([ds.covariates, np.zeros((ds.n, 2))]),
                              ds.covariate_names + ("z0", "z1"))
    calls = _count_separable_strata(monkeypatch)
    separable = evaluate_report(wide, tv.build_risk_index(wide), basis,
                                np.vstack([theta, np.zeros((2, 3))]),
                                want_full=True).full_hessian
    assert calls
    np.testing.assert_allclose(separable[:6, :6], product, rtol=1e-12,
                               atol=1e-12 * np.abs(product).max())
    assert not separable[6:].any() and not separable[:, 6:].any()


def _record_spread_pairs(monkeypatch):
    """The number of basis pairs each separable stratum's pass spreads, in either of its forms."""
    widths = []
    for name in ("_chunk_loop", "_uniform_pass"):
        def recorded(s, Bg, Theta, lse, means, pairs, spread, real=getattr(likelihood_module, name)):
            if spread is not None:
                widths.append(spread[0].shape[1])
            return real(s, Bg, Theta, lse, means, pairs, spread)
        monkeypatch.setattr(likelihood_module, name, recorded)
    return widths


def test_pruned_separable_hessian_matches_oracles(monkeypatch):
    # cubic, K=6: basis functions four or more apart are never both non-zero,
    # so 3 of the K(K+1)/2 = 21 pairs are zero at every event time
    P, K = 7, 6
    ds, spec, basis, index = make_instance(211, n=80, P=P, K=K, degree=3)
    widths = _record_spread_pairs(monkeypatch)
    theta = np.random.default_rng(22).normal(0, 0.3, (P, K))
    _assert_full_hessian_matches_fd(ds, index, basis, theta)
    assert widths and max(widths) < K * (K + 1) // 2

    # the product form on P=3 <= K against the pruned separable form on the
    # same data padded with covariates fixed at zero
    ds, spec, basis, index = make_instance(212, n=80, P=3, K=K, degree=3)
    theta = np.random.default_rng(23).normal(0, 0.3, (3, K))
    product = evaluate_report(ds, index, basis, theta, want_full=True).full_hessian
    wide = tv.SurvivalDataset(ds.time, ds.status, ds.stratum, ds.stratum_labels,
                              np.hstack([ds.covariates, np.zeros((ds.n, 4))]),
                              ds.covariate_names + tuple(f"z{i}" for i in range(4)))
    widths.clear()
    separable = evaluate_report(wide, tv.build_risk_index(wide), basis,
                                np.vstack([theta, np.zeros((4, K))]),
                                want_full=True).full_hessian
    assert widths and max(widths) < K * (K + 1) // 2
    np.testing.assert_allclose(separable[:3 * K, :3 * K], product, rtol=1e-12,
                               atol=1e-12 * np.abs(product).max())
    assert not separable[3 * K:].any() and not separable[:, 3 * K:].any()


def test_loglik_pass_holds_one_chunk_of_predictors():
    # every row block's predictors go into one buffer of _CHUNK_ENTRIES
    # entries; beside it the pass holds arrays of n x (K + 1) and m x K
    # entries, under three quarters of the buffer, where a second buffer
    # would double it
    n, P, K = 4000, 2, 5
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=11))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(24).normal(0, 0.3, (P, K))
    (s,) = index.strata
    assert s.dt.size > 10 * likelihood_module._CHUNK_TIMES
    assert n > likelihood_module._CHUNK_ENTRIES // likelihood_module._CHUNK_TIMES  # two blocks
    chunk = 8 * likelihood_module._CHUNK_ENTRIES
    tracemalloc.start()
    try:
        tv.loglik(ds, index, basis, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chunk <= peak < 1.75 * chunk


def test_blocks_pass_holds_one_moment_array():
    # the covariates and their squares are written once, into one n x 2P
    # moment array; beside it the pass holds U (n x (K + 1)) and one chunk
    # of at most m n predictors, m = 20 event times here, together under
    # half of it, where a concatenated copy of the moments would add half again
    n, P, K = 2000, 64, 5
    rng = np.random.default_rng(27)
    ds = tv.SurvivalDataset(
        time=rng.integers(1, 21, n).astype(float), status=rng.random(n) < 0.7,
        stratum=np.zeros(n, dtype=np.int64), stratum_labels=("s",),
        covariates=rng.standard_normal((n, P)),
        covariate_names=tuple(f"x{p}" for p in range(P)))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = rng.normal(0, 0.05, (P, K))
    (s,) = index.strata
    assert s.dt.size <= 20
    moments = 8 * n * 2 * P
    tracemalloc.start()
    try:
        evaluate_report(ds, index, basis, theta, want_blocks=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moments <= peak < 1.5 * moments


def test_separable_pass_reuses_bounded_chunk_buffers():
    # n=2000, P=40, K=8 (PK=320, 26 spread pairs, about 1000 event times):
    # each spread pair's two weighted Grams are made a row chunk at a time,
    # in one buffer of under 1 MiB, before Hf (0.8 MiB) is allocated.  A
    # fresh 2 MiB chunk made before the last is freed, the whole m x PK
    # mean-term array (2.5 MiB) and a transposed copy of Hf to symmetrize it
    # peaked at 6.3 MiB
    n, P, K = 2000, 40, 8
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=11))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(28).normal(0, 0.05, (P, K))
    tracemalloc.start()
    try:
        H = evaluate_report(ds, index, basis, theta, want_full=True).full_hessian
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(H, H.T)
    assert peak < 4.5 * 2 ** 20


def test_separable_pass_peaks_below_hf_its_second_moments_and_a_span_product():
    # n=1000, P=200, K=5, cubic (PK=1000, T=14 spread pairs): Hf (7.6 MiB)
    # beside the T pairs' P x P blocks (4.3 MiB) and small buffers.  Forming
    # each basis-span run's (P w) x (P w) mean-term product (4.9 MiB at
    # w = degree + 1) beside them peaked at 19.4 MiB
    n, P, K = 1000, 200, 5
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=11))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    nz = basis.values[ds.status == 1] != 0
    T = np.count_nonzero(np.triu(nz.T @ nz))
    assert T == 14
    theta = np.random.default_rng(29).normal(0, 0.01, (P, K))
    tracemalloc.start()
    try:
        H = evaluate_report(ds, index, basis, theta, want_full=True).full_hessian
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(H, H.T)
    assert peak < 8 * ((P * K) ** 2 + T * P * P + (P * 4) ** 2)


def test_separable_hessian_with_strata_of_disjoint_event_times(monkeypatch):
    # stratum 1's times all follow stratum 0's, so the basis functions of the
    # early times have no event in stratum 1 and those of the late times none
    # in stratum 0: some spread pairs add nothing in one stratum
    P, K = 6, 5
    ds, _, _, _ = make_instance(241, n=70, P=P, K=K, J=2)
    late = ds.stratum == 1
    ds = tv.SurvivalDataset(np.where(late, ds.time + 10.0, ds.time), ds.status, ds.stratum,
                            ds.stratum_labels, ds.covariates, ds.covariate_names)
    spec = tv.make_spec(degree=2, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    per_stratum = [basis.values[s.event_rows] != 0 for s in index.strata]
    spread = [np.triu(nz.T @ nz) for nz in per_stratum]
    assert len(spread) == 2 and (spread[0] != spread[1]).any()
    calls = _count_separable_strata(monkeypatch)
    theta = np.random.default_rng(31).normal(0, 0.3, (P, K))
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    assert len(calls) == 2
    _assert_matches_brute_force(ds, index, basis, theta, rep)


def _many_strata_instance(seed, P, K, J=20):
    # J unequal strata in shuffled rows with tied times, among them
    # one-subject strata with and without an event and eventless strata
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 14, J)
    sizes[[0, 5, 11]] = 1
    stratum = np.repeat(np.arange(J), sizes)
    rng.shuffle(stratum)
    time = np.round(rng.exponential(1.0, stratum.size), 1)
    status = (rng.random(stratum.size) < 0.6) & ~np.isin(stratum, [3, 5, 14])
    status[stratum == 0] = True
    X = rng.standard_normal((stratum.size, P))
    names = tuple(f"x{p}" for p in range(P))
    with pytest.warns(UserWarning, match="zero events"):
        ds = tv.SurvivalDataset(time, status, stratum, tuple(f"s{j}" for j in range(J)), X, names)
    one = tv.SurvivalDataset(time, status, np.zeros(stratum.size, dtype=np.int64), ("s",), X, names)
    basis = tv.evaluate_batch(tv.make_spec(degree=2, K=K, event_times=ds.event_times), ds.time)
    return ds, one, basis


def test_separable_hessian_on_many_small_strata_makes_two_grams_per_spread_pair(monkeypatch):
    # 20 strata of 1 to 13 subjects, three of them eventless: each spread
    # pair's two Grams are made once over every stratum's rows and event
    # times, so a separable pass makes 2 T of them whatever the number of strata
    P, K = 6, 5
    ds, one, basis = _many_strata_instance(261, P, K)
    index = tv.build_risk_index(ds)
    sizes, events = np.bincount(ds.stratum), np.bincount(ds.stratum, weights=ds.status)
    assert len(index.strata) == np.count_nonzero(events) >= 16
    assert sizes[0] == sizes[5] == 1 and events[0] == 1 and events[5] == 0
    nz = basis.values[ds.status == 1] != 0
    T = np.count_nonzero(np.triu(nz.T @ nz))
    assert 0 < T < K * (K + 1) // 2
    calls = _count_separable_strata(monkeypatch)
    grams = _record_gram_chunks(monkeypatch)
    theta = np.random.default_rng(33).normal(0, 0.3, (P, K))
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    assert len(calls) == len(index.strata)  # one separable assembly per stratum with events
    assert len(grams) == 2 * T
    _assert_matches_brute_force(ds, index, basis, theta, rep)
    # the same rows in one stratum: as many Grams
    grams.clear()
    evaluate_report(one, tv.build_risk_index(one), basis, theta, want_full=True)
    assert len(grams) == 2 * T


def test_separable_hessian_refuses_a_negative_basis():
    # the separable form takes square roots of d B_k B_l: a hand-made basis
    # with a negative entry at an event is refused before the pass
    P, K = 4, 3
    ds, spec, basis, index = _separable_instance(251, P, K)
    values = basis.values.copy()
    values[np.flatnonzero(ds.status == 1)[0], 1] = -0.25
    negative = tv.BasisMatrix(times=basis.times, values=values)
    theta = np.zeros((P, K))
    with pytest.raises(InvalidSpecError, match="non-negative"):
        evaluate_report(ds, index, negative, theta, want_full=True)
    # the other passes, and the product form at P <= K, do not take roots
    evaluate_report(ds, index, negative, theta, want_blocks=True)
    narrow = tv.SurvivalDataset(ds.time, ds.status, ds.stratum, ds.stratum_labels,
                                ds.covariates[:, :K], ds.covariate_names[:K])
    evaluate_report(narrow, tv.build_risk_index(narrow), negative, np.zeros((K, K)),
                    want_full=True)


def test_weighted_gram_is_exactly_symmetric_in_any_number_of_chunks(monkeypatch):
    rng = np.random.default_rng(41)
    n, P = 2000, 7
    M = rng.standard_normal((n, P))
    w = rng.exponential(1.0, n)
    w[::3] = 0.0
    want = (M * w[:, None]).T @ M
    gram = likelihood_module._weighted_gram
    assert not gram(M, np.zeros(n)).any()
    for chunk in (1 << 16, 64, 1):
        monkeypatch.setattr(likelihood_module, "_CHUNK_ENTRIES", chunk)
        tracemalloc.start()
        try:
            got = gram(M, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if chunk < n * P:
            # chunks of P rows or 64 entries, every one in one buffer, where
            # a Gram of M in one piece holds a chunk of all n rows
            assert peak < M.nbytes / 4
        else:
            assert peak >= M.nbytes


@pytest.mark.parametrize("P,K", [(2, 3), (4, 3)])
def test_chunk_width_floor_matches_oracles(P, K, monkeypatch):
    # the chunk width is _CHUNK_TIMES at every stratum size: an entry budget
    # that once narrowed it to max(1, 40 // 40) = 1 here no longer does
    monkeypatch.setattr(likelihood_module, "_CHUNK_ENTRIES", 40)
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", 5)
    ds, spec, basis, index = make_instance(191, n=40, P=P, K=K, J=1)
    (s,) = index.strata
    assert s.order.size == 40 and _chunk_count(s, 5) >= 3
    M = np.random.default_rng(21).normal(0, 0.3, (s.dt.size, P))
    times, _ = _predictors_computed(s, M)
    assert times[:-1] == [5] * (len(times) - 1) and 1 <= times[-1] <= 5
    theta = np.random.default_rng(18).normal(0, 0.3, (P, K))
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    _assert_matches_brute_force(ds, index, basis, theta, rep)


def _predictors_computed(s, M):
    """Event times and rows of every chunk the risk-set pass over s computes."""
    times, blocks = _chunk_reads(s, M, np.eye(M.shape[1]))  # U = Xs
    rows = [sum(r1 - r0 for r0, r1 in b) for b in blocks]  # the chunk's row blocks' reads
    assert len(times) == len(rows) and sum(times) == s.dt.size
    return times, rows


def _chunk_reads(s, Bg, Theta):
    """Each chunk's event times, and the row blocks ``(r0, r1)`` the pass over s reads for it.

    A chunk reads its rows a block at a time from row 0 on, so a read from
    row 0 starts the next chunk's reads.  The pass makes ``U = Xs Theta``,
    which is a ``RecordedU`` like the covariates it is made from.
    """
    reads = {"Bg": [], "U": []}

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, slice):  # a chunk's rows
                reads[self.name].append(key)
            return np.asarray(self)[key]

    class RecordedBg(Recorded):
        name = "Bg"

    class RecordedU(Recorded):
        name = "U"

    m = s.dt.size
    spy = types.SimpleNamespace(order=s.order, dt=s.dt, L=s.L, Xs=s.Xs.view(RecordedU))
    likelihood_module._chunk_loop(spy, Bg.view(RecordedBg), Theta, np.empty(m),
                                  np.empty((m, 0)))
    blocks = []
    for k in reads["U"]:
        if k.start == 0:
            blocks.append([])
        blocks[-1].append((k.start, k.stop))
    return [k.stop - k.start for k in reads["Bg"]], blocks


@pytest.mark.parametrize("n", [400, 800, 2000, 8000])
def test_chunks_compute_few_predictors_outside_the_risk_sets(n):
    # a chunk of event times [a, b) computes (b - a) L[b-1] linear
    # predictors, where its risk sets hold sum L[a:b]; the band between is
    # exponentiated and then masked out, so wide chunks on small strata waste it
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=2, seed=11))
    (s,) = tv.build_risk_index(ds).strata
    M = np.random.default_rng(20).normal(0, 0.3, (s.dt.size, 2))
    times, rows = _predictors_computed(s, M)
    assert max(times) <= 32
    computed = sum(t * r for t, r in zip(times, rows))
    assert computed <= 1.15 * s.L.sum()


# A chunk reads its rows in row blocks of _CHUNK_ENTRIES // _CHUNK_TIMES.
# Shrinking _CHUNK_ENTRIES to 4 _CHUNK_TIMES makes blocks of 4 rows, so the
# one chunk of each stratum of the small instances below, of 13 or more
# rows, splits into 3 or more blocks.
ROW_BLOCK = 4


def _split_rows(monkeypatch, width=None):
    if width is not None:
        monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", width)
    monkeypatch.setattr(likelihood_module, "_CHUNK_ENTRIES",
                        ROW_BLOCK * likelihood_module._CHUNK_TIMES)


def _blocks_per_chunk(index, basis, theta):
    """The number of row blocks of every chunk of every stratum's pass."""
    counts = []
    for s in index.strata:
        counts += [len(b) for b in _chunk_reads(s, _event_basis_rows(s, basis), theta)[1]]
    return counts


@pytest.mark.parametrize("P,K", [(2, 3), (4, 3)])  # the product and the separable full Hessian
def test_row_blocks_match_oracles(P, K, monkeypatch):
    _split_rows(monkeypatch)
    ds, spec, basis, index = make_instance(271, n=50, P=P, K=K, J=2)
    theta = np.random.default_rng(35).normal(0, 0.3, (P, K))
    assert min(_blocks_per_chunk(index, basis, theta)) >= 3
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    _assert_matches_brute_force(ds, index, basis, theta, rep)
    for kind, kw in PASS_KINDS.items():
        assert evaluate_report(ds, index, basis, theta, **kw).loglik == rep.loglik, kind


@pytest.mark.parametrize("width", [32, 3])  # one chunk per stratum, and many
@pytest.mark.parametrize("P,K", [(3, 4), (5, 3)])
def test_row_blocks_equal_one_block(P, K, width, monkeypatch):
    ds, spec, basis, index = make_instance(281, n=90, P=P, K=K, J=2)
    theta = np.random.default_rng(36).normal(0, 0.3, (P, K))
    assert max(_blocks_per_chunk(index, basis, theta)) == 1
    single = _all_outputs(ds, index, basis, theta)
    single_means = evaluate_report(ds, index, basis, theta).risk_set_means
    _split_rows(monkeypatch, width)
    assert max(_blocks_per_chunk(index, basis, theta)) >= 3
    many = _all_outputs(ds, index, basis, theta)
    many_means = evaluate_report(ds, index, basis, theta).risk_set_means
    for want, got in zip(single + [single_means], many + [many_means]):
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-12 * scale


# (P, K): the product full Hessian at P <= K and the separable one at P > K
@pytest.mark.parametrize("P,K", [(3, 5), (6, 4)])
def test_row_blocks_keep_one_loglik_across_pass_kinds(P, K, monkeypatch):
    rng = np.random.default_rng(37)

    def one_loglik(ds, basis, index):
        theta = rng.normal(0, 0.3, (P, K))
        assert max(_blocks_per_chunk(index, basis, theta)) >= 2
        lls = {kind: evaluate_report(ds, index, basis, theta, **kw).loglik
               for kind, kw in PASS_KINDS.items()}
        assert len(set(lls.values())) == 1, lls
        return lls["loglik"], theta

    # one stratum of 3000 in blocks of 2048 rows
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=3000, P=P, seed=105))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    one_loglik(ds, basis, tv.build_risk_index(ds))
    # one stratum of 60 in blocks of 4 rows, against the brute-force oracle
    _split_rows(monkeypatch)
    ds, _, basis, index = make_instance(291, n=60, P=P, K=K, J=1)
    ll, theta = one_loglik(ds, basis, index)
    assert ll == pytest.approx(brute_loglik(ds, basis.values, theta), rel=1e-12)


def _staircase_instance(P, K, n=40, seed=301):
    """One stratum of n events at n distinct times, none censored."""
    rng = np.random.default_rng(seed)
    ds = tv.SurvivalDataset(
        time=rng.exponential(1.0, n), status=np.ones(n, dtype=np.int8),
        stratum=np.zeros(n, dtype=np.int64), stratum_labels=("s",),
        covariates=rng.standard_normal((n, P)),
        covariate_names=tuple(f"x{p}" for p in range(P)))
    spec = tv.make_spec(degree=min(2, K - 1), K=K, event_times=ds.event_times)
    return ds, tv.evaluate_batch(spec, ds.time), tv.build_risk_index(ds)


# Every subject an event at its own time: the risk sets hold 1, ..., n rows,
# so each chunk's band is a full staircase, one row per event time.  In
# blocks of 4 rows, the bands of chunks of 5 and 32 event times cross row
# blocks; a chunk of 1 has no band.
@pytest.mark.parametrize("width", [1, 5, 32])
@pytest.mark.parametrize("P,K", [(2, 3), (4, 3)])  # the product and the separable full Hessian
def test_staircase_bands_across_row_blocks_match_oracles(P, K, width, monkeypatch):
    _split_rows(monkeypatch, width)
    ds, basis, index = _staircase_instance(P, K)
    (s,) = index.strata
    assert np.array_equal(s.L, np.arange(1, ds.n + 1))
    theta = np.random.default_rng(39).normal(0, 0.3, (P, K))
    times, blocks = _chunk_reads(s, _event_basis_rows(s, basis), theta)
    first = np.cumsum([0] + times[:-1])  # each chunk's first event time
    crossing = [s.L[a] // ROW_BLOCK < (s.L[a + t - 1] - 1) // ROW_BLOCK
                for a, t in zip(first, times)]
    assert any(crossing) == (width > 1) and max(len(b) for b in blocks) >= 3
    reps = {kind: evaluate_report(ds, index, basis, theta, **kw)
            for kind, kw in PASS_KINDS.items()}
    assert len({rep.loglik for rep in reps.values()}) == 1
    _assert_matches_brute_force(ds, index, basis, theta, reps["gradient"])
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    np.testing.assert_allclose(reps["blocks"].block_hessians, rep.block_hessians,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(reps["full"].full_hessian, rep.full_hessian,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["overflow", "underflow", "near-ceiling"])
@pytest.mark.parametrize("P", [2, 3])  # K = 2: the product and the separable full Hessian
def test_sums_out_of_range_are_made_again_across_row_blocks(P, kind, monkeypatch):
    ds, basis, index, theta = _out_of_range_instance(kind, P)
    single = _all_outputs(ds, index, basis, theta)
    _split_rows(monkeypatch)
    (s,) = index.strata
    # a chunk made again reads its blocks three times: for the unshifted
    # sums, each event time's max over every block, and the shifted sums
    times, blocks = _chunk_reads(s, _event_basis_rows(s, basis), theta)
    assert len(blocks) > len(times) and min(len(b) for b in blocks) >= 3
    lls = {name: evaluate_report(ds, index, basis, theta, **kw).loglik
           for name, kw in PASS_KINDS.items()}
    assert len(set(lls.values())) == 1, lls
    assert lls["loglik"] == pytest.approx(brute_loglik(ds, basis.values, theta), rel=1e-12)
    for want, got in zip(single, _all_outputs(ds, index, basis, theta)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# the blocks and full passes square the subject's covariates into their
# moment arrays, which overflows before the pass reads them
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_overflow_in_a_later_row_block_names_the_subject(monkeypatch):
    # P > K: the full pass is the separable form's, which keeps the blocks side by side
    _split_rows(monkeypatch)
    ds, spec, basis, _ = make_instance(141, n=30, P=4, K=3, J=1)
    # the earliest event is the last row of the ordering, in the last block
    # of the one chunk: every earlier block stays finite
    events = np.flatnonzero(ds.status == 1)
    row = int(events[np.argmin(ds.time[events])])
    X = ds.covariates.copy()
    X[row] = 1e308
    big = tv.SurvivalDataset(ds.time, ds.status, ds.stratum, ds.stratum_labels,
                             X, ds.covariate_names)
    index = tv.build_risk_index(big)
    (s,) = index.strata
    assert s.order[-1] == row and s.dt.size <= likelihood_module._CHUNK_TIMES
    assert s.order.size > 2 * ROW_BLOCK
    for kw in PASS_KINDS.values():
        with pytest.raises(NumericOverflowError, match=f"subject row {row}$"):
            evaluate_report(big, index, basis, np.ones((4, 3)), **kw)


def test_loglik_pass_memory_does_not_grow_with_the_chunk():
    # one stratum of 16000: a chunk of 32 event times reads up to 16000 rows,
    # 4 MiB of predictors in one piece, where its row blocks reuse one
    # buffer of 512 KiB beside U, Bg and vectors of n and m entries
    n, P, K = 16000, 2, 5
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=11))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(38).normal(0, 0.3, (P, K))
    (s,) = index.strata
    m = s.dt.size
    tracemalloc.start()
    try:
        tv.loglik(ds, index, basis, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * likelihood_module._CHUNK_ENTRIES
    assert block <= peak < block + 8 * (n * (K + 1) + m * (K + 2 * P + 2))
    assert peak < 8 * likelihood_module._CHUNK_TIMES * n / 2


@pytest.mark.parametrize("P,K", [(2, 3), (4, 3)])
def test_full_pass_beyond_physical_memory_is_a_capacity_error(P, K, monkeypatch):
    ds, spec, basis, index = make_instance(201, n=40, P=P, K=K)
    theta = np.zeros((P, K))
    need = likelihood_module._pass_bytes(index, P, K, "separable" if P > K else "product")
    monkeypatch.setattr(likelihood_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="physical memory"):
        evaluate_report(ds, index, basis, theta, want_full=True)
    with pytest.raises(CapacityError):
        tv.full_hessian(ds, index, basis, theta)
    # passes without the full Hessian are not limited by it
    evaluate_report(ds, index, basis, theta, want_blocks=True)
    monkeypatch.setattr(likelihood_module, "_physical_memory", lambda: need)
    evaluate_report(ds, index, basis, theta, want_full=True)


def test_full_pass_without_a_memory_size_runs(monkeypatch):
    # where the platform does not say how much memory it has, the pass is
    # not limited by it: a full pass that any limit of 1 kB would refuse runs
    ds, spec, basis, index = make_instance(201, n=40, P=2, K=3)
    assert likelihood_module._pass_bytes(index, 2, 3, "product") > 1 << 10

    def raises(name):
        raise ValueError(f"unknown configuration name {name}")
    monkeypatch.setattr(likelihood_module.os, "sysconf", raises)
    assert likelihood_module._physical_memory() is None
    rep = evaluate_report(ds, index, basis, np.zeros((2, 3)), want_full=True)
    assert np.isfinite(rep.full_hessian).all()


# A linear basis B(u) = (1 - u, u) on [0, 1] and event times u in (0.33,
# 0.42): three ways for a chunk's unshifted risk-set sums S to leave
# [1e-250, 1e250], each with every predictor in (-700, 709), where the
# oracles' unshifted exponentials stay finite and normal.
# - overflow: covariate x0 = +-1 and coefficients 2000 (1, -1) on it give
#   predictors of about 2000 x0 (1 - 2u), up to +-680, and sums up to about
#   6e292, far above the ceiling;
# - underflow: x0 in (0.9, 1) and coefficients -700 (1, 1) put every
#   predictor of every risk set below -575, so every sum is below 1e-250;
# - near the ceiling: coefficients 354.4 (1, 1) on x0, x0 = 2 for one
#   subject (its other covariates 0) and about 0.01 for the rest: its
#   predictor is 708.8 and the others' within about 10 of 0.  Every sum stays
#   finite, below 1e308, but x0^2 e^708.8, its weighted pair product,
#   overflows, so that without the ceiling the Hessians would not be finite.
#   With x0 = 2 the risk-set variances, which the subject's weight nearly
#   cancels to zero, lose little to rounding; the two forms of the full
#   Hessian agree with the blocks to 1e-12.
def _out_of_range_instance(kind, P, n=40, seed=231):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice([-1.0, 1.0], n), rng.standard_normal((n, P - 1))])
    time, status = rng.uniform(0.33, 0.42, n), rng.random(n) < 0.7
    theta = np.vstack([[2000.0, -2000.0], rng.normal(0, 0.3, (P - 1, 2))])
    if kind == "underflow":
        X[:, 0], theta[0] = rng.uniform(0.9, 1.0, n), -700.0
    elif kind == "near-ceiling":
        big = np.argsort(time)[n // 2]  # at risk at about half the event times
        X[:, 0], theta[0] = rng.normal(0, 0.01, n), 354.4
        X[big] = np.r_[2.0, np.zeros(P - 1)]
    ds = tv.SurvivalDataset(time=time, status=status,
                            stratum=np.zeros(n, dtype=np.int64), stratum_labels=("s",),
                            covariates=X, covariate_names=tuple(f"x{p}" for p in range(P)))
    spec = tv.SplineSpec(degree=1, interior=np.array([]), domain=(0.0, 1.0))
    return ds, tv.evaluate_batch(spec, ds.time), tv.build_risk_index(ds), theta


@pytest.mark.parametrize("kind", ["overflow", "underflow", "near-ceiling"])
@pytest.mark.parametrize("P", [2, 3])  # K = 2: the product and the separable full Hessian
def test_sums_out_of_range_are_made_again_with_the_exact_max(P, kind):
    ds, basis, index, theta = _out_of_range_instance(kind, P)
    (s,) = index.strata
    Bg, U = _event_basis_rows(s, basis), s.Xs @ theta
    eta = Bg @ U.T
    in_risk_set = np.arange(s.order.size) < s.L[:, None]
    top = np.where(in_risk_set, eta, -np.inf).max(axis=1)
    S = np.where(in_risk_set, np.exp(eta), 0.0).sum(axis=1)
    assert -700 < eta.min() and eta.max() < 709
    if kind == "overflow":
        assert S.max() > 1e290
    elif kind == "underflow":
        assert top.max() < -575 and S.max() < 1e-250
    else:
        assert np.isfinite(S).all()
        assert top.max() + np.log((s.Xs ** 2).max()) > np.log(np.finfo(float).max)

    lls = {name: evaluate_report(ds, index, basis, theta, **kw).loglik
           for name, kw in PASS_KINDS.items()}
    assert len(set(lls.values())) == 1, lls
    rep = _assert_full_hessian_matches_fd(ds, index, basis, theta)
    assert rep.loglik == pytest.approx(brute_loglik(ds, basis.values, theta), rel=1e-12)
    # the log likelihood is up to about -1e4 here, so finite differences of
    # it lose about 1e-6 to rounding: the brute-force residuals, which sum to
    # the gradient, are the oracle for it
    order, psi = brute_score_residuals(ds, basis.values, theta)
    np.testing.assert_allclose(rep.gradient, psi.sum(axis=0), rtol=1e-10, atol=1e-10)
    res = tv.score_residuals(ds, index, basis, theta)
    got = {int(r): res.psi[i] for i, r in enumerate(res.event_rows)}
    for i, r in enumerate(order):
        np.testing.assert_allclose(got[int(r)], psi[i], atol=1e-10)


# At Theta = 0 every risk weight is exactly 1 and the pass takes its closed
# form; at 1e-200 R the weights are still exactly 1, but the chunk loop runs.
@pytest.mark.parametrize("width", MULTI_CHUNK)
@pytest.mark.parametrize("P,K", [(2, 3), (4, 3)])  # the product and the separable full Hessian
def test_zero_start_equals_the_chunk_loop(P, K, width, monkeypatch):
    monkeypatch.setattr(likelihood_module, "_CHUNK_TIMES", width)
    ds, spec, basis, index = make_instance(221, n=60, P=P, K=K, J=2)
    assert len(index.strata) == 2 and any(s.d.max() > 1 for s in index.strata)
    assert min(_chunk_count(s, width) for s in index.strata) >= 3
    loops = []
    real = likelihood_module._chunk_loop

    def counted(*args):
        loops.append(args[0])
        return real(*args)
    monkeypatch.setattr(likelihood_module, "_chunk_loop", counted)

    outputs = []
    for theta in (np.zeros((P, K)), 1e-200 * np.random.default_rng(25).normal(0, 1, (P, K))):
        loops.clear()
        reports = [evaluate_report(ds, index, basis, theta, **kw) for kw in PASS_KINDS.values()]
        res = tv.score_residuals(ds, index, basis, theta)
        outputs.append([np.array([r.loglik for r in reports])]
                       + [r.gradient for r in reports[1:]]
                       + [reports[2].block_hessians, reports[3].full_hessian, res.psi, res.V]
                       + [r.risk_set_means for r in reports[1:]])
        assert len(loops) == (0 if not theta.any() else 5 * len(index.strata))
    for want, got in zip(*outputs):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# one stratum and many small ones, in the product (P <= K) and the separable form,
# whose all-strata Grams hold C over every row and the means of every stratum
@pytest.mark.parametrize("n,P,K,J", [(4000, 4, 5, 1), (4000, 4, 5, 8), (2000, 12, 4, 1),
                                     (3000, 8, 3, 2), (4000, 8, 5, 16), (32000, 40, 5, 1024)])
def test_full_pass_bytes_bound_the_traced_peak(n, P, K, J):
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, J=J, seed=12))
    spec = tv.make_spec(degree=min(3, K - 1), K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(26).normal(0, 0.05, (P, K))
    tracemalloc.start()
    try:
        evaluate_report(ds, index, basis, theta, want_full=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= likelihood_module._pass_bytes(index, P, K, "separable" if P > K else "product")


def _assert_residuals_match_brute_force(ds, index, basis, theta):
    """V, the column sum and the on-request Psi against the brute-force residuals."""
    res = tv.score_residuals(ds, index, basis, theta)
    order, want = brute_score_residuals(ds, basis.values, theta)
    got = {int(r): row for r, row in zip(res.event_rows, res.psi)}
    assert sorted(got) == sorted(int(r) for r in order)
    for i, r in enumerate(order):
        np.testing.assert_allclose(got[int(r)], want[i], rtol=1e-10, atol=1e-12)
    V = want.T @ want
    np.testing.assert_allclose(res.total, want.sum(axis=0), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(res.V, V, rtol=1e-10, atol=1e-12 * np.abs(V).max())
    np.testing.assert_array_equal(res.V, res.V.T)
    return res


@pytest.mark.parametrize("P,K,J", [(4, 3, 1), (2, 3, 1), (5, 4, 2), (2, 5, 2)])
def test_residual_factors_match_brute_force(P, K, J):
    # P > K and P <= K, in one stratum and in two
    ds, spec, basis, index = make_instance(241 + P + J, n=70, P=P, K=K, J=J,
                                           degree=min(3, K - 1))
    assert len(index.strata) == J
    theta = np.random.default_rng(29).normal(0, 0.3, (P, K))
    _assert_residuals_match_brute_force(ds, index, basis, theta)


def test_residual_block_of_a_pair_that_overlaps_at_no_event_is_zero():
    # hat functions with peaks at 0, 0.25, 0.5, 0.75 and 1: functions 1 and 2
    # overlap on (0.25, 0.5), where subjects are only censored
    n, P = 60, 3
    rng = np.random.default_rng(30)
    time = np.r_[rng.uniform(0.02, 0.24, 20), rng.uniform(0.27, 0.48, 15),
                 rng.uniform(0.52, 0.98, 25)]
    status = np.r_[rng.random(20) < 0.8, np.zeros(15, dtype=bool), rng.random(25) < 0.8]
    ds = tv.SurvivalDataset(time=time, status=status,
                            stratum=rng.integers(0, 2, n), stratum_labels=("a", "b"),
                            covariates=rng.standard_normal((n, P)),
                            covariate_names=tuple(f"x{p}" for p in range(P)))
    spec = tv.SplineSpec(degree=1, interior=np.array([0.25, 0.5, 0.75]), domain=(0.0, 1.0))
    basis, index = tv.evaluate_batch(spec, ds.time), tv.build_risk_index(ds)
    nz = basis.values[ds.status == 1] != 0
    both = nz.T @ nz
    assert both[1, 1] and both[2, 2] and not both[1, 2]
    theta = rng.normal(0, 0.3, (P, 5))
    res = _assert_residuals_match_brute_force(ds, index, basis, theta)
    V4 = res.V.reshape(P, 5, P, 5)
    assert not V4[:, 1, :, 2].any() and not V4[:, 2, :, 1].any()


def test_residuals_peak_below_one_psi():
    # n=2000, P=40, K=8 (setting 1): Psi alone is n_events x PK, about 2.6 MiB;
    # the factors, V and two blocks' factors fit below it
    n, P, K = 2000, 40, 8
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=11))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(31).normal(0, 0.05, (P, K))
    means = evaluate_report(ds, index, basis, theta).risk_set_means
    psi_bytes = 8 * index.n_events * P * K
    tracemalloc.start()
    try:
        res = tv.score_residuals(ds, index, basis, theta, means)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < psi_bytes
    assert peak <= likelihood_module._residual_bytes(index, P, K)
    np.testing.assert_array_equal(res.V, res.V.T)


@pytest.mark.parametrize("P,K", [(2, 3), (4, 3)])
def test_blocks_pass_beyond_physical_memory_is_a_capacity_error(P, K, monkeypatch):
    ds, spec, basis, index = make_instance(202, n=40, P=P, K=K)
    theta = np.zeros((P, K))
    need = likelihood_module._pass_bytes(index, P, K, "blocks")
    assert need < likelihood_module._pass_bytes(index, P, K, "separable" if P > K else "product")
    monkeypatch.setattr(likelihood_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="physical memory") as raised:
        evaluate_report(ds, index, basis, theta, want_blocks=True)
    assert raised.value.code == "CAPACITY"
    evaluate_report(ds, index, basis, theta)  # a gradient pass is not limited by it
    monkeypatch.setattr(likelihood_module, "_physical_memory", lambda: need)
    evaluate_report(ds, index, basis, theta, want_blocks=True)


def test_residuals_beyond_physical_memory_are_a_capacity_error(monkeypatch):
    ds, spec, basis, index = make_instance(203, n=40, P=3, K=3)
    theta = np.zeros((3, 3))
    need = likelihood_module._residual_bytes(index, 3, 3)
    monkeypatch.setattr(likelihood_module, "_physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="physical memory") as raised:
        tv.score_residuals(ds, index, basis, theta)
    assert raised.value.code == "CAPACITY"
    monkeypatch.setattr(likelihood_module, "_physical_memory", lambda: need)
    tv.score_residuals(ds, index, basis, theta)


@pytest.mark.parametrize("n,P,K,J", [(4000, 4, 5, 1), (4000, 4, 5, 8), (2000, 40, 8, 1)])
def test_blocks_pass_and_residual_bytes_bound_the_traced_peak(n, P, K, J):
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, J=J, seed=13))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(32).normal(0, 0.05, (P, K))
    tracemalloc.start()
    try:
        means = evaluate_report(ds, index, basis, theta, want_blocks=True).risk_set_means
        _, blocks_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()  # the means, which the caller holds
        tv.score_residuals(ds, index, basis, theta, means)
        _, residuals_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocks_peak <= likelihood_module._pass_bytes(index, P, K, "blocks")
    assert residuals_peak - held <= likelihood_module._residual_bytes(index, P, K)


def test_full_pass_and_solve_bytes_bound_the_traced_peak():
    # a wide instance, PK = 960: Hf (7 MiB) outweighs the second moments
    # (4 MiB), and the pass and Newton's solve of its Hessian peak where Hf
    # is held beside the mean term or beside the solve's Cholesky factor
    from tvcox import optimizers

    n, P, K = 800, 160, 6
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=14))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    theta = np.random.default_rng(33).normal(0, 0.01, (P, K))
    tracemalloc.start()
    try:
        rep = evaluate_report(ds, index, basis, theta, want_full=True)
        H, rep.full_hessian = rep.full_hessian, None
        direction, _ = optimizers._ridged_solve(np.negative(H, out=H), rep.gradient,
                                                1e-8, "full Hessian")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(direction).all()
    assert 8 * (P * K) ** 2 * 2 < peak <= likelihood_module._pass_bytes(index, P, K, "separable")
