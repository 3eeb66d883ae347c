import math
import tracemalloc

import numpy as np
import pytest

import tvcox as tv
from tvcox import (
    ConditioningError,
    FoldConstructionError,
    MmsaConfig,
    RankDeficiencyError,
)
from tvcox.data import SurvivalDataset, build_risk_index, standardize
from tvcox.inference import (
    Z95,
    build_folds,
    chi_square_upper_tail,
    contrast_matrix,
    covariance_from_hessian,
    covariance_from_residuals,
    cross_validate_K,
    curve_with_bands,
    fit_by_name,
    wald_test_empirical,
    wald_test_observed,
)
# aliased so pytest does not collect the library function as a test
from tvcox.inference import test_all_covariates as all_covariate_tests
from tvcox.likelihood import evaluate_report, score_residuals
from tvcox.optimizers import newton_fit
from tvcox.simulate import ScenarioSpec, generate
from tvcox.splines import evaluate_batch, make_spec

from conftest import count_risk_indexes, make_instance
from reference import chi2_upper_tail

# P(chi2_1 > 1) = P(|Z| > 1) = erfc(1/sqrt(2)), a classic desk constant
CHI1_AT_ONE = 0.3173105078629141
# 5% critical value for 9 degrees of freedom
CHI9_CRIT = 16.918977604620448


def fitted_instance(seed, n=500, K=5):
    """A converged Newton fit with fit-scale residuals and full Hessian."""
    scen = ScenarioSpec(setting=1, n=n, P=4, J=2, seed=seed)
    ds = generate(scen)
    spec = make_spec(degree=3, K=K, event_times=ds.event_times)
    fit = newton_fit(ds, spec, MmsaConfig(tol=1e-9))
    work = standardize(ds)[0]
    index = build_risk_index(work)
    basis = evaluate_batch(spec, work.time)
    resid = score_residuals(work, index, basis, fit.theta)
    hess = evaluate_report(work, index, basis, fit.theta,
                           want_full=True).full_hessian
    return ds, spec, fit, resid, hess


class TestContrastMatrix:
    def test_frozen_pattern(self):
        C = contrast_matrix(1, 3, 4)
        assert C.shape == (3, 12)
        expected = np.zeros((3, 12))
        expected[:, 4] = 1.0
        expected[0, 5] = expected[1, 6] = expected[2, 7] = -1.0
        assert np.array_equal(C, expected)

    def test_kernel_is_exactly_the_constant_block(self):
        P, K = 3, 5
        rng = np.random.default_rng(7)
        theta = rng.normal(size=(P, K))
        for p in range(P):
            C = contrast_matrix(p, P, K)
            assert np.linalg.matrix_rank(C) == K - 1
            flat = theta.copy()
            flat[p] = 0.37  # constant block -> contrast annihilates it
            assert np.allclose(C @ flat.ravel(), 0.0)
            assert np.abs(C @ theta.ravel()).max() > 1e-3

    def test_other_blocks_are_ignored(self):
        rng = np.random.default_rng(8)
        theta = rng.normal(size=(4, 3))
        C = contrast_matrix(2, 4, 3)
        bumped = theta.copy()
        bumped[0] += 5.0
        bumped[3] -= 2.0
        assert np.array_equal(C @ theta.ravel(), C @ bumped.ravel())

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            contrast_matrix(3, 3, 4)


class TestChiSquareTail:
    def test_frozen_points(self):
        # df = 2 has the closed form exp(-x/2)
        assert chi_square_upper_tail(2 * math.log(2), 2) == pytest.approx(0.5, rel=1e-12)
        assert chi_square_upper_tail(0.0, 5) == 1.0
        assert chi_square_upper_tail(1.0, 1) == pytest.approx(CHI1_AT_ONE, rel=1e-12)
        assert chi_square_upper_tail(CHI9_CRIT, 9) == pytest.approx(0.05, rel=1e-12)

    def test_matches_series_and_continued_fraction_oracle(self):
        # the grid straddles the oracle's split between the lower-tail series
        # and the Lentz continued fraction
        for df in (1, 2, 5, 10):
            for x in (0.1, 1.0, 5.0, 20.0, 50.0):
                assert chi_square_upper_tail(x, df) == pytest.approx(
                    chi2_upper_tail(x, df), rel=1e-10)

    def test_monotone_in_x_and_df(self):
        xs = np.linspace(0.0, 30.0, 40)
        for df in (1, 3, 8):
            tails = [chi_square_upper_tail(x, df) for x in xs]
            assert all(a >= b for a, b in zip(tails, tails[1:]))
        for x in (0.5, 4.0, 12.0):
            by_df = [chi_square_upper_tail(x, df) for df in range(1, 12)]
            assert all(a < b for a, b in zip(by_df, by_df[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            chi_square_upper_tail(-0.1, 2)
        with pytest.raises(ValueError, match="positive integer"):
            chi_square_upper_tail(1.0, 0)
        with pytest.raises(ValueError, match="positive integer"):
            chi_square_upper_tail(1.0, 2.5)

    def test_nan_statistic_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            chi_square_upper_tail(math.nan, 2)

    def test_infinite_statistic_has_zero_tail(self):
        assert chi_square_upper_tail(math.inf, 1) == 0.0
        assert chi_square_upper_tail(math.inf, 4) == 0.0

    def test_far_tail_does_not_underflow(self):
        # about 7e-295; a term recurrence started from exp(-x/2) gives 0 here
        assert 0.0 < chi_square_upper_tail(1600.0, 60) < 1e-290

    def test_matches_scipy_gammaincc(self):
        special = pytest.importorskip("scipy.special")
        xs = np.concatenate([[0.0], np.geomspace(1e-8, 2000.0, 400),
                             np.linspace(0.5, 2000.0, 400)])
        for df in range(1, 61):
            got = np.array([chi_square_upper_tail(x, df) for x in xs])
            # below the smallest normal float gammaincc flushes to 0, while
            # the closed form keeps subnormal values
            np.testing.assert_allclose(got, special.gammaincc(df / 2.0, xs / 2.0),
                                       rtol=1e-12, atol=np.finfo(float).tiny)


class TestWaldStatistic:
    def test_constant_block_scores_zero(self):
        theta = np.array([[0.4, 0.4, 0.4], [1.0, 0.5, -0.2]])
        V = np.eye(6) * 3.0
        t = wald_test_empirical(theta, V, 0)
        assert t.statistic == 0.0
        assert t.p_value == 1.0
        assert t.df == 2

    def test_k2_reduces_to_z_square_hand_value(self):
        # d = a - b, var(d) = (V^-1)_11 + (V^-1)_22 - 2 (V^-1)_12,
        # with V = [[2, .5], [.5, 1]]: V^-1 = [[1, -.5], [-.5, 2]] / 1.75,
        # var(d) = 4/1.75, S = 0.5^2 * 1.75 / 4 = 0.109375
        theta = np.array([[0.7, 0.2]])
        V = np.array([[2.0, 0.5], [0.5, 1.0]])
        t = wald_test_empirical(theta, V, 0)
        assert t.statistic == pytest.approx(0.109375, rel=1e-12)
        assert t.df == 1
        assert t.p_value == pytest.approx(
            chi2_upper_tail(0.109375, 1), rel=1e-10)

    def test_invariant_to_contrast_basis(self):
        # the statistic depends only on the row space of the contrast, so a
        # successive-differences contrast must reproduce it exactly
        rng = np.random.default_rng(11)
        P, K = 2, 4
        A = rng.normal(size=(P * K + 3, P * K))
        V = A.T @ A + np.eye(P * K)
        theta = rng.normal(size=(P, K))
        for p in range(P):
            built_in = wald_test_empirical(theta, V, p).statistic
            D = np.zeros((K - 1, P * K))
            for k in range(K - 1):
                D[k, p * K + k] = 1.0
                D[k, p * K + k + 1] = -1.0
            d = D @ theta.ravel()
            inner = D @ np.linalg.solve(V, D.T)
            alt = float(d @ np.linalg.solve(inner, d))
            assert built_in == pytest.approx(alt, rel=1e-10)

    def test_empirical_and_observed_routes_agree_on_fits(self):
        # the two information estimates differ at finite n; on these frozen
        # draws the relative gap stays moderate and the 5% decisions line up
        gaps, agree, total = [], 0, 0
        for seed in range(6):
            ds, spec, fit, resid, hess = fitted_instance(400 + seed)
            for p in range(ds.P):
                emp = wald_test_empirical(fit.theta, resid, p)
                obs = wald_test_observed(fit.theta, hess, p)
                gaps.append(abs(emp.statistic - obs.statistic)
                            / max(emp.statistic, obs.statistic, 1.0))
                agree += (emp.p_value < 0.05) == (obs.p_value < 0.05)
                total += 1
        assert np.mean(gaps) < 0.25
        assert np.max(gaps) < 0.45
        assert agree >= total - 1

    def test_statistic_invariant_to_standardization(self):
        # recompute the test from the original-scale coefficients and
        # original-scale residuals; S_p must not move
        ds, spec, fit, resid, _ = fitted_instance(431, n=300)
        index = build_risk_index(ds)
        basis = evaluate_batch(spec, ds.time)
        resid_orig = score_residuals(ds, index, basis, fit.theta_original)
        for p in range(ds.P):
            on_fit_scale = wald_test_empirical(fit.theta, resid, p).statistic
            on_original = wald_test_empirical(
                fit.theta_original, resid_orig, p).statistic
            assert on_fit_scale == pytest.approx(on_original, rel=1e-6)

    @pytest.mark.parametrize("P, K", [(2, 4), (4, 4), (6, 3)])
    def test_reads_only_block_p_of_the_covariance(self, P, K):
        # every entry outside block p's K x K diagonal block is NaN, and the
        # statistic of covariate p is the one the clean matrix gives
        rng = np.random.default_rng(P * 10 + K)
        A = rng.normal(size=(P * K + 5, P * K))
        V = A.T @ A + np.eye(P * K)
        theta = rng.normal(size=(P, K))
        clean = tv.likelihood.ScoreResiduals(event_rows=np.arange(A.shape[0]),
                                             total=A.sum(axis=0), V=V)
        for p in range(P):
            want = wald_test_empirical(theta, clean, p)
            block = slice(p * K, (p + 1) * K)
            dirty = tv.likelihood.ScoreResiduals(event_rows=clean.event_rows,
                                                 total=clean.total, V=np.full_like(V, np.nan))
            dirty._V_inverse = np.full_like(V, np.nan)
            dirty._V_inverse[block, block] = clean._V_inverse[block, block]
            assert wald_test_empirical(theta, dirty, p) == want
            assert np.isfinite(want.statistic) and want.statistic > 0
        with pytest.raises(ValueError, match="out of range"):
            wald_test_empirical(theta, clean, P)

    def test_theta_shape_validation(self):
        V = np.eye(4)
        with pytest.raises(ValueError, match="P x K"):
            wald_test_empirical(np.zeros(4), V, 0)
        with pytest.raises(ValueError, match="K >= 2"):
            wald_test_empirical(np.zeros((4, 1)), np.eye(4), 0)

    def test_indefinite_information_raises(self):
        theta = np.array([[1.0, 0.0]])
        V = np.diag([1.0, -1.0])  # stays indefinite under any ridge tried
        with pytest.raises(RankDeficiencyError, match="empirical information"):
            wald_test_empirical(theta, V, 0)

    def test_all_covariates_order_and_kind(self):
        ds, spec, fit, resid, _ = fitted_instance(432, n=300)
        tests = all_covariate_tests(fit.theta, resid)
        assert [t.covariate for t in tests] == list(range(ds.P))
        assert all(t.information == "empirical" for t in tests)
        assert all(0.0 <= t.p_value <= 1.0 for t in tests)

    def test_to_dict_round_trip(self):
        t = wald_test_empirical(np.array([[0.7, 0.2]]),
                                np.array([[2.0, 0.5], [0.5, 1.0]]), 0)
        d = t.to_dict()
        assert d["covariate"] == 0 and d["df"] == 1
        assert d["information"] == "empirical"
        assert d["statistic"] == t.statistic and d["p_value"] == t.p_value


class TestCovariance:
    def test_residual_covariance_inverts_V(self):
        ds, spec, fit, resid, _ = fitted_instance(433, n=300)
        cov = covariance_from_residuals(resid)
        assert np.allclose(cov @ resid.V, np.eye(resid.V.shape[0]), atol=1e-7)

    def test_hessian_covariance_inverts_negated_hessian(self):
        ds, spec, fit, resid, hess = fitted_instance(434, n=300)
        cov = covariance_from_hessian(hess)
        assert np.allclose(cov @ (-hess), np.eye(hess.shape[0]), atol=1e-7)

    def test_wrong_sign_hessian_raises(self):
        # a positive definite "Hessian" negates to something no ridge can fix
        with pytest.raises(RankDeficiencyError, match="observed information"):
            covariance_from_hessian(np.eye(4))


    def test_tests_and_covariance_share_one_factorization(self, monkeypatch):
        import tvcox.inference as inference_module

        ds, spec, fit, resid, _ = fitted_instance(435, n=300)
        rng = np.random.default_rng(19)
        a = rng.normal(size=(2, 8))
        ridged = tv.likelihood.ScoreResiduals(event_rows=np.arange(2),
                                              total=a.sum(axis=0), V=a.T @ a)
        theta_ridged = rng.normal(size=(2, 4))
        # one bundle each: the V of a fit, and a rank-2 V that needs a ridge
        for theta, bundle in ((fit.theta, resid), (theta_ridged, ridged)):
            # the array route factors V anew on every call: the reference
            want_tests = all_covariate_tests(theta, bundle.V)
            want_cov = covariance_from_residuals(bundle.V)
            factored = []
            real = inference_module._factor_spd
            monkeypatch.setattr(inference_module, "_factor_spd", lambda *args, **kw:
                                factored.append(args[1]) or real(*args, **kw))
            tests = all_covariate_tests(theta, bundle)
            cov = covariance_from_residuals(bundle)
            single = [wald_test_empirical(theta, bundle, p) for p in range(theta.shape[0])]
            monkeypatch.undo()
            assert factored.count("empirical information") == 1  # the rest are K-1 x K-1
            assert tests == single == want_tests
            np.testing.assert_array_equal(cov, want_cov)


class TestCurveBands:
    def grid(self):
        return np.linspace(0.1, 2.5, 25)

    def test_zero_covariance_collapses_bands(self):
        spec = make_spec(degree=2, K=4, event_times=np.linspace(0.1, 2.9, 40))
        theta = np.random.default_rng(2).normal(size=(2, 4))
        curves = curve_with_bands(theta, np.zeros((8, 8)), spec, self.grid())
        assert np.array_equal(curves.se, np.zeros_like(curves.estimate))
        assert np.array_equal(curves.lower, curves.estimate)
        assert np.array_equal(curves.upper, curves.estimate)

    def test_constant_coefficients_give_flat_curves(self):
        # partition of unity: theta_p = c 1 implies beta_p(t) = c everywhere
        spec = make_spec(degree=3, K=6, event_times=np.linspace(0.05, 2.95, 80))
        theta = np.array([[0.8] * 6, [-1.3] * 6])
        curves = curve_with_bands(theta, np.eye(12), spec, self.grid())
        assert np.allclose(curves.estimate[0], 0.8, atol=1e-12)
        assert np.allclose(curves.estimate[1], -1.3, atol=1e-12)

    def test_band_ordering_and_width(self):
        spec = make_spec(degree=2, K=4, event_times=np.linspace(0.1, 2.9, 40))
        rng = np.random.default_rng(3)
        A = rng.normal(size=(10, 8))
        cov = A.T @ A / 10
        theta = rng.normal(size=(2, 4))
        curves = curve_with_bands(theta, cov, spec, self.grid())
        assert np.all(curves.lower <= curves.estimate)
        assert np.all(curves.estimate <= curves.upper)
        assert np.allclose(curves.upper - curves.estimate, Z95 * curves.se)
        assert np.all(curves.se[curves.se > 0] > 0)

    def test_variance_matches_direct_quadratic_form(self):
        spec = make_spec(degree=2, K=4, event_times=np.linspace(0.1, 2.9, 40))
        rng = np.random.default_rng(4)
        A = rng.normal(size=(12, 8))
        cov = A.T @ A / 12
        theta = rng.normal(size=(2, 4))
        t0 = 1.31
        curves = curve_with_bands(theta, cov, spec, np.array([t0]))
        b = evaluate_batch(spec, np.array([t0])).values[0]
        for p in range(2):
            block = cov[p * 4:(p + 1) * 4, p * 4:(p + 1) * 4]
            assert curves.se[p, 0] ** 2 == pytest.approx(b @ block @ b, rel=1e-12)

    def test_transform_divides_by_scale(self):
        spec = make_spec(degree=2, K=4, event_times=np.linspace(0.1, 2.9, 40))
        rng = np.random.default_rng(5)
        cov = np.eye(8) * 0.2
        theta = rng.normal(size=(2, 4))
        plain = curve_with_bands(theta, cov, spec, self.grid())
        ds = SurvivalDataset(
            time=np.array([1.0, 2.0]), status=np.array([1, 1]),
            stratum=np.array([0, 0]),
            covariates=np.array([[1.0, 10.0], [2.0, 30.0]]),
            covariate_names=("x1", "x2"), stratum_labels=("s001",))
        transform = standardize(ds)[1]
        mapped = curve_with_bands(theta, cov, spec, self.grid(), transform)
        scale = np.asarray(transform.scale)[:, None]
        assert np.allclose(mapped.estimate, plain.estimate / scale)
        assert np.allclose(mapped.se, plain.se / scale)
        assert np.allclose(mapped.lower, mapped.estimate - Z95 * mapped.se)

    def test_reads_blocks_without_a_dense_copy(self):
        # P = 300, K = 4: the bands allocate less than one PK x PK array
        P, K = 300, 4
        spec = make_spec(degree=3, K=K, event_times=np.linspace(0.1, 2.9, 40))
        rng = np.random.default_rng(6)
        theta = rng.normal(size=(P, K))
        cov = np.eye(P * K) * 0.3
        cov[:K, K:2 * K] = 0.05  # off the diagonal blocks: never read
        tracemalloc.start()
        try:
            curves = curve_with_bands(theta, cov, spec, self.grid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cov.nbytes
        b = evaluate_batch(spec, self.grid()).values
        assert np.allclose(curves.se, np.sqrt(0.3 * (b * b).sum(axis=1))[None, :])

    def test_negative_variance_raises(self):
        spec = make_spec(degree=2, K=4, event_times=np.linspace(0.1, 2.9, 40))
        with pytest.raises(ConditioningError, match="not PSD"):
            curve_with_bands(np.zeros((2, 4)), -np.eye(8), spec, self.grid())


class TestFolds:
    def test_deterministic_exhaustive_labels(self):
        ds = make_instance(21, n=120, P=2, K=3, J=3)[0]
        a = build_folds(ds, 5, seed=9)
        b = build_folds(ds, 5, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (ds.n,)
        assert set(np.unique(a)) <= set(range(5))

    def test_cells_balanced_within_one(self):
        ds = make_instance(22, n=150, P=2, K=3, J=2)[0]
        assign = build_folds(ds, 5, seed=3)
        keys = ds.stratum.astype(int) * 2 + ds.status.astype(int)
        for key in np.unique(keys):
            counts = np.bincount(assign[keys == key], minlength=5)
            assert counts.max() - counts.min() <= 1

    def test_every_fold_has_events(self):
        for seed in range(4):
            ds = make_instance(23 + seed, n=90, P=2, K=3)[0]
            assign = build_folds(ds, 5, seed=seed)
            events = np.bincount(assign[ds.status == 1], minlength=5)
            assert events.min() >= 1

    def test_too_few_events_raises(self):
        # 2 events cannot reach all 5 folds, whatever the shuffle
        ds = SurvivalDataset(
            time=np.linspace(1.0, 10.0, 10),
            status=np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0]),
            stratum=np.zeros(10, dtype=int),
            covariates=np.arange(20.0).reshape(10, 2),
            covariate_names=("x1", "x2"), stratum_labels=("s001",))
        with pytest.raises(FoldConstructionError, match="10 shuffles"):
            build_folds(ds, 5, seed=0)

    def test_fold_count_validation(self):
        ds = make_instance(27, n=40, P=2, K=3)[0]
        with pytest.raises(ValueError, match="at least 2"):
            build_folds(ds, 1, seed=0)


class TestCrossValidation:
    def test_single_candidate_report(self):
        ds = make_instance(31, n=100, P=2, K=3)[0]
        rep = cross_validate_K(ds, [4], folds=4, optimizer="newton")
        assert rep.chosen_K == 4
        assert rep.candidates == [4]
        assert rep.per_fold.shape == (1, 4)
        assert rep.scores[0] == pytest.approx(rep.per_fold.sum(), rel=1e-12)

    def test_duplicate_candidates_tie_to_first(self):
        ds = make_instance(32, n=100, P=2, K=3)[0]
        rep = cross_validate_K(ds, [5, 5], folds=4, optimizer="newton")
        assert np.array_equal(rep.per_fold[0], rep.per_fold[1])
        assert rep.chosen_K == 5

    def test_candidate_order_does_not_change_choice(self):
        ds = make_instance(33, n=140, P=2, K=3)[0]
        cfg = MmsaConfig(seed=2)
        up = cross_validate_K(ds, [4, 6], folds=4, config=cfg, optimizer="newton")
        down = cross_validate_K(ds, [6, 4], folds=4, config=cfg, optimizer="newton")
        assert up.chosen_K == down.chosen_K
        assert sorted(up.scores) == pytest.approx(sorted(down.scores), rel=1e-12)

    def test_prefers_smaller_K_on_constant_truth(self):
        # setting 3 at gamma = 0 has two time-constant effects, so the extra
        # coefficients of K = 6 are pure noise and the CV score should favor 4
        wins = 0
        for seed in range(6):
            ds = generate(ScenarioSpec(setting=3, n=400, P=2, J=1,
                                       gamma=0.0, seed=300 + seed))
            rep = cross_validate_K(ds, [4, 6], folds=5,
                                   config=MmsaConfig(seed=seed),
                                   optimizer="newton")
            wins += rep.chosen_K == 4
        assert wins >= 5

    def test_score_matches_manual_fold_computation(self):
        ds = make_instance(34, n=120, P=2, K=3)[0]
        cfg = MmsaConfig(seed=4)
        K, folds = 5, 4
        rep = cross_validate_K(ds, [K], folds=folds, config=cfg, optimizer="newton")
        assign = build_folds(ds, folds, cfg.seed)
        spec = make_spec(degree=3, K=K, event_times=ds.event_times)
        full_basis = evaluate_batch(spec, ds.time)
        train = ds.subset(np.flatnonzero(assign != 0))
        theta = newton_fit(train, spec, cfg).theta_original
        ll_full = evaluate_report(ds, build_risk_index(ds), full_basis, theta,
                                  want_gradient=False).loglik
        train_basis = evaluate_batch(spec, train.time)
        ll_train = evaluate_report(train, build_risk_index(train), train_basis,
                                   theta, want_gradient=False).loglik
        assert rep.per_fold[0, 0] == pytest.approx(ll_full - ll_train, rel=1e-10)

    def test_builds_one_index_per_fold_fit_and_one_for_the_full_data(self, monkeypatch):
        ds = make_instance(34, n=120, P=2, K=3)[0]
        built = count_risk_indexes(monkeypatch)
        cross_validate_K(ds, [4, 5], folds=4, config=MmsaConfig(seed=4), optimizer="newton")
        assert len(built) == 1 + 4 * 2
        assert built[0] == ds.n

    def test_empty_candidates_raise(self):
        ds = make_instance(35, n=60, P=2, K=3)[0]
        with pytest.raises(ValueError, match="non-empty"):
            cross_validate_K(ds, [])

    def test_unknown_optimizer_name(self):
        for name in ("sgd", "gradient", "adagrad"):
            with pytest.raises(ValueError) as exc:
                fit_by_name(name)
            assert str(exc.value) == (f"unknown optimizer '{name}'; "
                                      "choose from ['coordinate', 'mmsa', 'newton']")
        assert fit_by_name("newton") is newton_fit


def test_in_place_ridge_of_the_inverse_equals_the_identity_form():
    import tvcox.inference as inference_module

    # a rank-6 information of size 8 needs the ridge; adding it onto V's own
    # diagonal and inverting the factor directly gives the bits that
    # ``V + eps * scale * I`` and a solve against the identity gave
    rng = np.random.default_rng(35)
    a = rng.normal(size=(6, 8))
    V = a.T @ a
    before = V.copy()
    scale, eps = float(np.abs(V).max()), 0.0
    while True:
        try:
            L = np.linalg.cholesky(V + eps * scale * np.eye(8))
            break
        except np.linalg.LinAlgError:
            eps = inference_module.RIDGE_START if eps == 0.0 else eps * 10
    assert eps > 0
    L_inv = np.linalg.solve(L, np.eye(8))
    want = L_inv.T @ L_inv
    np.testing.assert_array_equal(inference_module._inverse_spd(V, "test"), want)
    np.testing.assert_array_equal(V, before)  # the diagonal was written back
    ints = np.array([[2, 1], [1, 2]])
    np.testing.assert_array_equal(inference_module._factor_spd(ints, "test", False),
                                  np.linalg.cholesky(ints.astype(float)))
