import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

import tvcox as tv
from tvcox import AscentViolationError, ConditioningError, MmsaConfig
from tvcox import optimizers
from tvcox.inference import fit_by_name
from tvcox.likelihood import LikelihoodReport, evaluate_report, score_residuals
from tvcox.optimizers import mmsa_block_quantities, verify_ascent_condition

from conftest import covariate_buffers, make_instance
from reference import bisect_maximum, brute_loglik, dense_ascent_lambda_max

# frozen desk values for the 3-subject dataset at theta = 0:
# c = grad^2 / (-hess) = (1/36)/(17/36) = 1/17, newton dir = -6/17,
# maximizer from an independent bisection on the brute-force loglik
D0_C0 = 1.0 / 17.0
D0_DIR0 = -6.0 / 17.0
D0_THETA_STAR = -0.3465735902799665  # equals -log(2)/2


def full_loglik(ds, spec, theta):
    basis = tv.evaluate_batch(spec, ds.time)
    return evaluate_report(ds, tv.build_risk_index(ds), basis, theta,
                           want_gradient=False).loglik


class TestBlockQuantities:
    def test_d0_frozen_values(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time)
        rep = evaluate_report(ds, tv.build_risk_index(ds), basis,
                              np.zeros((1, 1)), want_blocks=True)
        c, direction = mmsa_block_quantities(rep, 0, ridge=0.0)
        assert c == pytest.approx(D0_C0, abs=1e-12)
        assert direction[0] == pytest.approx(D0_DIR0, abs=1e-12)

    def test_normalized_direction_has_unit_slope(self):
        ds, spec, basis, index = make_instance(1, n=60, P=3, K=3)
        theta = np.random.default_rng(0).normal(0, 0.2, (3, 3))
        rep = evaluate_report(ds, index, basis, theta, want_blocks=True)
        for p in range(3):
            c, direction = mmsa_block_quantities(rep, p, ridge=1e-8)
            if c > 1e-10:
                mu = direction / c
                assert rep.gradient_block(p) @ mu == pytest.approx(1.0, abs=1e-8)

    def test_zero_gradient_block_scores_zero(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time)
        rep = evaluate_report(ds, tv.build_risk_index(ds), basis,
                              np.zeros((1, 1)), want_blocks=True)
        rep.gradient = np.zeros(1)
        c, direction = mmsa_block_quantities(rep, 0, ridge=1e-8)
        assert c == 0.0 and direction[0] == 0.0

    def test_indefinite_block_raises_conditioning_error(self):
        rep = LikelihoodReport(theta=np.zeros((1, 2)), loglik=0.0,
                               gradient=np.array([1.0, 0.0]),
                               block_hessians=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                               full_hessian=None)
        with pytest.raises(ConditioningError, match="block 0"):
            mmsa_block_quantities(rep, 0, ridge=1e-8)


class TestNewton:
    def test_d0_reaches_bisection_optimum(self, d0):
        ds, spec = d0
        fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-10), do_standardize=False)
        assert fit.theta[0, 0] == pytest.approx(D0_THETA_STAR, abs=1e-9)
        assert fit.converged and fit.iterations <= 6

    def test_bisection_oracle_agrees_with_brute_force(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time).values
        star = bisect_maximum(lambda v: brute_loglik(ds, basis, np.array([[v]])),
                              -2.0, 2.0)
        # finite-difference slope noise limits the oracle to ~1e-8 here
        assert star == pytest.approx(D0_THETA_STAR, abs=1e-8)

    def test_zero_steps_when_started_at_optimum(self, d0):
        ds, spec = d0
        fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-9), do_standardize=False)
        again = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-6),
                              init_theta=fit.theta, do_standardize=False)
        assert again.iterations == 0
        assert again.reason == "score-threshold"
        np.testing.assert_array_equal(again.theta, fit.theta)

    def test_trace_is_monotone(self):
        ds, spec, _, _ = make_instance(2, n=80, P=2, K=4)
        fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-9))
        lls = [entry[2] for entry in fit.trace] + [fit.loglik]
        assert all(b >= a - 1e-10 for a, b in zip(lls, lls[1:]))


class TestMmsa:
    def test_d0_trace_monotone_and_near_optimum(self, d0):
        ds, spec = d0
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(tol=1e-10, max_iterations=5000),
                          do_standardize=False)
        lls = [entry[2] for entry in fit.trace] + [fit.loglik]
        assert all(b >= a - 1e-10 for a, b in zip(lls, lls[1:]))
        assert fit.converged
        assert fit.theta[0, 0] == pytest.approx(D0_THETA_STAR, abs=1e-3)

    def test_first_iteration_uses_frozen_block_score(self, d0):
        ds, spec = d0
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=3),
                          do_standardize=False)
        block, score, ll = fit.trace[0]
        assert block == 0
        assert score == pytest.approx(D0_C0, rel=1e-6)
        assert ll == pytest.approx(-np.log(6.0), abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_ascent_property_random_instances(self, seed):
        ds, spec, _, _ = make_instance(seed, n=70, P=2, K=3)
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=400))
        lls = [entry[2] for entry in fit.trace] + [fit.loglik]
        assert all(b >= a - 1e-10 for a, b in zip(lls, lls[1:]))

    def test_large_learning_rate_raises_ascent_violation(self, d0):
        ds, spec = d0
        with pytest.raises(AscentViolationError, match="learning_rate"):
            tv.mmsa_fit(ds, spec, MmsaConfig(learning_rate=4.0, max_iterations=50),
                        do_standardize=False)

    def test_stationary_start_stops_without_moving(self, d0):
        ds, spec = d0
        star = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-11), do_standardize=False)
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(tol=1e-8), init_theta=star.theta,
                          do_standardize=False)
        assert fit.iterations == 0
        assert fit.reason == "score-threshold"
        np.testing.assert_array_equal(fit.theta, star.theta)

    def test_selection_replay_matches_trace(self):
        ds, spec, basis, index = make_instance(6, n=60, P=3, K=3)
        config = MmsaConfig(max_iterations=40)
        fit = tv.mmsa_fit(ds, spec, config, do_standardize=False)
        theta = np.zeros((3, 3))
        for block, score, ll in fit.trace:
            rep = evaluate_report(ds, index, basis, theta, want_blocks=True)
            assert rep.loglik == pytest.approx(ll, abs=1e-12)
            quantities = [mmsa_block_quantities(rep, p, config.ridge) for p in range(3)]
            cs = [q[0] for q in quantities]
            assert int(np.argmax(cs)) == block
            assert cs[block] == pytest.approx(score, rel=1e-12)
            theta[block] += config.learning_rate * quantities[block][1]
        np.testing.assert_allclose(theta, fit.theta, atol=1e-12)

    def test_each_iteration_touches_one_block(self):
        ds, spec, _, _ = make_instance(7, n=50, P=3, K=3)
        prev = np.zeros((3, 3))
        for m in range(1, 6):
            fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=m),
                              do_standardize=False)
            changed = np.flatnonzero(np.any(fit.theta != prev, axis=1))
            assert changed.size == 1
            assert changed[0] == fit.trace[-1][0]
            prev = fit.theta

    def test_tied_blocks_select_smallest_index(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 1))
        ds = tv.SurvivalDataset(
            time=rng.exponential(1, 40), status=(rng.random(40) < 0.7).astype(np.int8),
            stratum=np.zeros(40, dtype=np.int64), stratum_labels=("s",),
            covariates=np.hstack([X, X]), covariate_names=("a", "b"))
        spec = tv.make_spec(degree=1, K=2, event_times=ds.event_times)
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=1), do_standardize=False)
        assert fit.trace[0][0] == 0

    def test_reported_loglik_is_full_data(self):
        ds, spec, _, _ = make_instance(9, n=80, P=2, K=3)
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(subsample_fraction=0.3,
                                               max_iterations=60, seed=4))
        work, _ = tv.standardize(ds)
        assert fit.loglik == pytest.approx(full_loglik(work, spec, fit.theta), abs=1e-12)

    def test_stochastic_trace_prefix_is_counter_stable(self):
        ds, spec, _, _ = make_instance(10, n=80, P=2, K=3)
        short = tv.mmsa_fit(ds, spec, MmsaConfig(subsample_fraction=0.4,
                                                 max_iterations=8, seed=2))
        long = tv.mmsa_fit(ds, spec, MmsaConfig(subsample_fraction=0.4,
                                                max_iterations=16, seed=2))
        assert long.trace[:len(short.trace)] == short.trace

    def test_stochastic_run_is_deterministic(self):
        ds, spec, _, _ = make_instance(11, n=60, P=2, K=3)
        cfg = MmsaConfig(subsample_fraction=0.25, max_iterations=40, seed=9)
        a = tv.mmsa_fit(ds, spec, cfg)
        b = tv.mmsa_fit(ds, spec, cfg)
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_eventless_draws_are_skipped(self):
        rng = np.random.default_rng(12)
        status = np.zeros(50, dtype=np.int8)
        status[[3, 17]] = 1
        ds = tv.SurvivalDataset(time=rng.exponential(1, 50), status=status,
                                stratum=np.zeros(50, dtype=np.int64),
                                stratum_labels=("s",),
                                covariates=rng.standard_normal((50, 1)),
                                covariate_names=("x",))
        spec = tv.SplineSpec(degree=0, interior=np.array([]), domain=(0.0, 3.0))
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(subsample_fraction=0.06,
                                               max_iterations=30, seed=1))
        assert fit.iterations <= 30  # ran to completion despite eventless draws


class TestBaselines:
    def test_coordinate_matches_newton_when_single_coordinate(self, d0):
        ds, spec = d0
        cfg = MmsaConfig(tol=1e-10)
        newton = tv.newton_fit(ds, spec, cfg, do_standardize=False)
        coord = tv.coordinate_ascent_fit(ds, spec, cfg, do_standardize=False)
        assert [e[2] for e in coord.trace] == [e[2] for e in newton.trace]
        np.testing.assert_array_equal(coord.theta, newton.theta)
        assert coord.reason == newton.reason

    def test_coordinate_cycle_shares_its_first_pass(self, monkeypatch):
        # each cycle starts with a blocks pass, which its first coordinate
        # reuses: no pass computes the gradient alone
        ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
        counts = count_passes(monkeypatch)
        passes = []
        counted = optimizers.lk.evaluate_report

        def recorded(*args, **wants):
            passes.append(wants)
            return counted(*args, **wants)
        monkeypatch.setattr(optimizers.lk, "evaluate_report", recorded)
        fit = tv.coordinate_ascent_fit(ds, spec, MmsaConfig(tol=1e-8))
        assert fit.converged and fit.iterations >= 10
        assert len(passes) == counts["loglik"] + counts["blocks"]
        assert counts["blocks"] <= fit.iterations * 6 + 1 and counts["full"] == 0

    def test_coordinate_agrees_with_newton_on_multiblock(self):
        ds, spec, _, _ = make_instance(14, n=80, P=2, K=3)
        cfg = MmsaConfig(tol=1e-9)
        newton = tv.newton_fit(ds, spec, cfg)
        coord = tv.coordinate_ascent_fit(ds, spec, cfg)
        assert coord.loglik == pytest.approx(newton.loglik, abs=1e-6)
        np.testing.assert_allclose(coord.theta, newton.theta, atol=5e-3)


class TestFitResult:
    def test_theta_original_inverts_scaling(self):
        ds, spec, _, _ = make_instance(16, n=100, P=2, K=3)
        cfg = MmsaConfig(tol=1e-10)
        scaled = tv.newton_fit(ds, spec, cfg, do_standardize=True)
        raw = tv.newton_fit(ds, spec, cfg, do_standardize=False)
        np.testing.assert_allclose(scaled.theta_original, raw.theta, atol=1e-5)
        np.testing.assert_allclose(
            scaled.theta_original, scaled.theta / np.asarray(scaled.transform.scale)[:, None])

    def test_json_round_trip(self, d0):
        ds, spec = d0
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=5), do_standardize=False)
        doc = json.loads(json.dumps(fit.to_json_dict("0.0-test")))
        assert doc["optimizer"] == "mmsa"
        assert doc["reason"] in ("score-threshold", "loglik-relative-change",
                                 "max-iterations")
        assert len(doc["trace"]) == fit.iterations
        assert doc["version"] == "0.0-test"

    def test_max_iterations_reports_not_converged(self, d0):
        ds, spec = d0
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=2), do_standardize=False)
        assert not fit.converged and fit.reason == "max-iterations"
        assert fit.iterations == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MmsaConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            MmsaConfig(subsample_fraction=0.0)
        with pytest.raises(ValueError):
            MmsaConfig(subsample_fraction=1.5)
        with pytest.raises(ValueError):
            MmsaConfig(tol=-1e-6)
        with pytest.raises(ValueError):
            MmsaConfig(max_iterations=0)
        with pytest.raises(ValueError):
            MmsaConfig(ridge=-1e-8)


# each optimizer converges on make_instance(19) in well under a second at the
# default config, and a cap of 2 updates stops it first
@pytest.mark.parametrize("capped", [False, True], ids=["converged", "max-iterations"])
@pytest.mark.parametrize("name", ["coordinate", "mmsa", "newton"])
def test_reported_loglik_is_at_the_returned_theta(name, capped):
    ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
    config = MmsaConfig(max_iterations=2) if capped else MmsaConfig()
    fit = fit_by_name(name)(ds, spec, config)
    assert fit.converged is not capped
    work, _ = tv.standardize(ds)
    assert fit.loglik == pytest.approx(full_loglik(work, spec, fit.theta), abs=1e-12)


# with no halvings allowed every line search fails: an iteration that
# moves no coordinate is no update, for coordinate ascent as for Newton
@pytest.mark.parametrize("name", ["coordinate", "newton"])
def test_a_line_search_that_moves_nothing_makes_no_update(name, monkeypatch):
    monkeypatch.setattr(optimizers, "MAX_HALVINGS", 0)
    ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
    fit = fit_by_name(name)(ds, spec)
    assert fit.iterations == 0 and fit.trace == []
    assert not fit.theta.any()


class TestAscentCertificate:
    def test_small_step_certifies_and_huge_step_does_not(self):
        ds, spec, basis, index = make_instance(17, n=60, P=2, K=3)
        theta = np.zeros((2, 3))
        rep = evaluate_report(ds, index, basis, theta, want_blocks=True)
        c0, d0_dir = mmsa_block_quantities(rep, 0, 0.0)
        step = np.zeros((2, 3))
        step[0] = d0_dir
        assert verify_ascent_condition(ds, index, basis, rep,
                                       theta + 1e-4 * step, nu=1e-4)
        assert not verify_ascent_condition(ds, index, basis, rep,
                                           theta + 50.0 * step, nu=50.0)

    def test_surrogate_minorizes_at_certified_step(self):
        # independent check of the surrogate inequality g(theta'|theta) <= ll(theta')
        ds, spec, basis, index = make_instance(18, n=50, P=2, K=3)
        theta = np.zeros((2, 3))
        rep = evaluate_report(ds, index, basis, theta, want_blocks=True)
        nu = 0.05
        quantities = [mmsa_block_quantities(rep, p, 0.0) for p in range(2)]
        H = np.zeros((6, 6))
        for p, (c_p, _) in enumerate(quantities):
            H[p * 3:(p + 1) * 3, p * 3:(p + 1) * 3] = c_p * (-rep.block_hessians[p])
        p_star = int(np.argmax([q[0] for q in quantities]))
        theta_next = theta.copy()
        theta_next[p_star] += nu * quantities[p_star][1]
        if verify_ascent_condition(ds, index, basis, rep, theta_next, nu):
            delta = (theta_next - theta).ravel()
            surrogate = (rep.loglik + rep.gradient @ delta
                         - (delta @ H @ delta) / (2 * nu))
            ll_next = evaluate_report(ds, index, basis, theta_next,
                                      want_gradient=False).loglik
            assert surrogate <= ll_next + 1e-10

    def test_indefinite_or_flat_block_is_not_certified(self):
        # a block whose negated Hessian is not positive definite, or whose
        # gradient is zero (c_p = 0), leaves H singular
        ds, spec, basis, index = make_instance(17, n=60, P=2, K=3)
        rep = evaluate_report(ds, index, basis, np.zeros((2, 3)), want_blocks=True)
        theta_next = 1e-4 * np.ones((2, 3))
        assert verify_ascent_condition(ds, index, basis, rep, theta_next, nu=1e-4)
        indefinite = rep.block_hessians.copy()
        indefinite[1] = np.diag([-1.0, 1.0, -1.0])
        flat = rep.gradient.copy()
        flat[:3] = 0.0
        for changed in (dict(block_hessians=indefinite), dict(gradient=flat)):
            assert not verify_ascent_condition(ds, index, basis,
                                               dataclasses.replace(rep, **changed),
                                               theta_next, nu=1e-4)

    @pytest.mark.parametrize("seed, n, P, K, scale", [
        (17, 60, 2, 3, 0.0), (18, 50, 2, 3, 0.0), (21, 80, 4, 3, 0.3), (22, 70, 3, 5, 0.3)])
    def test_agrees_with_the_dense_certificate(self, seed, n, P, K, scale):
        # the block-wise certificate against the dense H^{-1/2} of the
        # oracle, on random steps, with learning rates on both sides of the
        # bound; only a lambda_max within 1e-8 of 1/nu may be decided either way
        ds, spec, basis, index = make_instance(seed, n=n, P=P, K=K)
        rng = np.random.default_rng(seed)
        theta = scale * rng.standard_normal((P, K))
        rep = evaluate_report(ds, index, basis, theta, want_blocks=True)
        decided = set()
        for size in (1e-4, 1e-2, 0.3):
            theta_next = theta + size * rng.standard_normal((P, K))
            neg_hess_mid = -evaluate_report(ds, index, basis, 0.5 * (theta + theta_next),
                                            want_gradient=False, want_full=True).full_hessian
            lam_max = dense_ascent_lambda_max(rep.gradient, rep.block_hessians, neg_hess_mid)
            assert lam_max is not None
            for nu in (1e-4, 0.05, 5.0, 0.9 / lam_max, 1.1 / lam_max):
                if abs(lam_max - 1.0 / nu) <= 1e-8 / nu:
                    continue
                certified = verify_ascent_condition(ds, index, basis, rep, theta_next, nu)
                assert certified == (lam_max < 1.0 / nu)
                decided.add(certified)
        assert decided == {True, False}

    def test_requires_derivatives(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time)
        index = tv.build_risk_index(ds)
        rep = evaluate_report(ds, index, basis, np.zeros((1, 1)),
                              want_gradient=False)
        with pytest.raises(ValueError):
            verify_ascent_condition(ds, index, basis, rep, np.zeros((1, 1)), 0.1)


def eventless_instance():
    """50 subjects with 2 events: most 3-subject draws (eta 0.06) have none."""
    rng = np.random.default_rng(12)
    status = np.zeros(50, dtype=np.int8)
    status[[3, 17]] = 1
    ds = tv.SurvivalDataset(time=rng.exponential(1, 50), status=status,
                            stratum=np.zeros(50, dtype=np.int64), stratum_labels=("s",),
                            covariates=rng.standard_normal((50, 1)), covariate_names=("x",))
    return ds, tv.SplineSpec(degree=0, interior=np.array([]), domain=(0.0, 3.0))


def count_passes(monkeypatch):
    """Count full-data loglik-only, blocks and full passes through evaluate_report."""
    counts = {"loglik": 0, "blocks": 0, "full": 0}
    real = optimizers.lk.evaluate_report

    def counted(dataset, index, basis, theta, **wants):
        if not wants.get("want_gradient", True):
            counts["loglik"] += 1
        if wants.get("want_blocks"):
            counts["blocks"] += 1
        if wants.get("want_full"):
            counts["full"] += 1
        return real(dataset, index, basis, theta, **wants)
    monkeypatch.setattr(optimizers.lk, "evaluate_report", counted)
    return counts


def record_checks(monkeypatch):
    """(theta, loglik) of every full-data loglik-only pass a fit asks for."""
    checks = []
    real = optimizers._Problem.loglik

    def recorded(problem, theta):
        ll = real(problem, theta)
        checks.append((theta.copy(), ll))
        return ll
    monkeypatch.setattr(optimizers._Problem, "loglik", recorded)
    return checks


# converges after about a thousand updates on make_instance(19, n=120), or is capped
STOCHASTIC = [MmsaConfig(subsample_fraction=0.3, seed=4),
              MmsaConfig(subsample_fraction=0.3, seed=4, max_iterations=75)]


class TestStochasticCheckWindow:
    WINDOW = optimizers._CHECK_WINDOW

    def test_draws_without_update_do_not_stop_the_fit(self):
        ds, spec = eventless_instance()
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(subsample_fraction=0.06,
                                               max_iterations=30, seed=1))
        assert fit.iterations >= 1 and fit.iterations == len(fit.trace)
        assert not (fit.converged and fit.iterations == 0)

    @pytest.mark.parametrize("config", STOCHASTIC, ids=["converged", "max-iterations"])
    def test_full_data_passes_once_per_window(self, config, monkeypatch):
        ds, spec, _, _ = make_instance(19, n=120, P=2, K=3)
        counts = count_passes(monkeypatch)
        fit = tv.mmsa_fit(ds, spec, config)
        assert fit.converged is (config.max_iterations > 75)
        assert fit.iterations > 2 * self.WINDOW
        assert counts["loglik"] <= math.ceil(fit.iterations / self.WINDOW) + 2

    @pytest.mark.parametrize("cap", [None, 4])
    def test_deterministic_mmsa_passes_are_unchanged(self, cap, monkeypatch):
        ds, spec, _, _ = make_instance(19, n=120, P=2, K=3)
        counts = count_passes(monkeypatch)
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(max_iterations=cap or 20000))
        assert fit.converged is (cap is None)
        assert counts["blocks"] == fit.iterations + fit.converged
        # the reported value: a converged fit reads it off its last blocks pass
        assert counts["loglik"] == (0 if fit.converged else 1)

    @pytest.mark.parametrize("config", STOCHASTIC, ids=["converged", "max-iterations"])
    def test_trace_holds_the_latest_full_data_check(self, config, monkeypatch):
        ds, spec, _, _ = make_instance(19, n=120, P=2, K=3)
        checks = record_checks(monkeypatch)
        fit = tv.mmsa_fit(ds, spec, config)
        work, _ = tv.standardize(ds)
        np.testing.assert_array_equal(checks[0][0], np.zeros((2, 3)))
        for theta, ll in checks:
            assert ll == pytest.approx(full_loglik(work, spec, theta), abs=1e-12)
        assert fit.iterations == len(fit.trace)
        for i, (_, _, ll) in enumerate(fit.trace):
            assert ll == checks[i // self.WINDOW][1]
        n_checks = math.ceil(len(fit.trace) / self.WINDOW)
        assert len({ll for _, _, ll in fit.trace}) <= n_checks
        if fit.converged:
            np.testing.assert_array_equal(fit.theta, checks[n_checks][0])


def drawn_rows(n, config, iteration):
    """The sorted rows that stochastic MMSA draws at ``iteration``."""
    k = min(n, max(1, int(round(config.subsample_fraction * n))))
    gen = np.random.Generator(np.random.Philox(key=config.seed, counter=[0, 0, 0, iteration]))
    return np.sort(gen.choice(n, size=k, replace=False))


class TestDraws:
    """A draw indexes the fit's own rows: no data copy and no sort per draw."""

    def test_a_draws_index_is_the_index_of_the_drawn_rows(self):
        # the draw's index, mapped back through the drawn rows, equals the
        # index built from a copy of them, and so does its blocks pass; on 3
        # strata and on 12 small ones, of which a draw leaves some eventless.
        # Drawn from a fit's prepared data, which holds no covariates beside
        # its index's standardized Xs, the draw's Xs is a row filter of that
        # Xs, and its index and pass those of the drawn rows of standardize's
        # copy of the data
        config = MmsaConfig(subsample_fraction=0.15, seed=5)
        theta = np.random.default_rng(29).normal(0, 0.3, (2, 3))
        eventless_stratum = 0
        for J in (3, 12):
            ds, _, basis, index = make_instance(41, n=90, P=2, K=3, J=J)
            prepared, work = tv.prepare(ds), tv.standardize(ds)[0]
            assert not hasattr(prepared, "covariates")
            for iteration in range(1, 30):
                rows = drawn_rows(ds.n, config, iteration)
                drawn = optimizers._subsample((ds, index, basis), config, iteration)
                from_fit = optimizers._subsample((prepared, prepared.index, basis), config,
                                                 iteration)
                if not ds.status[rows].any():
                    assert drawn is None and from_fit is None
                    continue
                sub_basis = tv.BasisMatrix(times=basis.times[rows], values=basis.values[rows])
                for data, index_of, draw in ((ds, index, drawn),
                                             (prepared, prepared.index, from_fit)):
                    sub = (ds if data is ds else work).subset(rows)
                    built = tv.build_risk_index(sub)
                    assert len(draw.strata) == len(built.strata)
                    eventless_stratum += len(built.strata) < len(np.unique(sub.stratum))
                    for got, want in zip(draw.strata, built.strata):
                        assert np.array_equal(got.order, rows[want.order])
                        assert np.array_equal(got.event_rows, rows[want.event_rows])
                        for name in ("dt", "L", "d", "Xs", "SX", "event_starts",
                                     "event_group"):
                            assert np.array_equal(getattr(got, name), getattr(want, name)), name
                    # the draw's Xs is its rows of the index's Xs, in its order
                    assert np.array_equal(draw.Xs,
                                          index_of.Xs[np.isin(index_of.order, draw.order)])
                    got = evaluate_report(data, draw, basis, theta, want_blocks=True)
                    want = evaluate_report(sub, built, sub_basis, theta, want_blocks=True)
                    assert got.loglik == want.loglik
                    assert np.array_equal(got.gradient, want.gradient)
                    assert np.array_equal(got.block_hessians, want.block_hessians)
        assert eventless_stratum >= 1

    def test_a_stochastic_fit_sorts_once_and_copies_no_data(self, monkeypatch):
        ds, spec, _, _ = make_instance(19, n=120, P=2, K=3, J=3)
        made = {"sort": 0, "dataset": 0, "basis": 0}

        def spy(owner, name, key):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                made[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        for name in ("sort", "argsort", "lexsort"):
            spy(np, name, "sort")
        spy(tv.SurvivalDataset, "__post_init__", "dataset")
        spy(tv.BasisMatrix, "__post_init__", "basis")
        fit = tv.mmsa_fit(ds, spec, MmsaConfig(subsample_fraction=0.3, seed=4,
                                               max_iterations=60))
        assert fit.iterations >= 50
        # the fit's one risk index sorts the rows of all 3 strata once; its
        # Xs, standardized in place, and the basis are the only copies of
        # the data: no dataset is made, not even a standardized one
        assert made == {"sort": 1, "dataset": 0, "basis": 1}


# full-data MMSA moves on make_instance(19, n=80) for hundreds of updates;
# its first 25 are enough to compare
@pytest.mark.parametrize("name, cap", [("newton", None), ("coordinate", None), ("mmsa", 25)])
def test_trace_loglik_is_at_the_start_of_each_update(name, cap):
    # update i starts from the theta that a fit capped at i updates returns
    ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
    fit, config = fit_by_name(name), MmsaConfig(tol=1e-8, max_iterations=cap or 20000)
    whole = fit(ds, spec, config)
    assert whole.iterations == len(whole.trace) >= 3
    work, _ = tv.standardize(ds)
    for i, (_, _, ll) in enumerate(whole.trace):
        start = (np.zeros((2, 3)) if i == 0 else
                 fit(ds, spec, dataclasses.replace(config, max_iterations=i)).theta)
        assert ll == full_loglik(work, spec, start)


def record_steps(monkeypatch):
    """Step length of every line search a fit makes (None when it fails)."""
    steps = []
    real = optimizers._backtrack

    def recorded(*args, **kwargs):
        moved = real(*args, **kwargs)
        steps.append(None if moved is None else moved[2])
        return moved
    monkeypatch.setattr(optimizers, "_backtrack", recorded)
    return steps


class TestNewtonPasses:
    """One full pass per Newton iteration; a unit step after one that failed
    Armijo is evaluated by a loglik-only pass instead."""

    def test_accepted_unit_steps_make_one_full_pass_each(self, monkeypatch):
        ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
        counts = count_passes(monkeypatch)
        steps = record_steps(monkeypatch)
        fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-8))
        assert fit.iterations >= 3 and steps == [1.0] * fit.iterations
        assert counts == {"loglik": 0, "blocks": 0, "full": fit.iterations + 1}

    def test_failed_unit_step_follows_the_rule(self, monkeypatch):
        ds, spec, _, _ = make_instance(14, n=80, P=2, K=3)
        counts = count_passes(monkeypatch)
        steps = record_steps(monkeypatch)
        fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-8), init_theta=np.ones((2, 3)))
        assert fit.converged and 1.0 in steps[2:]
        assert steps[1] == 0.125  # the second unit step fails Armijo, three halvings
        expected = {"loglik": 0, "blocks": 0, "full": 1}  # the starting point
        full_unit = True
        for step in steps:
            halvings = round(-math.log2(step))
            if full_unit:
                expected["full"] += 1  # the unit step's pass, reused when accepted
            else:
                expected["loglik"] += 1
            expected["loglik"] += halvings
            if halvings or not full_unit:
                expected["full"] += 1  # the next iteration's pass
            full_unit = halvings == 0
        assert counts == expected

    @pytest.mark.parametrize("seed, init", [(19, None), (14, 1.0)])
    def test_each_full_pass_starts_after_the_previous_hessian_is_freed(self, seed, init,
                                                                      monkeypatch):
        # a Newton iteration holds no PK x PK Hessian but its own
        ds, spec, _, _ = make_instance(seed, n=80, P=2, K=3)
        real = optimizers.lk.evaluate_report
        hessians = []  # a weak reference to each full pass's Hessian

        def spied(dataset, index, basis, theta, **wants):
            full = wants.get("want_full", False)
            assert not full or all(ref() is None for ref in hessians)
            rep = real(dataset, index, basis, theta, **wants)
            if full:
                hessians.append(weakref.ref(rep.full_hessian))
            return rep
        monkeypatch.setattr(optimizers.lk, "evaluate_report", spied)
        init_theta = None if init is None else np.full((2, 3), init)
        fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-8), init_theta=init_theta)
        assert fit.converged and len(hessians) >= 4


def test_coordinate_unit_steps_make_the_next_coordinates_pass(monkeypatch):
    # an accepted unit step's blocks pass serves the next coordinate, where
    # a loglik-only pass at the unit step was followed by a blocks pass at
    # the same theta; the fit is the one that loglik-only unit steps give
    ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
    config = MmsaConfig(tol=1e-8)
    counts = count_passes(monkeypatch)
    fit = tv.coordinate_ascent_fit(ds, spec, config)
    shared = dict(counts)
    real = optimizers._backtrack
    monkeypatch.setattr(optimizers, "_backtrack", lambda *args: real(*args[:5]))
    counts.update(loglik=0, blocks=0, full=0)
    unshared = tv.coordinate_ascent_fit(ds, spec, config)
    assert unshared.iterations >= 10 and counts["loglik"] >= 6 * unshared.iterations
    assert shared["loglik"] <= counts["loglik"] // 10
    assert shared["blocks"] <= counts["blocks"] and shared["full"] == 0
    assert np.array_equal(fit.theta, unshared.theta)
    assert fit.trace == unshared.trace
    assert (fit.loglik, fit.iterations, fit.reason) == \
        (unshared.loglik, unshared.iterations, unshared.reason)


def no_reuse(monkeypatch):
    """Make every _Problem pass afresh, the loglik-only ones included."""
    def report(problem, theta, **wants):
        return optimizers.lk.evaluate_report(*problem.data, theta, **wants)
    monkeypatch.setattr(optimizers._Problem, "report", report)


@pytest.mark.parametrize("name, seed, init", [
    ("newton", 19, None), ("newton", 14, 1.0), ("mmsa", 19, None), ("coordinate", 19, None)])
def test_reusing_passes_changes_no_output(name, seed, init, monkeypatch):
    ds, spec, _, _ = make_instance(seed, n=80, P=2, K=3)
    init_theta = None if init is None else np.full((2, 3), init)
    fit, config = fit_by_name(name), MmsaConfig(tol=1e-8)
    reused = fit(ds, spec, config, init_theta=init_theta)
    no_reuse(monkeypatch)
    fresh = fit(ds, spec, config, init_theta=init_theta)
    assert np.array_equal(reused.theta, fresh.theta)
    assert reused.trace == fresh.trace
    assert (reused.loglik, reused.iterations, reused.reason) == \
        (fresh.loglik, fresh.iterations, fresh.reason)


class TestFittingData:
    """A fit hands back the (dataset, index, basis) it ran on."""

    @pytest.mark.parametrize("do_standardize", [True, False])
    def test_matches_the_data_built_by_hand(self, do_standardize):
        ds, spec = make_instance(7, n=90, P=2, K=3)[:2]
        fit = optimizers.newton_fit(ds, spec, MmsaConfig(tol=1e-8),
                                    do_standardize=do_standardize)
        work = tv.standardize(ds)[0] if do_standardize else ds
        by_hand = (work, tv.build_risk_index(work), tv.evaluate_batch(spec, work.time))

        kept = score_residuals(*fit.fitting_data, fit.theta)
        rebuilt = score_residuals(*by_hand, fit.theta)
        assert np.array_equal(kept.psi, rebuilt.psi)
        assert np.array_equal(kept.V, rebuilt.V)
        assert evaluate_report(*fit.fitting_data, fit.theta,
                               want_gradient=False).loglik == fit.loglik

    @pytest.mark.parametrize("name, config", [
        ("newton", MmsaConfig(tol=1e-8)),
        ("mmsa", MmsaConfig(subsample_fraction=0.3, seed=4, max_iterations=60))],
        ids=["newton", "stochastic-mmsa"])
    def test_holds_one_covariate_array(self, name, config):
        # the fit's data holds the covariates once, as its index's Xs on the
        # fitting scale; its result and residuals are those of a fit run on
        # standardize's copy of the data, with that copy's own RiskIndex
        ds, spec = make_instance(7, n=90, P=2, K=3, J=3)[:2]
        fit = fit_by_name(name)(ds, spec, config)
        data, index, basis = fit.fitting_data
        assert covariate_buffers(fit.fitting_data) == [index.Xs]
        assert isinstance(data, tv.PreparedData) and not hasattr(data, "covariates")
        work, transform = tv.standardize(ds)
        reference = fit_by_name(name)(work, spec, config, do_standardize=False)
        assert np.array_equal(fit.theta, reference.theta)
        assert (fit.loglik, fit.trace) == (reference.loglik, reference.trace)
        assert np.array_equal(fit.transform.center, transform.center)
        assert np.array_equal(fit.transform.scale, transform.scale)
        by_hand = (work, tv.RiskIndex(work), tv.evaluate_batch(spec, work.time))
        kept, rebuilt = score_residuals(*fit.fitting_data, fit.theta), \
            score_residuals(*by_hand, fit.theta)
        for name in ("event_rows", "total", "V", "centered", "basis_rows"):
            assert np.array_equal(getattr(kept, name), getattr(rebuilt, name)), name

    def test_prepared_data_is_fitted_as_given(self):
        # a fit of prepared data runs on it, whatever do_standardize says,
        # and gives the fit of the dataset bit for bit
        ds, spec = make_instance(7, n=90, P=2, K=3)[:2]
        for do_standardize in (True, False):
            data = tv.prepare(ds, do_standardize)
            fit = optimizers.newton_fit(data, spec, MmsaConfig(tol=1e-8),
                                        do_standardize=not do_standardize)
            assert fit.fitting_data[0] is data and fit.transform is data.transform
            of_dataset = optimizers.newton_fit(ds, spec, MmsaConfig(tol=1e-8),
                                               do_standardize=do_standardize)
            assert np.array_equal(fit.theta, of_dataset.theta)
            assert (fit.loglik, fit.trace) == (of_dataset.loglik, of_dataset.trace)

    def test_result_built_by_hand_has_none(self):
        ds, spec = make_instance(7, n=90, P=2, K=3)[:2]
        fit = optimizers.mmsa_fit(ds, spec, MmsaConfig(max_iterations=3))
        bare = dataclasses.replace(fit, fitting_data=None)
        assert bare == fit
        assert "fitting_data" not in repr(fit)


def ridged_solve_with_eye(A, rhs, ridge, label):
    """``_ridged_solve`` as it was: the ridge added as ``eps * np.eye(n)``."""
    eps = ridge
    while True:
        ridged = A + eps * np.eye(A.shape[0])
        try:
            np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError:
            if eps >= optimizers.RIDGE_CEIL:
                raise ConditioningError(label) from None
            eps = min(1e-8 if eps == 0 else eps * 10, optimizers.RIDGE_CEIL)
        else:
            return np.linalg.solve(ridged, rhs), eps


@pytest.mark.parametrize("name, seed, config", [
    ("newton", 19, MmsaConfig(tol=1e-8)), ("newton", 2, MmsaConfig(tol=1e-8, ridge=0.0)),
    ("mmsa", 19, MmsaConfig(tol=1e-8)), ("coordinate", 19, MmsaConfig(tol=1e-8)),
    ("mmsa", 19, MmsaConfig(subsample_fraction=0.3, seed=4, max_iterations=75))])
def test_ridge_on_the_diagonal_changes_no_direction(name, seed, config, monkeypatch):
    ds, spec, _, _ = make_instance(seed, n=80, P=2, K=3)
    fit = fit_by_name(name)(ds, spec, config)
    monkeypatch.setattr(optimizers, "_ridged_solve", ridged_solve_with_eye)
    with_eye = fit_by_name(name)(ds, spec, config)
    assert np.array_equal(fit.theta, with_eye.theta)
    assert fit.trace == with_eye.trace


def _per_block_best(rep, ridge, solve=None):
    """``_best_block`` as it was: each block's score and direction on its own, by
    ``mmsa_block_quantities``, or from ``solve`` when given."""
    quantities = []
    for p in range(rep.P):
        g = rep.gradient_block(p)
        if solve is None:
            quantities.append(mmsa_block_quantities(rep, p, ridge))
        elif not g.any():
            quantities.append((0.0, np.zeros_like(g)))
        else:
            direction, _ = solve(-rep.block_hessians[p], g, ridge, f"Hessian block {p}")
            quantities.append((max(float(g @ direction), 0.0), direction))
    p_star = int(np.argmax([c for c, _ in quantities]))
    return p_star, *quantities[p_star]


def _assert_same_best(rep, ridge, solve=None):
    got, want = optimizers._best_block(rep, ridge), _per_block_best(rep, ridge, solve)
    assert got[0] == want[0] and got[1] == want[1], (got[:2], want[:2])
    np.testing.assert_array_equal(got[2], want[2])
    return got


def _hand_report(blocks, gradient):
    P, K = gradient.shape
    return LikelihoodReport(theta=np.zeros((P, K)), loglik=0.0, gradient=gradient.reshape(-1),
                            block_hessians=np.negative(blocks), full_hessian=None)


@pytest.mark.parametrize("P,K,n", [(4, 5, 400), (40, 5, 2000)])
@pytest.mark.parametrize("ridge", [1e-8, 0.0])
def test_batched_block_step_equals_the_per_block_path(P, K, n, ridge):
    ds = tv.generate(tv.ScenarioSpec(setting=1, n=n, P=P, seed=11))
    spec = tv.make_spec(degree=3, K=K, event_times=ds.event_times)
    basis, index = tv.evaluate_batch(spec, ds.time), tv.build_risk_index(ds)
    rng = np.random.default_rng(39)
    winners = set()
    for scale in (0.0, 0.02, 0.05, 0.1, 0.2):
        theta = rng.normal(0, scale, (P, K))
        rep = evaluate_report(ds, index, basis, theta, want_blocks=True)
        winners.add(_assert_same_best(rep, ridge)[0])
        # the ridge_solve_with_eye directions: the ridge added as eps I
        _assert_same_best(rep, ridge, ridged_solve_with_eye)
    assert len(winners) > 1


def test_batched_block_step_with_zero_gradient_blocks():
    rng = np.random.default_rng(40)
    M = rng.standard_normal((3, 4, 4))
    blocks = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(4)
    G = rng.standard_normal((3, 4))
    best = _assert_same_best(_hand_report(blocks, G), 1e-8)[0]
    G[best] = 0.0  # the best block scores 0 now, and another wins
    p, c, direction = _assert_same_best(_hand_report(blocks, G), 1e-8)
    assert p != best and c > 0
    # a zero-gradient block is not factored: an indefinite one is skipped
    blocks[best] = -np.eye(4)
    _assert_same_best(_hand_report(blocks, G), 1e-8)
    p, c, direction = _assert_same_best(_hand_report(blocks, np.zeros((3, 4))), 1e-8)
    assert p == 0 and c == 0.0 and not direction.any()


def test_batched_block_step_escalates_the_ridge_as_the_per_block_path():
    # block 1's least eigenvalue is -5e-7: the ridges 1e-8 and 1e-7 fail and
    # 1e-6 passes; the stack's factorization fails, so each block takes the
    # per-block path's escalation
    rng = np.random.default_rng(41)
    M = rng.standard_normal((3, 5, 5))
    blocks = M @ M.transpose(0, 2, 1)
    blocks[1] -= (np.linalg.eigvalsh(blocks[1])[0] + 5e-7) * np.eye(5)
    G = rng.standard_normal((3, 5))
    G[1] *= 1e3  # block 1 has the largest score
    rep = _hand_report(blocks, G)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(blocks + 1e-8 * np.eye(5))
    p, c, direction = _assert_same_best(rep, 1e-8)
    _assert_same_best(rep, 1e-8, ridged_solve_with_eye)
    assert p == 1
    want, eps = optimizers._ridged_solve(blocks[1].copy(), G[1], 1e-8, "block")
    assert eps == pytest.approx(1e-6) and np.array_equal(direction, want)
    # beyond the ridge ceiling, the block's error names it
    blocks[2] = -np.eye(5)
    with pytest.raises(ConditioningError, match="block 2"):
        optimizers._best_block(_hand_report(blocks, G), 1e-8)


def test_ridge_escalation_is_unchanged():
    A = np.array([[1.0, 0.0], [0.0, -1e-6]])
    rhs = np.array([1.0, 2.0])
    got, eps = optimizers._ridged_solve(A, rhs, 1e-8, "test")
    want, want_eps = ridged_solve_with_eye(A, rhs, 1e-8, "test")
    assert eps == want_eps == pytest.approx(1e-5) and np.array_equal(got, want)
    assert A[1, 1] == -1e-6  # the ridge went onto a copy


def ridged_solve_on_a_copy(A, rhs, ridge, label):
    """``_ridged_solve`` as it was: the ridge added to a fresh copy of A on each try."""
    eps = ridge
    while True:
        ridged = A.copy()
        ridged.flat[::A.shape[0] + 1] += eps
        try:
            np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError:
            if eps >= optimizers.RIDGE_CEIL:
                raise ConditioningError(label) from None
            eps = min(1e-8 if eps == 0 else eps * 10, optimizers.RIDGE_CEIL)
        else:
            return np.linalg.solve(ridged, rhs), eps


def test_in_place_ridge_equals_the_copy_after_two_escalations():
    # a dense 12 x 12 block whose least eigenvalue is -5e-7: the ridges 1e-8
    # and 1e-7 fail, and 1e-6 passes
    rng = np.random.default_rng(34)
    M = rng.standard_normal((12, 12))
    A = M @ M.T
    A -= (np.linalg.eigvalsh(A)[0] + 5e-7) * np.eye(12)
    rhs = rng.standard_normal(12)
    before = A.copy()
    want, want_eps = ridged_solve_on_a_copy(A, rhs, 1e-8, "test")
    got, eps = optimizers._ridged_solve(A, rhs, 1e-8, "test")
    assert eps == want_eps == pytest.approx(1e-6)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(A, before)  # the diagonal was written back
    with pytest.raises(ConditioningError):
        optimizers._ridged_solve(-np.eye(3), np.ones(3), 1e-8, "test")


def test_a_newton_step_that_moves_nothing_gets_a_fresh_full_pass(monkeypatch):
    # the solve negates the pass's own Hessian in place; when the line search
    # moves nothing, the next iteration starts at the same theta, and the
    # kept report must not hand that consumed Hessian out again
    ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
    monkeypatch.setattr(optimizers, "_backtrack", lambda *args: None)
    real_report, real_pass = optimizers._Problem.report, optimizers.lk.evaluate_report
    handed, full_passes = [], []

    def report(self, theta, **wants):
        rep = real_report(self, theta, **wants)
        if wants.get("want_full"):
            handed.append(None if rep.full_hessian is None else rep.full_hessian.copy())
        return rep

    def counted(*args, **wants):
        full_passes.append(bool(wants.get("want_full")))
        return real_pass(*args, **wants)
    monkeypatch.setattr(optimizers._Problem, "report", report)
    monkeypatch.setattr(optimizers.lk, "evaluate_report", counted)
    fit = tv.newton_fit(ds, spec, MmsaConfig(tol=1e-8))
    monkeypatch.undo()
    assert fit.iterations == 0 and fit.reason == "loglik-relative-change"
    # the first step's pass, the solve's read of it, and a fresh pass for the second step
    assert len(handed) == 3 and sum(full_passes) == 2
    fresh = tv.full_hessian(*fit.fitting_data, np.zeros((2, 3)))
    for H in handed:
        np.testing.assert_array_equal(H, fresh)
