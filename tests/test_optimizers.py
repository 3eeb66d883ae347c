import dataclasses
import json

import numpy as np
import pytest

import tvcox as tv
from tvcox import (
    AscentViolationError,
    ConditioningError,
    MmsaConfig,
    StepSizeError,
)
from tvcox.inference import fit_by_name
from tvcox.likelihood import LikelihoodReport, evaluate_report
from tvcox.optimizers import mmsa_block_quantities, verify_ascent_condition

from conftest import make_instance
from reference import bisect_maximum, brute_loglik

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
    def test_gradient_ascent_single_step_is_nu_times_gradient(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time)
        g0 = evaluate_report(ds, tv.build_risk_index(ds), basis,
                             np.zeros((1, 1))).gradient
        fit = tv.gradient_ascent_fit(ds, spec, MmsaConfig(learning_rate=0.1,
                                                          max_iterations=1),
                                     do_standardize=False)
        np.testing.assert_allclose(fit.theta.ravel(), 0.1 * g0, atol=1e-15)

    def test_gradient_ascent_diverges_with_large_step(self, d0):
        # just past the 2/lambda stability bound the overshoot grows
        # geometrically, decreasing ll every iteration
        ds, spec = d0
        with pytest.raises(StepSizeError, match="10 consecutive"):
            tv.gradient_ascent_fit(ds, spec, MmsaConfig(learning_rate=4.5,
                                                        max_iterations=2000),
                                   do_standardize=False)

    def test_gradient_ascent_converges_on_desk_data(self, d0):
        ds, spec = d0
        fit = tv.gradient_ascent_fit(ds, spec, MmsaConfig(learning_rate=0.5,
                                                          tol=1e-9,
                                                          max_iterations=20000),
                                     do_standardize=False)
        assert fit.converged
        assert fit.theta[0, 0] == pytest.approx(D0_THETA_STAR, abs=5e-4)

    def test_coordinate_matches_newton_when_single_coordinate(self, d0):
        ds, spec = d0
        cfg = MmsaConfig(tol=1e-10)
        newton = tv.newton_fit(ds, spec, cfg, do_standardize=False)
        coord = tv.coordinate_ascent_fit(ds, spec, cfg, do_standardize=False)
        assert [e[2] for e in coord.trace] == [e[2] for e in newton.trace]
        np.testing.assert_array_equal(coord.theta, newton.theta)
        assert coord.reason == newton.reason

    def test_coordinate_agrees_with_newton_on_multiblock(self):
        ds, spec, _, _ = make_instance(14, n=80, P=2, K=3)
        cfg = MmsaConfig(tol=1e-9)
        newton = tv.newton_fit(ds, spec, cfg)
        coord = tv.coordinate_ascent_fit(ds, spec, cfg)
        assert coord.loglik == pytest.approx(newton.loglik, abs=1e-6)
        np.testing.assert_allclose(coord.theta, newton.theta, atol=5e-3)

    def test_adagrad_first_step_is_signlike(self, d0):
        ds, spec = d0
        fit = tv.adagrad_fit(ds, spec, MmsaConfig(learning_rate=0.02,
                                                  max_iterations=1),
                             do_standardize=False)
        # |g| = 1/6 >> 1e-8, so the first step is nu * sign(g) almost exactly
        assert abs(fit.theta[0, 0]) == pytest.approx(0.02, rel=1e-6)
        assert fit.theta[0, 0] < 0

    def test_adagrad_trace_is_bit_identical_for_fixed_seed(self):
        ds, spec, _, _ = make_instance(15, n=60, P=2, K=3)
        cfg = MmsaConfig(learning_rate=0.05, subsample_fraction=0.5,
                         max_iterations=200, seed=3)
        a = tv.adagrad_fit(ds, spec, cfg)
        b = tv.adagrad_fit(ds, spec, cfg)
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_adagrad_converges_roughly_on_desk_data(self, d0):
        ds, spec = d0
        fit = tv.adagrad_fit(ds, spec, MmsaConfig(learning_rate=0.05, tol=1e-9,
                                                  max_iterations=20000),
                             do_standardize=False)
        assert fit.theta[0, 0] == pytest.approx(D0_THETA_STAR, abs=5e-3)


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


# a config under which each optimizer converges on make_instance(19) in well
# under a second, and an iteration cap that stops it first (adagrad's cap is a
# multiple of its 50-update check)
CONVERGING = {
    "mmsa": (MmsaConfig(), 2),
    "newton": (MmsaConfig(), 2),
    "gradient": (MmsaConfig(learning_rate=0.03), 2),
    "coordinate": (MmsaConfig(), 2),
    "adagrad": (MmsaConfig(learning_rate=0.3), 100),
}


@pytest.mark.parametrize("capped", [False, True], ids=["converged", "max-iterations"])
@pytest.mark.parametrize("name", sorted(CONVERGING))
def test_reported_loglik_is_at_the_returned_theta(name, capped):
    ds, spec, _, _ = make_instance(19, n=80, P=2, K=3)
    config, cap = CONVERGING[name]
    if capped:
        config = dataclasses.replace(config, max_iterations=cap)
    fit = fit_by_name(name)(ds, spec, config)
    assert fit.converged is not capped
    work, _ = tv.standardize(ds)
    assert fit.loglik == pytest.approx(full_loglik(work, spec, fit.theta), abs=1e-12)


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

    def test_requires_derivatives(self, d0):
        ds, spec = d0
        basis = tv.evaluate_batch(spec, ds.time)
        index = tv.build_risk_index(ds)
        rep = evaluate_report(ds, index, basis, np.zeros((1, 1)),
                              want_gradient=False)
        with pytest.raises(ValueError):
            verify_ascent_condition(ds, index, basis, rep, np.zeros((1, 1)), 0.1)
