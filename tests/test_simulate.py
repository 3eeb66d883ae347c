import math
import tracemalloc

import numpy as np
import pytest

from tvcox import InvalidSpecError, MmsaConfig
from tvcox.optimizers import FitResult
from tvcox.simulate import (
    METRIC_GRID,
    MetricsReport,
    ScenarioSpec,
    draw_covariates,
    draw_survival_times,
    generate,
    metrics,
    true_beta,
    true_beta_matrix,
)
from tvcox.simulate import _SCAN_BLOCK
from tvcox.splines import make_spec

from reference import dense_survival_times

# P(censored) when effects are all zero: D ~ Exp(0.5) against C ~ U(0, 3),
# P(C <= D) = (1/3) int_0^3 exp(-c/2) dc = (2/3)(1 - exp(-3/2))
BASELINE_CENSOR_FRACTION = (2.0 / 3.0) * (1.0 - math.exp(-1.5))


def flat_fit(theta, spec, optimizer="newton", wall=0.125):
    """A hand-built fit on the original scale for metric checks."""
    return FitResult(theta=np.asarray(theta, dtype=float), spec=spec,
                     transform=None, loglik=0.0, iterations=0, converged=True,
                     reason="score-threshold", trace=[], optimizer=optimizer,
                     config=MmsaConfig(), wall_time_sec=wall)


class TestTrueBeta:
    def test_frozen_points(self):
        assert true_beta("sin_tv", 2.0) == pytest.approx(-1.0, abs=1e-12)
        assert true_beta("sin_tv", 0.0) == 0.0
        assert true_beta("poly_exp_tv", 0.0) == 0.0
        assert true_beta("poly_exp_tv", 3.0) == pytest.approx(-math.exp(1.5), rel=1e-12)
        assert np.array_equal(true_beta("constant:1", [0.3, 1.7]), [1.0, 1.0])
        assert np.array_equal(true_beta("constant:-1", [2.0]), [-1.0])
        assert true_beta("constant:0.25", 9.9) == 0.25

    def test_gamma_scaling(self):
        t = np.linspace(0.0, 3.0, 31)
        assert np.array_equal(true_beta("gamma_sin_tv", t, gamma=0.0), np.zeros(31))
        assert np.allclose(true_beta("gamma_sin_tv", t, gamma=2.0),
                           2.0 * true_beta("sin_tv", t))
        assert true_beta("gamma_sin_tv", 2.0, gamma=2.0) == pytest.approx(-2.0)

    def test_unknown_tag(self):
        with pytest.raises(InvalidSpecError, match="unknown coefficient tag"):
            true_beta("linear_tv", 1.0)

    def test_matrix_stacks_rows(self):
        grid = np.linspace(0.1, 2.9, 7)
        M = true_beta_matrix(("constant:1", "sin_tv"), grid)
        assert M.shape == (2, 7)
        assert np.array_equal(M[0], np.ones(7))
        assert np.array_equal(M[1], true_beta("sin_tv", grid))


class TestScenarioSpec:
    def test_tag_patterns(self):
        s1 = ScenarioSpec(setting=1, n=10, P=6)
        assert s1.coefficient_tags == ("constant:1", "sin_tv", "constant:-1",
                                       "poly_exp_tv", "constant:0", "constant:0")
        assert ScenarioSpec(setting=1, n=10, P=2).coefficient_tags == \
            ("constant:1", "sin_tv")
        s2 = ScenarioSpec(setting=2, n=10, P=5)
        assert s2.coefficient_tags[:4] == s1.coefficient_tags[:4]
        assert ScenarioSpec(setting=3, n=10, P=2).coefficient_tags == \
            ("constant:1", "gamma_sin_tv")

    def test_test_covariate_is_first_time_varying(self):
        assert ScenarioSpec(setting=1, n=10, P=4).test_covariate == 1
        assert ScenarioSpec(setting=3, n=10, P=2).test_covariate == 1
        assert ScenarioSpec(setting=1, n=10, P=1).test_covariate is None

    def test_validation(self):
        with pytest.raises(InvalidSpecError, match="setting"):
            ScenarioSpec(setting=4, n=10, P=2)
        with pytest.raises(InvalidSpecError, match="two covariates"):
            ScenarioSpec(setting=3, n=10, P=3)
        with pytest.raises(InvalidSpecError, match="P must be"):
            ScenarioSpec(setting=1, n=10, P=0)
        with pytest.raises(InvalidSpecError, match="n >= J >= 1"):
            ScenarioSpec(setting=1, n=2, P=2, J=3)
        with pytest.raises(InvalidSpecError, match="gamma"):
            ScenarioSpec(setting=3, n=10, P=2, gamma=3.5)
        # boundaries are inside the allowed range
        ScenarioSpec(setting=3, n=10, P=2, gamma=0.0)
        ScenarioSpec(setting=3, n=10, P=2, gamma=3.0)

    def test_to_dict(self):
        d = ScenarioSpec(setting=2, n=50, P=3, J=2, gamma=1.5, seed=4).to_dict()
        assert d == {"setting": 2, "n": 50, "P": 3, "J": 2, "gamma": 1.5, "seed": 4}


class TestCovariateDraws:
    def test_ar1_moments(self):
        spec = ScenarioSpec(setting=1, n=100_000, P=4)
        X = draw_covariates(spec, np.random.default_rng(3))
        assert X.shape == (100_000, 4)
        assert np.allclose(X.var(axis=0), 1.0, atol=0.02)
        corr = np.corrcoef(X.T)
        for a in range(4):
            for b in range(a + 1, 4):
                assert corr[a, b] == pytest.approx(0.6 ** (b - a), abs=0.015)

    def test_bernoulli_prevalences(self):
        spec = ScenarioSpec(setting=2, n=100_000, P=5)
        X = draw_covariates(spec, np.random.default_rng(4))
        assert set(np.unique(X)) == {0.0, 1.0}
        assert np.allclose(X.mean(axis=0), np.linspace(0.05, 0.2, 5), atol=0.01)

    def test_setting3_uses_ar1_pair(self):
        spec = ScenarioSpec(setting=3, n=50_000, P=2)
        X = draw_covariates(spec, np.random.default_rng(5))
        assert np.corrcoef(X.T)[0, 1] == pytest.approx(0.6, abs=0.02)


class TestInversion:
    def test_zero_effects_reproduce_exponential_inverse(self):
        # constant hazard makes the trapezoid rule exact, so the solver must
        # return -2 log u up to its own 1e-8 stopping rule
        u = np.random.default_rng(5).random(20_000)
        D = draw_survival_times(np.zeros((20_000, 1)), ("constant:0",), 0.0, u,
                                grid_end=30.0, cap=None)
        exact = -np.log(u) / 0.5
        assert np.abs(D - exact).max() < 1e-6
        assert D.mean() == pytest.approx(2.0, rel=0.02)

    def test_cap_pins_tail_draws(self):
        u = np.random.default_rng(6).random(5_000)
        D = draw_survival_times(np.zeros((5_000, 1)), ("constant:0",), 0.0, u)
        exact = -np.log(u) / 0.5
        inside = exact < 3.0
        assert np.abs(D[inside] - exact[inside]).max() < 1e-6
        assert np.all(D[~inside] == 3.0)
        assert D.max() <= 3.0

    def test_u_edges(self):
        D = draw_survival_times(np.zeros((2, 1)), ("constant:0",), 0.0,
                                np.array([1.0, 0.0]))
        assert D[0] == 0.0   # tau = 0 is an immediate death
        assert D[1] == 3.0   # u = 0 wants an infinite time; capped

    def test_vanishing_hazard_pushes_everything_to_cap(self):
        u = np.random.default_rng(7).random(200)
        D = draw_survival_times(np.ones((200, 1)), ("constant:-700",), 0.0, u)
        assert np.all(D == 3.0)

    def test_empirical_cdf_within_dkw_band(self):
        # capped draws share the raw CDF below the horizon, so the band is
        # checked there; alpha = 1e-6 at n = 1e5 gives eps ~ 0.0085
        n = 100_000
        u = np.random.default_rng(8).random(n)
        D = draw_survival_times(np.zeros((n, 1)), ("constant:0",), 0.0, u)
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2 * n))
        ts = np.linspace(0.05, 2.95, 60)
        ecdf = np.searchsorted(np.sort(D), ts, side="right") / n
        truth = 1.0 - np.exp(-0.5 * ts)
        assert np.abs(ecdf - truth).max() < eps


class TestInversionOracle:
    """The block scan against the dense grid it replaced, bit for bit."""

    @staticmethod
    def _generated(setting, P, n, seed=11):
        spec = ScenarioSpec(setting=setting, n=n, P=P, seed=seed)
        rng = np.random.default_rng(seed)
        X = draw_covariates(spec, rng)
        return X, spec.coefficient_tags, spec.gamma, rng.random(n)

    @pytest.mark.parametrize("setting, P", [(1, 1), (1, 4), (1, 7), (1, 40), (2, 1),
                                            (2, 4), (2, 7), (2, 40), (3, 2)])
    def test_generated_draws_match_the_dense_grid(self, setting, P):
        # n around the 4096-row chunk; 9000 draws put crossings in the
        # first and the last column of the scan's blocks
        columns = []
        for n in (1, 4095, 4096, 4097, 9000):
            X, tags, gamma, u = self._generated(setting, P, n)
            D_ref, j_ref = dense_survival_times(X, tags, gamma, u)
            assert np.array_equal(draw_survival_times(X, tags, gamma, u), D_ref)
            columns.append(j_ref)
        at = (np.concatenate(columns) - 1) % _SCAN_BLOCK
        assert np.any(at == 0) and np.any(at == _SCAN_BLOCK - 1)

    def test_edge_targets_match_the_dense_grid(self):
        X, tags, gamma, u = self._generated(1, 4, 300)
        u[:3], u[3:6], u[6:9] = 0.0, 1.0, 1e-300
        D_ref, _ = dense_survival_times(X, tags, gamma, u)
        assert np.array_equal(draw_survival_times(X, tags, gamma, u), D_ref)

    def test_vanishing_hazard_matches_the_dense_grid(self):
        u = np.random.default_rng(7).random(200)
        X = np.ones((200, 1))
        D_ref, _ = dense_survival_times(X, ("constant:-700",), 0.0, u)
        assert np.array_equal(draw_survival_times(X, ("constant:-700",), 0.0, u), D_ref)

    def test_uncapped_long_grid_matches_the_dense_grid(self):
        X, tags, gamma, u = self._generated(1, 4, 500)
        with np.errstate(over="ignore"):  # the dense grid's late columns overflow exp
            D_ref, _ = dense_survival_times(X, tags, gamma, u, grid_end=30.0, cap=None)
        D = draw_survival_times(X, tags, gamma, u, grid_end=30.0, cap=None)
        assert np.array_equal(D, D_ref)

    def test_generate_memory_does_not_grow_with_the_grid(self):
        # the dense grid held 4096 x 3001 floats per array, 367 MiB at peak
        spec = ScenarioSpec(setting=1, n=8000, P=4, seed=11)
        tracemalloc.start()
        try:
            generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestGenerate:
    def test_deterministic_and_shaped(self):
        spec = ScenarioSpec(setting=2, n=300, P=3, J=2, seed=12)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.covariates, b.covariates)
        assert a.n == 300 and a.P == 3
        assert set(np.unique(a.status)) <= {0, 1}
        assert np.all((a.time > 0) & (a.time <= 3.0))

    def test_round_robin_strata_and_names(self):
        ds = generate(ScenarioSpec(setting=1, n=10, P=2, J=3, seed=1))
        assert np.array_equal(ds.stratum, np.arange(10) % 3)
        assert ds.stratum_labels == ("s001", "s002", "s003")
        assert ds.covariate_names == ("x1", "x2")

    def test_draw_order_contract(self):
        # regenerating the stream by hand must reproduce the dataset exactly:
        # covariates first, then inversion uniforms, then censoring times
        spec = ScenarioSpec(setting=2, n=400, P=3, J=2, seed=11)
        ds = generate(spec)
        rng = np.random.default_rng(11)
        X = draw_covariates(spec, rng)
        u = rng.random(400)
        C = rng.uniform(0.0, 3.0, 400)
        D = draw_survival_times(X, spec.coefficient_tags, spec.gamma, u)
        assert np.array_equal(ds.covariates, X)
        assert np.array_equal(ds.time, np.minimum(D, C))
        assert np.array_equal(ds.status, (D < C).astype(ds.status.dtype))
        # censoring mechanics: events are deaths strictly inside the horizon
        events = ds.status == 1
        assert np.all(ds.time[events] < 3.0)
        assert np.array_equal(ds.time[events], D[events])
        assert np.all((ds.time[~events] == C[~events])
                      | (ds.time[~events] == 3.0))

    def test_baseline_censoring_fraction(self):
        # setting-1 pipeline with all effects zeroed: the censored share has
        # the closed form (2/3)(1 - exp(-3/2)) = 0.5179
        n = 100_000
        rng = np.random.default_rng(77)
        spec = ScenarioSpec(setting=1, n=n, P=4, seed=77)
        X = draw_covariates(spec, rng)
        u = rng.random(n)
        C = rng.uniform(0.0, 3.0, n)
        D = draw_survival_times(X, ("constant:0",) * 4, 0.0, u)
        censored = np.mean(D >= C)
        assert censored == pytest.approx(BASELINE_CENSOR_FRACTION, abs=0.006)


class TestMetrics:
    def spec_and_basis(self, K=4):
        return make_spec(degree=3, K=K, event_times=np.linspace(0.02, 2.95, 60))

    def test_exact_fit_scores_zero(self):
        # constant truth rows are reproduced exactly by constant coefficient
        # rows, thanks to the partition of unity
        scen = ScenarioSpec(setting=3, n=10, P=2, gamma=0.0)
        spec = self.spec_and_basis()
        fit = flat_fit([[1.0] * 4, [0.0] * 4], spec)
        rep = metrics(fit, scen)
        assert np.allclose(rep.bias_per_covariate, 0.0, atol=1e-12)
        assert np.allclose(rep.imse_per_covariate, 0.0, atol=1e-12)
        assert rep.bias == pytest.approx(0.0, abs=1e-12)
        assert rep.imse == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_has_known_bias_and_imse(self):
        scen = ScenarioSpec(setting=3, n=10, P=2, gamma=0.0)
        spec = self.spec_and_basis()
        fit = flat_fit([[1.1] * 4, [0.0] * 4], spec, optimizer="mmsa", wall=0.5)
        rep = metrics(fit, scen)
        assert rep.bias_per_covariate[0] == pytest.approx(0.1, rel=1e-10)
        assert rep.imse_per_covariate[0] == pytest.approx(0.01, rel=1e-10)
        assert rep.bias_per_covariate[1] == pytest.approx(0.0, abs=1e-14)
        assert rep.bias == pytest.approx(0.05, rel=1e-10)
        assert rep.imse == pytest.approx(0.005, rel=1e-10)
        assert rep.optimizer == "mmsa" and rep.wall_time_sec == 0.5

    def test_default_grid_is_the_metric_grid(self):
        scen = ScenarioSpec(setting=3, n=10, P=2, gamma=0.0)
        rep = metrics(flat_fit([[1.0] * 4, [0.0] * 4], self.spec_and_basis()), scen)
        assert np.array_equal(rep.grid, METRIC_GRID)
        assert METRIC_GRID.shape == (100,)
        assert METRIC_GRID[0] == 0.05 and METRIC_GRID[-1] == 2.8

    def test_covariate_count_mismatch(self):
        scen = ScenarioSpec(setting=1, n=10, P=4)
        fit = flat_fit(np.zeros((2, 4)), self.spec_and_basis())
        with pytest.raises(ValueError, match="covariate count"):
            metrics(fit, scen)

    def test_report_is_a_plain_record(self):
        rep = MetricsReport(grid=METRIC_GRID, bias_per_covariate=np.zeros(2),
                            imse_per_covariate=np.zeros(2), bias=0.0, imse=0.0,
                            wall_time_sec=1.0, optimizer="newton")
        assert rep.optimizer == "newton"
