"""Testing whether an effect actually varies over time.

A constant effect is the sub-model with all K spline coefficients equal,
so 'does beta_p(t) vary?' becomes a linear hypothesis on theta_p: the
K - 1 successive coefficient differences are all zero.  The Wald
statistic for that hypothesis is chi-square with K - 1 degrees of
freedom under the null.  This script fits one dataset where the tested
effect truly is constant and one where it follows a sine curve, prints
the per-covariate test table for each, then repeats the experiment over
many seeds to show the two things a test must do: reject rarely when
the null is true, and reject often when it is false.

Run:  python3 demos/03_constancy_test.py  (a few seconds)
"""

import numpy as np

from tvcox import make_spec
from tvcox.inference import test_all_covariates
from tvcox.likelihood import score_residuals
from tvcox.optimizers import MmsaConfig, newton_fit
from tvcox.simulate import ScenarioSpec, generate


def fit_and_test(gamma, seed, n=500, K=4):
    """Fit one scenario-3 draw and return the per-covariate Wald tests."""
    scen = ScenarioSpec(setting=3, n=n, P=2, gamma=gamma, seed=seed)
    dataset = generate(scen)
    spec = make_spec(degree=3, K=K, event_times=dataset.event_times)
    fit = newton_fit(dataset, spec, MmsaConfig(tol=1e-8))
    # the means of the fit's last pass: the residuals need no likelihood pass
    resid = score_residuals(*fit.fitting_data, fit.theta, fit.risk_set_means)
    return test_all_covariates(fit.theta, resid)


# the second covariate's true effect is gamma * sin(3 pi t / 4): constant
# (identically zero) at gamma = 0, strongly time-varying at gamma = 2
for gamma, label in [(0.0, "null"), (2.0, "alternative")]:
    print(f"gamma = {gamma} ({label} for covariate 2):")
    print("  covariate   statistic   df   p-value   varies at 5%?")
    for t in fit_and_test(gamma, seed=42):
        verdict = "yes" if t.p_value < 0.05 else "no"
        print(f"  {t.covariate + 1:9d} {t.statistic:11.3f} {t.df:4d} "
              f"{t.p_value:9.4f}   {verdict}")
    print()

reps = 40
null_p = np.array([fit_and_test(0.0, seed=100 + r)[1].p_value for r in range(reps)])
alt_p = np.array([fit_and_test(2.0, seed=100 + r)[1].p_value for r in range(reps)])

print(f"over {reps} replicates, rejection rate for covariate 2 at level 0.05:")
print(f"  gamma = 0 (truth constant):      {np.mean(null_p < 0.05):.3f}")
print(f"  gamma = 2 (truth time-varying):  {np.mean(alt_p < 0.05):.3f}")
print("null p-values should look uniform; deciles:")
print(f"  {np.round(np.quantile(null_p, np.linspace(0.1, 0.9, 9)), 2)}")
