"""Recovering effect curves from simulated survival data.

The first simulation setting has four covariates whose true log-hazard
effects are, in order: the constant 1, a sine curve, the constant -1,
and a polynomial-times-exponential bump.  This script simulates a cohort
from that setting, fits the model with the Newton optimizer, and checks
the fit two ways.  A table compares the estimated curves with the truth
along the follow-up window, and pointwise 95% bands (from the inverse of
the observed information) are checked for how often they cover the true
curve.  Bias and integrated squared error per covariate summarize the
same comparison numerically.

Run:  python3 demos/02_fit_time_varying_effects.py
"""

import numpy as np

from tvcox import make_spec
from tvcox.inference import covariance_from_hessian, curve_with_bands
from tvcox.likelihood import full_hessian
from tvcox.optimizers import MmsaConfig, newton_fit
from tvcox.simulate import ScenarioSpec, generate, metrics, true_beta

scen = ScenarioSpec(setting=1, n=2000, P=4, seed=11)
dataset = generate(scen)
print(f"simulated cohort: n = {dataset.n}, events = {int(dataset.status.sum())}, "
      f"P = {dataset.P} covariates")

spec = make_spec(degree=3, K=5, event_times=dataset.event_times)
fit = newton_fit(dataset, spec, MmsaConfig(tol=1e-8))
print(f"newton fit: loglik = {fit.loglik:.4f} after {fit.iterations} iterations "
      f"(stopped on {fit.reason})")

# covariance of the flattened coefficients on the fitting scale, from the
# data the fit ran on, then curves and bands mapped back to the original
# covariate scale
cov = covariance_from_hessian(full_hessian(*fit.fitting_data, fit.theta))

grid = np.linspace(0.1, 2.5, 80)
curves = curve_with_bands(fit.theta, cov, spec, grid, transform=fit.transform)

truth_all = np.stack([true_beta(tag, grid) for tag in scen.coefficient_tags])

print("\nestimate vs truth for the sine-shaped effect (covariate 2):")
print("      t   truth   estimate      95% band")
for g in range(0, len(grid), 10):
    t, truth = grid[g], truth_all[1, g]
    est, lo, hi = curves.estimate[1, g], curves.lower[1, g], curves.upper[1, g]
    mark = "" if lo <= truth <= hi else " <- outside"
    print(f" {t:6.3f} {truth:7.3f} {est:10.3f}   [{lo:6.3f}, {hi:6.3f}]{mark}")

covered = (curves.lower <= truth_all) & (truth_all <= curves.upper)
print("\npointwise 95% band coverage of the truth, per covariate:")
for p, tag in enumerate(scen.coefficient_tags):
    print(f"  covariate {p + 1} ({tag:12s}): {covered[p].mean():5.1%} of grid points")

report = metrics(fit, scen)
print("\nper-covariate error summaries on the default metric grid:")
print("  covariate        bias      IMSE")
for p in range(dataset.P):
    print(f"  {p + 1:9d} {report.bias_per_covariate[p]:9.4f} "
          f"{report.imse_per_covariate[p]:9.4f}")
print(f"  scalar summaries: mean |bias| = {report.bias:.4f}, "
      f"mean IMSE = {report.imse:.4f}")
