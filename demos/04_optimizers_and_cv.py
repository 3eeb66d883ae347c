"""Choosing an optimizer and choosing K.

All three optimizers maximize the same concave partial likelihood, so on
a well-conditioned problem they should agree on the optimum and differ
only in how they get there.  The first half of this script fits one
dataset with each optimizer and tabulates iteration count, stopping
reason, and two distances from the Newton reference: the log-likelihood
shortfall and the largest coefficient difference.  The likelihood is
quite flat near its maximum, so a method can sit within a thousandth of
the optimal log likelihood while its coefficients still differ in the
second decimal.  The script also verifies the property the
block-selected method is built around: its log-likelihood trace never
decreases.

The second half picks the basis dimension K by 5-fold cross-validated
partial likelihood.  Folds are stratified on (stratum x event status),
each fold's score is the full-data log likelihood of the training fit
minus the training log likelihood, and ties go to the smallest K.

Run:  python3 demos/04_optimizers_and_cv.py  (about ten seconds)
"""

import numpy as np

from tvcox import make_spec
from tvcox.inference import cross_validate_K
from tvcox.optimizers import MmsaConfig, coordinate_ascent_fit, mmsa_fit, newton_fit
from tvcox.simulate import ScenarioSpec, generate

dataset = generate(ScenarioSpec(setting=1, n=600, P=4, seed=7))
spec = make_spec(degree=3, K=4, event_times=dataset.event_times)
print(f"one dataset (n = {dataset.n}, P = {dataset.P}), cubic basis with K = 4\n")

config = MmsaConfig(tol=1e-9, max_iterations=60000)
runs = [("newton", newton_fit), ("mmsa", mmsa_fit), ("coordinate", coordinate_ascent_fit)]
fits = [(name, fn(dataset, spec, config)) for name, fn in runs]
ref = fits[0][1]

print("  optimizer    iters  stopped on              ll shortfall  max |coef diff|")
for name, fit in fits:
    ll_gap = ref.loglik - fit.loglik
    coef_gap = np.abs(fit.theta - ref.theta).max()
    print(f"  {name:10s} {fit.iterations:7d}  {fit.reason:22s} {ll_gap:12.2e} "
          f"{coef_gap:16.2e}")

trace_ll = [loglik for _block, _criterion, loglik in fits[1][1].trace]
drops = np.diff(np.array(trace_ll))
print(f"\nmmsa trace is monotone: smallest per-iteration change = {drops.min():.2e}"
      f" (never negative)")

print("\ncross-validating K on a larger draw from the same setting:")
cv_data = generate(ScenarioSpec(setting=1, n=1200, P=4, seed=8))
report = cross_validate_K(cv_data, [4, 5, 6, 7, 8], folds=5,
                          config=MmsaConfig(tol=1e-6), optimizer="newton")
for K, score in zip(report.candidates, report.scores):
    chosen = "  <- chosen" if K == report.chosen_K else ""
    print(f"  K = {K}: summed held-out score = {score:10.4f}{chosen}")
print("larger K fits the training folds better but transfers worse; the")
print("cross-validated score is what arbitrates that trade.")
