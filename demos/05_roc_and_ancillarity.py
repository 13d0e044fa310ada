"""Detection power and the ancillary component.

Two experiments:

1. ROC points for the GLR at several SINR levels; detection probability is
   driven by the output SINR alone (the induced invariant), so two very
   different disturbances, and target phases, with the same SINR give the
   same detection probability. That comparison runs the engine's sample ->
   threshold -> rate path by hand: an H0 sample calibrates the threshold and
   an H1 sample with the chosen complex amplitude gives Pd.
2. A two-sample KS comparison of the invariant's components across H0/H1:
   t3 is ancillary (its distribution ignores the hypothesis) while t1
   carries the detection information.
"""

import numpy as np

from persymdet import (
    ScenarioConfig,
    alpha_for_sinr,
    ancillarity_check,
    calibrate_threshold,
    covariance_model,
    estimate_rate,
    roc_curve,
    sinr,
    statistic_samples,
    steering,
)

TRIALS = 20_000

print("== ROC points (GLR) ==")
base = ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=10.0, nu=0.1)
for sinr_db in (5.0, 10.0, 15.0):
    points = roc_curve("glr", base, sinr_db, [1e-2, 5e-2, 2e-1], TRIALS, seed=31)
    row = "  ".join(f"Pd({p.pfa:g}) = {p.pd.point:.3f}" for p in points)
    print(f"SINR {sinr_db:>5.1f} dB: {row}")

print("\n== same SINR, different disturbance ==")
for rho, gamma, phase in ((0.0, 1.0, 0.0), (0.9, 4.0, 2.0)):
    disturbance = dict(n=8, k=16, rho=rho, gamma=gamma, cnr_db=10.0, nu=0.1)
    m0 = covariance_model(8, rho, 0.0, 10.0)
    alpha = alpha_for_sinr(12.0, phase, steering(8, 0.1), m0)
    achieved = 10 * np.log10(sinr(alpha, steering(8, 0.1), m0))
    h0 = ScenarioConfig(**disturbance)
    h1 = ScenarioConfig(**disturbance, hypothesis="H1", alpha=alpha)
    eta = calibrate_threshold(statistic_samples(h0, "glr", TRIALS, 55)["glr"], 1e-2)
    pd = estimate_rate(statistic_samples(h1, "glr", TRIALS, 56)["glr"], eta)
    print(f"rho={rho}, gamma={gamma}, phase={phase}: alpha = {alpha:.4f} "
          f"(SINR {achieved:.1f} dB) -> Pd(1e-2) = {pd.point:.3f}")

print("\n== ancillarity of t3 ==")
h0 = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1)
h1 = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1,
                    hypothesis="H1", sinr_db=15.0)
for component in (3, 1):
    r = ancillarity_check(h0, h1, 5_000, seed=8, component=component)
    verdict = "same distribution" if r.passed else "distribution shifts"
    print(f"t{component}: KS statistic {r.statistic:.4f} vs threshold "
          f"{r.threshold:.4f} -> {verdict}")
