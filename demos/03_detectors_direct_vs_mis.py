"""The four detectors, and why CFAR comes for free.

Each statistic is computed in direct form from (psi0, psi1), then again
from the three invariant ratios alone: the same formula runs on a pair of
quadratic forms built from t. That is the whole CFAR argument: a statistic
that depends on data only through t has a null distribution free of the
unknown covariance and scaling.
"""

from persymdet import (
    DetectorKind,
    ScenarioConfig,
    assemble,
    build_transform,
    canonicalize,
    compute_psi,
    glr,
    mis,
    mis_form,
    rao,
    sample_dataset,
    steering,
    two_step_glr,
    wald,
)
from persymdet.streams import derive_stream

cfg = ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=15.0, nu=0.2,
                     hypothesis="H1", sinr_db=10.0, seed=11)
DIRECT = {
    DetectorKind.GLR: lambda psis: glr(psis, cfg.k, cfg.n),
    DetectorKind.TWO_STEP_GLR: two_step_glr,
    DetectorKind.RAO: lambda psis: rao(psis, cfg.k, cfg.n),
    DetectorKind.WALD: lambda psis: wald(psis, cfg.k, cfg.n),
}
xf = build_transform(steering(cfg.n, cfg.nu))
ds = sample_dataset(cfg)
stat = assemble(canonicalize(ds.r, ds.rk, xf))
psis = compute_psi(stat)
t = mis(psis)

print(f"invariant vector t = ({t.t1:.4f}, {t.t2:.4f}, {t.t3:.4f})\n")
print(f"{'detector':<10} {'direct':>14} {'from t alone':>14} {'rel gap':>10}")
for kind, direct_form in DIRECT.items():
    direct = direct_form(psis)
    via_t = mis_form(kind, t, stat.k, stat.n)
    gap = abs(via_t - direct) / abs(direct)
    print(f"{kind.value:<10} {direct:>14.8f} {via_t:>14.8f} {gap:>10.1e}")

print("\nH0 vs H1 detector response (same disturbance, 5 draws each):")
print(f"{'draw':<6} {'hyp':<4} {'glr':>10} {'2s-glr':>10} {'rao':>10} {'wald':>10}")
for hyp, label in ((ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=15.0, nu=0.2), "H0"),
                   (cfg, "H1")):
    for i in range(5):
        d = sample_dataset(hyp, derive_stream(100 + i, 0))
        p = compute_psi(assemble(canonicalize(d.r, d.rk, xf)))
        row = [direct_form(p) for direct_form in DIRECT.values()]
        print(f"{i:<6} {label:<4} " + " ".join(f"{v:>10.4f}" for v in row))
