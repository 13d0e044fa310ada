"""Acceptance suite: each test exercises one headline criterion at full
scale and prints a PASS/FAIL line (visible with ``pytest -s``)."""

import json
import time

import numpy as np
import pytest

from persymdet import (
    ScenarioConfig,
    act_scale,
    alpha_for_sinr,
    ancillarity_check,
    calibrate_threshold,
    cfar_sweep,
    compute_psi,
    covariance_model,
    estimate_rate,
    sinr,
    statistic_samples,
    steering,
)
from persymdet import group
from persymdet.cli import main

from conftest import make_statistic

# conditioning cap for sampled elements: round-off in the acted statistic
# grows like eps * cond(S) * cond(G)^2 * t1, so elements are kept well
# conditioned to leave the 1e-8 tolerances entirely to the theory
ELEMENT_CONDITION = 100.0
N, K = 8, 16
DETECTORS = ("glr", "2s-glr", "wald", "rao")


def _report(criterion, passed, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def invariance_deviations():
    """10^2 random statistics x 10 sampled elements = 10^3 group actions; max
    relative deviation of the MIS, of each detector and of the trace-psi0 control."""
    rng = np.random.default_rng(20260808)
    stats = [make_statistic(seed, n=N, k=K) for seed in range(100)]
    names = DETECTORS + ("trace-psi0",)
    started = time.perf_counter()
    devs = group._invariance_deviations(stats, names, 10, rng, ELEMENT_CONDITION)
    return devs[0], dict(zip(names, devs[1:])), time.perf_counter() - started


@pytest.fixture(scope="module")
def identity_deviations():
    """Over 10^4 random statistics: the worst MIS-form/direct gap of each
    detector, then the worst breach of interlacing and rank-one structure."""
    stats = [make_statistic(seed, n=N, k=K) for seed in range(10_000)]
    started = time.perf_counter()
    *gaps, breach = group._identity_deviations(stats, DETECTORS)
    return dict(zip(DETECTORS, gaps)), breach, time.perf_counter() - started


def test_criterion_1_mis_invariance(invariance_deviations):
    mis_dev, _, elapsed = invariance_deviations
    ok = mis_dev <= 1e-8 and elapsed <= 10.0
    _report(1, ok, f"MIS invariance max dev {mis_dev:.3e} <= 1e-8, {elapsed:.1f}s")
    assert ok


def test_criterion_2_detector_invariance(invariance_deviations):
    _, det_dev, elapsed = invariance_deviations
    tols = {"glr": 1e-8, "2s-glr": 1e-8, "wald": 1e-8, "rao": 1e-6}
    control = det_dev["trace-psi0"]  # read from the same actions; must move
    ok = all(det_dev[n] <= t for n, t in tols.items()) and control > 1e-3 and elapsed <= 30.0
    detail = ", ".join(f"{name} {det_dev[name]:.2e}" for name in tols)
    _report(2, ok, f"detector invariance: {detail}; negative control trace-psi0 "
            f"{control:.3g} > 1e-3, {elapsed:.1f}s")
    assert ok, detail


def test_criterion_3_mis_form_identities(identity_deviations):
    worst, _, elapsed = identity_deviations
    tols = {"glr": 1e-9, "2s-glr": 1e-12, "wald": 1e-10, "rao": 1e-9}
    ok = all(worst[n] <= t for n, t in tols.items()) and elapsed <= 10.0
    detail = ", ".join(f"{n} {worst[n]:.2e}" for n in tols)
    _report(3, ok, f"form identities on 1e4 instances: {detail}, {elapsed:.1f}s")
    assert ok, detail


def test_criterion_4_interlacing_and_rank_one(identity_deviations):
    _, breach, _ = identity_deviations
    ok = breach <= 1e-10
    _report(4, ok, f"worst interlacing / rank-one breach {breach:.3e} <= 1e-10 on 1e4 instances")
    assert ok


def test_criterion_5_cfar_sweep():
    detectors = ["glr", "2s-glr", "rao", "wald"]
    base = ScenarioConfig(n=N, k=K, nu=0.1, cnr_db=10.0)
    started = time.perf_counter()
    sweep = cfar_sweep(
        detectors + ["trace-psi0"],
        base,
        gamma_grid=[0.25, 1.0, 4.0],
        rho_grid=[0.0, 0.9, 0.99],
        target_pfa=1e-2,
        trials=100_000,
        seed=20260808,
        calibration_trials=1_000_000,
        workers=4,
    )
    elapsed = time.perf_counter() - started
    cells = [c for c in sweep.cells if c.detector != "trace-psi0"]
    control = [c for c in sweep.cells if c.detector == "trace-psi0"]
    assert len(cells) == 36 and len(control) == 9
    worst = max(abs(c.estimate.point - 1e-2) for c in cells)
    all_pass = all(c.passed for c in cells)
    control_fails = all(not c.passed for c in control if c.gamma != 1.0)
    ok = all_pass and control_fails and elapsed <= 300.0
    _report(
        5,
        ok,
        f"36/36 cells in 3-sigma band: {all_pass} (worst |pfa_hat - 1e-2| = "
        f"{worst:.2e}, band 9.4e-4); negative control fails gamma != 1: "
        f"{control_fails}; {elapsed:.0f}s",
    )
    for c in cells:
        assert c.passed, (c.detector, c.gamma, c.rho, c.estimate.point)
    for c in control:
        if c.gamma != 1.0:
            assert not c.passed, (c.gamma, c.rho, c.estimate.point)
    assert elapsed <= 300.0


def test_criterion_6_induced_invariant():
    # different correlation, secondary scaling and target phase, same SINR:
    # detection probability must agree within the combined CI width
    target_sinr_db = 12.0
    variants = [
        dict(rho=0.0, gamma=1.0, phase=0.0),
        dict(rho=0.9, gamma=4.0, phase=2.0),
    ]
    pds = []
    for i, v in enumerate(variants):
        h0 = ScenarioConfig(n=N, k=K, rho=v["rho"], gamma=v["gamma"], cnr_db=10.0, nu=0.1)
        m0 = covariance_model(N, v["rho"], 0.0, 10.0)
        sv = steering(N, 0.1)
        alpha = alpha_for_sinr(target_sinr_db, v["phase"], sv, m0)
        assert 10 * np.log10(sinr(alpha, sv, m0)) == pytest.approx(target_sinr_db)
        h1 = ScenarioConfig(
            n=N, k=K, rho=v["rho"], gamma=v["gamma"], cnr_db=10.0, nu=0.1,
            hypothesis="H1", alpha=alpha,
        )
        eta = calibrate_threshold(
            statistic_samples(h0, "glr", 600_000, 6001 + i, workers=4)["glr"],
            target_pfa=1e-2,
        )
        h1_values = statistic_samples(h1, "glr", 100_000, 6101 + i, workers=4)["glr"]
        pds.append(estimate_rate(h1_values, eta))
    gap = abs(pds[0].point - pds[1].point)
    widths = sum(ci[1] - ci[0] for ci in (pds[0].ci95, pds[1].ci95))
    ok = gap < widths
    _report(
        6,
        ok,
        f"Pd at equal SINR: {pds[0].point:.4f} vs {pds[1].point:.4f}, "
        f"gap {gap:.4f} < combined CI width {widths:.4f}",
    )
    assert gap < widths


def test_criterion_7_ancillarity():
    h0 = ScenarioConfig(n=N, k=K, rho=0.5, cnr_db=5.0, nu=0.1)
    h1 = ScenarioConfig(
        n=N, k=K, rho=0.5, cnr_db=5.0, nu=0.1, hypothesis="H1", sinr_db=15.0
    )
    r3 = ancillarity_check(h0, h1, 10_000, seed=701, component=3)
    r1 = ancillarity_check(h0, h1, 10_000, seed=701, component=1)
    ok = r3.passed and not r1.passed
    _report(
        7,
        ok,
        f"t3 KS {r3.statistic:.4f} < {r3.threshold:.4f} (ancillary); "
        f"t1 KS {r1.statistic:.4f} (shifts, negative control)",
    )
    assert r3.passed
    assert not r1.passed


def test_criterion_8_scatter_scaling_law():
    worst = 0.0
    for seed in range(20):
        stat = make_statistic(seed, n=N, k=K)
        lam = np.array(compute_psi(stat).lam)
        for phi in (1e-2, 1.0, 1e2):
            lam_scaled = np.array(compute_psi(act_scale(phi, stat)).lam)
            worst = max(worst, np.max(np.abs(lam_scaled * phi - lam) / lam))
    ok = worst <= 1e-10
    _report(8, ok, f"eigenvalue scaling law max rel dev {worst:.3e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_9_cli_determinism(tmp_path):
    base = {"n": N, "k": K, "rho": 0.5, "cnr_db": 5.0}
    jobs = {
        "cfar": {**base, "trials": 1500, "pfa": 0.05,
                 "gamma_grid": [0.5, 1.0], "rho_grid": [0.0, 0.9]},
        "roc": {**base, "trials": 1500, "pfa_grid": [0.05, 0.2], "sinr_db": 10.0},
        "mis-sample": {**base, "trials": 50},
    }
    identical = {}
    for command, payload in jobs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(payload))
        bodies = []
        for run, workers in enumerate(("1", "3")):
            out = tmp_path / f"{command}-{run}.csv"
            code = main([command, "--config", str(cfg), "--out", str(out),
                         "--seed", "99", "--workers", workers])
            assert code == 0
            bodies.append(out.read_bytes())
        identical[command] = bodies[0] == bodies[1]
    ok = all(identical.values())
    _report(9, ok, f"byte-identical CSV across workers: {identical}")
    assert ok
