import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from persymdet import (
    DegenerateStatisticError,
    SingularSecondaryError,
    ScenarioConfig,
    TrialPlan,
    ancillarity_check,
    assemble,
    binomial_band,
    build_transform,
    calibrate_threshold,
    canonicalize,
    cfar_sweep,
    compute_psi,
    detector_samples,
    estimate_rate,
    evaluate,
    mis_samples,
    roc_curve,
    sample_dataset,
    statistic_samples,
    steering,
    wilson_interval,
)
from persymdet import canonical, detectors, group, montecarlo, scenario, streams
from persymdet import statistics as stats_module
from persymdet.streams import derive_seed, derive_stream

CFG = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1)


class TestWilson:
    def test_bounds(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0

    def test_contains_point(self):
        lo, hi = wilson_interval(13, 100)
        assert lo <= 0.13 <= hi


class TestEngine:
    def test_matches_public_per_trial_path(self):
        # the vectorized chunk kernel must reproduce the public pipeline
        trials, seed = 40, 31
        vals = statistic_samples(CFG, ["glr", "2s-glr", "rao", "wald"], trials, seed)
        t, lam = mis_samples(CFG, trials, seed)
        xf = build_transform(steering(CFG.n, CFG.nu))
        for i in range(trials):
            ds = sample_dataset(CFG, derive_stream(seed, i))
            stat = assemble(canonicalize(ds.r, ds.rk, xf))
            psis = compute_psi(stat)
            for name in ("glr", "2s-glr", "rao", "wald"):
                ref = evaluate(name, stat).value
                assert vals[name][i] == pytest.approx(ref, rel=1e-10)
            assert np.allclose(lam[i], psis.lam, rtol=1e-10)

    def test_worker_count_is_observationally_pure(self):
        r1 = statistic_samples(CFG, ["glr", "rao"], 9_000, 5, workers=1)
        r4 = statistic_samples(CFG, ["glr", "rao"], 9_000, 5, workers=4)
        for name in r1:
            assert np.array_equal(r1[name], r4[name])

    def test_mis_needs_three_channels(self):
        with pytest.raises(DegenerateStatisticError):
            mis_samples(ScenarioConfig(n=2, k=8), 10, 0)

    def test_too_few_secondaries_is_typed(self):
        # 2K < N: the scatter is singular for every trial
        with pytest.raises(SingularSecondaryError, match="2K >= N"):
            mis_samples(ScenarioConfig(n=8, k=3), 100, 1)
        with pytest.raises(SingularSecondaryError):
            statistic_samples(ScenarioConfig(n=8, k=3), "glr", 100, 1)

    def test_low_support_warns_like_scalar_path(self):
        with pytest.warns(UserWarning, match="K >= 2N"):
            t, lam = mis_samples(ScenarioConfig(n=8, k=4), 100, 1)
        assert np.isfinite(t).all() and np.isfinite(lam).all()


class TestPsiBatchGuards:
    @staticmethod
    def _pair(count, n=4):
        zp = np.ones((count, n, 2))
        s = np.broadcast_to(4.0 * np.eye(n), (count, n, n)).copy()
        return zp, s

    def test_singular_s22_names_trial(self):
        zp, s = self._pair(5)
        s[3, 2, :] = 0.0
        s[3, :, 2] = 0.0
        with pytest.raises(DegenerateStatisticError, match="trial 103"):
            montecarlo._psi_batch(zp, s, index_base=100)

    @pytest.mark.parametrize("s11", [1.0, 0.5, np.nan])
    def test_nonpositive_schur_complement_names_trial(self, s11):
        zp, s = self._pair(5)
        # s11 - s12 S22^-1 s21 = s11 - 1
        s[2, 0, :] = s[2, :, 0] = [s11, 2.0, 0.0, 0.0]
        with pytest.raises(DegenerateStatisticError, match="trial 42"):
            montecarlo._psi_batch(zp, s, index_base=40)


class TestBatchedStructure:
    """Exact structure of the single-solve kernel on every trial."""

    GRID = [
        ScenarioConfig(n=8, k=16, gamma=g, rho=r, cnr_db=10.0, nu=0.1)
        for g in (0.25, 1.0, 4.0)
        for r in (0.0, 0.9, 0.99)
    ] + [ScenarioConfig(n=32, k=64, rho=0.9, cnr_db=10.0, nu=0.1)]

    @pytest.mark.parametrize("cfg", GRID, ids=lambda c: f"n{c.n}-g{c.gamma}-r{c.rho}")
    def test_rank_one_order_and_interlacing(self, cfg):
        trials, seed = (512 if cfg.n > 8 else 2048), 17
        zp, s = montecarlo._draw_batch(cfg, montecarlo._chunk_maps(cfg), 0, trials, seed)
        psi0, psi1 = montecarlo._psi_batch(zp, s)
        tr0 = psi0[:, 0, 0] + psi0[:, 1, 1]
        tr1 = psi1[:, 0, 0] + psi1[:, 1, 1]
        assert np.all(tr0 >= tr1)
        assert np.all(statistic_samples(cfg, "wald", trials, seed)["wald"] >= 0.0)
        t, _ = mis_samples(cfg, trials, seed)
        slack = 1e-10  # acceptance criterion 4
        assert np.all(t[:, 0] >= t[:, 2] - slack)
        assert np.all(t[:, 2] >= t[:, 1] - slack)
        assert np.all(t[:, 1] >= 1.0 - slack)

    def test_order_exact_when_rank_one_term_vanishes(self):
        # z1p = s12 S22^-1 Z2p makes psi0 = psi1 up to round-off, where a
        # difference of separately rounded traces would go either way
        cfg = self.GRID[0]
        zp, s = montecarlo._draw_batch(cfg, montecarlo._chunk_maps(cfg), 0, 2048, 5)
        zp[:, 0, :] = (s[:, :1, 1:] @ np.linalg.solve(s[:, 1:, 1:], zp[:, 1:, :]))[:, 0, :]
        psi0, psi1 = montecarlo._psi_batch(zp, s)
        assert np.all(psi0[:, 0, 0] + psi0[:, 1, 1] >= psi1[:, 0, 0] + psi1[:, 1, 1])
        assert np.all(detectors._batch_values("wald", psi0, psi1, cfg.k, cfg.n) >= 0.0)


class TestTraceEntryPoints:
    """The layer entry points the traced benchmark (perfbench) wraps."""

    ENTRY_POINTS = {
        montecarlo: ("_run_chunk", "_draw_batch", "stream_rekeyer", "_psi_batch"),
        detectors: ("_batch_values", "glr", "two_step_glr", "rao", "wald", "mis_form"),
        scenario: ("sample_dataset",),
        canonical: ("canonicalize",),
        stats_module: ("assemble", "compute_psi", "mis"),
        group: ("sample_group_element", "act"),
    }

    def test_entry_points_exist(self):
        for module, names in self.ENTRY_POINTS.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    def test_one_rekey_per_trial(self, monkeypatch):
        calls = []

        def counting_rekeyer():
            rekey = streams.stream_rekeyer()

            def counted(*args):
                calls.append(args)
                return rekey(*args)

            return counted

        monkeypatch.setattr(montecarlo, "stream_rekeyer", counting_rekeyer)
        start, count, seed = 10, 37, 3
        montecarlo._draw_batch(CFG, montecarlo._chunk_maps(CFG), start, count, seed)
        assert calls == [(seed, start + j) for j in range(count)]

    def test_shared_pool_sweep_counts(self, monkeypatch):
        # one cfar_sweep on a shared pool: one rekey per trial of each job,
        # one _run_chunk and one _draw_batch call per chunk
        rekeys, run_chunks, draws = [], [], []
        real_rekeyer = streams.stream_rekeyer
        real_run_chunk = montecarlo._run_chunk
        real_draw = montecarlo._draw_batch

        def counting_rekeyer():
            rekey = real_rekeyer()

            def counted(master_seed, index):
                rekeys.append((master_seed, index))
                return rekey(master_seed, index)

            return counted

        def run_chunk(cfg, model, names, span, master_seed, with_lam):
            run_chunks.append((master_seed, span))
            return real_run_chunk(cfg, model, names, span, master_seed, with_lam)

        def draw(cfg, model, start, count, master_seed):
            draws.append((master_seed, (start, start + count)))
            return real_draw(cfg, model, start, count, master_seed)

        monkeypatch.setattr(montecarlo, "stream_rekeyer", counting_rekeyer)
        monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
        monkeypatch.setattr(montecarlo, "_draw_batch", draw)
        seed, trials, n_cal = 7, 5_000, 4_500
        cfar_sweep("glr", CFG, [0.5, 1.0], [0.0, 0.9], 0.05, trials, seed,
                   calibration_trials=n_cal, workers=2)
        # cell 2 is the reference (gamma = 1, first rho) and reuses job 0
        jobs = [(derive_seed(seed, 0), n_cal)] + [
            (derive_seed(seed, 1 + idx), trials) for idx in (0, 1, 3)
        ]
        expected_rekeys = Counter((s, i) for s, n in jobs for i in range(n))
        assert Counter(rekeys) == expected_rekeys
        chunk = montecarlo._CHUNK
        expected_chunks = sorted(
            (s, (a, min(a + chunk, n))) for s, n in jobs for a in range(0, n, chunk)
        )
        assert sorted(run_chunks) == expected_chunks
        assert sorted(draws) == expected_chunks


    def test_one_psi_and_one_detector_call_per_chunk(self, monkeypatch):
        # the traced benchmark times psi as montecarlo._psi_batch and each
        # statistic as detectors._batch_values inside every _run_chunk
        local, calls = threading.local(), []
        real_run_chunk = montecarlo._run_chunk
        real_psi = montecarlo._psi_batch
        real_values = detectors._batch_values

        def run_chunk(*args):
            local.calls = []
            result = real_run_chunk(*args)
            calls.append(local.calls)
            return result

        def psi(*args, **kwargs):
            local.calls.append("psi")
            return real_psi(*args, **kwargs)

        def values(name, *args, **kwargs):
            local.calls.append(name)
            return real_values(name, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
        monkeypatch.setattr(montecarlo, "_psi_batch", psi)
        monkeypatch.setattr(detectors, "_batch_values", values)
        names = list(detectors.STATISTIC_NAMES)
        cfar_sweep(names, CFG, [0.5, 1.0], [0.0, 0.9], 0.05, 5_000, 7,
                   calibration_trials=4_500, workers=2)
        assert len(calls) == 4 * 2  # calibration and three cells, two chunks each
        assert all(sorted(c) == sorted(["psi"] + names) for c in calls)


class TestSharedPool:
    """One pool per public call keeps results independent of worker count."""

    GRID = ([0.5, 1.0], [0.0, 0.9])
    TRIALS = montecarlo._CHUNK + 904  # two chunks per sample

    @pytest.mark.parametrize("workers", [2, 3])
    def test_cfar_sweep(self, workers):
        args = (["glr", "rao"], CFG, *self.GRID, 0.05, self.TRIALS, 3)
        assert cfar_sweep(*args, workers=workers) == cfar_sweep(*args, workers=1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_roc_curve(self, workers):
        args = ("wald", CFG, 8.0, [0.01, 0.1], self.TRIALS, 4)
        assert roc_curve(*args, workers=workers) == roc_curve(*args, workers=1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_ancillarity_check(self, workers):
        h1 = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1,
                            hypothesis="H1", sinr_db=10.0)
        args = (CFG, h1, self.TRIALS, 5)
        assert ancillarity_check(*args, workers=workers) == ancillarity_check(*args, workers=1)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_mis_samples(self, workers):
        t1, lam1 = mis_samples(CFG, self.TRIALS, 6, workers=1)
        t, lam = mis_samples(CFG, self.TRIALS, 6, workers=workers)
        assert np.array_equal(t, t1) and np.array_equal(lam, lam1)

    def test_concurrent_calls_share_the_draw_lock_safely(self):
        # two user threads, each on its own pool (more threads than cores),
        # contend for the module lock with frequent GIL switches
        cases = [(CFG, 8), (ScenarioConfig(n=6, k=12, rho=0.9, gamma=2.0), 9)]
        serial = [statistic_samples(c, ["glr", "rao"], 9_000, s) for c, s in cases]
        barrier = threading.Barrier(len(cases))

        def call(case):
            barrier.wait(timeout=60)
            return statistic_samples(case[0], ["glr", "rao"], 9_000, case[1], workers=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(cases)) as users:
                got = list(users.map(call, cases, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        for ref, out in zip(serial, got):
            for name in ref:
                assert np.array_equal(out[name], ref[name])

    def test_draw_lock_only_when_gil_bound(self, monkeypatch):
        entered = []

        class RecordingLock:
            def __enter__(self):
                entered.append(True)

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(montecarlo, "_DRAW_LOCK", RecordingLock())
        small = ScenarioConfig(n=8, k=16)  # 2N(K+1) = 272 normals per trial
        large = ScenarioConfig(n=32, k=64)  # 4160
        montecarlo._draw_batch(small, montecarlo._chunk_maps(small), 0, 3, 1)
        assert len(entered) == 1
        montecarlo._draw_batch(large, montecarlo._chunk_maps(large), 0, 3, 1)
        assert len(entered) == 1


class TestValidation:
    H1 = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1, hypothesis="H1", sinr_db=10.0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_nonpositive_trials_rejected(self, trials):
        calls = [
            lambda: statistic_samples(CFG, "glr", trials, 1),
            lambda: mis_samples(CFG, trials, 1),
            lambda: cfar_sweep("glr", CFG, [1.0], [0.0], 0.1, trials, 1),
            lambda: cfar_sweep("glr", CFG, [1.0], [0.0], 0.1, 100, 1, calibration_trials=trials),
            lambda: roc_curve("glr", CFG, 5.0, [0.1], trials, 1),
            lambda: ancillarity_check(CFG, self.H1, trials, 1),
            lambda: TrialPlan(scenario=CFG, detector="glr", trials=trials, master_seed=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="trials must be >= 1"):
                call()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            statistic_samples(CFG, "glr", 10, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            mis_samples(CFG, 10, 1, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            TrialPlan(scenario=CFG, detector="glr", trials=10, master_seed=1, workers=workers)


class TestCalibration:
    def test_median_at_half(self):
        plan = TrialPlan(scenario=CFG, detector="2s-glr", trials=1001, master_seed=3)
        result = calibrate_threshold(plan, 0.5)
        values = detector_samples(plan)
        assert result.threshold == np.median(values)

    def test_thin_sample_warns(self):
        plan = TrialPlan(scenario=CFG, detector="2s-glr", trials=500, master_seed=3)
        with pytest.warns(UserWarning, match="rule of thumb"):
            calibrate_threshold(plan, 0.01)

    def test_worker_invariance(self):
        p1 = TrialPlan(scenario=CFG, detector="glr", trials=4_000, master_seed=9, workers=1)
        p4 = TrialPlan(scenario=CFG, detector="glr", trials=4_000, master_seed=9, workers=4)
        assert calibrate_threshold(p1, 0.05).threshold == calibrate_threshold(p4, 0.05).threshold

    def test_threshold_monotone_in_pfa(self):
        plan = TrialPlan(scenario=CFG, detector="wald", trials=20_000, master_seed=4)
        etas = [calibrate_threshold(plan, pfa).threshold for pfa in (0.005, 0.02, 0.1, 0.3, 0.7)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_requires_h0(self):
        h1 = ScenarioConfig(n=8, k=16, hypothesis="H1", sinr_db=10.0)
        with pytest.raises(ValueError):
            calibrate_threshold(TrialPlan(scenario=h1, detector="glr", trials=100, master_seed=0), 0.5)

    def test_ci_covers_target(self):
        plan = TrialPlan(scenario=CFG, detector="glr", trials=40_000, master_seed=12)
        result = calibrate_threshold(plan, 0.01)
        fresh = TrialPlan(scenario=CFG, detector="glr", trials=40_000, master_seed=13)
        est = estimate_rate(fresh, result.threshold)
        assert est.ci95[0] <= 0.01 <= est.ci95[1]


class TestEstimateRate:
    def test_infinite_thresholds(self):
        plan = TrialPlan(scenario=CFG, detector="glr", trials=500, master_seed=1)
        assert estimate_rate(plan, -np.inf).point == 1.0
        assert estimate_rate(plan, np.inf).point == 0.0


class TestCfarSweep:
    def test_small_grid_passes(self):
        result = cfar_sweep(
            ["glr", "wald"], CFG, [0.5, 1.0], [0.0, 0.9], 0.05, 3_000, seed=21,
            calibration_trials=30_000,
        )
        assert len(result.cells) == 8
        assert result.all_passed
        # rows are detector-major, then gamma, then rho
        assert [c.detector for c in result.cells[:4]] == ["glr"] * 4

    def test_reference_cell_by_construction(self):
        result = cfar_sweep("glr", CFG, [1.0], [0.0], 0.02, 5_000, seed=2)
        cell = result.cells[0]
        assert cell.passed
        assert cell.estimate.point == pytest.approx(0.02, abs=binomial_band(0.02, 5_000))

    def test_negative_control_fails_on_gamma(self):
        result = cfar_sweep("trace-psi0", CFG, [0.25, 1.0, 4.0], [0.0], 0.05, 3_000, seed=8)
        by_gamma = {c.gamma: c for c in result.cells}
        assert by_gamma[1.0].passed
        assert not by_gamma[0.25].passed
        assert not by_gamma[4.0].passed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            cfar_sweep("glr", CFG, [], [0.0], 0.05, 100, seed=0)


class TestAncillarity:
    H0 = ScenarioConfig(n=8, k=16)
    H1 = ScenarioConfig(n=8, k=16, hypothesis="H1", sinr_db=15.0)

    def test_same_distribution_passes(self):
        other = ScenarioConfig(n=8, k=16, hypothesis="H1", sinr_db=-np.inf)
        result = ancillarity_check(self.H0, other, 2_000, seed=6)
        assert result.passed

    def test_t3_ancillary_t1_not(self):
        r3 = ancillarity_check(self.H0, self.H1, 4_000, seed=7, component=3)
        r1 = ancillarity_check(self.H0, self.H1, 4_000, seed=7, component=1)
        assert r3.passed
        assert not r1.passed and r1.statistic > 10 * r1.threshold

    def test_mismatched_scenarios_rejected(self):
        other = ScenarioConfig(n=8, k=16, rho=0.5, hypothesis="H1", sinr_db=15.0)
        with pytest.raises(ValueError, match="rho"):
            ancillarity_check(self.H0, other, 100, seed=0)

    def test_needs_three_channels(self):
        h0 = ScenarioConfig(n=2, k=8)
        h1 = ScenarioConfig(n=2, k=8, hypothesis="H1", sinr_db=10.0)
        with pytest.raises(DegenerateStatisticError):
            ancillarity_check(h0, h1, 100, seed=0)


class TestRoc:
    def test_vanishing_signal_gives_diagonal(self):
        points = roc_curve("glr", CFG, -np.inf, [0.1, 0.4], 8_000, seed=14)
        for p in points:
            band = binomial_band(p.pfa, 8_000) + binomial_band(p.pfa, 8_000)
            assert abs(p.pd.point - p.pfa) <= band

    def test_certain_detection_at_pfa_one(self):
        points = roc_curve("glr", CFG, 5.0, [1.0], 500, seed=3)
        assert points[0].pd.point == 1.0

    def test_monotone_and_power_increases_with_sinr(self):
        weak = roc_curve("glr", CFG, 5.0, [0.01, 0.05, 0.2], 10_000, seed=4)
        strong = roc_curve("glr", CFG, 15.0, [0.01, 0.05, 0.2], 10_000, seed=4)
        pds_weak = [p.pd.point for p in weak]
        assert pds_weak == sorted(pds_weak)
        for w, s in zip(weak, strong):
            assert s.pd.point > w.pd.point

    def test_invalid_pfa_grid(self):
        with pytest.raises(ValueError):
            roc_curve("glr", CFG, 5.0, [0.0, 0.1], 100, seed=0)
