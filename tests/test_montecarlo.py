import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from persymdet import (
    DegenerateStatisticError,
    SingularSecondaryError,
    ScenarioConfig,
    ancillarity_check,
    as_hypothesis,
    assemble,
    binomial_band,
    build_transform,
    calibrate_threshold,
    canonicalize,
    cfar_sweep,
    compute_psi,
    estimate_rate,
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

from conftest import draw_task

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

    @pytest.mark.parametrize("successes", [-1, 11, float("nan")])
    def test_successes_outside_trials_rejected(self, successes):
        with pytest.raises(ValueError, match="^successes must lie in"):
            wilson_interval(successes, 10)

    def test_no_trials_rejected(self):
        with pytest.raises(ValueError, match="^trials must be >= 1"):
            wilson_interval(0, 0)
        with pytest.raises(ValueError, match="^trials must be >= 1"):
            binomial_band(0.1, 0)

    @pytest.mark.parametrize("target", [-0.1, 1.5, float("nan")])
    def test_band_target_outside_unit_interval_rejected(self, target):
        with pytest.raises(ValueError, match="^target must lie in"):
            binomial_band(target, 100)


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
                ref = detectors._scalar(name, psis, stat.k, stat.n)
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

    def test_three_channel_error_comes_before_any_draw(self, monkeypatch):
        # N = 2 is rejected before any block is drawn, and before workers is read
        draws = []
        real_draw = montecarlo._draw_batch
        monkeypatch.setattr(montecarlo, "_draw_batch",
                            lambda *args: draws.append(args) or real_draw(*args))
        h0 = ScenarioConfig(n=2, k=8)
        h1 = as_hypothesis(h0, "H1", sinr_db=10.0)
        with pytest.raises(DegenerateStatisticError, match="N >= 3"):
            mis_samples(h0, 10, 0, workers=0)
        with pytest.raises(DegenerateStatisticError, match="N >= 3"):
            ancillarity_check(h0, h1, 10, seed=0, workers=0)
        assert draws == []

    @pytest.mark.parametrize("quad", [
        (4.0, 3.0, 2.0, 0.0),
        (4.0, 3.0, 2.0, 1e-13),
        (4.0, 3.0, 2.0, -1.0),
        (np.nan, 3.0, 2.0, 1.0),
        (4.0, np.nan, 2.0, 1.0),
        (4.0, 3.0, np.inf, 1.0),
        (4.0, 3.0, 2.0, np.inf),
        (-np.inf, -np.inf, -np.inf, 1.0),
    ])
    def test_one_lambda4_rule_on_both_paths(self, quad):
        # the rule as mis applies it to a pair's floats, and on the engine's stack
        good = (4.0, 3.0, 2.0, 1.0)
        rule = stats_module._degenerate_lambda4
        assert not stats_module._any(rule(*good))
        assert stats_module._any(rule(*(float(x) for x in quad)))
        assert montecarlo._mis_from_lam(np.array([good, good]))[1, 0] == 4.0
        with pytest.raises(DegenerateStatisticError, match="^trial 2: degenerate") as err:
            montecarlo._mis_from_lam(np.array([good, good, quad]))
        assert "np.float64" not in str(err.value)

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
        zp, s = draw_task(cfg, 0, trials, seed)
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
        zp, s = draw_task(cfg, 0, 2048, 5)
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
        # and one rekeyer per _draw_batch call, however many pieces it draws
        calls, rekeyers = [], []

        def counting_rekeyer():
            rekey = streams.stream_rekeyer()
            rekeyers.append(rekey)

            def counted(*args):
                calls.append(args)
                return rekey(*args)

            return counted

        monkeypatch.setattr(montecarlo, "stream_rekeyer", counting_rekeyer)
        start, count, seed = 10, 37, 3
        draw_task(CFG, start, count, seed)
        assert calls == [(seed, start + j) for j in range(count)]
        assert len(rekeyers) == 1
        calls.clear()
        jobs = [montecarlo._Job(CFG, 5, 4), montecarlo._Job(CFG, 2, 5)]
        [pieces] = montecarlo._plan([5, 2], 7)
        models = [montecarlo._chunk_maps(CFG)] * 2
        montecarlo._draw_batch(jobs, models, pieces)
        assert calls == [(4, j) for j in range(5)] + [(5, j) for j in range(2)]
        assert len(rekeyers) == 2

    def test_shared_pool_sweep_counts(self, monkeypatch):
        # one cfar_sweep on a shared pool: one rekey per trial of each job,
        # and one _run_chunk call and one _draw_batch call per draw block
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

        def run_chunk(jobs, models, pieces, *rest):
            run_chunks.append(
                [(jobs[p.sample].master_seed, (p.start, p.stop)) for p in pieces]
            )
            return real_run_chunk(jobs, models, pieces, *rest)

        def draw(jobs, models, pieces, *rest):
            draws.append([(jobs[p.sample].master_seed, (p.start, p.stop)) for p in pieces])
            return real_draw(jobs, models, pieces, *rest)

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
        # 19 500 trials in job order, cut every 606 rows (864 doubles each)
        rows = montecarlo._block_rows(CFG.n, CFG.k, 19_500)
        assert rows == 606
        expected = [
            [(jobs[p.sample][0], (p.start, p.stop)) for p in block]
            for block in montecarlo._plan([n for _, n in jobs], rows)
        ]
        assert len(expected) == 33  # 32 full blocks and one of 108 trials
        s0, s1 = jobs[0][0], jobs[1][0]
        assert expected[7] == [(s0, (4242, 4500)), (s1, (0, 348))]
        assert sorted(run_chunks) == sorted(expected)
        assert sorted(draws) == sorted(expected)

    def test_one_psi_and_one_detector_call_per_chunk(self, monkeypatch):
        # the traced benchmark times psi as montecarlo._psi_batch and each
        # statistic as detectors._batch_values inside every _run_chunk: once
        # per draw block, however many pieces the block stacks
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
        # calibration and three cells: 19 500 trials in 33 blocks of 606 rows
        assert len(calls) == 33
        for c in calls:
            assert Counter(c) == Counter(["psi", *names])

    @pytest.mark.parametrize("names", [
        *(list(c) + ["2s-glr", "trace-psi0"] for r in (1, 2, 3)
          for c in combinations(["wald", "rao", "glr"], r)),
        ["trace-psi0", "2s-glr"],
    ])
    def test_one_prelude_per_block(self, monkeypatch, names):
        # GLR, Rao and Wald share one prelude per draw block; the trace
        # statistics need none
        calls = []
        real_prelude = detectors._prelude

        def prelude(*args, **kwargs):
            calls.append(args[-1])
            return real_prelude(*args, **kwargs)

        monkeypatch.setattr(detectors, "_prelude", prelude)
        statistic_samples(CFG, names, 1_300, 3, workers=2)
        shared = {"glr", "rao", "wald"} & set(names)
        # 1 300 trials in blocks of 606 rows starting at trials 0, 606, 1 212
        assert sorted(calls) == ([0, 606, 1_212] if shared else [])


def _per_sample_plan(sizes, rows):
    """Each sample cut into blocks of ``rows`` trials of its own, as if run alone."""
    return [
        (montecarlo._Piece(j, a, min(a + rows, size), 0),)
        for j, size in enumerate(sizes)
        for a in range(0, size, rows)
    ]


class TestTaskPlan:
    """Blocks of ``_block_rows`` rows, one pool task each, may span samples.

    No output may notice.
    """

    ROWS = 606  # at N = 8, K = 16

    @staticmethod
    def _flatten(tasks):
        return [(p.sample, p.start, p.stop) for task in tasks for p in task]

    @pytest.mark.parametrize(
        "sizes", [[1], [3, 7], [605, 1, 607], [5000] * 3 + [4500], [1] * 9, [1212, 3]]
    )
    def test_tasks_cover_every_trial_once_in_order(self, sizes):
        rows = self.ROWS
        tasks = montecarlo._plan(sizes, rows)
        assert tasks == montecarlo._plan(list(sizes), rows)
        assert len(tasks) == -(-sum(sizes) // rows)
        for task in tasks:
            assert [p.row for p in task] == [sum(q.stop - q.start for q in task[:i])
                                             for i in range(len(task))]
            assert all(p.stop > p.start for p in task)
        assert all(task[-1].rows.stop == rows for task in tasks[:-1])
        # the pieces of a sample are consecutive and cover it from 0 to its size
        merged = {}
        for sample, start, stop in self._flatten(tasks):
            assert merged.get(sample, 0) == start
            merged[sample] = stop
        assert merged == dict(enumerate(sizes))

    @pytest.mark.parametrize("sizes", [[1], [2] * 9, [2, 2], [1, 3, 1]])
    def test_multiples_of_chunk_are_cut_as_alone(self, sizes):
        # samples whose sizes, given here in blocks, are multiples of the rows
        sizes = [self.ROWS * b for b in sizes]
        assert montecarlo._plan(sizes, self.ROWS) == _per_sample_plan(sizes, self.ROWS)

    def test_full_cfar_call_plan(self):
        # perfbench's cfar-n8 call: calibration and 8 cells of 8192 trials
        rows = montecarlo._block_rows(8, 16, 9 * 8192)
        tasks = montecarlo._plan([8192] * 9, rows)
        assert rows == self.ROWS and len(tasks) == 122
        assert tasks[-1][-1].rows.stop == 9 * 8192 - 121 * rows
        # its smallest call: nine one-trial samples in one block
        smallest = montecarlo._plan([1] * 9, montecarlo._block_rows(8, 16, 9))
        assert [len(task) for task in smallest] == [9]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_plan_does_not_depend_on_workers(self, monkeypatch, workers):
        seen = []
        real_run_chunk = montecarlo._run_chunk

        def run_chunk(jobs, models, pieces, *rest):
            seen.append(pieces)
            return real_run_chunk(jobs, models, pieces, *rest)

        monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
        cfar_sweep("glr", CFG, [0.5, 1.0], [0.0], 0.05, 3000, 1,
                   calibration_trials=2000, workers=workers)
        assert sorted(seen) == montecarlo._plan([2000, 3000], self.ROWS)

    def test_task_rows_reach_outputs_as_one_slice(self, monkeypatch):
        # every block writes straight into consecutive rows of the call's
        # outputs, which lay the samples out in job order
        tasks = []
        real_run_chunk = montecarlo._run_chunk

        def run_chunk(jobs, models, pieces, out):
            tasks.append((pieces, out))
            return real_run_chunk(jobs, models, pieces, out)

        monkeypatch.setattr(montecarlo, "_run_chunk", run_chunk)
        names, sizes = ["glr", "rao"], (4095, 3, 4097)
        jobs = [montecarlo._Job(CFG, n, 30 + j) for j, n in enumerate(sizes)]
        values, lam, offsets = montecarlo._collect(jobs, 2, names, with_lam=True)
        assert offsets.tolist() == [0, 4095, 4098, 8195]
        plan = montecarlo._plan(sizes, self.ROWS)
        assert sorted(p for p, _ in tasks) == plan and max(map(len, plan)) == 3
        # the statistics are the rows of one shared table
        table = values[names[0]].base
        assert table.shape == (len(names), offsets[-1])
        assert all(values[name].base is table for name in names)
        for pieces, (task_values, task_lam) in tasks:
            first = offsets[pieces[0].sample] + pieces[0].start
            assert first % self.ROWS == 0
            assert task_lam.base is lam and len(task_lam) == pieces[-1].rows.stop
            assert (task_lam.ctypes.data - lam.ctypes.data) // lam.strides[0] == first
            for name in names:
                view = task_values[name]
                assert view.base is table and len(view) == len(task_lam)
                assert (view.ctypes.data - values[name].ctypes.data) // 8 == first
        # sample 0 ends inside a block that holds all of sample 1
        alone = statistic_samples(CFG, names, sizes[0], 30)
        for name in names:
            assert values[name][: offsets[1]].tobytes() == alone[name].tobytes()

    SIZES = [1, 3, 4095, 4097, 5000]
    H1 = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1, hypothesis="H1",
                        sinr_db=10.0)

    def _calls(self, size, workers):
        names = list(detectors.STATISTIC_NAMES)
        samples = statistic_samples(CFG, names, size, 21, workers=workers)
        t, lam = mis_samples(CFG, size, 22, workers=workers)
        return (
            [samples[name] for name in names],
            [t, lam],
            cfar_sweep(names, CFG, [0.5, 1.0], [0.0, 0.9], 0.05, size, 23,
                       calibration_trials=size + 2, workers=workers),
            roc_curve("rao", CFG, 8.0, [0.1, 1.0], size, 24, workers=workers),
            ancillarity_check(CFG, self.H1, size, 25, workers=workers),
        )

    @pytest.mark.parametrize("size", SIZES)
    def test_bit_identical_to_per_sample_reference(self, monkeypatch, size):
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_plan", _per_sample_plan)  # same rows
            reference = self._calls(size, 1)
        for workers in (1, 2, 3):
            got = self._calls(size, workers)
            for arrays, ref_arrays in zip(got[:2], reference[:2]):
                for a, b in zip(arrays, ref_arrays):
                    assert a.tobytes() == b.tobytes()
            assert got[2:] == reference[2:]

    def test_error_names_trial_within_its_own_sample(self, monkeypatch):
        # one block holds the calibration sample and the (0.5, 0.0) cell;
        # trial 1 of the cell, row 4 of the stack, has a singular S22
        real_draw = montecarlo._draw_batch

        def draw(*args):
            zp, s = real_draw(*args)
            s[4, 1:, 1:] = 0.0
            return zp, s

        monkeypatch.setattr(montecarlo, "_draw_batch", draw)
        assert [len(t) for t in montecarlo._plan([3, 3], 6)] == [2]
        with pytest.raises(DegenerateStatisticError, match=r"^trial 1: scatter block S22"):
            cfar_sweep("glr", CFG, [0.5, 1.0], [0.0], 0.05, 3, 9)

    def test_error_names_trial_within_its_own_sample_with_lam(self, monkeypatch):
        # the same on the eigenvalue path: one block holds both hypotheses of
        # an ancillarity check, and trial 1 of H1, row 4, has a singular S22
        real_draw = montecarlo._draw_batch

        def draw(*args):
            zp, s = real_draw(*args)
            s[4, 1:, 1:] = 0.0
            return zp, s

        monkeypatch.setattr(montecarlo, "_draw_batch", draw)
        rows = montecarlo._block_rows(CFG.n, CFG.k, 6)
        assert [len(t) for t in montecarlo._plan([3, 3], rows)] == [2]
        h1 = as_hypothesis(CFG, "H1", sinr_db=10.0)
        with pytest.raises(DegenerateStatisticError, match=r"^trial 1: scatter block S22"):
            ancillarity_check(CFG, h1, 3, seed=9)


class TestGrouping:
    """A trial's ``(zp, s)`` and values do not depend on how trials are grouped.

    One call lines up samples that share the target seed so that the same
    trials sit in pieces of 4095, 2, 18, 19, 63 and 300 rows, across the
    block edges of the first sample (trials 4063 | 4064 at N = 3, 605 | 606
    at N = 8, 38 | 39 at N = 32) and, at N = 32, inside the 19- and 63-trial
    samples (17 | 18, 37 | 38) and in the last sample (19 | 20 in a block of
    two pieces, then 97 | 98); at N = 3 and N = 8 the short samples share
    one block. Indices 62 | 63, 99 | 100, 251 | 252 and 962 | 963 add the
    edges of other block sizes. Each trial is compared with the trial drawn
    alone.
    """

    CASES = (
        ScenarioConfig(n=3, k=6, rho=0.5, cnr_db=5.0, nu=0.1, hypothesis="H1", sinr_db=8.0),
        ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=10.0, nu=0.1, gamma=2.0),
        ScenarioConfig(n=32, k=64, rho=0.9, cnr_db=10.0, nu=0.1, hypothesis="H1",
                       sinr_db=10.0),
    )
    SEED, FILLER_SEED = 41, 42
    NAMES = list(detectors.STATISTIC_NAMES)
    # sizes of the target samples, and the fillers that place them
    SIZES = [4095, 1, 2, 18, 19, 63, 3894, 300]
    TARGETS = (0, 2, 3, 4, 5, 7)
    INDICES = (0, 1, 17, 18, 19, 20, 35, 36, 37, 38, 39, 62, 97, 98, 99, 100, 251, 252,
               299, 605, 606, 962, 963, 4063, 4064, 4094)

    def _alone(self, cfg, index):
        job = montecarlo._Job(cfg, index + 1, self.SEED)
        out = ({name: np.empty(1) for name in self.NAMES}, None)
        piece = montecarlo._Piece(0, index, index + 1, 0)
        montecarlo._run_chunk([job], [montecarlo._chunk_maps(cfg)], (piece,), out)
        zp, s = draw_task(cfg, index, 1, self.SEED)
        return zp[0], s[0], {name: out[0][name][0] for name in self.NAMES}

    def test_layout_plan(self):
        def blocks(n, k, *indices):
            rows = montecarlo._block_rows(n, k, sum(self.SIZES))
            plan = montecarlo._plan(self.SIZES, rows)
            return rows, [[(p.sample, p.start, p.stop) for p in plan[i]] for i in indices]

        assert blocks(3, 6, 1)[0] == 4064
        # N = 8: one block holds the first sample's tail, every short sample
        # and the head of the filler
        assert blocks(8, 16, 6) == (606, [
            [(0, 3636, 4095), (1, 0, 1), (2, 0, 2), (3, 0, 18), (4, 0, 19), (5, 0, 63),
             (6, 0, 44)],
        ])
        # N = 32: the first sample is 105 whole blocks; edges fall inside the
        # short samples and the last one
        assert blocks(32, 64, 105, 106, 107, 207, 209) == (39, [
            [(1, 0, 1), (2, 0, 2), (3, 0, 18), (4, 0, 18)],
            [(4, 18, 19), (5, 0, 38)],
            [(5, 38, 63), (6, 0, 14)],
            [(6, 3875, 3894), (7, 0, 20)],
            [(7, 59, 98)],
        ])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cfg", CASES, ids=lambda c: f"n{c.n}")
    def test_trial_is_byte_identical_in_every_layout(self, monkeypatch, cfg, workers):
        alone = {i: self._alone(cfg, i) for i in self.INDICES}
        drawn = {}
        real_draw = montecarlo._draw_batch

        def draw(jobs, models, pieces):
            zp, s = real_draw(jobs, models, pieces)
            for p in pieces:
                for i in set(self.INDICES).intersection(range(p.start, p.stop)):
                    row = p.row + i - p.start
                    drawn[p.sample, i] = zp[row].copy(), s[row].copy()
            return zp, s

        monkeypatch.setattr(montecarlo, "_draw_batch", draw)
        jobs = [
            montecarlo._Job(cfg, size, self.SEED if j in self.TARGETS else self.FILLER_SEED)
            for j, size in enumerate(self.SIZES)
        ]
        values, _, offsets = montecarlo._collect(jobs, workers, self.NAMES)
        checked = 0
        for j in self.TARGETS:
            for i in (i for i in self.INDICES if i < self.SIZES[j]):
                zp, s, ref = alone[i]
                assert drawn[j, i][0].tobytes() == zp.tobytes()
                assert drawn[j, i][1].tobytes() == s.tobytes()
                for name in self.NAMES:
                    assert values[name][offsets[j] + i].tobytes() == ref[name].tobytes()
                checked += 1
        assert checked == 26 + 2 + 3 + 4 + 12 + 19  # every index inside each target


def test_block_keeps_its_draw_after_the_next_block():
    # each draw block owns its buffers: the next block drawn on the same
    # thread leaves the first block's (Zp, S) as they were
    job, maps = montecarlo._Job(CFG, 14, 4), montecarlo._chunk_maps(CFG)
    first, second = montecarlo._plan([14], 7)
    zp, s = montecarlo._draw_batch([job], [maps], first)
    kept = zp.tobytes(), s.tobytes()
    montecarlo._draw_batch([job], [maps], second)
    assert (zp.tobytes(), s.tobytes()) == kept


def test_task_memory_does_not_grow_with_its_rows():
    # a call holds one block's buffers, never an array over its trials
    # beyond its outputs: its peak stays within 8 MB at N = 8 and at N = 32,
    # and does not grow with the call's trials
    def peak(cfg, trials):
        tracemalloc.start()
        try:
            statistic_samples(cfg, "glr", trials, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for cfg in (ScenarioConfig(n=8, k=16, rho=0.9, cnr_db=10.0, nu=0.1),
                ScenarioConfig(n=32, k=64, rho=0.9, cnr_db=10.0, nu=0.1)):
        full, quarter = peak(cfg, 4096), peak(cfg, 1024)
        assert abs(full - quarter) < 1 << 20, (cfg.n, full, quarter)
        assert full < 8 << 20, (cfg.n, full)


class TestSharedPool:
    """One pool per public call keeps results independent of worker count."""

    GRID = ([0.5, 1.0], [0.0, 0.9])
    TRIALS = 5000  # several blocks per sample

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_cfar_sweep(self, workers):
        args = (["glr", "rao"], CFG, *self.GRID, 0.05, self.TRIALS, 3)
        assert cfar_sweep(*args, workers=workers) == cfar_sweep(*args, workers=1)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_roc_curve(self, workers):
        args = ("wald", CFG, 8.0, [0.01, 0.1], self.TRIALS, 4)
        assert roc_curve(*args, workers=workers) == roc_curve(*args, workers=1)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_ancillarity_check(self, workers):
        h1 = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5.0, nu=0.1,
                            hypothesis="H1", sinr_db=10.0)
        args = (CFG, h1, self.TRIALS, 5)
        assert ancillarity_check(*args, workers=workers) == ancillarity_check(*args, workers=1)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_mis_samples(self, workers):
        t1, lam1 = mis_samples(CFG, self.TRIALS, 6, workers=1)
        t, lam = mis_samples(CFG, self.TRIALS, 6, workers=workers)
        assert np.array_equal(t, t1) and np.array_equal(lam, lam1)

    def test_concurrent_calls_equal_serial_calls(self):
        # two user threads, each on its own pool (more threads than cores),
        # draw concurrently with frequent GIL switches and get the serial results
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

    @staticmethod
    def _fill_lock_states(monkeypatch, fail_at=None):
        """Patch the rekeyer to record, at each fill, whether ``_FILL_LOCK`` is held.

        With ``fail_at``, the first rekey after ``fail_at`` fills raises.
        """
        held = []

        class RecordingStream:
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, out):
                held.append(montecarlo._FILL_LOCK.locked())
                return self.gen.standard_normal(out=out)

        def recording_rekeyer():
            rekey = streams.stream_rekeyer()

            def recorded(master_seed, index):
                if len(held) == fail_at:
                    raise RuntimeError("rekey failed")
                return RecordingStream(rekey(master_seed, index))

            return recorded

        monkeypatch.setattr(montecarlo, "stream_rekeyer", recording_rekeyer)
        return held

    @pytest.mark.parametrize("n,k,locked", [
        (3, 6, True),     # 2N(K+1) = 42 normals a trial
        (8, 16, True),    # 272
        (12, 24, True),   # 600
        (16, 32, False),  # 1056
        (32, 64, False),  # 4160
    ])
    def test_fill_lock_only_when_gil_bound(self, monkeypatch, n, k, locked):
        # every fill of a block whose trials draw fewer than 1024 normals runs
        # under _FILL_LOCK, and none of a longer one
        assert montecarlo._GIL_BOUND_NORMALS == 1024
        assert (2 * n * (k + 1) < montecarlo._GIL_BOUND_NORMALS) is locked
        held = self._fill_lock_states(monkeypatch)
        cfg = ScenarioConfig(n=n, k=k, rho=0.5, cnr_db=5.0, nu=0.1)
        trials = 2 * montecarlo._block_rows(n, k, 10**6) + 3  # three blocks
        statistic_samples(cfg, "glr", trials, 1)
        assert held == [locked] * trials
        # a block of nine pieces, one per sample, fills all of them and only
        # then maps each piece, with the lock free
        held.clear()
        mapped = []

        class RecordingMaps:
            def __getattr__(self, name):
                mapped.append((len(held), montecarlo._FILL_LOCK.locked()))
                return getattr(montecarlo._chunk_maps(cfg), name)

        [pieces] = montecarlo._plan([1] * 9, 9)
        jobs = [montecarlo._Job(cfg, 1, seed) for seed in range(9)]
        montecarlo._draw_batch(jobs, [RecordingMaps()] * 9, pieces)
        assert held == [locked] * 9
        assert mapped and all(m == (9, False) for m in mapped)
        assert not montecarlo._FILL_LOCK.locked()

    @pytest.mark.parametrize("n,k", [(3, 6), (8, 16)])
    def test_fill_lock_released_when_a_fill_raises(self, monkeypatch, n, k):
        held = self._fill_lock_states(monkeypatch, fail_at=5)
        cfg = ScenarioConfig(n=n, k=k, rho=0.5, cnr_db=5.0, nu=0.1)
        with pytest.raises(RuntimeError, match="rekey failed"):
            draw_task(cfg, 0, 20, 1)
        assert held == [True] * 5
        assert not montecarlo._FILL_LOCK.locked()

    def test_block_rows_follow_one_rule(self):
        # _BLOCK_BYTES over a trial's buffers (2N(K+1) normals, 4KN GEMM
        # outputs, 2N for Zp and N^2 for S), for every trial size, capped by
        # the call's trials, and never below one trial
        for n, k, rows in ((3, 6, 4064), (8, 16, 606), (32, 64, 39), (256, 512, 1)):
            doubles = 2 * n * (k + 1) + 4 * k * n + 2 * n + n * n
            assert rows == max(1, montecarlo._BLOCK_BYTES // (8 * doubles))
            assert montecarlo._block_rows(n, k, 10**6) == rows
            assert montecarlo._block_rows(n, k, rows + 1) == rows
            assert montecarlo._block_rows(n, k, 1) == 1
        assert montecarlo._block_rows(8, 16, 500) == 500
        assert montecarlo._BLOCK_BYTES == 1 << 22  # 4 MB of buffers


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

    @pytest.mark.parametrize("value", [100.7, 0.5, "100", None, float("nan"), float("inf")])
    def test_non_integral_counts_rejected(self, value):
        calls = {
            "trials": [
                lambda: statistic_samples(CFG, "glr", value, 1),
                lambda: mis_samples(CFG, value, 1),
                lambda: cfar_sweep("glr", CFG, [1.0], [0.0], 0.1, value, 1),
                lambda: roc_curve("glr", CFG, 5.0, [0.1], value, 1),
            ],
            "workers": [
                lambda: statistic_samples(CFG, "glr", 10, 1, workers=value),
            ],
            # None is the default: calibrate on ``trials``
            "calibration_trials": [] if value is None else [
                lambda: cfar_sweep("glr", CFG, [1.0], [0.0], 0.1, 100, 1, calibration_trials=value),
            ],
        }
        for field, field_calls in calls.items():
            for call in field_calls:
                with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                    call()

    def test_bool_counts_rejected(self):
        with pytest.raises(ValueError, match="^trials must be an integer"):
            mis_samples(CFG, True, 1)
        with pytest.raises(ValueError, match="^workers must be an integer"):
            statistic_samples(CFG, "glr", 4, 1, workers=True)

    @pytest.mark.parametrize("value", [8, np.int64(8), 8.0])
    def test_integral_counts_accepted(self, value):
        out = statistic_samples(CFG, "glr", value, 1, workers=value)["glr"]
        assert out.shape == (8,)
        assert np.array_equal(out, statistic_samples(CFG, "glr", 8, 1)["glr"])


class TestCalibration:
    def test_median_at_half(self):
        values = statistic_samples(CFG, "2s-glr", 1001, 3)["2s-glr"]
        assert calibrate_threshold(values, 0.5) == np.median(values)

    def test_thin_sample_warns(self):
        values = statistic_samples(CFG, "2s-glr", 500, 3)["2s-glr"]
        with pytest.warns(UserWarning, match="rule of thumb"):
            calibrate_threshold(values, 0.01)

    def test_worker_invariance(self):
        v1 = statistic_samples(CFG, "glr", 4_000, 9, workers=1)["glr"]
        v4 = statistic_samples(CFG, "glr", 4_000, 9, workers=4)["glr"]
        assert calibrate_threshold(v1, 0.05) == calibrate_threshold(v4, 0.05)

    def test_threshold_monotone_in_pfa(self):
        values = statistic_samples(CFG, "wald", 20_000, 4)["wald"]
        etas = [calibrate_threshold(values, pfa) for pfa in (0.005, 0.02, 0.1, 0.3, 0.7)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_ci_covers_target(self):
        eta = calibrate_threshold(statistic_samples(CFG, "glr", 40_000, 12)["glr"], 0.01)
        est = estimate_rate(statistic_samples(CFG, "glr", 40_000, 13)["glr"], eta)
        assert est.ci95[0] <= 0.01 <= est.ci95[1]

    @pytest.mark.parametrize("pfa", [0.0, -0.1, 1.5, float("nan")])
    def test_target_pfa_outside_unit_interval_rejected(self, pfa):
        with pytest.raises(ValueError, match="target_pfa"):
            calibrate_threshold(np.arange(1000.0), pfa)


@pytest.mark.parametrize("values", [np.array([]), np.ones((100, 2))], ids=["empty", "2-D"])
def test_malformed_sample_rejected(values):
    with pytest.raises(ValueError, match="nonempty 1-D sample"):
        calibrate_threshold(values, 0.5)
    with pytest.raises(ValueError, match="nonempty 1-D sample"):
        estimate_rate(values, 0.0)


def test_nan_sample_rejected():
    # a NaN would sort past every value and count as no exceedance
    values = np.append(np.random.default_rng(0).standard_normal(1000), [np.nan] * 20)
    with pytest.raises(ValueError, match="NaN"):
        calibrate_threshold(values, 0.01)
    with pytest.raises(ValueError, match="NaN"):
        estimate_rate(values, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        estimate_rate(values[:1000], np.nan)


class TestEstimateRate:
    def test_infinite_thresholds(self):
        values = statistic_samples(CFG, "glr", 500, 1)["glr"]
        assert estimate_rate(values, -np.inf).point == 1.0
        assert estimate_rate(values, np.inf).point == 0.0

    def test_infinite_values_are_legal(self):
        values = np.array([-np.inf, 0.0, np.inf])
        assert estimate_rate(values, 0.0).point == 2.0 / 3.0
        assert estimate_rate(values, np.inf).point == 1.0 / 3.0
        with pytest.warns(UserWarning, match="rule of thumb"):
            assert calibrate_threshold(values, 0.5) == 0.0


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

    @pytest.mark.parametrize("gammas, rhos, field", [
        ([0.0], [0.0], "gamma"),
        ([-1.0], [0.0], "gamma"),
        ([np.inf], [0.0], "gamma"),
        ([np.nan], [0.0], "gamma"),
        ([1.0], [-0.1], "rho"),
        ([1.0], [1.0], "rho"),
        ([1.0], [np.nan], "rho"),
        ([0.5, 1.0, np.nan], [0.0, 0.9], "gamma"),  # after valid values
        ([0.5, 1.0], [0.0, 0.9, 1.0], "rho"),
    ])
    def test_invalid_grid_rejected_before_any_draw(self, monkeypatch, gammas, rhos, field):
        def collect(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(montecarlo, "_collect", collect)
        with pytest.raises(ValueError, match=field):
            cfar_sweep("glr", CFG, gammas, rhos, 0.05, 10, seed=0)

    def test_cell_configs_are_the_validated_copies(self, monkeypatch):
        # each cell's config equals, and hashes like, the one replace()
        # builds, so the per-config caches hit as before
        seen = []
        real_collect = montecarlo._collect
        monkeypatch.setattr(montecarlo, "_collect",
                            lambda jobs, *args: seen.append(jobs) or real_collect(jobs, *args))
        base = ScenarioConfig(n=8, k=16, rho=0.5, cnr_db=5, nu=0.1, gamma=3, seed=9,
                              hypothesis="H1", sinr_db=10.0)
        gammas, rhos = [0.5, 1.0, 2], [0.0, 0.9]
        cfar_sweep("glr", base, gammas, rhos, 0.1, 5, seed=1)
        h0 = as_hypothesis(base, "H0")
        expected = [replace(h0, gamma=1.0, rho=0.0)] + [
            replace(h0, gamma=float(g), rho=r)
            for g in gammas for r in rhos if (g, r) != (1.0, 0.0)
        ]
        (jobs,) = seen
        cfgs = [job.cfg for job in jobs]
        assert cfgs == expected and all(type(c) is ScenarioConfig for c in cfgs)
        assert [hash(c) for c in cfgs] == [hash(c) for c in expected]
        misses = montecarlo._chunk_maps.cache_info().misses
        for cfg in expected:
            montecarlo._chunk_maps(cfg)
        assert montecarlo._chunk_maps.cache_info().misses == misses

    def test_cfar_at_extreme_secondary_power(self):
        # psi scales like 1 / gamma: products of raw psi entries over- or
        # underflow here, so GLR, Rao and Wald must see unit-trace forms
        names = ["glr", "2s-glr", "rao", "wald"]
        base = ScenarioConfig(n=8, k=16)
        points = []
        for gamma in (1e-300, 1e300):
            result = cfar_sweep(names, base, [gamma], [0.0], 0.05, 2000, seed=0)
            assert result.all_passed, result.cells
            points.append([c.estimate.point for c in result.cells])
        # the cell draws the same normals at either power
        assert points[0] == points[1]

    @pytest.mark.parametrize("gammas, rhos, own_samples", [
        ([0.5, 1.0], [0.0, 0.9], 3),  # the reference cell reuses the calibration
        ([0.5, 2.0], [0.3], 2),  # no reference cell
        ([0.5, 0.5, 1.0], [0.0], 2),  # a repeated value draws a sample per cell
    ])
    def test_trials_drawn(self, gammas, rhos, own_samples):
        trials, n_cal = 50, 70
        result = cfar_sweep("glr", CFG, gammas, rhos, 0.1, trials, 4, calibration_trials=n_cal)
        assert result.trials_drawn == n_cal + own_samples * trials

    def test_matches_sample_api(self):
        # the sweep's threshold is calibrate_threshold on job 0 and each other
        # cell is estimate_rate on job 1 + its grid index
        name, pfa, trials, n_cal, seed = "wald", 0.05, 2_000, 4_000, 17
        gammas, rhos = [0.5, 1.0], [0.3, 0.8]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # trials * pfa >= 100 everywhere
            result = cfar_sweep(name, CFG, gammas, rhos, pfa, trials, seed, calibration_trials=n_cal)
            ref_cfg = replace(CFG, gamma=1.0, rho=rhos[0])
            cal = statistic_samples(ref_cfg, name, n_cal, derive_seed(seed, 0))[name]
            eta = calibrate_threshold(cal, pfa)
        assert result.thresholds[name] == eta
        idx = 1  # (gamma 0.5, rho 0.8)
        cell = result.cells[idx]
        assert (cell.gamma, cell.rho) == (0.5, 0.8)
        cfg = replace(CFG, gamma=0.5, rho=0.8)
        values = statistic_samples(cfg, name, trials, derive_seed(seed, 1 + idx))[name]
        assert cell.estimate == estimate_rate(values, eta)

    def test_one_trial_cells_match_their_own_estimates(self):
        # cells with one (count, trials) share one estimate and verdict;
        # each must equal the cell built from its own sample
        names = list(detectors.STATISTIC_NAMES)
        gammas, rhos, pfa = [0.25, 1.0, 4.0], [0.0, 0.9, 0.99], 0.01
        grid = [(g, r) for g in gammas for r in rhos]
        for seed in range(4):
            result = cfar_sweep(names, CFG, gammas, rhos, pfa, 1, seed, calibration_trials=1)
            expected = []
            for name in names:
                eta = result.thresholds[name]
                for idx, (g, r) in enumerate(grid):
                    job = 0 if (g, r) == (1.0, rhos[0]) else 1 + idx
                    cfg = replace(CFG, gamma=g, rho=r)
                    value = statistic_samples(cfg, name, 1, derive_seed(seed, job))[name]
                    est = montecarlo._estimate(int(value[0] >= eta), 1)
                    passed = abs(est.point - pfa) <= binomial_band(pfa, 1)
                    expected.append(montecarlo.CfarCell(name, g, r, est, passed))
            assert list(result.cells) == expected


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

    def test_point_matches_sample_api(self):
        # an ROC point is calibrate_threshold on the H0 sample (job 0) and
        # estimate_rate on the H1 sample (job 1)
        pfa, trials, seed, sinr_db = 0.05, 3_000, 23, 8.0
        points = roc_curve("rao", CFG, sinr_db, [0.2, pfa], trials, seed)
        h0 = as_hypothesis(CFG, "H0")
        h1 = as_hypothesis(CFG, "H1", sinr_db=sinr_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # trials * pfa >= 100
            cal = statistic_samples(h0, "rao", trials, derive_seed(seed, 0))["rao"]
            eta = calibrate_threshold(cal, pfa)
        assert points[0].pfa == pfa
        values = statistic_samples(h1, "rao", trials, derive_seed(seed, 1))["rao"]
        assert points[0].pd == estimate_rate(values, eta)

    def test_invalid_pfa_grid(self):
        with pytest.raises(ValueError):
            roc_curve("glr", CFG, 5.0, [0.0, 0.1], 100, seed=0)

    @pytest.mark.parametrize("nan_sample", [0, 1], ids=["H0", "H1"])
    def test_nan_sample_rejected(self, monkeypatch, nan_sample):
        # as estimate_rate rejects a NaN H1 sample or a NaN threshold
        def collect(jobs, workers, names):
            values = np.arange(20.0)
            values[10 * nan_sample : 10 * nan_sample + 10] = np.nan
            return {names[0]: values}, None, np.array([0, 10, 20])

        monkeypatch.setattr(montecarlo, "_collect", collect)
        with pytest.raises(ValueError, match="NaN"):
            roc_curve("glr", CFG, 5.0, [0.5], 10, seed=0)
