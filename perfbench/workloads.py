"""The benchmark's workloads: inputs, library calls, correctness gates, spans.

Each workload makes its inputs from a seed, calls the public persymdet entry
points, and judges the operations (CFAR cells, ROC points or verification
trials) of a pool of ``input_reps`` repetitions made from the seed. A 30 s
run passes over the pool several times on two CPUs, so that each input is
timed more than once; only the first pass is judged. The gates hold
whatever the seed; none of them is a statistical test that fails by
chance at a fixed rate.
"""

import math
import statistics as stats
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import persymdet
from persymdet import canonical, detectors, group, montecarlo, scenario, streams
from persymdet import statistics as psi_stats

from tracing import OVERHEAD, TraceError

ALL_STATISTICS = ("glr", "2s-glr", "rao", "wald", "trace-psi0")
CONTROL = "trace-psi0"

# Share of the traced wall time that may lie outside every layer span.
ACCOUNTING_GAP = 0.05

MC_LAYERS = (
    ("streams.rekey_us", "us", "lower"),
    ("streams.words_per_trial", "words", "lower"),
    ("scenario.draw_us", "us", "lower"),
    ("statistics.psi_us", "us", "lower"),
    *((f"detectors.{s}_us", "us", "lower") for s in ALL_STATISTICS),
    ("montecarlo.count_us", "us", "lower"),
    ("montecarlo.chunk_ms.p50", "ms", "lower"),
    ("montecarlo.chunks", "count", "lower"),
    ("montecarlo.worker_busy_frac", "fraction", "higher"),
)
VERIFY_SPANS = (
    "scenario.sample_dataset",
    "canonical.canonicalize",
    "statistics.assemble",
    "statistics.compute_psi",
    "statistics.mis",
    "detectors.direct",
    "detectors.mis_form",
    "group.sample_element",
    "group.act",
)
VERIFY_LAYERS = (
    *((f"{s}_us", "us", "lower") for s in VERIFY_SPANS),
    ("group.actions", "count", "lower"),
)
#: Every per-layer metric, as listed in BENCHMARK.json. A workload reports 0
#: for the layers it does not use.
PER_LAYER = (*MC_LAYERS, *VERIFY_LAYERS, ("traced.trials_per_s", "1/s", "higher"))


def _median(values) -> float:
    return float(stats.median(values))


class MonteCarloWorkload:
    """Shared measurement of the batched engine (``montecarlo``)."""

    statistics = ALL_STATISTICS
    # A batched call has no per-trial latency of its own, so trial latency is
    # taken from repeated smallest calls, one trial per cell or hypothesis:
    # the cost of a batch of one. They get this share of the measured time.
    latency_share = 0.2

    def small_call_us(self, seed: int) -> float:
        """µs per trial of one smallest call."""
        t0 = perf_counter()
        self.smallest(seed)
        return (perf_counter() - t0) * 1e6 / self.smallest_trials

    def install_spans(self, tracer) -> None:
        tracer.wrap(montecarlo, "_run_chunk", "montecarlo.chunk")
        tracer.wrap_then_flush(montecarlo, "_draw_batch", "scenario.draw")
        tracer.wrap_rekeyer(montecarlo, "stream_rekeyer", "streams.rekey")
        tracer.wrap(montecarlo, "_psi_batch", "statistics.psi")
        tracer.wrap(detectors, "_batch_values", lambda name, *_: f"detectors.{name}")

    def required_spans(self):
        return [f"detectors.{s}" for s in self.statistics]

    def layer_metrics(self, serial, parallel, workers: int) -> tuple:
        """Per-layer metrics from traced calls, and how much wall they cover.

        ``serial`` and ``parallel`` hold ``(recording, wall_s, trials)`` of
        the workers=1 and workers=``workers`` calls. Times are µs per trial.
        """
        trials = sum(t for _, _, t in serial)
        wall = sum(w for _, w, _ in serial)
        self_s = {}
        for rec, _, _ in serial:
            for name, value in rec.self_time.items():
                self_s[name] = self_s.get(name, 0.0) + value
        chunk_total = sum(rec.total("montecarlo.chunk") for rec, _, _ in serial)
        count_s = wall - chunk_total
        for rec, _, t in serial + parallel:
            counted = rec.counters["streams.trials"]
            if not counted == rec.calls("streams.rekey") == t:
                raise TraceError(
                    f"{t} trials drawn but {rec.calls('streams.rekey')} rekeys and "
                    f"{counted} word counts recorded"
                )
        layers = ["streams.rekey", "scenario.draw", "statistics.psi"]
        layers += [f"detectors.{s}" for s in self.statistics]
        covered = sum(self_s.get(n, 0.0) for n in layers) + self_s.get(OVERHEAD, 0.0)
        gap = 1.0 - (covered + count_s) / wall
        if count_s < 0.0 or not 0.0 <= gap <= ACCOUNTING_GAP:
            raise TraceError(
                f"layer self times plus count ({covered + count_s:.4f} s) do not "
                f"account for the traced wall time ({wall:.4f} s)"
            )
        per_trial = 1e6 / trials
        chunks = [d for rec, _, _ in serial for d in rec.durations["montecarlo.chunk"]]
        words = sum(rec.counters["streams.words"] for rec, _, _ in serial)
        busy = sum(rec.total("montecarlo.chunk") for rec, _, _ in parallel)
        par_wall = sum(w for _, w, _ in parallel) * workers
        out = {
            "streams.rekey_us": self_s["streams.rekey"] * per_trial,
            "streams.words_per_trial": words / trials,
            "scenario.draw_us": self_s["scenario.draw"] * per_trial,
            "statistics.psi_us": self_s["statistics.psi"] * per_trial,
            "montecarlo.count_us": count_s * per_trial,
            "montecarlo.chunk_ms.p50": _median(chunks) * 1e3,
            "montecarlo.chunks": len(chunks) / len(serial),
            "montecarlo.worker_busy_frac": busy / par_wall,
        }
        for s in ALL_STATISTICS:
            out[f"detectors.{s}_us"] = self_s.get(f"detectors.{s}", 0.0) * per_trial
        notes = {
            "accounted_frac": (covered + count_s) / wall,
            "trace_overhead_frac": self_s.get(OVERHEAD, 0.0) / wall,
        }
        return out, notes


class CfarN8(MonteCarloWorkload):
    """A CFAR sweep shaped like acceptance criterion 5, at bench size."""

    name = "cfar-n8"
    base = persymdet.ScenarioConfig(n=8, k=16, nu=0.1, cnr_db=10.0)
    gamma_grid = (0.25, 1.0, 4.0)
    rho_grid = (0.0, 0.9, 0.99)
    pfa = 1e-2
    # two 4096-trial chunks per cell, so both workers have work in every cell
    trials_per_cell = 8192
    # the reference cell reuses the calibration sample
    trials_per_call = trials_per_cell * len(gamma_grid) * len(rho_grid)
    smallest_trials = len(gamma_grid) * len(rho_grid)
    ops_per_call = len(ALL_STATISTICS) * len(gamma_grid) * len(rho_grid)
    input_reps = 6
    # The negative control must pass at gamma = 1 also when the threshold
    # estimate and the cell estimate both err; their binomial variances add.
    # Seven sigma of that makes a chance failure rarer than 1e-11 per cell.
    control_sigmas = 7.0

    def _sweep(self, seed: int, trials: int, workers: int):
        return persymdet.cfar_sweep(
            self.statistics, self.base, self.gamma_grid, self.rho_grid, self.pfa,
            trials, seed, calibration_trials=trials, workers=workers,
        )

    def smallest(self, seed: int):
        return self._sweep(seed, 1, 1)

    def call(self, seed: int, workers: int):
        return self._sweep(seed, self.trials_per_cell, workers)

    def _keys(self):
        return [(s, g, r) for s in self.statistics for g in self.gamma_grid for r in self.rho_grid]

    def check(self, res) -> list:
        """One flag per cell: finite, and the negative control behaves."""
        if [(c.detector, c.gamma, c.rho) for c in res.cells] != self._keys():
            return [False] * self.ops_per_call
        ok = []
        for c in res.cells:
            p = c.estimate.point
            good = math.isfinite(res.thresholds[c.detector]) and 0.0 <= p <= 1.0
            if c.detector == CONTROL and c.gamma != 1.0:
                good = good and not c.passed
            elif c.detector == CONTROL:
                var = self.pfa * (1.0 - self.pfa) * (2.0 / c.estimate.n)
                good = good and abs(p - self.pfa) <= self.control_sigmas * math.sqrt(var)
            ok.append(good)
        return ok

    def same(self, a, b) -> list:
        if len(a.cells) != len(b.cells):
            return [False] * self.ops_per_call
        return [
            ca == cb and a.thresholds[ca.detector] == b.thresholds[cb.detector]
            for ca, cb in zip(a.cells, b.cells)
        ]

    def info(self, res) -> dict:
        """Detector cells inside the library's 3-sigma band; not a gate."""
        cells = [c for c in res.cells if c.detector != CONTROL]
        return {"in_band_cells": sum(c.passed for c in cells), "detector_cells": len(cells)}


class RocN32(MonteCarloWorkload):
    """A GLR ROC curve at n=32: bulk draw and psi, no per-trial overhead."""

    name = "roc-n32"
    statistics = ("glr",)
    base = persymdet.ScenarioConfig(n=32, k=64, rho=0.9)
    sinr_db = 10.0
    pfa_grid = (1e-3, 1e-2, 1e-1)
    trials = 8192  # per hypothesis: two chunks each
    trials_per_call = 2 * trials
    smallest_trials = 2
    ops_per_call = len(pfa_grid)
    input_reps = 2

    def _curve(self, seed: int, trials: int, workers: int):
        return persymdet.roc_curve(
            "glr", self.base, self.sinr_db, self.pfa_grid, trials, seed, workers=workers
        )

    def smallest(self, seed: int):
        return self._curve(seed, 1, 1)

    def call(self, seed: int, workers: int):
        return self._curve(seed, self.trials, workers)

    def check(self, points) -> list:
        """One flag per point: finite, detecting, and Pd is monotone.

        At 10 dB the GLR detects far above the false-alarm rate (Pd is
        about 0.16, 0.44 and 0.78 on this grid, at least 7.8 Pfa), so
        ``pd >= 2 pfa`` fails only when the H1 sample carries no target.
        """
        if [p.pfa for p in points] != sorted(self.pfa_grid):
            return [False] * self.ops_per_call
        pds = [p.pd.point for p in points]
        monotone = all(b >= a for a, b in zip(pds, pds[1:]))
        return [
            monotone and math.isfinite(pd) and 2.0 * p.pfa <= pd <= 1.0
            for p, pd in zip(points, pds)
        ]

    def same(self, a, b) -> list:
        if len(a) != len(b):
            return [False] * self.ops_per_call
        return [pa == pb for pa, pb in zip(a, b)]

    def info(self, points) -> dict:
        return {}


# The CLI's invariance-check settings: elements per statistic, their
# conditioning cap, and the tolerance of each suite.
ELEMENTS = 10
MAX_CONDITION = 1e2
DEVIATION_FLOOR = 1e-12  # invariance_report's default floor
DIRECT = ("glr", "2s-glr", "rao", "wald")
FORMS = ("glr", "2s-glr", "wald")
INVARIANCE_TOL = {"mis": 1e-8, "glr": 1e-8, "2s-glr": 1e-8, "rao": 1e-6, "wald": 1e-8}
IDENTITY_TOL = {"glr": 1e-9, "2s-glr": 1e-12, "wald": 1e-10}


@dataclass(frozen=True)
class VerifyTrial:
    values: tuple  # direct detectors, MIS-form values, MIS
    deviations: tuple  # invariance deviation per INVARIANCE_TOL key
    identities: tuple  # MIS-form vs direct gap per IDENTITY_TOL key
    report: float  # invariance_report's own worst deviation


@dataclass(frozen=True)
class VerifyBlock:
    trials: tuple  # VerifyTrial, or None where the trial raised
    latencies_us: tuple  # per trial, measured on workers=1 only


class VerifyN8:
    """The invariance-check traffic on the scalar public path."""

    name = "verify-n8"
    cfg = persymdet.ScenarioConfig(
        n=8, k=16, rho=0.9, cnr_db=10.0, gamma=4.0, nu=0.1, hypothesis="H1", sinr_db=10.0
    )
    block = 32  # trials per call
    trials_per_call = block
    ops_per_call = block
    input_reps = 32
    latency_share = 0.0  # trial latency comes from the workers=1 calls

    def __init__(self):
        self._transform = None

    def transform(self):
        if self._transform is None:
            sv = scenario.steering(self.cfg.n, self.cfg.nu)
            self._transform = canonical.build_transform(sv)
        return self._transform

    @staticmethod
    def _direct(psis, k, n) -> np.ndarray:
        return np.array([
            detectors.glr(psis, k, n),
            detectors.two_step_glr(psis),
            detectors.rao(psis, k, n),
            detectors.wald(psis, k, n),
        ])

    def trial(self, seed: int, index: int) -> VerifyTrial:
        # The dataset stream is the CLI's (``derive_stream(seed, 1 + i)``).
        # The CLI shares one element stream across its suites; here each
        # trial takes its own, counted down from the top of the index range,
        # so that trials are independent and can run on a thread pool.
        ds = scenario.sample_dataset(self.cfg, streams.derive_stream(seed, 1 + index))
        stat = psi_stats.assemble(canonical.canonicalize(ds.r, ds.rk, self.transform()))
        psis = psi_stats.compute_psi(stat)
        t = psi_stats.mis(psis)
        k, n = stat.k, stat.n
        direct = self._direct(psis, k, n)
        forms = np.array([detectors.mis_form(name, t, k, n) for name in FORMS])
        evaluated = []

        def invariants(s):
            p = psi_stats.compute_psi(s)
            v = np.concatenate([psi_stats.mis(p).as_array(), self._direct(p, k, n)])
            evaluated.append(v)
            return v

        report = group.invariance_report(
            stat, invariants, ELEMENTS, streams.derive_stream(seed, -1 - index),
            max_condition=MAX_CONDITION,
        )
        base, moved = evaluated[0], np.array(evaluated[1:])
        dev = np.max(np.abs(moved - base) / np.maximum(np.abs(base), DEVIATION_FLOOR), axis=0)
        deviations = (float(np.max(dev[:3])), *(float(x) for x in dev[3:]))
        paired = direct[[DIRECT.index(name) for name in FORMS]]
        gaps = np.abs(forms - paired) / np.maximum(np.abs(paired), 1e-300)
        identities = tuple(float(x) for x in gaps)
        values = tuple(float(x) for x in (*direct, *forms, *t.as_array()))
        return VerifyTrial(values, deviations, identities, float(report))

    def _safe_trial(self, seed: int, index: int):
        try:
            return self.trial(seed, index)
        except Exception:  # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            return None

    def smallest(self, seed: int):
        return self.trial(seed, 0)

    def call(self, seed: int, workers: int) -> VerifyBlock:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                trials = tuple(pool.map(lambda i: self._safe_trial(seed, i), range(self.block)))
            return VerifyBlock(trials, ())
        trials, lat = [], []
        for i in range(self.block):
            t0 = perf_counter()
            trials.append(self._safe_trial(seed, i))
            lat.append((perf_counter() - t0) * 1e6)
        return VerifyBlock(tuple(trials), tuple(lat))

    @staticmethod
    def _trial_ok(tr) -> bool:
        if tr is None:
            return False
        numbers = (*tr.values, *tr.deviations, *tr.identities, tr.report)
        if not all(math.isfinite(x) for x in numbers):
            return False
        return all(d <= tol for d, tol in zip(tr.deviations, INVARIANCE_TOL.values())) and all(
            d <= tol for d, tol in zip(tr.identities, IDENTITY_TOL.values())
        )

    def check(self, blk: VerifyBlock) -> list:
        return [self._trial_ok(tr) for tr in blk.trials]

    def same(self, a: VerifyBlock, b: VerifyBlock) -> list:
        return [ta is not None and ta == tb for ta, tb in zip(a.trials, b.trials)]

    def info(self, blk: VerifyBlock) -> dict:
        """Worst deviation over tolerance in the block, per suite."""
        done = [tr for tr in blk.trials if tr is not None]
        out = {}
        for i, (name, tol) in enumerate(INVARIANCE_TOL.items()):
            out[f"invariance[{name}]"] = max((tr.deviations[i] / tol for tr in done), default=0.0)
        for i, (name, tol) in enumerate(IDENTITY_TOL.items()):
            out[f"identity[{name}]"] = max((tr.identities[i] / tol for tr in done), default=0.0)
        return out

    def install_spans(self, tracer) -> None:
        tracer.wrap(scenario, "sample_dataset", "scenario.sample_dataset")
        tracer.wrap(canonical, "canonicalize", "canonical.canonicalize")
        tracer.wrap(psi_stats, "assemble", "statistics.assemble")
        tracer.wrap(psi_stats, "compute_psi", "statistics.compute_psi")
        tracer.wrap(psi_stats, "mis", "statistics.mis")
        for fn in ("glr", "two_step_glr", "rao", "wald"):
            tracer.wrap(detectors, fn, "detectors.direct")
        tracer.wrap(detectors, "mis_form", "detectors.mis_form")
        tracer.wrap(group, "sample_group_element", "group.sample_element")
        tracer.wrap(group, "act", "group.act")

    def required_spans(self):
        return []

    def layer_metrics(self, serial, parallel, workers: int) -> tuple:
        """Median µs per call of each scalar entry point (workers=1 calls).

        Layers are not nested here, so no wall-time accounting applies.
        """
        out = {}
        for name in VERIFY_SPANS:
            calls = [d for rec, _, _ in serial for d in rec.durations[name]]
            out[f"{name}_us"] = _median(calls) * 1e6
        trials = sum(t for _, _, t in serial)
        out["group.actions"] = sum(rec.calls("group.act") for rec, _, _ in serial) / trials
        return out, {}


WORKLOADS = {w.name: w for w in (CfarN8(), RocN32(), VerifyN8())}
