"""Monte Carlo engine: threshold calibration, rate estimation, CFAR sweeps.

Trials are embarrassingly parallel. Each trial draws from its own
counter-derived stream (see :mod:`persymdet.streams`), so every output is a
pure function of ``(plan, master_seed)`` and independent of chunking or
worker count. Heavy linear algebra is evaluated in vectorized chunks that
work in canonical coordinates throughout: cached real maps take each
trial's normals straight to ``(Zp, S)``, and one batched solve against
``S22`` gives both quadratic forms. The public single-trial API runs the
same psi kernel and detector formulas.

A public call hands all of its samples (every grid cell of a CFAR sweep
and its calibration sample, both hypotheses of an ROC curve or an
ancillarity check) to one thread pool of ``workers`` threads as fixed
``_CHUNK``-trial chunks, so chunks of different samples overlap. A chunk's
per-trial draw loop alternates a Python rekey, which holds the GIL, with a
normal fill, which releases it. When a trial draws few normals the two take
about equally long, so concurrent draw loops would only trade the GIL on
every trial; such loops take turns on one module lock, and the workers that
wait for it sleep while the others run the GEMM, solve and detector stages.
"""

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy.stats import ks_2samp

from . import detectors, scenario
from .detectors import DetectorKind
from .errors import DegenerateStatisticError
from .statistics import _psi_batch, check_support, eig2_desc
from .streams import derive_seed, stream_rekeyer

_CHUNK = 4096  # fixed: results must not depend on worker count
# Draw loops whose trials draw fewer normals than this, 2N(K+1), are bound
# by the GIL and run one at a time (N=8, K=16 draws 272; N=32, K=64 4160).
_GIL_BOUND_NORMALS = 1024
_DRAW_LOCK = threading.Lock()
_Z95 = 1.959963984540054

DetectorSpec = Union[DetectorKind, str]


def _statistic_name(detector: DetectorSpec) -> str:
    if isinstance(detector, DetectorKind):
        return detector.value
    name = str(detector)
    if name not in detectors.STATISTIC_NAMES:
        raise ValueError(f"unknown detector {name!r}; known: {detectors.STATISTIC_NAMES}")
    return name


def _as_names(detector) -> list:
    if isinstance(detector, (DetectorKind, str)):
        return [_statistic_name(detector)]
    names = [_statistic_name(d) for d in detector]
    if not names:
        raise ValueError("at least one detector is required")
    return names


@dataclass(frozen=True)
class TrialPlan:
    """A batch of Monte Carlo trials for one scenario and one detector."""

    scenario: scenario.ScenarioConfig
    detector: DetectorSpec
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        _check_count(self.trials, "trials")
        _check_count(self.workers, "workers")


@dataclass(frozen=True)
class EstimateWithCI:
    """A proportion estimate with its 95% Wilson interval."""

    point: float
    ci95: tuple
    n: int


@dataclass(frozen=True)
class CalibrationResult:
    """A calibrated threshold and the false-alarm rate it achieves."""

    threshold: float
    target_pfa: float
    achieved_pfa_ci: tuple
    trials: int


def _check_count(value, what: str) -> int:
    """``value`` as an int, or ``ValueError`` if it is below 1."""
    value = int(value)
    if value < 1:
        raise ValueError(f"{what} must be >= 1")
    return value


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return (lo, hi)


def binomial_band(target: float, trials: int, sigmas: float = 3.0) -> float:
    """Half-width of the ``sigmas``-sigma binomial band around ``target``."""
    return sigmas * math.sqrt(target * (1.0 - target) / trials)


class _ChunkMaps(NamedTuple):
    """Real maps from one trial's normals to canonical coordinates.

    A trial's normal buffer is ``[a | b | ak | bk]``: the real and imaginary
    draws of the primary, then of the K secondaries. With ``C = V T chol``,
    the canonical pair of ``chol (a + i b) / sqrt(2)`` is
    ``z1 = (Re C a - Im C b) / sqrt(2)``, ``z2 = (Im C a + Re C b) / sqrt(2)``,
    so each block is one real GEMM of its normals. ``prim`` maps ``[a | b]``
    to Zp flattened row-major (columns ``z1_0, z2_0, z1_1, ...``) and
    ``prim_mean`` is the H1 target ``alpha s`` in that layout. ``sec_re`` and
    ``sec_im`` map ``ak`` and ``bk`` to ``[z1k | z2k]`` and carry the
    ``sqrt(gamma)`` power scaling.
    """

    prim: np.ndarray
    prim_mean: np.ndarray
    sec_re: np.ndarray
    sec_im: np.ndarray


@lru_cache(maxsize=128)
def _chunk_maps(cfg: scenario.ScenarioConfig) -> _ChunkMaps:
    model = scenario._prepare(cfg)
    n = cfg.n
    t, v = model.transform.t, model.transform.v
    c = v @ (t @ model.chol)
    cr, ci = c.real.T, c.imag.T
    rows_a = np.hstack([cr, ci]) * scenario._SQRT_HALF
    rows_b = np.hstack([-ci, cr]) * scenario._SQRT_HALF
    interleave = np.arange(2 * n).reshape(2, n).T.ravel()
    prim = np.vstack([rows_a, rows_b])[:, interleave]
    target = v @ (t @ (model.alpha * model.steering.entries))
    prim_mean = np.column_stack([target.real, target.imag]).ravel()
    root_gamma = math.sqrt(cfg.gamma)
    return _ChunkMaps(prim, prim_mean, root_gamma * rows_a, root_gamma * rows_b)


def _draw_batch(cfg, model: _ChunkMaps, start: int, count: int, master_seed: int):
    """Canonical ``(Zp, S)`` for trials ``start .. start + count - 1``.

    Consumes each trial's stream in the same order as
    :func:`persymdet.scenario.sample_dataset` (primary real/imag parts, then
    secondary real/imag parts), buffered into one normal draw per trial, and
    maps the buffer straight to canonical coordinates with the real maps of
    ``model``. The per-trial loop holds ``_DRAW_LOCK`` when a trial draws
    fewer than ``_GIL_BOUND_NORMALS`` normals (see the module docstring).
    Returns ``zp`` of shape ``(count, N, 2)`` and the scatter
    ``s`` of shape ``(count, N, N)``; tests pin both to
    ``assemble(canonicalize(sample_dataset(...)))``.
    """
    n, k = cfg.n, cfg.k
    kn = k * n
    buf = np.empty((count, 2 * n + 2 * kn))
    rekey = stream_rekeyer()
    gil_bound = buf.shape[1] < _GIL_BOUND_NORMALS
    with _DRAW_LOCK if gil_bound else nullcontext():
        for j in range(count):
            rekey(master_seed, start + j).standard_normal(out=buf[j])
    zp = buf[:, : 2 * n] @ model.prim
    if cfg.hypothesis == "H1":
        zp += model.prim_mean
    zs = buf[:, 2 * n : 2 * n + kn].reshape(count, k, n) @ model.sec_re
    zs += buf[:, 2 * n + kn :].reshape(count, k, n) @ model.sec_im
    # rows [z1k_j | z2k_j] split into the 2K real secondaries z1k_j, z2k_j
    zs = zs.reshape(count, 2 * k, n)
    return zp.reshape(count, n, 2), np.swapaxes(zs, 1, 2) @ zs


def _run_chunk(cfg, model, names, span, master_seed, with_lam):
    start, stop = span
    zp, s = _draw_batch(cfg, model, start, stop - start, master_seed)
    psi0, psi1 = _psi_batch(zp, s, index_base=start)
    values = {
        name: detectors._batch_values(name, psi0, psi1, cfg.k, cfg.n, index_base=start)
        for name in names
    }
    lam = None
    if with_lam:
        l1, l2 = eig2_desc(psi0)
        l3, l4 = eig2_desc(psi1)
        lam = np.stack([l1, l2, l3, l4], axis=-1)
    return start, values, lam


class _Job(NamedTuple):
    """One sample of a public call: ``trials`` trials of ``cfg``."""

    cfg: scenario.ScenarioConfig
    names: list
    trials: int
    master_seed: int
    with_lam: bool = False


def _collect(jobs: Sequence[_Job], workers: int) -> list:
    """Run every chunk of every job; returns ``(values, lam)`` per job.

    All chunks share one pool of ``workers`` threads. Each writes its rows
    straight into its job's output arrays, so results do not depend on the
    order in which chunks finish.
    """
    workers = _check_count(workers, "workers")
    results, tasks = [], []
    for job in jobs:
        trials = _check_count(job.trials, "trials")
        check_support(job.cfg.n, job.cfg.k)
        model = _chunk_maps(job.cfg)
        out = {name: np.empty(trials) for name in job.names}
        lam = np.empty((trials, 4)) if job.with_lam else None
        results.append((out, lam))
        for a in range(0, trials, _CHUNK):
            tasks.append((job, model, (a, min(a + _CHUNK, trials)), out, lam))

    def work(task):
        job, model, span, out, lam = task
        start, values, lam_chunk = _run_chunk(
            job.cfg, model, job.names, span, job.master_seed, job.with_lam
        )
        for name, arr in values.items():
            out[name][start : start + arr.shape[0]] = arr
        if job.with_lam:
            lam[start : start + lam_chunk.shape[0]] = lam_chunk

    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map re-raises the first failing chunk in submission order, as
            # the serial loop does, and cancels the chunks not yet started
            for _ in pool.map(work, tasks):
                pass
    else:
        for task in tasks:
            work(task)
    return results


def statistic_samples(
    cfg: scenario.ScenarioConfig,
    detector,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> dict:
    """Per-trial detector values, keyed by canonical statistic name."""
    [(out, _)] = _collect([_Job(cfg, _as_names(detector), trials, master_seed)], workers)
    return out


def _mis_from_lam(lam: np.ndarray) -> np.ndarray:
    bad = ~(lam[:, 3] > 1e-12 * np.maximum(lam[:, 0], 0.0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DegenerateStatisticError(
            f"trial {idx}: degenerate eigenvalue quadruple {tuple(lam[idx])}"
        )
    return lam[:, :3] / lam[:, 3:4]


def mis_samples(
    cfg: scenario.ScenarioConfig, trials: int, master_seed: int, workers: int = 1
):
    """Per-trial maximal invariants and eigenvalue quadruples.

    Returns ``(t, lam)`` with shapes ``(trials, 3)`` and ``(trials, 4)``.
    """
    [(_, lam)] = _collect([_mis_job(cfg, trials, master_seed)], workers)
    return _mis_from_lam(lam), lam


def _mis_job(cfg: scenario.ScenarioConfig, trials: int, master_seed: int) -> _Job:
    if cfg.n < 3:
        raise DegenerateStatisticError(
            "the maximal invariant needs N >= 3 (lambda4 vanishes for N = 2)"
        )
    return _Job(cfg, [], trials, master_seed, with_lam=True)


def detector_samples(plan: TrialPlan) -> np.ndarray:
    """Per-trial values of ``plan.detector`` under ``plan.scenario``."""
    name = _statistic_name(plan.detector)
    return statistic_samples(
        plan.scenario, name, plan.trials, plan.master_seed, plan.workers
    )[name]


def _order_statistic_threshold(sorted_values: np.ndarray, target_pfa: float):
    trials = sorted_values.shape[0]
    rank = math.ceil((1.0 - target_pfa) * trials)
    if rank <= 0:
        return -np.inf, trials
    eta = float(sorted_values[rank - 1])
    exceed = trials - int(np.searchsorted(sorted_values, eta, side="left"))
    return eta, exceed


def calibrate_threshold(plan: TrialPlan, target_pfa: float) -> CalibrationResult:
    """Threshold as the ``ceil((1 - pfa) * trials)``-th H0 order statistic."""
    if not 0.0 < target_pfa <= 1.0:
        raise ValueError("target_pfa must be in (0, 1]")
    if plan.scenario.hypothesis != "H0":
        raise ValueError("threshold calibration requires an H0 scenario")
    if plan.trials * target_pfa < 100.0:
        warnings.warn(
            f"{plan.trials} trials is thin for Pfa = {target_pfa:g}; "
            "the rule of thumb is trials >= 100 / Pfa",
            stacklevel=2,
        )
    values = np.sort(detector_samples(plan))
    eta, exceed = _order_statistic_threshold(values, target_pfa)
    return CalibrationResult(
        threshold=eta,
        target_pfa=target_pfa,
        achieved_pfa_ci=wilson_interval(exceed, plan.trials),
        trials=plan.trials,
    )


def estimate_rate(plan: TrialPlan, eta: float) -> EstimateWithCI:
    """Exceedance rate ``P(statistic >= eta)`` with its Wilson interval.

    Estimates Pfa under H0 plans and Pd under H1 plans.
    """
    values = detector_samples(plan)
    count = int(np.count_nonzero(values >= eta))
    return EstimateWithCI(
        point=count / plan.trials,
        ci95=wilson_interval(count, plan.trials),
        n=plan.trials,
    )


@dataclass(frozen=True)
class CfarCell:
    """One (detector, gamma, rho) cell of a CFAR sweep."""

    detector: str
    gamma: float
    rho: float
    estimate: EstimateWithCI
    passed: bool


@dataclass(frozen=True)
class CfarSweepResult:
    cells: tuple
    thresholds: dict
    target_pfa: float
    trials: int

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)


def cfar_sweep(
    detector,
    base_scenario: scenario.ScenarioConfig,
    gamma_grid: Sequence[float],
    rho_grid: Sequence[float],
    target_pfa: float,
    trials: int,
    seed: int,
    calibration_trials: Optional[int] = None,
    workers: int = 1,
) -> CfarSweepResult:
    """Empirical CFAR verification over a (gamma, rho) nuisance grid.

    Thresholds are calibrated once at the reference cell (gamma = 1, first
    rho) and the false-alarm rate is re-estimated at every grid cell with
    fresh per-cell seeds. A cell passes when its estimate falls inside the
    3-sigma binomial band around ``target_pfa``. ``detector`` may be a single
    kind/name or a sequence; all requested statistics share each cell's
    trials. ``calibration_trials`` (default: ``trials``) controls the size of
    the calibration sample only.
    """
    names = _as_names(detector)
    gamma_grid = [float(g) for g in gamma_grid]
    rho_grid = [float(r) for r in rho_grid]
    if not gamma_grid or not rho_grid:
        raise ValueError("gamma_grid and rho_grid must be nonempty")
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must be in (0, 1)")
    trials = _check_count(trials, "trials")
    n_cal = trials
    if calibration_trials is not None:
        n_cal = _check_count(calibration_trials, "calibration_trials")
    base = scenario.as_hypothesis(base_scenario, "H0")

    # job 0 calibrates; the reference cell reuses its sample
    ref_cfg = replace(base, gamma=1.0, rho=rho_grid[0])
    jobs = [_Job(ref_cfg, names, n_cal, derive_seed(seed, 0))]
    cell_jobs = []
    for idx, (g, r) in enumerate(product(gamma_grid, rho_grid)):
        if g == 1.0 and r == rho_grid[0]:
            cell_jobs.append((g, r, 0))
        else:
            cfg = replace(base, gamma=g, rho=r)
            jobs.append(_Job(cfg, names, trials, derive_seed(seed, 1 + idx)))
            cell_jobs.append((g, r, len(jobs) - 1))
    samples = _collect(jobs, workers)

    thresholds = {}
    for name in names:
        eta, _ = _order_statistic_threshold(np.sort(samples[0][0][name]), target_pfa)
        thresholds[name] = eta

    per_cell = {}
    for g, r, job_idx in cell_jobs:
        values, n_cell = samples[job_idx][0], jobs[job_idx].trials
        band = binomial_band(target_pfa, n_cell)
        for name in names:
            count = int(np.count_nonzero(values[name] >= thresholds[name]))
            point = count / n_cell
            per_cell[(name, g, r)] = CfarCell(
                detector=name,
                gamma=g,
                rho=r,
                estimate=EstimateWithCI(point, wilson_interval(count, n_cell), n_cell),
                passed=abs(point - target_pfa) <= band,
            )
    cells = tuple(
        per_cell[(name, g, r)]
        for name in names
        for g in gamma_grid
        for r in rho_grid
    )
    return CfarSweepResult(
        cells=cells, thresholds=thresholds, target_pfa=target_pfa, trials=trials
    )


class KsResult(NamedTuple):
    statistic: float
    passed: bool
    threshold: float


_DISTURBANCE_FIELDS = ("n", "k", "rho", "doppler_fc", "cnr_db", "gamma", "nu")


def ancillarity_check(
    scenario_h0: scenario.ScenarioConfig,
    scenario_h1: scenario.ScenarioConfig,
    n_samples: int,
    seed: int,
    component: int = 3,
    workers: int = 1,
) -> KsResult:
    """Two-sample KS test of one MIS component across hypotheses.

    The third component is ancillary: its distribution does not move between
    H0 and H1, so the test passes at the 1% level. Components 1 and 2 shift
    with target strength and serve as negative controls. The scenarios must
    agree on everything but hypothesis and amplitude.
    """
    if scenario_h0.hypothesis != "H0" or scenario_h1.hypothesis != "H1":
        raise ValueError("expected one H0 scenario and one H1 scenario")
    for field in _DISTURBANCE_FIELDS:
        if getattr(scenario_h0, field) != getattr(scenario_h1, field):
            raise ValueError(f"scenarios must match except hypothesis; {field} differs")
    if component not in (1, 2, 3):
        raise ValueError("component must be 1, 2 or 3")
    jobs = [
        _mis_job(scenario_h0, n_samples, derive_seed(seed, 0)),
        _mis_job(scenario_h1, n_samples, derive_seed(seed, 1)),
    ]
    (_, lam0), (_, lam1) = _collect(jobs, workers)
    a = _mis_from_lam(lam0)[:, component - 1]
    b = _mis_from_lam(lam1)[:, component - 1]
    stat = float(ks_2samp(a, b).statistic)
    # 1% critical value c(alpha) sqrt((n + m) / (n m)), c = sqrt(-ln(alpha/2)/2)
    c_crit = math.sqrt(-0.5 * math.log(0.005))
    threshold = c_crit * math.sqrt((a.size + b.size) / (a.size * b.size))
    return KsResult(statistic=stat, passed=stat < threshold, threshold=threshold)


class RocPoint(NamedTuple):
    pfa: float
    pd: EstimateWithCI


def roc_curve(
    detector,
    base_scenario: scenario.ScenarioConfig,
    sinr_db: float,
    pfa_grid: Sequence[float],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Empirical receiver operating characteristic at one SINR.

    For each target Pfa the threshold is calibrated on a shared H0 sample
    and the detection probability is estimated on a shared H1 sample, so the
    curve is monotone by construction (asserted anyway).
    """
    name = _statistic_name(detector)
    pfas = [float(p) for p in pfa_grid]
    if not pfas:
        raise ValueError("pfa_grid must be nonempty")
    if any(not 0.0 < p <= 1.0 for p in pfas):
        raise ValueError("every target pfa must lie in (0, 1]")
    trials = _check_count(trials, "trials")
    h0 = scenario.as_hypothesis(base_scenario, "H0")
    h1 = scenario.as_hypothesis(base_scenario, "H1", sinr_db=float(sinr_db))
    jobs = [
        _Job(h0, [name], trials, derive_seed(seed, 0)),
        _Job(h1, [name], trials, derive_seed(seed, 1)),
    ]
    (v0, _), (v1, _) = _collect(jobs, workers)
    v0, v1 = np.sort(v0[name]), v1[name]
    points = []
    for pfa in sorted(pfas):
        eta, _ = _order_statistic_threshold(v0, pfa)
        count = int(np.count_nonzero(v1 >= eta))
        points.append(
            RocPoint(pfa, EstimateWithCI(count / trials, wilson_interval(count, trials), trials))
        )
    pds = [p.pd.point for p in points]
    if any(b < a for a, b in zip(pds, pds[1:])):
        raise RuntimeError("detection probability is not monotone in pfa")
    return points
