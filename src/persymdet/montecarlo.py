"""Monte Carlo engine: detector samples, thresholds, rates, CFAR sweeps.

One path turns a sample into a decision: :func:`calibrate_threshold` takes
an order statistic of an H0 :func:`statistic_samples` sample, and
:func:`estimate_rate` counts exceedances on a fresh one. :func:`cfar_sweep`
and :func:`roc_curve` run the same order statistic and count.

Trials are embarrassingly parallel. Each trial draws from its own
counter-derived stream (see :mod:`persymdet.streams`), and every value of a
trial depends on that stream only: not on the other trials of its block,
the other samples of the call, or the worker count. Heavy linear
algebra is evaluated in vectorized blocks that work in canonical
coordinates throughout: cached real maps take each trial's normals straight
to ``(Zp, S)``, with every product taken per trial, and one batched solve
against ``S22`` gives both quadratic forms. The public single-trial API runs
the same psi kernel and detector formulas.

A public call lines up the trials of all of its samples (every grid cell
of a CFAR sweep and its calibration sample, both hypotheses of an ROC curve
or an ancillarity check), in order, and cuts them once, into draw blocks of
:func:`_block_rows` trials; a block may cross samples. The cut depends only
on the sample sizes and N and K. Each block is one task on a thread pool of
``workers`` threads: it is filled with one rekeyer, each piece mapped from
its own sample's streams and maps, its scatters formed once for the whole
block, then solved for psi and evaluated for each statistic (GLR, Rao and
Wald share one prelude per block), and its rows go straight into the call's
outputs, which hold all trials in plan order. A block shares no state with
any other, so the workers fill theirs concurrently for any N and K: the
per-trial rekey holds the GIL, but the normal fill, most of a draw,
releases it. Each worker makes one set of block buffers per call,
``_BLOCK_BYTES`` in all, and reuses it for all of its blocks.
"""

import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import detectors, scenario
from .detectors import DetectorKind
from .errors import DegenerateStatisticError, NearSingularDenominatorError
from .scenario import _check_count
from .statistics import _any, _degenerate_lambda4, _eig2, _psi_batch, check_support
from .streams import derive_seed, stream_rekeyer

# Bytes of one worker's draw-block buffers (4 MB); see _block_rows.
_BLOCK_BYTES = 1 << 22
_Z95 = 1.959963984540054
_BAND_SIGMAS = 3.0

def _statistic_name(detector: Union[DetectorKind, str]) -> str:
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
class EstimateWithCI:
    """A proportion estimate with its 95% Wilson interval."""

    point: float
    ci95: tuple
    n: int


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, trials], not {successes!r}")
    z = _Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return (lo, hi)


def binomial_band(target: float, trials: int) -> float:
    """Half-width of the 3-sigma binomial band around ``target``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], not {target!r}")
    return _BAND_SIGMAS * math.sqrt(target * (1.0 - target) / trials)


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


class _Job(NamedTuple):
    """One sample of a public call: ``trials`` trials of ``cfg``."""

    cfg: scenario.ScenarioConfig
    names: list
    trials: int
    master_seed: int
    with_lam: bool = False


class _Piece(NamedTuple):
    """Trials ``start .. stop - 1`` of sample ``sample``, at row ``row`` of a block."""

    sample: int
    start: int
    stop: int
    row: int

    @property
    def rows(self) -> slice:
        """The piece's rows in its block."""
        return slice(self.row, self.row + self.stop - self.start)


def _plan(sizes: Sequence[int], rows: int) -> list:
    """Cut samples of ``sizes`` trials, in order, into blocks of ``rows`` rows.

    Each block is a tuple of :class:`_Piece` whose ``row`` counts from the
    start of the block; only the last block may be short, and a block
    boundary may fall inside a sample or between two.
    """
    blocks, block, row = [], [], 0
    for sample, size in enumerate(sizes):
        start = 0
        while start < size:
            stop = min(size, start + rows - row)
            block.append(_Piece(sample, start, stop, row))
            row += stop - start
            start = stop
            if row == rows:
                blocks.append(tuple(block))
                block, row = [], 0
    if block:
        blocks.append(tuple(block))
    return blocks


def _block_rows(n: int, k: int, trials: int) -> int:
    """Rows of a draw block: ``_BLOCK_BYTES`` of buffers, at most the call's trials.

    A row holds a trial's normals ``2N(K+1)``, both secondary GEMM outputs
    ``4KN``, Zp ``2N`` and S ``N^2`` doubles: 606 rows at N = 8, K = 16 and
    39 at N = 32, K = 64. A block holds at least one trial.
    """
    row_bytes = 8 * (2 * n * (k + 1) + 4 * k * n + 2 * n + n * n)
    return min(trials, max(1, _BLOCK_BYTES // row_bytes))


class _Scratch(threading.local):
    """One worker's draw-block buffers for one call.

    A worker makes its set on its first block and reuses it for all of its
    later blocks; the set goes when the call drops this object. Every buffer
    holds a whole block of ``rows`` trials: the normals, both secondary GEMM
    outputs, Zp and S, about ``_BLOCK_BYTES`` in all.
    """

    def __init__(self, rows: int, n: int, k: int):
        self.rows, self._dims, self._buffers = rows, (n, k), None

    def take(self, m: int) -> tuple:
        """The first ``m`` rows of the normals, Zp, S and both GEMM outputs."""
        if self._buffers is None:
            (n, k), rows = self._dims, self.rows
            self._buffers = (
                np.empty((rows, 2 * n * (k + 1))),
                np.empty((rows, 1, 2 * n)),
                np.empty((rows, n, n)),
                *np.empty((2, rows, k, 2 * n)),
            )
        return tuple(b[:m] for b in self._buffers)


def _draw_batch(jobs: Sequence[_Job], models: Sequence[_ChunkMaps], pieces, scratch: _Scratch):
    """Canonical ``(Zp, S)`` of one draw block, stacked in piece order.

    One rekeyer fills the block's normals in the worker's buffer, each
    trial's stream read in the order of :func:`scenario.sample_dataset`; the
    fill shares no state with other blocks, so workers fill theirs
    concurrently. Each piece is then mapped with its own sample's maps
    through ``out=`` into the worker's buffers: its two secondary GEMMs and
    its primaries. The two secondary halves are summed and each trial's S
    formed once over the whole block, after the piece loop, as neither needs
    a sample's maps. Every product is per trial (a trial's primaries are one
    vector-matrix product, its S one matrix product), so no value depends on
    the block or the other trials in it. The returned ``zp`` ``(rows, N, 2)``
    and ``s`` ``(rows, N, N)`` are views that the worker's next block
    overwrites.
    Tests pin them to ``assemble(canonicalize(sample_dataset(...)))``.
    """
    cfg = jobs[pieces[0].sample].cfg
    n, k = cfg.n, cfg.k
    kn, m = k * n, pieces[-1].rows.stop
    buf, zp, s, zs_re, zs_im = scratch.take(m)
    rekey = stream_rekeyer()
    for p in pieces:
        master_seed, blk = jobs[p.sample].master_seed, buf[p.rows]
        for j in range(blk.shape[0]):
            rekey(master_seed, p.start + j).standard_normal(out=blk[j])
    for p in pieces:
        maps, r = models[p.sample], p.rows
        np.matmul(buf[r, 2 * n : 2 * n + kn].reshape(-1, k, n), maps.sec_re, out=zs_re[r])
        np.matmul(buf[r, 2 * n + kn :].reshape(-1, k, n), maps.sec_im, out=zs_im[r])
        zpr = zp[r]
        np.matmul(buf[r, None, : 2 * n], maps.prim, out=zpr)
        if jobs[p.sample].cfg.hypothesis == "H1":
            zpr += maps.prim_mean
    zs_re += zs_im
    # rows [z1k_j | z2k_j] split into the 2K real secondaries z1k_j, z2k_j
    zs = zs_re.reshape(m, 2 * k, n)
    np.matmul(np.swapaxes(zs, 1, 2), zs, out=s)
    return zp.reshape(m, n, 2), s


def _evaluate(zp, s, job: _Job, index_base: int):
    """Detector values (and eigenvalue quadruples) of stacked ``(Zp, S)``."""
    k, n = job.cfg.k, job.cfg.n
    psi0, psi1 = _psi_batch(zp, s, index_base=index_base)
    memo = {}  # GLR, Rao and Wald share one prelude per block
    values = {
        name: detectors._batch_values(name, psi0, psi1, k, n, index_base=index_base, memo=memo)
        for name in job.names
    }
    lam = None
    if job.with_lam:
        l1, l2 = _eig2(*psi0.reshape(-1, 4).T)
        l3, l4 = _eig2(*psi1.reshape(-1, 4).T)
        lam = np.stack([l1, l2, l3, l4], axis=-1)
    return values, lam


def _run_chunk(jobs: Sequence[_Job], models: Sequence[_ChunkMaps], pieces, out, scratch):
    """One draw block: draw, map and evaluate it, then write its rows.

    ``out`` is ``(values, lam)``: views of the call's outputs over the
    block's rows.
    """
    values, lam = out
    job = jobs[pieces[0].sample]
    zp, s = _draw_batch(jobs, models, pieces, scratch)
    try:
        block_values, block_lam = _evaluate(zp, s, job, pieces[0].start)
    except (DegenerateStatisticError, NearSingularDenominatorError):
        # a row of the block is not a trial index: the first failing piece
        # raises again on its own, naming the trial within its sample
        for p in pieces:
            _evaluate(zp[p.rows], s[p.rows], job, p.start)
        raise
    for name, arr in block_values.items():
        values[name][:] = arr
    if lam is not None:
        lam[:] = block_lam


def _collect(jobs: Sequence[_Job], workers: int):
    """Run every trial of every job; returns ``(values, lam, offsets)``.

    ``values`` maps each statistic to one array over all trials in job
    order, ``lam`` holds their eigenvalue quadruples (or is None), and job
    ``j`` owns rows ``offsets[j] .. offsets[j + 1] - 1``. The blocks of
    :func:`_plan` share one pool of ``workers`` threads, and each writes its
    rows straight into the outputs, whatever order the blocks finish in.
    """
    workers = _check_count(workers, "workers")
    shared = {(job.cfg.n, job.cfg.k, tuple(job.names), job.with_lam) for job in jobs}
    assert len(shared) == 1, "a call's samples share n, k, names and with_lam"
    models, sizes = [], []
    for job in jobs:
        sizes.append(_check_count(job.trials, "trials"))
        check_support(job.cfg.n, job.cfg.k)
        models.append(_chunk_maps(job.cfg))
    offsets = np.cumsum([0, *sizes])
    values = {name: np.empty(offsets[-1]) for name in jobs[0].names}
    lam = np.empty((offsets[-1], 4)) if jobs[0].with_lam else None
    n, k = jobs[0].cfg.n, jobs[0].cfg.k
    rows = _block_rows(n, k, int(offsets[-1]))
    scratch, blocks = _Scratch(rows, n, k), _plan(sizes, rows)

    def work(pieces):
        first = offsets[pieces[0].sample] + pieces[0].start
        span = slice(first, first + pieces[-1].rows.stop)
        block_values = {name: arr[span] for name, arr in values.items()}
        block_lam = None if lam is None else lam[span]
        _run_chunk(jobs, models, pieces, (block_values, block_lam), scratch)

    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map re-raises the first failing block in submission order, as
            # the serial loop does, and cancels the blocks not yet started
            list(pool.map(work, blocks))
    else:
        for block in blocks:
            work(block)
    return values, lam, offsets


def statistic_samples(
    cfg: scenario.ScenarioConfig,
    detector,
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> dict:
    """Per-trial detector values, keyed by canonical statistic name."""
    values, _, _ = _collect([_Job(cfg, _as_names(detector), trials, master_seed)], workers)
    return values


def _mis_from_lam(lam: np.ndarray) -> np.ndarray:
    bad = _degenerate_lambda4(*lam.T)
    if _any(bad):
        idx = int(np.argmax(bad))
        quad = ", ".join(f"{x:.6g}" for x in lam[idx])
        raise DegenerateStatisticError(f"trial {idx}: degenerate eigenvalue quadruple ({quad})")
    return lam[:, :3] / lam[:, 3:4]


def mis_samples(
    cfg: scenario.ScenarioConfig, trials: int, master_seed: int, workers: int = 1
):
    """Per-trial maximal invariants and eigenvalue quadruples.

    Returns ``(t, lam)`` with shapes ``(trials, 3)`` and ``(trials, 4)``.
    """
    _, lam, _ = _collect([_mis_job(cfg, trials, master_seed)], workers)
    return _mis_from_lam(lam), lam


def _mis_job(cfg: scenario.ScenarioConfig, trials: int, master_seed: int) -> _Job:
    if cfg.n < 3:
        raise DegenerateStatisticError(
            "the maximal invariant needs N >= 3 (lambda4 vanishes for N = 2)"
        )
    return _Job(cfg, [], trials, master_seed, with_lam=True)


def _sample(values) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"expected a nonempty 1-D sample, got shape {values.shape}")
    return values


def _order_statistic_threshold(sorted_values: np.ndarray, target_pfa: float) -> float:
    """The ``ceil((1 - pfa) * trials)``-th order statistic; ``-inf`` at rank 0."""
    rank = math.ceil((1.0 - target_pfa) * sorted_values.shape[0])
    return float(sorted_values[rank - 1]) if rank > 0 else -np.inf


def calibrate_threshold(values, target_pfa: float) -> float:
    """Threshold as the ``ceil((1 - pfa) * trials)``-th order statistic.

    ``values`` is an H0 sample of one statistic, as
    ``statistic_samples(cfg, name, trials, seed)[name]`` returns it.
    """
    values = _sample(values)
    if not 0.0 < target_pfa <= 1.0:
        raise ValueError("target_pfa must be in (0, 1]")
    if values.size * target_pfa < 100.0:
        warnings.warn(
            f"{values.size} trials is thin for Pfa = {target_pfa:g}; "
            "the rule of thumb is trials >= 100 / Pfa",
            stacklevel=2,
        )
    return _order_statistic_threshold(np.sort(values), target_pfa)


def estimate_rate(values, eta: float) -> EstimateWithCI:
    """Exceedance rate ``P(value >= eta)`` of a sample, with its Wilson interval.

    Estimates Pfa on an H0 sample and Pd on an H1 sample.
    """
    values = _sample(values)
    return _estimate(int(np.count_nonzero(values >= eta)), values.shape[0])


def _estimate(count: int, trials: int) -> EstimateWithCI:
    return EstimateWithCI(count / trials, wilson_interval(count, trials), trials)


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
    trials_drawn: int  # calibration and each cell with a sample of its own

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
    n_cal = trials if calibration_trials is None else calibration_trials
    n_cal = _check_count(n_cal, "calibration_trials")
    base = scenario.as_hypothesis(base_scenario, "H0")

    # job 0 calibrates; the reference cell reuses its sample
    ref_cfg = replace(base, gamma=1.0, rho=rho_grid[0])
    jobs = [_Job(ref_cfg, names, n_cal, derive_seed(seed, 0))]
    grid = list(product(gamma_grid, rho_grid))
    cell_jobs = []
    for idx, (g, r) in enumerate(grid):
        reference = g == 1.0 and r == rho_grid[0]
        if not reference:
            cfg = replace(base, gamma=g, rho=r)
            jobs.append(_Job(cfg, names, trials, derive_seed(seed, 1 + idx)))
        cell_jobs.append(0 if reference else len(jobs) - 1)
    values, _, offsets = _collect(jobs, workers)

    # one frozen estimate and verdict per distinct (count, trials), shared by its cells
    verdicts, thresholds, cells = {}, {}, []
    for name in names:
        v = values[name]
        eta = thresholds[name] = _order_statistic_threshold(np.sort(v[: offsets[1]]), target_pfa)
        counts = np.add.reduceat(v >= eta, offsets[:-1], dtype=np.intp).tolist()
        for (g, r), job_idx in zip(grid, cell_jobs):
            key = (counts[job_idx], jobs[job_idx].trials)
            if key not in verdicts:
                est = _estimate(*key)
                band = binomial_band(target_pfa, est.n)
                verdicts[key] = (est, abs(est.point - target_pfa) <= band)
            cells.append(CfarCell(name, g, r, *verdicts[key]))
    return CfarSweepResult(
        cells=tuple(cells), thresholds=thresholds, target_pfa=target_pfa, trials=trials,
        trials_drawn=int(offsets[-1]),
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
    _, lam, offsets = _collect(jobs, workers)
    a = _mis_from_lam(lam[: offsets[1]])[:, component - 1]
    b = _mis_from_lam(lam[offsets[1] :])[:, component - 1]
    from scipy.stats import ks_2samp  # deferred: scipy.stats is slow to import

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
    values, _, offsets = _collect(jobs, workers)
    v0, v1 = np.sort(values[name][: offsets[1]]), values[name][offsets[1] :]
    points = [
        RocPoint(p, estimate_rate(v1, _order_statistic_threshold(v0, p))) for p in sorted(pfas)
    ]
    pds = [p.pd.point for p in points]
    if any(b < a for a, b in zip(pds, pds[1:])):
        raise RuntimeError("detection probability is not monotone in pfa")
    return points
