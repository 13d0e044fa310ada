"""Command-line front end.

Subcommands (``invariance-check``, ``cfar``, ``roc``, ``mis-sample``) read a
JSON config, run the corresponding verification or estimation job, write CSV
or JSON results plus a run manifest, and exit with a scripting-friendly
code: 0 success, 1 property/statistical failure, 2 config error, 3 I/O
error. Every command is deterministic for a fixed config and ``--seed``;
``--workers`` (at least 1) sets the Monte Carlo engine's thread count and
never changes results. The ``PERSYM_LOG`` environment variable selects the
log level.
"""

import argparse
import json
import logging
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from . import __version__
from .canonical import build_transform, canonicalize
from .detectors import (
    NEGATIVE_CONTROL,
    DetectorKind,
    mis_form,
    evaluate,
)
from .errors import PersymError
from .group import factorization_deviation, invariance_report, sample_group_element
from .montecarlo import cfar_sweep, mis_samples, roc_curve
from .scenario import ScenarioConfig, sample_dataset, steering
from .statistics import assemble, compute_psi, mis
from .streams import derive_seed, derive_stream

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_ALLOWED_KEYS = {
    "n", "k", "rho", "doppler_fc", "cnr_db", "gamma", "nu",
    "alpha_re", "alpha_im", "sinr_db", "trials", "pfa", "detector",
    "gamma_grid", "rho_grid", "pfa_grid", "sinr_grid", "debug_noninvariant",
}

# Conditioning cap for sampled elements inside the verification suites:
# round-off in the acted statistic grows like eps * cond(S) * cond(G)^2, so
# elements are kept well conditioned to leave the 1e-8 tolerances to theory.
_SUITE_MAX_CONDITION = 1e2
_ELEMENTS_PER_STATISTIC = 10

_DETECTOR_TOLERANCES = {"glr": 1e-8, "2s-glr": 1e-8, "wald": 1e-8, "rao": 1e-6}
_IDENTITY_TOLERANCES = {"glr": 1e-9, "2s-glr": 1e-12, "wald": 1e-10}
_FACTORIZATION_TOL = 1e-12
_MIS_INVARIANCE_TOL = 1e-8
_INTERLACING_SLACK = 1e-10


class _ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunManifest:
    """Completion marker written after all outputs of a command.

    Besides what was run, it records how: the worker count and the
    ``environment`` (python, numpy, scipy and BLAS versions, CPU count) that
    the duration depends on. None of it enters the CSV body.
    """

    command: str
    config: dict
    master_seed: int
    workers: int
    version: str
    duration_seconds: float
    outputs: tuple
    environment: dict


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _ConfigError("config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise _ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _require(raw: dict, key: str):
    if key not in raw:
        raise _ConfigError(f"config key {key!r} is required")
    return raw[key]


def _number(value, what: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise _ConfigError(f"{what} must be a number, not {value!r}") from None


def _numbers(value, what: str) -> list:
    if not isinstance(value, list):
        raise _ConfigError(f"{what} must be a list of numbers, not {value!r}")
    return [_number(x, what) for x in value]


def _trials(raw: dict, default=None) -> int:
    value = _require(raw, "trials") if default is None else raw.get("trials", default)
    trials = _number(value, "trials", int)
    if trials < 1:
        raise _ConfigError("trials must be >= 1")
    return trials


def _scenario_from(raw: dict, seed: int) -> ScenarioConfig:
    has_alpha = "alpha_re" in raw or "alpha_im" in raw
    has_sinr = "sinr_db" in raw
    if has_alpha and has_sinr:
        raise _ConfigError("give either alpha_re/alpha_im or sinr_db, not both")
    alpha = None
    sinr_db = None
    hypothesis = "H0"
    if has_alpha:
        real, imag = (_number(raw.get(key, 0.0), key) for key in ("alpha_re", "alpha_im"))
        alpha = complex(real, imag)
        hypothesis = "H1"
    elif has_sinr:
        sinr_db = _number(raw["sinr_db"], "sinr_db")
        hypothesis = "H1"
    try:
        return ScenarioConfig(
            n=_number(_require(raw, "n"), "n", int),
            k=_number(_require(raw, "k"), "k", int),
            rho=_number(raw.get("rho", 0.0), "rho"),
            doppler_fc=_number(raw.get("doppler_fc", 0.0), "doppler_fc"),
            cnr_db=_number(raw.get("cnr_db", 0.0), "cnr_db"),
            gamma=_number(raw.get("gamma", 1.0), "gamma"),
            nu=_number(raw.get("nu", 0.0), "nu"),
            hypothesis=hypothesis,
            alpha=alpha,
            sinr_db=sinr_db,
            seed=seed,
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_path, command, config, seed, workers, outputs, started) -> None:
    manifest = RunManifest(
        command=command,
        config=config,
        master_seed=seed,
        workers=workers,
        version=__version__,
        duration_seconds=time.monotonic() - started,
        outputs=tuple(outputs),
        environment=_environment(),
    )
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, default=str)
        fh.write("\n")


def _suite_statistics(cfg: ScenarioConfig, seed: int, count: int):
    xf = build_transform(steering(cfg.n, cfg.nu))
    stats = []
    for i in range(count):
        ds = sample_dataset(cfg, derive_stream(seed, 1 + i))
        stats.append(assemble(canonicalize(ds.r, ds.rk, xf)))
    return stats


def _run_invariance_suites(cfg: ScenarioConfig, seed: int, n_stats: int, debug: bool):
    """Run the five verification suites; returns [(name, deviation, tol)]."""
    stats = _suite_statistics(cfg, seed, n_stats)
    rng = derive_stream(seed, 0)
    results = []

    def mis_value(stat):
        return mis(compute_psi(stat)).as_array()

    dev = max(
        invariance_report(
            s, mis_value, _ELEMENTS_PER_STATISTIC, rng, max_condition=_SUITE_MAX_CONDITION
        )
        for s in stats
    )
    results.append(("mis-invariance", dev, _MIS_INVARIANCE_TOL))

    checks = dict(_DETECTOR_TOLERANCES)
    if debug:
        checks[NEGATIVE_CONTROL] = 1e-8
    for name, tol in checks.items():
        if name == NEGATIVE_CONTROL:
            def value_fn(stat):
                psis = compute_psi(stat)
                return psis.psi0[0, 0] + psis.psi0[1, 1]
        else:
            def value_fn(stat, _kind=DetectorKind(name)):
                return evaluate(_kind, stat).value
        dev = max(
            invariance_report(
                s, value_fn, _ELEMENTS_PER_STATISTIC, rng, max_condition=_SUITE_MAX_CONDITION
            )
            for s in stats
        )
        results.append((f"detector-invariance[{name}]", dev, tol))

    worst = {name: 0.0 for name in _IDENTITY_TOLERANCES}
    for stat in stats:
        psis = compute_psi(stat)
        t = mis(psis)
        for name in worst:
            direct = evaluate(DetectorKind(name), stat).value
            via_t = mis_form(DetectorKind(name), t, stat.k, stat.n)
            worst[name] = max(worst[name], abs(via_t - direct) / max(abs(direct), 1e-300))
    for name, tol in _IDENTITY_TOLERANCES.items():
        results.append((f"form-identity[{name}]", worst[name], tol))

    dev = 0.0
    for stat in stats:
        elem = sample_group_element(stat.n, rng, max_condition=_SUITE_MAX_CONDITION)
        dev = max(dev, factorization_deviation(elem, stat))
    results.append(("subaction-factorization", dev, _FACTORIZATION_TOL))

    dev = 0.0
    for stat in stats:
        psis = compute_psi(stat)
        t = mis(psis)
        violation = max(t.t3 - t.t1, t.t2 - t.t3, 1.0 - t.t2, 0.0)
        diff = psis.psi0 - psis.psi1
        mu = np.linalg.eigvalsh(diff)
        scale = max(1.0, abs(mu[1]))
        violation = max(violation, abs(mu[0]) / scale)
        dev = max(dev, violation)
    results.append(("interlacing", dev, _INTERLACING_SLACK))
    return results


def cmd_invariance_check(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    cfg = _scenario_from(raw, seed)
    if cfg.n < 3:
        raise _ConfigError(
            "degenerate statistic: the MIS suites need n >= 3 (lambda4 "
            "vanishes identically for n = 2)"
        )
    n_stats = _trials(raw, default=100)
    debug = bool(raw.get("debug_noninvariant", False))
    results = _run_invariance_suites(cfg, seed, n_stats, debug)
    all_pass = True
    for name, dev, tol in results:
        ok = dev <= tol
        all_pass &= ok
        print(f"{name:<34} max_dev={dev:.3e}  tol={tol:.0e}  {'PASS' if ok else 'FAIL'}")
    if out_path:
        summary = {
            "suites": [
                {
                    "suite": name,
                    "max_deviation": float(dev),
                    "tolerance": float(tol),
                    "passed": bool(dev <= tol),
                }
                for name, dev, tol in results
            ],
            "all_passed": bool(all_pass),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        # the suites run on the scalar API, which has no parallel path
        _write_manifest(out_path, "invariance-check", raw, seed, 1, [out_path], started)
    return EXIT_OK if all_pass else EXIT_FAILURE


def cmd_cfar(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    cfg = _scenario_from(raw, seed)
    trials = _trials(raw)
    target_pfa = _number(_require(raw, "pfa"), "pfa")
    gamma_grid = _numbers(_require(raw, "gamma_grid"), "gamma_grid")
    rho_grid = _numbers(_require(raw, "rho_grid"), "rho_grid")
    if not gamma_grid or not rho_grid:
        raise _ConfigError("gamma_grid and rho_grid must be nonempty")
    if not 0.0 < target_pfa < 1.0:
        raise _ConfigError("pfa must be in (0, 1)")
    detector = raw.get("detector", [k.value for k in DetectorKind])
    try:
        result = cfar_sweep(
            detector, cfg, gamma_grid, rho_grid, target_pfa, trials, seed, workers=workers
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    rows = [
        (c.detector, c.gamma, c.rho, c.estimate.point, c.estimate.ci95[0],
         c.estimate.ci95[1], c.passed)
        for c in result.cells
    ]
    _write_csv(out_path, "detector,gamma,rho,pfa_hat,ci_lo,ci_hi,pass", rows)
    _write_manifest(out_path, "cfar", raw, seed, workers, [out_path], started)
    n_fail = sum(not c.passed for c in result.cells)
    if n_fail:
        log.warning("%d of %d CFAR cells outside the 3-sigma band", n_fail, len(rows))
    return EXIT_OK if result.all_passed else EXIT_FAILURE


def cmd_roc(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    base = dict(raw)
    base.pop("sinr_db", None)  # roc drives the hypothesis itself
    cfg = _scenario_from(base, seed)
    trials = _trials(raw)
    pfa_grid = _numbers(_require(raw, "pfa_grid"), "pfa_grid")
    if "sinr_grid" in raw:
        sinr_grid = _numbers(raw["sinr_grid"], "sinr_grid")
    elif "sinr_db" in raw:
        sinr_grid = [_number(raw["sinr_db"], "sinr_db")]
    else:
        raise _ConfigError("roc needs sinr_db or sinr_grid")
    if not pfa_grid or any(not 0.0 < p <= 1.0 for p in pfa_grid):
        raise _ConfigError("pfa_grid values must lie in (0, 1]")
    detector = raw.get("detector", DetectorKind.GLR.value)
    rows = []
    try:
        for i, sinr_db in enumerate(sinr_grid):
            points = roc_curve(
                detector, cfg, sinr_db, pfa_grid, trials, derive_seed(seed, i),
                workers=workers,
            )
            name = detector if isinstance(detector, str) else detector.value
            rows.extend(
                (name, sinr_db, p.pfa, p.pd.point, p.pd.ci95[0], p.pd.ci95[1])
                for p in points
            )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    _write_csv(out_path, "detector,sinr_db,pfa,pd,ci_lo,ci_hi", rows)
    _write_manifest(out_path, "roc", raw, seed, workers, [out_path], started)
    return EXIT_OK


def cmd_mis_sample(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    cfg = _scenario_from(raw, seed)
    if cfg.n < 3:
        raise _ConfigError("degenerate statistic: mis-sample needs n >= 3")
    trials = _trials(raw)
    t, lam = mis_samples(cfg, trials, seed, workers=workers)
    rows = (
        (i, cfg.hypothesis, t[i, 0], t[i, 1], t[i, 2],
         lam[i, 0], lam[i, 1], lam[i, 2], lam[i, 3])
        for i in range(trials)
    )
    _write_csv(
        out_path,
        "trial,hypothesis,t1,t2,t3,lambda1,lambda2,lambda3,lambda4",
        rows,
    )
    _write_manifest(out_path, "mis-sample", raw, seed, workers, [out_path], started)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persymdet",
        description="Adaptive persymmetric detection: invariance checks, "
        "CFAR sweeps, ROC curves and MIS sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "invariance-check": (cmd_invariance_check, False),
        "cfar": (cmd_cfar, True),
        "roc": (cmd_roc, True),
        "mis-sample": (cmd_mis_sample, True),
    }
    for name, (func, out_required) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=out_required, help="output file path")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        p.add_argument(
            "--workers", type=int, default=1, help="threads for Monte Carlo chunks (>= 1)"
        )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PERSYM_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print("config error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args.config, args.out, args.seed, args.workers)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PersymError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
