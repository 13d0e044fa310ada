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

from . import __version__, group
from .canonical import build_transform, canonicalize
from .detectors import _INTERLACING_SLACK, NEGATIVE_CONTROL, DetectorKind
from .errors import PersymError
from .montecarlo import _as_names, cfar_sweep, mis_samples, roc_curve
from .scenario import ScenarioConfig, _check_count, sample_dataset, steering
from .statistics import assemble
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
_IDENTITY_TOLERANCES = {"glr": 1e-9, "2s-glr": 1e-12, "wald": 1e-10, "rao": 1e-9}
_FACTORIZATION_TOL = 1e-12
_MIS_INVARIANCE_TOL = 1e-8


class _ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunManifest:
    """Completion marker written after all outputs of a command.

    Besides what was run, it records how: the worker count and the
    ``environment`` (python, numpy, scipy and BLAS versions, CPU count) that
    the duration depends on, and the throughput: ``trials`` counts the Monte
    Carlo trials drawn (calibration included, a reused reference cell once)
    and ``trials_per_s`` is ``trials / duration_seconds``. None of it enters
    the CSV body.
    """

    command: str
    config: dict
    master_seed: int
    workers: int
    version: str
    duration_seconds: float
    trials: int
    trials_per_s: float
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


def _number(value, what: str) -> float:
    """A JSON number as a float; a boolean, a string or an out-of-range integer is not."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise _ConfigError(f"{what} must be a number, not {value!r}")


def _numbers(value, what: str) -> list:
    if not isinstance(value, list):
        raise _ConfigError(f"{what} must be a list of numbers, not {value!r}")
    return [_number(x, what) for x in value]


def _count(value, what: str) -> int:
    """``value`` as a count by the library's rule; a config error otherwise."""
    try:
        return _check_count(value, what)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _detectors(raw: dict, default, many: bool):
    """The config's ``detector``: a name, or with ``many`` a nonempty list of names."""
    value = raw.get("detector", default)
    names = value if many and isinstance(value, list) and value else [value]
    if not all(isinstance(name, str) for name in names):
        expected = "a string or a nonempty list of strings" if many else "a string"
        raise _ConfigError(f"detector must be {expected}, not {value!r}")
    try:
        _as_names(names)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None
    return value


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
            n=_require(raw, "n"),
            k=_require(raw, "k"),
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
    import scipy  # only for its version; kept off the import path

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(out_path, command, config, seed, workers, outputs, started, trials) -> None:
    duration = time.monotonic() - started
    manifest = RunManifest(
        command=command,
        config=config,
        master_seed=seed,
        workers=workers,
        version=__version__,
        duration_seconds=duration,
        trials=trials,
        trials_per_s=trials / duration,
        outputs=tuple(outputs),
        environment=_environment(),
    )
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, default=str)
        fh.write("\n")


def _run_invariance_suites(cfg: ScenarioConfig, seed: int, n_stats: int, debug: bool):
    """Run the five verification suites; returns [(name, deviation, tol)].

    Statistic by statistic, each sampled element acts once and moves the MIS
    and every detector together; the factorization suite draws last.
    """
    xf = build_transform(steering(cfg.n, cfg.nu))
    stats = []
    for i in range(n_stats):
        ds = sample_dataset(cfg, derive_stream(seed, 1 + i))
        stats.append(assemble(canonicalize(ds.r, ds.rk, xf)))
    rng = derive_stream(seed, 0)

    checks = {**_DETECTOR_TOLERANCES, **({NEGATIVE_CONTROL: 1e-8} if debug else {})}
    suites = [("mis-invariance", _MIS_INVARIANCE_TOL)]
    suites += [(f"detector-invariance[{name}]", tol) for name, tol in checks.items()]
    suites += [(f"form-identity[{name}]", tol) for name, tol in _IDENTITY_TOLERANCES.items()]
    suites += [("subaction-factorization", _FACTORIZATION_TOL)]
    suites += [("interlacing", _INTERLACING_SLACK)]
    devs = list(group._invariance_deviations(
        stats, list(checks), _ELEMENTS_PER_STATISTIC, rng, _SUITE_MAX_CONDITION
    ))
    *gaps, breach = group._identity_deviations(stats, list(_IDENTITY_TOLERANCES))
    factorization = [
        group.factorization_deviation(
            group.sample_group_element(stat.n, rng, max_condition=_SUITE_MAX_CONDITION), stat
        )
        for stat in stats
    ]
    devs += [*gaps, np.max(factorization), breach]
    return [(name, dev, tol) for (name, tol), dev in zip(suites, devs)]


def cmd_invariance_check(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    cfg = _scenario_from(raw, seed)
    if cfg.n < 3:
        raise _ConfigError(
            "degenerate statistic: the MIS suites need n >= 3 (lambda4 "
            "vanishes identically for n = 2)"
        )
    n_stats = _count(raw.get("trials", 100), "trials")
    debug = raw.get("debug_noninvariant", False)
    if not isinstance(debug, bool):
        raise _ConfigError(f"debug_noninvariant must be true or false, not {debug!r}")
    rows = [
        (name, float(dev), float(tol), bool(dev <= tol))  # a NaN deviation fails
        for name, dev, tol in _run_invariance_suites(cfg, seed, n_stats, debug)
    ]
    for name, dev, tol, ok in rows:
        print(f"{name:<34} max_dev={dev:.3e}  tol={tol:.0e}  {'PASS' if ok else 'FAIL'}")
    all_pass = all(ok for *_, ok in rows)
    if out_path:
        keys = ("suite", "max_deviation", "tolerance", "passed")
        summary = {"suites": [dict(zip(keys, row)) for row in rows], "all_passed": all_pass}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        # the suites run on the scalar API, which has no parallel path
        _write_manifest(
            out_path, "invariance-check", raw, seed, 1, [out_path], started, n_stats
        )
    return EXIT_OK if all_pass else EXIT_FAILURE


def cmd_cfar(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    cfg = _scenario_from(raw, seed)
    trials = _count(_require(raw, "trials"), "trials")
    target_pfa = _number(_require(raw, "pfa"), "pfa")
    gamma_grid = _numbers(_require(raw, "gamma_grid"), "gamma_grid")
    rho_grid = _numbers(_require(raw, "rho_grid"), "rho_grid")
    detector = _detectors(raw, [k.value for k in DetectorKind], many=True)
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
    _write_manifest(
        out_path, "cfar", raw, seed, workers, [out_path], started, result.trials_drawn
    )
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
    trials = _count(_require(raw, "trials"), "trials")
    detector = _detectors(raw, DetectorKind.GLR.value, many=False)
    pfa_grid = _numbers(_require(raw, "pfa_grid"), "pfa_grid")
    if "sinr_grid" in raw:
        sinr_grid = _numbers(raw["sinr_grid"], "sinr_grid")
    elif "sinr_db" in raw:
        sinr_grid = [_number(raw["sinr_db"], "sinr_db")]
    else:
        raise _ConfigError("roc needs sinr_db or sinr_grid")
    if not sinr_grid:
        raise _ConfigError("sinr_grid must be nonempty")
    rows = []
    try:
        for i, sinr_db in enumerate(sinr_grid):
            points = roc_curve(
                detector, cfg, sinr_db, pfa_grid, trials, derive_seed(seed, i),
                workers=workers,
            )
            rows.extend(
                (detector, sinr_db, p.pfa, p.pd.point, p.pd.ci95[0], p.pd.ci95[1])
                for p in points
            )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc
    _write_csv(out_path, "detector,sinr_db,pfa,pd,ci_lo,ci_hi", rows)
    drawn = 2 * trials * len(sinr_grid)  # an H0 and an H1 sample per SINR
    _write_manifest(out_path, "roc", raw, seed, workers, [out_path], started, drawn)
    return EXIT_OK


def cmd_mis_sample(config_path, out_path, seed, workers) -> int:
    started = time.monotonic()
    raw = _load_config(config_path)
    cfg = _scenario_from(raw, seed)
    trials = _count(_require(raw, "trials"), "trials")
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
    _write_manifest(out_path, "mis-sample", raw, seed, workers, [out_path], started, trials)
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
    except (_ConfigError, PersymError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
