"""Synthetic scenario generation: steering, clutter covariance, datasets.

The disturbance model is exponentially correlated Hermitian-Toeplitz clutter
with a Doppler shift plus a unit-power noise floor; Hermitian Toeplitz
matrices are persymmetric, so every generated covariance satisfies the
structural assumption by construction. Secondary snapshots share the primary
covariance up to the power scaling ``gamma`` (partially homogeneous
environment).
"""

import cmath
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .canonical import (
    CanonicalTransform,
    PersymmetricCovariance,
    SteeringVector,
    build_transform,
)
from .errors import ModelError
from .streams import derive_stream

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _integral(value, what: str) -> int:
    """``value`` as an int; ``ValueError`` naming ``what`` unless it is integral.

    A bool is not a count, and neither is a string of digits.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return int(value)
    raise ValueError(f"{what} must be an integer, not {value!r}")


def _check_count(value, what: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is integral and >= 1."""
    value = _integral(value, what)
    if value < 1:
        raise ValueError(f"{what} must be >= 1")
    return value


def _db_power(level_db: float, what: str) -> float:
    """``10 ** (level_db / 10)``; ``ValueError`` naming ``what`` unless it is finite.

    NaN, ``+inf`` and a level whose power overflows are rejected; ``-inf``
    is zero power.
    """
    try:
        power = 10.0 ** (level_db / 10.0)
    except OverflowError:
        power = math.inf
    if not power < math.inf:
        raise ValueError(f"{what} must be a dB level with a finite power, not {level_db!r}")
    return power


def _check_rho(rho: float) -> None:
    """``ValueError`` unless the one-lag correlation ``rho`` lies in [0, 1)."""
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), not {rho!r}")


def _check_gamma(gamma: float) -> None:
    """``ValueError`` unless the secondary power ``gamma`` is positive and finite."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, not {gamma!r}")


def steering(n: int, nu: float) -> SteeringVector:
    """Unit-norm persymmetric steering vector at normalized frequency ``nu``.

    The phase ramp is centered on the array midpoint, which is what makes
    the vector persymmetric for every ``nu``.
    """
    idx = np.arange(int(n)) - (int(n) - 1) / 2.0
    return SteeringVector(np.exp(2j * np.pi * nu * idx) / np.sqrt(n))


def covariance_model(
    n: int, rho: float, doppler_fc: float = 0.0, cnr_db: float = 0.0
) -> PersymmetricCovariance:
    """Clutter-plus-noise covariance.

    ``M0 = sigma_c^2 Toeplitz(rho^|i-j| e^{2j pi fc (i-j)}) + I`` with
    ``sigma_c^2 = 10^(cnr_db/10)``; positive definite with smallest
    eigenvalue above the unit noise floor.
    """
    _check_rho(rho)
    lags = np.arange(int(n))
    col = rho**lags * np.exp(2j * np.pi * doppler_fc * lags)
    # Hermitian Toeplitz: entry (i, j) is col[i - j] on and below the
    # diagonal and conj(col[j - i]) above it, as scipy.linalg.toeplitz
    vals = np.concatenate((col[:0:-1].conj(), col))
    sigma_c2 = _db_power(cnr_db, "cnr_db")
    m = sigma_c2 * vals[lags[:, None] - lags + (int(n) - 1)] + np.eye(int(n))
    return PersymmetricCovariance(m)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic detection scenario.

    Under H1 exactly one of ``alpha`` (complex amplitude) or ``sinr_db``
    (target output SINR, converted to an amplitude with zero phase) must be
    given; under H0 neither.
    """

    n: int
    k: int
    rho: float = 0.0
    doppler_fc: float = 0.0
    cnr_db: float = 0.0
    gamma: float = 1.0
    nu: float = 0.0
    hypothesis: str = "H0"
    alpha: Optional[complex] = None
    sinr_db: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n, "n"))
        object.__setattr__(self, "k", _integral(self.k, "k"))
        if self.n < 2:
            raise ValueError("at least two channels are required")
        if self.k < 1:
            raise ValueError("at least one secondary snapshot is required")
        _check_rho(self.rho)
        if not -0.5 <= self.doppler_fc < 0.5:
            raise ValueError("doppler_fc must be in [-0.5, 0.5)")
        if not -0.5 <= self.nu < 0.5:
            raise ValueError("nu must be in [-0.5, 0.5)")
        _check_gamma(self.gamma)
        _db_power(self.cnr_db, "cnr_db")
        if self.hypothesis not in ("H0", "H1"):
            raise ValueError("hypothesis must be 'H0' or 'H1'")
        has_alpha = self.alpha is not None
        has_sinr = self.sinr_db is not None
        if self.hypothesis == "H0" and (has_alpha or has_sinr):
            raise ValueError("H0 scenarios must not specify alpha or sinr_db")
        if self.hypothesis == "H1" and has_alpha == has_sinr:
            raise ValueError("H1 scenarios need exactly one of alpha / sinr_db")
        if has_alpha:
            object.__setattr__(self, "alpha", complex(self.alpha))
            if not cmath.isfinite(self.alpha):
                raise ValueError(f"alpha must be finite, not {self.alpha!r}")
        if has_sinr:
            _db_power(self.sinr_db, "sinr_db")


def _built_config(cfg: ScenarioConfig, gamma: float, rho: float) -> ScenarioConfig:
    """``replace(cfg, gamma=gamma, rho=rho)`` for values that passed
    :func:`_check_gamma` and :func:`_check_rho`; skips the other checks,
    which ``cfg`` already passed."""
    built = object.__new__(ScenarioConfig)
    fields = built.__dict__
    fields.update(cfg.__dict__)
    fields["gamma"], fields["rho"] = gamma, rho
    return built


@dataclass(frozen=True)
class Dataset:
    """One draw of primary and secondary snapshots plus its ground truth."""

    r: np.ndarray
    rk: np.ndarray
    truth: str
    scenario: ScenarioConfig


class _Model(NamedTuple):
    steering: SteeringVector
    transform: CanonicalTransform
    chol: np.ndarray
    alpha: complex


@lru_cache(maxsize=128)
def _prepare(cfg: ScenarioConfig) -> _Model:
    sv = steering(cfg.n, cfg.nu)
    cov = covariance_model(cfg.n, cfg.rho, cfg.doppler_fc, cfg.cnr_db)
    xf = build_transform(sv)
    try:
        # lower-triangular factor: fixed convention for reproducible draws
        chol = np.linalg.cholesky(cov.entries)
    except np.linalg.LinAlgError as exc:
        raise ModelError("covariance factorization failed (not PD)") from exc
    if cfg.hypothesis == "H0":
        alpha = 0.0 + 0.0j
    elif cfg.alpha is not None:
        alpha = cfg.alpha
    else:
        alpha = alpha_for_sinr(cfg.sinr_db, 0.0, sv, cov)
    return _Model(sv, xf, chol, complex(alpha))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * _SQRT_HALF


def _draw(cfg: ScenarioConfig, model: _Model, rng: np.random.Generator):
    """One dataset draw; the draw order (primary, then secondaries) is part
    of the determinism contract."""
    r = model.chol @ _complex_normal(rng, cfg.n)
    if cfg.hypothesis == "H1":
        r = model.alpha * model.steering.entries + r
    xk = _complex_normal(rng, (cfg.k, cfg.n))
    rk = np.sqrt(cfg.gamma) * (xk @ model.chol.T)
    return r, rk


def sample_dataset(cfg: ScenarioConfig, rng: Optional[np.random.Generator] = None) -> Dataset:
    """Draw one dataset; a pure function of ``(cfg, rng state)``.

    Without an explicit generator the stream is derived from ``cfg.seed``,
    so identical configurations give bit-identical datasets.
    """
    if rng is None:
        rng = derive_stream(cfg.seed, 0)
    model = _prepare(cfg)
    r, rk = _draw(cfg, model, rng)
    return Dataset(r=r, rk=rk, truth=cfg.hypothesis, scenario=cfg)


def _whitened_power(s, m0):
    """``Re(s' M0^-1 s)``; :class:`ModelError` when ``M0`` is singular."""
    s = np.asarray(getattr(s, "entries", s), dtype=complex)
    m = np.asarray(getattr(m0, "entries", m0), dtype=complex)
    try:
        return np.real(s.conj() @ np.linalg.solve(m, s))
    except np.linalg.LinAlgError as exc:
        raise ModelError("covariance is singular") from exc


def sinr(alpha: complex, s, m0) -> float:
    """Output signal-to-interference-plus-noise ratio ``2 |alpha|^2 s' M0^-1 s``.

    This is the induced invariant of the problem: in canonical coordinates it
    equals ``||alpha_vec||^2 e1' M^-1 e1``, so detection performance depends
    on the scenario only through this number.
    """
    return float(2.0 * abs(alpha) ** 2 * _whitened_power(s, m0))


def alpha_for_sinr(sinr_db: float, phase: float, s, m0) -> complex:
    """Complex amplitude achieving the requested output SINR (in dB)."""
    if sinr_db == -np.inf:
        return 0.0 + 0.0j
    quad = float(_whitened_power(s, m0))
    mag = np.sqrt(_db_power(sinr_db, "sinr_db") / (2.0 * quad))
    return complex(mag * np.exp(1j * phase))


def as_hypothesis(cfg: ScenarioConfig, hypothesis: str, sinr_db: Optional[float] = None) -> ScenarioConfig:
    """Copy of ``cfg`` with the hypothesis (and target strength) replaced.

    An H0 ``cfg`` asked for H0 is returned as it is.
    """
    if hypothesis == "H0":
        if cfg.hypothesis == "H0":
            return cfg
        return replace(cfg, hypothesis="H0", alpha=None, sinr_db=None)
    return replace(cfg, hypothesis="H1", alpha=None, sinr_db=sinr_db)
