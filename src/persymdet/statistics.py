"""Sufficient statistic, quadratic-form pair, maximal invariant, scale MLEs.

The decision-relevant reduction of the canonical data is the pair
``(Zp, S)``: the N-by-2 primary matrix and the N-by-N secondary scatter
matrix. From it this module computes the 2x2 quadratic forms

    psi0 = Zp' S^-1 Zp        psi1 = Z2p' S22^-1 Z2p

their ordered eigenvalues (l1 >= l2 from psi0, l3 >= l4 from psi1), the
three-component maximal invariant t = (l1/l4, l2/l4, l3/l4), and the
maximum-likelihood estimates of the secondary power scaling under each
hypothesis.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .canonical import CanonicalizedData, _freeze, _hermitian_part, _mirror_gap
from .errors import (
    ConditioningError,
    DegenerateStatisticError,
    DimensionError,
    SingularSecondaryError,
)
from .scenario import _integral

_COND_LIMIT = 1e12


def check_support(n: int, k: int, stacklevel: int = 4) -> None:
    """Training-support guard shared by the scalar and batched paths.

    Raises :class:`SingularSecondaryError` when ``2K < N`` (the scatter of
    ``2K`` real secondaries is singular) and warns when ``K < 2N``. The
    warning points at the user's call, ``stacklevel`` frames up: the
    ``SufficientStatistic`` constructor and the engine sit two frames below
    it, :func:`assemble` one.
    """
    if 2 * k < n:
        raise SingularSecondaryError(
            f"2K >= N required for an invertible scatter (K={k}, N={n})"
        )
    if k < 2 * n:
        warnings.warn(
            f"K={k} secondaries with N={n} channels is below the "
            "recommended K >= 2N training support",
            stacklevel=stacklevel,
        )


@dataclass(frozen=True)
class SufficientStatistic:
    """The pair ``(Zp, S)``.

    ``zp`` is N-by-2 with columns ``(z1, z2)``; ``s`` is the symmetric
    secondary scatter built from ``2K`` snapshots. The quadratic forms split
    both into their first row and the rest (``zp[1:]``, ``s[1:, 1:]``).
    ``_psi`` caches the pair :func:`compute_psi` solved, ``None`` until then.
    """

    zp: np.ndarray
    s: np.ndarray
    k: int
    _psi: "PsiPair" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zp = np.array(self.zp, dtype=float)
        s = np.array(self.s, dtype=float)
        if zp.ndim != 2 or zp.shape[1] != 2:
            raise DimensionError(f"Zp must be (N, 2), got {zp.shape}")
        n = zp.shape[0]
        if s.shape != (n, n):
            raise DimensionError(f"S must be ({n}, {n}), got {s.shape}")
        k = _integral(self.k, "k")
        if k < 1:
            raise ValueError("secondary count K must be >= 1")
        check_support(n, k)
        if _mirror_gap(s, np.transpose) > 1e-12:
            raise ValueError("S is not symmetric")
        if not (np.isfinite(zp).all() and np.isfinite(s).all()):
            raise ValueError("statistic contains non-finite entries")
        object.__setattr__(self, "zp", _freeze(zp))
        object.__setattr__(self, "s", _freeze(_hermitian_part(s)))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_psi", None)

    @property
    def n(self) -> int:
        return self.zp.shape[0]


def _built_statistic(zp: np.ndarray, s: np.ndarray, k: int) -> SufficientStatistic:
    """A statistic whose checks already hold by construction; only freezes."""
    stat = object.__new__(SufficientStatistic)
    object.__setattr__(stat, "zp", _freeze(zp))
    object.__setattr__(stat, "s", _freeze(s))
    object.__setattr__(stat, "k", k)
    object.__setattr__(stat, "_psi", None)
    return stat


def assemble(data: CanonicalizedData) -> SufficientStatistic:
    """Build ``(Zp, S)`` from canonicalized data.

    ``S`` is the sum of outer products of all ``2K`` secondary vectors.
    The result is built trusted. The shapes and the finiteness of ``Zp``
    hold from ``data``, and a sum of two Gram products ``A'A`` cannot fail
    the symmetry check (NumPy forms each as one triangle and its mirror).
    The support rule and the finiteness of ``S`` are checked, and ``S`` is
    frozen through its symmetric part, as the constructor freezes it.
    """
    zp = np.column_stack([data.z1, data.z2])
    s = data.z1k.T @ data.z1k + data.z2k.T @ data.z2k
    check_support(zp.shape[0], data.k, stacklevel=3)
    if not np.isfinite(s).all():
        raise ValueError("statistic contains non-finite entries")
    return _built_statistic(zp, _hermitian_part(s), data.k)


def _eig2(p, b01, b10, q):
    """Descending eigenvalues ``(lmax, lmin)`` of symmetric 2x2 matrices.

    Closed form on the entries of ``[[p, b01], [b10, q]]``, as Python floats
    or stacked arrays (floats and arrays round alike). The root of the
    discriminant ``(p - q)^2 + 4 b^2`` is taken by ``hypot``, which neither
    over- nor underflows at any scale and is never complex; ties are
    returned as equal values with no ordering rule.
    """
    b = 0.5 * (b01 + b10)
    tr = p + q
    root = np.hypot(p - q, 2.0 * b)
    return 0.5 * (tr + root), 0.5 * (tr - root)


def _any(bad) -> bool:
    """Whether a guard fires: a scalar guard as is, an array if any entry is set.

    The scalar path's guards are Python or NumPy bools, for which a NumPy
    reduction would cost more than the formula it guards.
    """
    if isinstance(bad, (bool, np.bool_)):
        return bool(bad)
    return np.count_nonzero(bad) > 0


def _degenerate_lambda4(l1, l2, l3, l4):
    """Where ``l4`` cannot scale the maximal invariant, on floats or arrays.

    Set where an eigenvalue is not finite (NaN included) or
    ``l4 <= 1e-12 max(l1, 0)``; test it with :func:`_any`.
    """
    finite = (abs(l1) < math.inf) & (abs(l2) < math.inf) & (abs(l3) < math.inf)
    return np.logical_not(finite & (abs(l4) < math.inf) & (l4 > 0.0) & (l4 > 1e-12 * l1))


def _trace_det(a, b, c, d):
    """Trace and determinant of ``[[a, b], [c, d]]``, on floats or arrays."""
    return a + d, a * d - b * c


@dataclass(frozen=True)
class PsiPair:
    """The quadratic forms ``(psi0, psi1)`` and their ordered eigenvalues.

    ``lam`` holds ``(l1, l2, l3, l4)``, always computed from the forms;
    ``entries`` holds ``(a, b, c, d)`` of each form as Python floats;
    ``_memo`` caches what the detectors share, per ``(k, n)``.
    """

    psi0: np.ndarray
    psi1: np.ndarray
    lam: tuple = field(init=False)
    entries: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        psi0 = np.array(self.psi0, dtype=float)
        psi1 = np.array(self.psi1, dtype=float)
        if psi0.shape != (2, 2) or psi1.shape != (2, 2):
            raise DimensionError("psi0 and psi1 must be 2x2")
        if not (np.isfinite(psi0).all() and np.isfinite(psi1).all()):
            raise ValueError("psi0 and psi1 contain non-finite entries")
        _fill_pair(self, _hermitian_part(psi0), _hermitian_part(psi1))


def _fill_pair(pair: PsiPair, psi0: np.ndarray, psi1: np.ndarray) -> None:
    """Freeze symmetric 2x2 forms into ``pair`` with their entries and eigenvalues."""
    object.__setattr__(pair, "psi0", _freeze(psi0))
    object.__setattr__(pair, "psi1", _freeze(psi1))
    e0, e1 = (tuple(m.ravel().tolist()) for m in (psi0, psi1))
    object.__setattr__(pair, "entries", (e0, e1))
    lam = (*_eig2(*e0), *_eig2(*e1))
    object.__setattr__(pair, "lam", tuple(float(x) for x in lam))
    object.__setattr__(pair, "_memo", {})


def _psi_batch(zp: np.ndarray, s: np.ndarray, index_base: int = 0):
    """Quadratic forms ``(psi0, psi1)`` of stacked ``(Zp, S)``, one solve.

    The one psi kernel; compute_psi is a batch of one. With
    ``X = S22^-1 [Z2p | s21]``: ``psi1 = Z2p' X12``, the Schur complement
    ``c = s11 - s12 X3`` and ``u = z1p - s12 X12`` give ``psi0 = psi1 +
    u' u / c`` (block inverse of S), so ``psi0 - psi1`` is a rank-one PSD
    update by construction. A singular ``S22`` or a non-positive ``c`` raises
    :class:`DegenerateStatisticError` naming the trial ``index_base + offset``.
    """
    z2p = zp[:, 1:, :]
    s22 = s[:, 1:, 1:]
    try:
        x = np.linalg.solve(s22, np.concatenate([z2p, s[:, 1:, :1]], axis=2))
    except np.linalg.LinAlgError:
        # LU hit an exactly zero pivot, so that trial's determinant is zero
        offset = int(np.argmax(np.linalg.det(s22) == 0.0))
        raise DegenerateStatisticError(
            f"trial {index_base + offset}: scatter block S22 is singular"
        ) from None
    psi1 = np.swapaxes(z2p, 1, 2) @ x[:, :, :2]
    psi1 = 0.5 * (psi1 + np.swapaxes(psi1, 1, 2))
    w = (s[:, :1, 1:] @ x)[:, 0, :]
    c = s[:, 0, 0] - w[:, 2]
    bad = ~(np.isfinite(c) & (c > 0.0))
    if np.count_nonzero(bad):
        offset = int(np.argmax(bad))
        raise DegenerateStatisticError(
            f"trial {index_base + offset}: Schur complement of S22 is {float(c[offset])}"
        )
    u = zp[:, 0, :] - w[:, :2]
    psi0 = psi1 + (u[:, :, None] * u[:, None, :]) / c[:, None, None]
    return psi0, psi1


def compute_psi(stat: SufficientStatistic) -> PsiPair:
    """Quadratic forms of ``(Zp, S)``: :func:`_psi_batch` on a batch of one.

    Raises :class:`ConditioningError` unless S is positive definite with
    ``cond2(S) <= _COND_LIMIT`` (1e12); by Cauchy interlacing, so is S22.
    A statistic is solved once: its pair is cached on it and returned by
    every later call; a call that raises caches nothing.
    """
    if stat._psi is not None:
        return stat._psi
    if stat.n < 2:
        raise DimensionError("the block partition requires N >= 2")
    ev = np.linalg.eigvalsh(stat.s)
    if not (ev[0] > 0.0 and ev[-1] / _COND_LIMIT <= ev[0]):
        raise ConditioningError("scatter matrix S is too ill-conditioned or not positive definite")
    psi0, psi1 = _psi_batch(stat.zp[None], stat.s[None])
    # psi1 is symmetrized and psi0 = psi1 + u u' / c, so both are exactly symmetric
    pair = object.__new__(PsiPair)
    _fill_pair(pair, psi0[0], psi1[0])
    object.__setattr__(stat, "_psi", pair)
    return pair


@dataclass(frozen=True)
class MISVector:
    """Maximal invariant ``t = (l1/l4, l2/l4, l3/l4)``.

    On nondegenerate data the components satisfy ``t1 >= t3 >= t2 >= 1``.
    """

    t1: float
    t2: float
    t3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.t1, self.t2, self.t3])


def mis(psis: PsiPair) -> MISVector:
    """Maximal invariant vector from the eigenvalue quadruple.

    Raises :class:`DegenerateStatisticError` when ``l4`` is numerically zero
    relative to ``l1`` (always the case for N = 2, where psi1 has rank <= 1).
    """
    l1, l2, l3, l4 = psis.lam
    if _any(_degenerate_lambda4(l1, l2, l3, l4)):
        raise DegenerateStatisticError(
            f"smallest eigenvalue is degenerate: lambda = ({l1:.6g}, {l2:.6g}, "
            f"{l3:.6g}, {l4:.6g})"
        )
    return MISVector(t1=l1 / l4, t2=l2 / l4, t3=l3 / l4)


def _gamma_hat(tr, det, k: int, n: int):
    """ML secondary-scale estimate from the trace/determinant of a 2x2 form.

    Evaluated in the cancellation-free form ``2N / (beta + (K+1-N) Tr)`` with
    ``beta = sqrt(Tr^2 (K+1-N)^2 + 4 N (2K+2-N) det)``, which is algebraically
    identical to the ratio form and tends smoothly to the analytic limit
    ``N / ((K+1-N) Tr)`` as ``det -> 0``. Works on Python floats and on
    arrays alike. Returns ``(gamma_hat, beta)``.
    """
    c = k + 1 - n
    if c <= 0:
        raise ValueError(f"scale estimation requires K + 1 > N (K={k}, N={n})")
    d = 2 * (k + 1) - n
    if _any(tr <= 0.0):
        raise DegenerateStatisticError("Tr[psi] must be positive for scale estimation")
    ctr = c * tr
    beta = np.sqrt(ctr * ctr + (4.0 * n * d) * np.maximum(det, 0.0))
    return (2.0 * n) / (beta + ctr), beta


@dataclass(frozen=True)
class ScaleEstimates:
    """ML estimates of the secondary power scaling under each hypothesis."""

    gamma0_hat: float
    gamma1_hat: float
    beta0: float
    beta1: float


def scale_estimates(psis: PsiPair, k: int, n: int) -> ScaleEstimates:
    """Scale MLEs ``gamma0_hat`` (from psi0) and ``gamma1_hat`` (from psi1).

    Each is evaluated on its form over its own trace and rescaled (``beta``
    scales like the trace), so ``gamma_hat(phi S) = phi gamma_hat(S)`` holds
    for every phi > 0 without overflow.
    """
    gammas, betas = [], []
    for a, b, c, d in psis.entries:
        tr = a + d
        if tr <= 0.0:
            raise DegenerateStatisticError("Tr[psi] must be positive for scale estimation")
        g, beta = _gamma_hat(*_trace_det(a / tr, b / tr, c / tr, d / tr), k, n)
        gammas.append(float(g / tr))
        betas.append(float(beta * tr))
    return ScaleEstimates(*gammas, *betas)
