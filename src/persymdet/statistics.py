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

import warnings
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalizedData
from .errors import (
    ConditioningError,
    DegenerateStatisticError,
    DimensionError,
    SingularSecondaryError,
)

_COND_LIMIT = 1e12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def check_support(n: int, k: int) -> None:
    """Training-support guard shared by the scalar and batched paths.

    Raises :class:`SingularSecondaryError` when ``2K < N`` (the scatter of
    ``2K`` real secondaries is singular) and warns when ``K < 2N``. Both
    callers sit two frames below the user's call, where the warning points.
    """
    if 2 * k < n:
        raise SingularSecondaryError(
            f"2K >= N required for an invertible scatter (K={k}, N={n})"
        )
    if k < 2 * n:
        warnings.warn(
            f"K={k} secondaries with N={n} channels is below the "
            "recommended K >= 2N training support",
            stacklevel=4,
        )


@dataclass(frozen=True)
class SufficientStatistic:
    """The pair ``(Zp, S)`` with its block partition.

    ``zp`` is N-by-2 with columns ``(z1, z2)``; ``s`` is the symmetric
    secondary scatter built from ``2K`` snapshots. Block views expose the
    top row / bottom block split used by the quadratic forms.
    """

    zp: np.ndarray
    s: np.ndarray
    k: int

    def __post_init__(self):
        zp = np.array(self.zp, dtype=float)
        s = np.array(self.s, dtype=float)
        if zp.ndim != 2 or zp.shape[1] != 2:
            raise DimensionError(f"Zp must be (N, 2), got {zp.shape}")
        n = zp.shape[0]
        if s.shape != (n, n):
            raise DimensionError(f"S must be ({n}, {n}), got {s.shape}")
        if self.k < 1:
            raise ValueError("secondary count K must be >= 1")
        check_support(n, self.k)
        scale = np.linalg.norm(s)
        if np.linalg.norm(s - s.T) > 1e-12 * max(scale, 1e-300):
            raise ValueError("S is not symmetric")
        if not (np.isfinite(zp).all() and np.isfinite(s).all()):
            raise ValueError("statistic contains non-finite entries")
        object.__setattr__(self, "zp", _freeze(zp))
        object.__setattr__(self, "s", _freeze(0.5 * (s + s.T)))

    @property
    def n(self) -> int:
        return self.zp.shape[0]

    @property
    def z1p(self) -> np.ndarray:
        """Top row of Zp, shape (1, 2)."""
        return self.zp[:1, :]

    @property
    def z2p(self) -> np.ndarray:
        """Bottom block of Zp, shape (N-1, 2)."""
        return self.zp[1:, :]

    @property
    def s11(self) -> float:
        return float(self.s[0, 0])

    @property
    def s12(self) -> np.ndarray:
        """Top-right row of S, shape (1, N-1)."""
        return self.s[:1, 1:]

    @property
    def s21(self) -> np.ndarray:
        """Bottom-left column of S, shape (N-1, 1)."""
        return self.s[1:, :1]

    @property
    def s22(self) -> np.ndarray:
        return self.s[1:, 1:]


def assemble(data: CanonicalizedData) -> SufficientStatistic:
    """Build ``(Zp, S)`` from canonicalized data.

    ``S`` is the sum of outer products of all ``2K`` secondary vectors.
    """
    zp = np.column_stack([data.z1, data.z2])
    s = data.z1k.T @ data.z1k + data.z2k.T @ data.z2k
    return SufficientStatistic(zp=zp, s=s, k=data.k)


def eig2_desc(a) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of symmetric 2x2 matrices, closed form.

    Accepts a single (2, 2) matrix or a stacked (..., 2, 2) array; returns
    ``(lmax, lmin)`` with matching leading shape. The discriminant is
    evaluated as ``(a - d)^2 + 4 b^2`` and clamped at zero, so round-off can
    never produce complex output. Ties are returned as equal values with no
    further ordering rule.
    """
    a = np.asarray(a, dtype=float)
    p = a[..., 0, 0]
    q = a[..., 1, 1]
    b = 0.5 * (a[..., 0, 1] + a[..., 1, 0])
    tr = p + q
    root = np.sqrt(np.maximum((p - q) ** 2 + 4.0 * b * b, 0.0))
    return 0.5 * (tr + root), 0.5 * (tr - root)


@dataclass(frozen=True)
class PsiPair:
    """The quadratic forms ``(psi0, psi1)`` and their ordered eigenvalues."""

    psi0: np.ndarray
    psi1: np.ndarray
    lam: tuple = None

    def __post_init__(self):
        psi0 = np.array(self.psi0, dtype=float)
        psi1 = np.array(self.psi1, dtype=float)
        if psi0.shape != (2, 2) or psi1.shape != (2, 2):
            raise DimensionError("psi0 and psi1 must be 2x2")
        psi0 = 0.5 * (psi0 + psi0.T)
        psi1 = 0.5 * (psi1 + psi1.T)
        object.__setattr__(self, "psi0", _freeze(psi0))
        object.__setattr__(self, "psi1", _freeze(psi1))
        if self.lam is None:
            l1, l2 = eig2_desc(psi0)
            l3, l4 = eig2_desc(psi1)
            object.__setattr__(self, "lam", (float(l1), float(l2), float(l3), float(l4)))
        else:
            object.__setattr__(self, "lam", tuple(float(x) for x in self.lam))


def compute_psi(stat: SufficientStatistic, cond_limit: float = _COND_LIMIT) -> PsiPair:
    """Quadratic forms of ``(Zp, S)`` with a conditioning guard on S, S22."""
    if stat.n < 2:
        raise DimensionError("the block partition requires N >= 2")
    if np.linalg.cond(stat.s) > cond_limit:
        raise ConditioningError("scatter matrix S is too ill-conditioned")
    s22 = stat.s22
    if np.linalg.cond(s22) > cond_limit:
        raise ConditioningError("scatter block S22 is too ill-conditioned")
    psi0 = stat.zp.T @ np.linalg.solve(stat.s, stat.zp)
    psi1 = stat.z2p.T @ np.linalg.solve(s22, stat.z2p)
    return PsiPair(psi0=psi0, psi1=psi1)


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
    if not np.isfinite([l1, l2, l3, l4]).all() or l4 <= 1e-12 * max(l1, 0.0):
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
    ``N / ((K+1-N) Tr)`` as ``det -> 0``. Vectorized over ``tr``/``det``.
    Returns ``(gamma_hat, beta)``.
    """
    c = k + 1 - n
    if c <= 0:
        raise ValueError(f"scale estimation requires K + 1 > N (K={k}, N={n})")
    d = 2 * (k + 1) - n
    tr = np.asarray(tr, dtype=float)
    det = np.asarray(det, dtype=float)
    if np.any(tr <= 0.0):
        raise DegenerateStatisticError("Tr[psi] must be positive for scale estimation")
    beta = np.sqrt((c * tr) ** 2 + (4.0 * n * d) * np.maximum(det, 0.0))
    return (2.0 * n) / (beta + c * tr), beta


@dataclass(frozen=True)
class ScaleEstimates:
    """ML estimates of the secondary power scaling under each hypothesis."""

    gamma0_hat: float
    gamma1_hat: float
    beta0: float
    beta1: float


def scale_estimates(psis: PsiPair, k: int, n: int) -> ScaleEstimates:
    """Scale MLEs ``gamma0_hat`` (from psi0) and ``gamma1_hat`` (from psi1)."""
    tr0 = psis.psi0[0, 0] + psis.psi0[1, 1]
    tr1 = psis.psi1[0, 0] + psis.psi1[1, 1]
    det0 = psis.psi0[0, 0] * psis.psi0[1, 1] - psis.psi0[0, 1] * psis.psi0[1, 0]
    det1 = psis.psi1[0, 0] * psis.psi1[1, 1] - psis.psi1[0, 1] * psis.psi1[1, 0]
    g0, b0 = _gamma_hat(tr0, det0, k, n)
    g1, b1 = _gamma_hat(tr1, det1, k, n)
    return ScaleEstimates(
        gamma0_hat=float(g0), gamma1_hat=float(g1), beta0=float(b0), beta1=float(b1)
    )
