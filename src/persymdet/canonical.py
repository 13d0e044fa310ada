"""Persymmetric machinery and the real-valued canonical form.

A vector ``s`` is persymmetric when ``s = J s*`` and a Hermitian matrix ``M``
when ``M = J M* J``, with ``J`` the exchange (anti-identity) permutation.
This module builds the unitary map ``T`` that turns persymmetric-Hermitian
structure into real-symmetric structure, the orthogonal rotation ``V`` that
aligns the transformed steering vector with ``e1``, and the canonicalization
of raw complex snapshots into real primary/secondary data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelError, NormalizationError

_UNIT_NORM_TOL = 1e-12
_PERSYMMETRY_TOL = 1e-12
_REALNESS_TOL = 1e-10


def exchange_matrix(n: int) -> np.ndarray:
    """Exchange (anti-identity) permutation matrix of order ``n``.

    ``J[i, j] = 1`` iff ``j = n - 1 - i``; ``J @ J`` is the identity.
    """
    n = int(n)
    if n < 1:
        raise DimensionError(f"exchange matrix needs n >= 1, got {n}")
    return np.fliplr(np.eye(n))


def _mirror_gap(m: np.ndarray, mirror) -> float:
    """``norm(m - mirror(m)) / norm(m)`` for a linear ``mirror``, taken on ``m / max|m|``
    so that no norm over- or underflows; 0 for the zero matrix, NaN if not finite."""
    peak = np.abs(m).max(initial=0.0)
    if peak == 0.0:
        return 0.0
    m = m / peak
    return float(np.linalg.norm(m - mirror(m)) / np.linalg.norm(m))


def is_persymmetric(m, tol: float = 1e-10) -> bool:
    """Whether ``m`` satisfies ``m = J m* J`` within relative Frobenius ``tol``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    j = exchange_matrix(m.shape[0])
    return _mirror_gap(m, lambda x: j @ x.conj() @ j) <= tol


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2``, halved before the sum so that no finite entry overflows."""
    return 0.5 * m + 0.5 * m.conj().T


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SteeringVector:
    """Unit-norm persymmetric target signature over ``n`` channels."""

    entries: np.ndarray

    def __post_init__(self):
        s = np.array(self.entries, dtype=complex)
        if s.ndim != 1 or s.size < 1:
            raise DimensionError("steering vector must be a 1-D array")
        norm = np.linalg.norm(s)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise NormalizationError(f"steering vector norm {float(norm)} is not 1")
        j = exchange_matrix(s.size)
        if np.max(np.abs(s - j @ s.conj())) > _PERSYMMETRY_TOL:
            raise ModelError("steering vector is not persymmetric (s != J s*)")
        object.__setattr__(self, "entries", _freeze(s))

    @property
    def n(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class PersymmetricCovariance:
    """Hermitian, positive definite, persymmetric disturbance covariance."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"covariance must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ModelError("covariance contains non-finite entries")
        if _mirror_gap(m, lambda x: x.conj().T) > 1e-12:
            raise ModelError("covariance is not Hermitian")
        m = _hermitian_part(m)
        if np.linalg.eigvalsh(m)[0] <= 0.0:
            raise ModelError("covariance is not positive definite")
        if not is_persymmetric(m, tol=1e-10):
            raise ModelError("covariance is not persymmetric (M != J M* J)")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CanonicalTransform:
    """The pair (T, V) mapping the complex problem to canonical real form.

    ``T`` is the unitary block map sending persymmetric vectors to real ones;
    ``V`` is a real orthogonal rotation whose first row is aligned with
    ``T s`` so that ``V T s = e1``.
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=complex)
        v = np.array(self.v, dtype=float)
        n = t.shape[0]
        eye = np.eye(n)
        if t.shape != (n, n) or v.shape != (n, n):
            raise DimensionError("T and V must be square matrices of equal order")
        if np.linalg.norm(t @ t.conj().T - eye) > 1e-12 * n:
            raise ModelError("T is not unitary")
        if np.linalg.norm(v @ v.T - eye) > 1e-12 * n:
            raise ModelError("V is not orthogonal")
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "v", _freeze(v))

    @property
    def n(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class CanonicalizedData:
    """Real-valued primary pair (z1, z2) and K secondary pairs (z1k, z2k)."""

    z1: np.ndarray
    z2: np.ndarray
    z1k: np.ndarray
    z2k: np.ndarray

    def __post_init__(self):
        z1 = np.array(self.z1, dtype=float)
        z2 = np.array(self.z2, dtype=float)
        z1k = np.atleast_2d(np.array(self.z1k, dtype=float))
        z2k = np.atleast_2d(np.array(self.z2k, dtype=float))
        n = z1.size
        if z2.size != n or z1k.shape[1] != n or z2k.shape != z1k.shape:
            raise DimensionError("canonical data blocks have inconsistent shapes")
        if z1k.shape[0] < 1:
            raise DimensionError("at least one secondary pair is required")
        for a in (z1, z2, z1k, z2k):
            if not np.isfinite(a).all():
                raise ModelError("canonical data contains non-finite entries")
        object.__setattr__(self, "z1", _freeze(z1))
        object.__setattr__(self, "z2", _freeze(z2))
        object.__setattr__(self, "z1k", _freeze(z1k))
        object.__setattr__(self, "z2k", _freeze(z2k))

    @property
    def n(self) -> int:
        return self.z1.size

    @property
    def k(self) -> int:
        return self.z1k.shape[0]


def _built_data(z1, z2, z1k, z2k) -> CanonicalizedData:
    """Canonical data whose checks already hold by construction; only freezes."""
    data = object.__new__(CanonicalizedData)
    for name, a in (("z1", z1), ("z2", z2), ("z1k", z1k), ("z2k", z2k)):
        object.__setattr__(data, name, _freeze(a))
    return data


def _real_unitary_map(n: int) -> np.ndarray:
    # Block construction: maps persymmetric vectors to real vectors and
    # persymmetric-Hermitian matrices to real-symmetric ones (validated by
    # the realness invariants, see tests).
    m = n // 2
    im = np.eye(m)
    jm = np.fliplr(im) if m else im
    if n % 2 == 0:
        top = np.hstack([im, jm])
        bot = np.hstack([1j * im, -1j * jm])
        blocks = [top, bot]
    else:
        col = np.zeros((m, 1))
        mid = np.zeros((1, n), dtype=complex)
        mid[0, m] = np.sqrt(2.0)
        top = np.hstack([im, col, jm])
        bot = np.hstack([1j * im, col, -1j * jm])
        blocks = [top, mid, bot]
    return np.vstack(blocks).astype(complex) / np.sqrt(2.0)


def _rotation_to_e1(x: np.ndarray) -> np.ndarray:
    """Orthogonal matrix mapping the real unit vector ``x`` to ``e1``.

    Householder reflector with the sign chosen opposite to ``x[0]`` to avoid
    cancellation; the first row is flipped afterwards when needed so the
    image is ``+e1``. Returns the identity when ``x`` is already ``e1``.
    """
    n = x.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    if np.linalg.norm(x - e1) <= 1e-12:
        return np.eye(n)
    sigma = -1.0 if x[0] >= 0.0 else 1.0
    w = x - sigma * e1
    h = np.eye(n) - (2.0 / (w @ w)) * np.outer(w, w)
    if sigma < 0.0:
        h[0] *= -1.0
    return h


def build_transform(s) -> CanonicalTransform:
    """Canonical transform for steering vector ``s``.

    ``s`` may be a :class:`SteeringVector` or an array-like, which is
    validated (unit norm, persymmetry) on the way in. The returned transform
    satisfies ``V @ (T @ s) = e1`` and ``Im(T @ s) = 0``.
    """
    sv = s if isinstance(s, SteeringVector) else SteeringVector(np.asarray(s))
    t = _real_unitary_map(sv.n)
    x = t @ sv.entries
    if np.max(np.abs(x.imag)) > _REALNESS_TOL:
        raise ModelError("T s is not real: steering vector violates persymmetry")
    v = _rotation_to_e1(x.real)
    return CanonicalTransform(t, v)


def canonicalize(r, rk, transform: CanonicalTransform) -> CanonicalizedData:
    """Map the complex primary ``r`` and secondaries ``rk`` to canonical form.

    ``z1 = V Re(T r)``, ``z2 = V Im(T r)``, and likewise per secondary
    snapshot. ``rk`` is a ``(K, n)`` array or a list of K length-n vectors.
    """
    r = np.asarray(r, dtype=complex)
    rk = np.atleast_2d(np.asarray(rk, dtype=complex))
    n = transform.n
    if r.shape != (n,):
        raise DimensionError(f"primary vector must have length {n}, got {r.shape}")
    if rk.ndim != 2 or rk.shape[1] != n:
        raise DimensionError(f"secondaries must be (K, {n}), got {rk.shape}")
    if rk.shape[0] < 1:
        raise DimensionError("at least one secondary snapshot is required")
    tr = transform.t @ r
    trk = rk @ transform.t.T
    out = (
        transform.v @ tr.real,
        transform.v @ tr.imag,
        trk.real @ transform.v.T,
        trk.imag @ transform.v.T,
    )
    # fresh float arrays whose shapes hold from the checks above; only
    # finiteness, lost to a non-finite input or to overflow, is checked again
    if not all(np.isfinite(a).all() for a in out):
        raise ModelError("canonical data contains non-finite entries")
    return _built_data(*out)


def transform_covariance(m0, transform: CanonicalTransform) -> np.ndarray:
    """Real-symmetric canonical covariance ``(1/2) V T M0 T^H V^T``.

    Raises :class:`ModelError` when the imaginary residue exceeds 1e-10
    relative, i.e. when ``m0`` is not persymmetric-Hermitian.
    """
    m0 = np.asarray(getattr(m0, "entries", m0), dtype=complex)
    if m0.shape != (transform.n, transform.n):
        raise DimensionError("covariance order does not match the transform")
    w = 0.5 * transform.v @ transform.t @ m0 @ transform.t.conj().T @ transform.v.T
    if np.linalg.norm(w.imag) > 1e-10 * max(np.linalg.norm(w), 1e-300):
        raise ModelError("transformed covariance is not real: M0 not persymmetric")
    return 0.5 * (w.real + w.real.T)
