"""The transformation group leaving the detection problem invariant.

Elements are triples ``(G, U, phi)``: a block upper-triangular nonsingular
``G`` (scalar corner, full bottom-right block), an orthogonal 2x2 ``U`` and
a positive scale ``phi``. The action on the sufficient statistic is

    (Zp, S)  ->  (G Zp U, phi G S G')

and factors into a linear sub-action (``phi = 1``) followed by a pure
scaling of ``S``. Composition follows ``(Ga,Ua,pa) o (Gb,Ub,pb) =
(Gb Ga, Ua Ub, pa pb)`` -- note the reversed matrix order -- so that acting
with the composite equals acting with ``a`` first, then ``b``.
"""

from dataclasses import dataclass

import numpy as np

from .canonical import _freeze, _hermitian_part
from .detectors import _scalar, mis_form
from .errors import DimensionError
from .scenario import _check_count
from .statistics import SufficientStatistic, _built_statistic, compute_psi, mis

_SAMPLING_ATTEMPTS = 100
_LOG_PHI_RANGE = (np.log(1e-2), np.log(1e2))  # phi is log-uniform on [1e-2, 1e2]
_DEVIATION_FLOOR = 1e-12  # least denominator of an invariance deviation
# discrimination_check: white (N, K) draws, distinct when t differs by more than TOL
_DISCRIMINATION_N, _DISCRIMINATION_K, _DISCRIMINATION_TOL = 8, 16, 1e-6


@dataclass(frozen=True)
class GroupElement:
    """A group element ``(G, U, phi)``."""

    g: np.ndarray
    u: np.ndarray
    phi: float

    def __post_init__(self):
        g = np.array(self.g, dtype=float)
        u = np.array(self.u, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 2:
            raise DimensionError(f"G must be square of order >= 2, got {g.shape}")
        if np.any(g[1:, 0] != 0.0):
            raise ValueError("G must be block upper-triangular (zeros below g11)")
        if g[0, 0] == 0.0:
            raise ValueError("g11 must be nonzero")
        sign, _ = np.linalg.slogdet(g[1:, 1:])
        if sign == 0.0:
            raise ValueError("G22 must be invertible")
        if u.shape != (2, 2) or np.linalg.norm(u @ u.T - np.eye(2)) > 1e-12:
            raise ValueError("U must be 2x2 orthogonal")
        if not self.phi > 0.0:
            raise ValueError("phi must be positive")
        object.__setattr__(self, "g", _freeze(g))
        object.__setattr__(self, "u", _freeze(u))
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def n(self) -> int:
        return self.g.shape[0]


def _built(g: np.ndarray, u: np.ndarray, phi: float) -> GroupElement:
    """An element whose checks already hold by construction; only freezes."""
    elem = object.__new__(GroupElement)
    object.__setattr__(elem, "g", _freeze(g))
    object.__setattr__(elem, "u", _freeze(u))
    object.__setattr__(elem, "phi", phi)
    return elem


def identity_element(n: int) -> GroupElement:
    return GroupElement(g=np.eye(n), u=np.eye(2), phi=1.0)


def _cond(a: np.ndarray) -> float:
    """``np.linalg.cond(a)``: the same arithmetic, without its overhead."""
    s = np.linalg.svd(a, compute_uv=False)
    return s[0] / s[-1] if s[-1] > 0.0 else np.inf


def sample_group_element(
    n: int, rng: np.random.Generator, max_condition: float = 1e8
) -> GroupElement:
    """Random group element with conditioning control.

    Standard Gaussian entries; candidates are resampled until both ``G`` and
    its bottom-right block have condition number at most ``max_condition``
    (near-singular elements would inflate invariance deviations for purely
    numerical reasons). ``U`` is a uniform rotation composed with a
    reflection with probability 1/2, and ``phi`` is log-uniform on
    ``[1e-2, 1e2]``.
    """
    if n < 2:
        raise DimensionError("group elements require n >= 2")
    if not 1.0 <= max_condition < np.inf:
        # a finite cap is what keeps G22 invertible; no condition number is below 1
        raise ValueError(f"max_condition must be finite and at least 1, not {max_condition!r}")
    for _ in range(_SAMPLING_ATTEMPTS):
        # one draw in the order g11, the rest of row 0, then G22 row by row
        x = rng.standard_normal(n * n - n + 1)
        g = np.zeros((n, n))
        g[0] = x[:n]
        g[1:, 1:] = x[n:].reshape(n - 1, n - 1)
        if g[0, 0] == 0.0:
            continue
        if _cond(g) > max_condition or _cond(g[1:, 1:]) > max_condition:
            continue
        break
    else:
        raise RuntimeError(
            f"no acceptably conditioned element after {_SAMPLING_ATTEMPTS} attempts"
        )
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    if rng.random() < 0.5:  # the rotation times the reflection diag(1, -1)
        u = np.array([[c, s], [s, -c]])
    else:
        u = np.array([[c, -s], [s, c]])
    phi = float(np.exp(rng.uniform(*_LOG_PHI_RANGE)))
    # the zeros below g11, g11 != 0 and an invertible G22 (cond <= cap) hold
    # from the loop; U is a rotation or a reflection and phi = exp(.) > 0
    return _built(g, u, phi)


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group composition ``a o b = (Gb Ga, Ua Ub, pa pb)``."""
    if a.n != b.n:
        raise DimensionError("cannot compose elements of different order")
    return GroupElement(g=b.g @ a.g, u=a.u @ b.u, phi=a.phi * b.phi)


def inverse(a: GroupElement) -> GroupElement:
    """Inverse element, built block-wise so the triangular zeros stay exact."""
    g11 = a.g[0, 0]
    g12 = a.g[:1, 1:]
    g22_inv = np.linalg.inv(a.g[1:, 1:])
    g = np.zeros_like(a.g)
    g[0, 0] = 1.0 / g11
    g[:1, 1:] = -(g12 @ g22_inv) / g11
    g[1:, 1:] = g22_inv
    return GroupElement(g=g, u=a.u.T, phi=1.0 / a.phi)


def act(elem: GroupElement, stat: SufficientStatistic) -> SufficientStatistic:
    """Group action ``(Zp, S) -> (G Zp U, phi G S G')``."""
    if elem.n != stat.n:
        raise DimensionError("element and statistic dimensions do not match")
    zp = elem.g @ stat.zp @ elem.u
    return _moved(zp, elem.phi * (elem.g @ stat.s @ elem.g.T), stat.k)


def _moved(zp: np.ndarray, s: np.ndarray, k: int) -> SufficientStatistic:
    """The image of a valid statistic under an action. (N, K) is unchanged, so
    the shape and support checks still hold; S is symmetrized rather than
    checked for symmetry, and finiteness is checked again."""
    s = _hermitian_part(s)
    if not (np.isfinite(zp).all() and np.isfinite(s).all()):
        raise ValueError("statistic contains non-finite entries")
    return _built_statistic(zp, s, k)


def act_linear(elem: GroupElement, stat: SufficientStatistic) -> SufficientStatistic:
    """First sub-action: ``(Zp, S) -> (G Zp U, G S G')`` (no scaling)."""
    return act(_built(elem.g, elem.u, 1.0), stat)


def act_scale(phi: float, stat: SufficientStatistic) -> SufficientStatistic:
    """Second sub-action: pure scatter scaling ``(Zp, S) -> (Zp, phi S)``."""
    if not phi > 0.0:
        raise ValueError("phi must be positive")
    return _moved(stat.zp, phi * stat.s, stat.k)


def factorization_deviation(elem: GroupElement, stat: SufficientStatistic) -> float:
    """Max relative elementwise gap between the action and its sub-action
    factorization ``act(elem) = act_scale(phi) o act_linear(G, U)``."""
    direct = act(elem, stat)
    staged = act_scale(elem.phi, act_linear(elem, stat))
    dz = np.max(np.abs(direct.zp - staged.zp)) / max(np.max(np.abs(direct.zp)), 1e-300)
    ds = np.max(np.abs(direct.s - staged.s)) / max(np.max(np.abs(direct.s)), 1e-300)
    return float(max(dz, ds))


def _deviations(stat, statistic_fn, n_elements, rng, max_condition) -> np.ndarray:
    """Worst ``|f(act(elem, stat)) - f(stat)| / max(|f(stat)|, 1e-12)`` of each
    component of ``f`` over ``n_elements`` sampled elements; NaN stays NaN."""
    n_elements = _check_count(n_elements, "n_elements")
    base = np.asarray(statistic_fn(stat), dtype=float)
    denom = np.maximum(np.abs(base), _DEVIATION_FLOOR)
    worst = np.zeros(base.shape)
    for _ in range(n_elements):
        elem = sample_group_element(stat.n, rng, max_condition=max_condition)
        moved = np.asarray(statistic_fn(act(elem, stat)), dtype=float)
        worst = np.maximum(worst, np.abs(moved - base) / denom)
    return worst


def invariance_report(
    stat: SufficientStatistic,
    statistic_fn,
    n_elements: int,
    rng: np.random.Generator,
    max_condition: float = 1e8,
) -> float:
    """Empirical invariance of ``statistic_fn`` under sampled group actions.

    Returns the maximum over ``n_elements`` sampled elements and over the
    components of ``f`` of ``|f(act(elem, stat)) - f(stat)| / max(|f(stat)|, 1e-12)``;
    NaN when ``f`` is NaN before or after an action, so that it fails any tolerance.
    """
    return float(np.max(_deviations(stat, statistic_fn, n_elements, rng, max_condition)))


def _invariance_deviations(stats, names, n_elements, rng, max_condition) -> np.ndarray:
    """Worst deviation of the MIS, then of each named statistic, over ``stats``:
    each sampled element acts once and moves all of them."""

    def invariants(s):
        psis = compute_psi(s)
        return [*mis(psis).as_array(), *(_scalar(name, psis, s.k, s.n) for name in names)]

    worst = np.zeros(3 + len(names))
    for stat in stats:
        worst = np.maximum(worst, _deviations(stat, invariants, n_elements, rng, max_condition))
    return np.concatenate([[np.max(worst[:3])], worst[3:]])


def _identity_deviations(stats, names) -> np.ndarray:
    """Worst MIS-form/direct gap of each named detector over ``stats``, then the
    worst breach of ``t1 >= t3 >= t2 >= 1`` and of ``psi0 - psi1`` rank-one PSD."""
    worst = np.zeros(len(names) + 1)
    for stat in stats:
        psis = compute_psi(stat)
        t = mis(psis)
        direct = np.array([_scalar(name, psis, stat.k, stat.n) for name in names])
        via_t = np.array([mis_form(name, t, stat.k, stat.n) for name in names])
        mu = np.linalg.eigvalsh(psis.psi0 - psis.psi1)
        breach = np.max([t.t3 - t.t1, t.t2 - t.t3, 1.0 - t.t2, abs(mu[0]) / max(1.0, abs(mu[1]))])
        gaps = np.abs(via_t - direct) / np.maximum(np.abs(direct), 1e-300)
        worst = np.maximum(worst, np.append(gaps, breach))
    return worst


def _random_statistic(rng: np.random.Generator, n: int, k: int) -> SufficientStatistic:
    # white canonical-model draw: Gaussian primary columns, Wishart scatter
    zp = rng.standard_normal((n, 2))
    a = rng.standard_normal((n, 2 * k))
    return SufficientStatistic(zp=zp, s=a @ a.T, k=k)


def discrimination_check(rng: np.random.Generator, n_pairs: int) -> float:
    """Fraction of independently drawn statistic pairs with distinct MIS.

    Independent continuous draws land on distinct orbits almost surely, so
    the expected fraction is 1.0. Pairs related by a group action (same
    orbit) are the complementary check and live in the invariance report.
    """
    n_pairs = _check_count(n_pairs, "n_pairs")
    distinct = 0
    n, k = _DISCRIMINATION_N, _DISCRIMINATION_K
    for _ in range(n_pairs):
        ta = mis(compute_psi(_random_statistic(rng, n, k))).as_array()
        tb = mis(compute_psi(_random_statistic(rng, n, k))).as_array()
        if np.any(np.abs(ta - tb) > _DISCRIMINATION_TOL):
            distinct += 1
    return distinct / n_pairs
