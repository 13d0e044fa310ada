"""GLR, two-step GLR (Per-ACE), Rao and Wald detection statistics.

Each statistic is one formula body, evaluated on the quadratic-form pair
``(psi0, psi1)`` as stacked arrays in the Monte Carlo engine and as Python
floats in the scalar API. All four are invariant, so each is also a
function of the maximal invariant ``t = (t1, t2, t3)`` alone:
:func:`mis_form` runs the same body on a pair built from ``t``, and agrees
with the direct form to round-off.
"""

import math
from enum import Enum

import numpy as np

from .errors import DegenerateStatisticError, NearSingularDenominatorError
from .statistics import MISVector, PsiPair, _any, _gamma_hat, _trace_det

_RAO_DENOMINATOR_TOL = 1e-12
#: Relative slack on the interlacing ``t1 >= t3 >= t2 >= 1`` of a computed ``t``.
_INTERLACING_SLACK = 1e-10


class DetectorKind(Enum):
    GLR = "glr"
    TWO_STEP_GLR = "2s-glr"
    RAO = "rao"
    WALD = "wald"


#: Scale-sensitive statistic used as a negative control in CFAR experiments.
NEGATIVE_CONTROL = "trace-psi0"

STATISTIC_NAMES = tuple(k.value for k in DetectorKind) + (NEGATIVE_CONTROL,)
_GLR, _TWO_STEP, _RAO, _WALD = (kind.value for kind in DetectorKind)


def _batch_values(name: str, psi0, psi1, k, n, index_base: int = 0, memo=None) -> np.ndarray:
    """Detector values over stacked (..., 2, 2) psi pairs.

    A thin array wrapper around :func:`_values`, the one formula body that
    the Monte Carlo engine and the scalar public API share. ``index_base``
    offsets instance numbers in error messages (trial indices in long runs).
    ``memo`` is the prelude cache of :func:`_values` for this
    ``(psi0, psi1)`` stack, as :class:`PsiPair` keeps one per pair: the
    engine passes one per block, and None gives a fresh one.
    """
    psi0 = np.asarray(psi0, dtype=float)
    psi1 = np.asarray(psi1, dtype=float)
    e0 = (psi0[..., 0, 0], psi0[..., 0, 1], psi0[..., 1, 0], psi0[..., 1, 1])
    e1 = (psi1[..., 0, 0], psi1[..., 0, 1], psi1[..., 1, 0], psi1[..., 1, 1])
    return _values(name, e0, e1, k, n, {} if memo is None else memo, index_base)


def _values(name: str, e0, e1, k, n, memo: dict, index_base: int = 0):
    """Detector ``name`` from the entries ``(a, b, c, d)`` of psi0 and psi1.

    One body on stacked arrays or Python floats: it uses only operators and
    NumPy ufuncs, with squares written as products, so both round alike.
    Every check runs before the division it guards. GLR, Rao and Wald take
    the :func:`_prelude` of the same entries from ``memo[(k, n)]``, or
    compute it and store it there, so the first of them to run on a pair
    of forms raises its trace error.
    """
    if name == NEGATIVE_CONTROL:
        return e0[0] + e0[3]
    if name == _TWO_STEP:
        tr1 = e1[0] + e1[3]
        _check_positive(((tr1, "psi1"),), index_base)
        return (e0[0] + e0[3]) / tr1
    pre = memo.get((k, n))
    if pre is None:
        pre = memo[k, n] = _prelude(e0, e1, k, n, index_base)
    e0, e1, tr0, det0, tr1, det1, g0, g1 = pre
    if name == _WALD:
        return g1 * (tr0 - tr1)
    if name == _GLR:
        # log domain: gamma^(-N/(K+1)) spans orders of magnitude for large K;
        # det(I + g psi) - 1 = g (tr + g det) >= 0, so log1p is exact there.
        expo = -n / (k + 1.0)
        logval = (
            expo * (np.log(g0) - np.log(g1))
            + np.log1p(g0 * (tr0 + g0 * det0))
            - np.log1p(g1 * (tr1 + g1 * det1))
        )
        return np.exp(logval)
    if name == _RAO:
        # g0 Tr[D A^-2] / (1 - g0 Tr[D A^-1]), D = psi0 - psi1, A = I + g0 psi0;
        # det A = det(I + g0 psi0) >= 1 for PSD psi0
        a, b, c, d = 1.0 + g0 * e0[0], g0 * e0[1], g0 * e0[2], 1.0 + g0 * e0[3]
        det_a = a * d - b * c
        i00, i01, i10, i11 = d / det_a, -b / det_a, -c / det_a, a / det_a
        d00, d01, d10, d11 = (x0 - x1 for x0, x1 in zip(e0, e1))
        tr_d_inv = d00 * i00 + d01 * i10 + d10 * i01 + d11 * i11
        tr_d_inv2 = (
            d00 * (i00 * i00 + i01 * i10)
            + d01 * (i10 * i00 + i11 * i10)
            + d10 * (i00 * i01 + i01 * i11)
            + d11 * (i10 * i01 + i11 * i11)
        )
        den = 1.0 - g0 * tr_d_inv
        bad = np.abs(den) <= _RAO_DENOMINATOR_TOL
        if _any(bad):
            raise NearSingularDenominatorError(
                f"instance {index_base + int(np.argmax(bad))}: Rao denominator is "
                "numerically zero"
            )
        return g0 * tr_d_inv2 / den
    raise ValueError(f"unknown statistic {name!r}")


def _check_positive(traces, index_base: int) -> None:
    """Raise naming the first instance whose trace is not positive."""
    for tr, which in traces:
        bad = tr <= 0.0
        if _any(bad):
            raise DegenerateStatisticError(
                f"instance {index_base + int(np.argmax(bad))}: Tr[{which}] is not positive"
            )


def _prelude(e0, e1, k, n, index_base: int = 0) -> tuple:
    """What GLR, Rao and Wald share: both forms over ``Tr psi1``, their traces
    and determinants, and both ``gamma_hat``; after checking both traces."""
    tr0, tr1 = e0[0] + e0[3], e1[0] + e1[3]
    _check_positive(((tr0, "psi0"), (tr1, "psi1")), index_base)
    # scaling S by Tr psi1 > 0 is a group action and gives unit Tr psi1;
    # there no product below over- or underflows, whatever the scale of S
    a0, b0, c0, d0 = e0
    a1, b1, c1, d1 = e1
    e0 = (a0 / tr1, b0 / tr1, c0 / tr1, d0 / tr1)
    e1 = (a1 / tr1, b1 / tr1, c1 / tr1, d1 / tr1)
    tr0, det0 = _trace_det(*e0)
    tr1, det1 = _trace_det(*e1)
    g0, _ = _gamma_hat(tr0, det0, k, n)
    g1, _ = _gamma_hat(tr1, det1, k, n)
    return e0, e1, tr0, det0, tr1, det1, g0, g1


def _scalar(name: str, psis: PsiPair, k, n) -> float:
    """One statistic of ``psis``; GLR, Rao and Wald reuse its prelude per ``(k, n)``."""
    return float(_values(name, *psis.entries, k, n, psis._memo))


def glr(psis: PsiPair, k: int, n: int) -> float:
    """Generalized likelihood ratio, evaluated internally in log domain."""
    return _scalar(_GLR, psis, k, n)


def two_step_glr(psis: PsiPair) -> float:
    """Two-step GLR (Per-ACE): the trace ratio ``Tr[psi0] / Tr[psi1]``."""
    return _scalar(_TWO_STEP, psis, None, None)


def rao(psis: PsiPair, k: int, n: int) -> float:
    """Rao statistic; may be negative, thresholding is still valid."""
    return _scalar(_RAO, psis, k, n)


def wald(psis: PsiPair, k: int, n: int) -> float:
    """Wald statistic ``gamma1_hat (Tr[psi0] - Tr[psi1])``; nonnegative."""
    return _scalar(_WALD, psis, k, n)


def _representative(t1: float, t2: float, t3: float):
    """Entries of a quadratic-form pair whose maximal invariant is ``t``.

    ``psi1 = diag(t3, 1)`` and ``psi0 = psi1 + w w'``, where the secular
    equation of the rank-one update (Golub 1973) gives ``w1^2 = (t1 - t3) r``
    and ``w2^2 = (t1 - 1)(1 - r)`` with ``r = (t3 - t2) / (t3 - 1)``; then
    psi0 has eigenvalues ``(t1, t2)`` and psi1 ``(t3, 1)``. Every pair of the
    data model (psi0 - psi1 rank-one PSD) with invariant ``t`` is
    ``U' psi U / phi`` of this one, so every invariant statistic takes the
    same value on it. ``r`` is clamped to [0, 1], and ``r = 1`` when
    ``t3 <= 1``, where interlacing forces ``t2 = 1``.
    """
    slack = _INTERLACING_SLACK * max(t1, 1.0)
    if not (t1 >= t3 - slack and t3 >= t2 - slack and t2 >= 1.0 - slack):
        raise ValueError(f"t = ({t1}, {t2}, {t3}) breaks t1 >= t3 >= t2 >= 1")
    r = min(max((t3 - t2) / (t3 - 1.0), 0.0), 1.0) if t3 > 1.0 else 1.0
    w1sq = max(t1 - t3, 0.0) * r
    w2sq = max(t1 - 1.0, 0.0) * (1.0 - r)
    off = math.sqrt(w1sq * w2sq)
    return (t3 + w1sq, off, off, 1.0 + w2sq), (t3, 0.0, 0.0, 1.0)


def mis_form(kind, t, k: int, n: int) -> float:
    """Detector value from the maximal invariant ``t`` alone.

    The direct formula body evaluated on :func:`_representative`, a
    quadratic-form pair in the orbit that ``t`` labels; the value equals the
    direct form to round-off for all four detectors. Raises ``ValueError``
    when ``t`` breaks the interlacing ``t1 >= t3 >= t2 >= 1`` by more than
    a relative 1e-10.
    """
    name = DetectorKind(kind).value
    if isinstance(t, MISVector):
        t = (t.t1, t.t2, t.t3)
    t1, t2, t3 = (float(x) for x in t)
    e0, e1 = _representative(t1, t2, t3)
    return float(_values(name, e0, e1, k, n, {}))
