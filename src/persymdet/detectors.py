"""GLR, two-step GLR (Per-ACE), Rao and Wald detection statistics.

Each statistic is exposed in direct form, evaluated from the quadratic-form
pair ``(psi0, psi1)``, and (except Rao) in a form that consumes only the
maximal invariant ``t = (t1, t2, t3)``; the two agree to round-off. The
direct forms are one formula body on stacked arrays or floats, which the
Monte Carlo engine and the scalar API share. The Rao statistic is invariant
as well but has no closed expression in ``t`` here, so only its direct
form is provided.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateStatisticError,
    NearSingularDenominatorError,
    UnsupportedFormError,
)
from .statistics import MISVector, PsiPair, _gamma_hat, _trace_det, compute_psi, mis
from .statistics import scale_estimates

_RAO_DENOMINATOR_TOL = 1e-12


class DetectorKind(Enum):
    GLR = "glr"
    TWO_STEP_GLR = "2s-glr"
    RAO = "rao"
    WALD = "wald"


class DetectorForm(Enum):
    DIRECT = "direct"
    MIS_FORM = "mis"


#: Detectors with an evaluator that consumes only the maximal invariant.
MIS_FORM_KINDS = frozenset({DetectorKind.GLR, DetectorKind.TWO_STEP_GLR, DetectorKind.WALD})

#: Scale-sensitive statistic used as a negative control in CFAR experiments.
NEGATIVE_CONTROL = "trace-psi0"

STATISTIC_NAMES = tuple(k.value for k in DetectorKind) + (NEGATIVE_CONTROL,)
_GLR, _TWO_STEP, _RAO, _WALD = (kind.value for kind in DetectorKind)


@dataclass(frozen=True)
class DetectorOutput:
    """A detector value plus the diagnostics it was computed from."""

    value: float
    kind: DetectorKind
    form: DetectorForm
    gamma0_hat: float | None
    gamma1_hat: float | None
    eigenvalues: tuple


def _batch_values(name: str, psi0, psi1, k, n, index_base: int = 0) -> np.ndarray:
    """Detector values over stacked (..., 2, 2) psi pairs.

    A thin array wrapper around :func:`_values`, the one formula body that
    the Monte Carlo engine and the scalar public API share. ``index_base``
    offsets instance numbers in error messages (trial indices in long runs).
    """
    psi0 = np.asarray(psi0, dtype=float)
    psi1 = np.asarray(psi1, dtype=float)
    e0 = (psi0[..., 0, 0], psi0[..., 0, 1], psi0[..., 1, 0], psi0[..., 1, 1])
    e1 = (psi1[..., 0, 0], psi1[..., 0, 1], psi1[..., 1, 0], psi1[..., 1, 1])
    return _values(name, e0, e1, k, n, index_base)


def _values(name: str, e0, e1, k, n, index_base: int = 0):
    """Detector ``name`` from the entries ``(a, b, c, d)`` of psi0 and psi1.

    One body on stacked arrays or Python floats: it uses only operators and
    NumPy ufuncs, with squares written as products, so both round alike.
    Every check runs before the division it guards.
    """
    tr0, det0 = _trace_det(*e0)
    tr1, det1 = _trace_det(*e1)
    if name == NEGATIVE_CONTROL:
        return tr0
    positive = ((tr0, "psi0"), (tr1, "psi1"))
    if name == _TWO_STEP:
        positive = positive[1:]
    for tr, which in positive:
        bad = tr <= 0.0
        if np.count_nonzero(bad):
            raise DegenerateStatisticError(
                f"instance {index_base + int(np.argmax(bad))}: Tr[{which}] is not positive"
            )
    if name == _TWO_STEP:
        return tr0 / tr1
    g0, _ = _gamma_hat(tr0, det0, k, n)
    g1, _ = _gamma_hat(tr1, det1, k, n)
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
        if np.count_nonzero(bad):
            raise NearSingularDenominatorError(
                f"instance {index_base + int(np.argmax(bad))}: Rao denominator is "
                "numerically zero"
            )
        return g0 * tr_d_inv2 / den
    raise ValueError(f"unknown statistic {name!r}")


def _scalar(name: str, psis: PsiPair, k, n) -> float:
    return float(_values(name, *psis.entries, k, n))


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


def _g_gamma(ratio: float, k: int, n: int) -> float:
    """Auxiliary function of an eigenvalue ratio ``r >= 1``.

    ``g_gamma_num(t1/t2) = l1 * gamma0_hat`` and ``g_gamma_den(t3) = l3 *
    gamma1_hat``: (largest eigenvalue) * (scale MLE) is invariant under common
    scaling of the eigenvalue pair, so it is the MLE on the pair ``(r, 1)``.
    """
    ratio = float(ratio)
    if ratio < 1.0 - 1e-12:
        raise ValueError(f"eigenvalue ratio must be >= 1, got {ratio!r}")
    ratio = max(ratio, 1.0)
    g, _ = _gamma_hat(ratio + 1.0, ratio, k, n)
    return float(ratio * g)


g_gamma_num = g_gamma_den = _g_gamma


def mis_form(kind, t, k: int, n: int) -> float:
    """Detector value from the maximal invariant alone.

    Available for GLR, two-step GLR and Wald; the Rao statistic has no
    closed invariant-form expression here and raises
    :class:`UnsupportedFormError`.
    """
    kind = DetectorKind(kind)
    if isinstance(t, MISVector):
        t1, t2, t3 = t.t1, t.t2, t.t3
    else:
        t1, t2, t3 = (float(x) for x in t)
    if kind is DetectorKind.TWO_STEP_GLR:
        return (t1 + t2) / (1.0 + t3)
    if kind is DetectorKind.WALD:
        gd = _g_gamma(t3, k, n)
        return gd * ((t1 / t3) + (t2 / t3) - (1.0 + 1.0 / t3))
    if kind is DetectorKind.GLR:
        gn = _g_gamma(t1 / t2, k, n)
        gd = _g_gamma(t3, k, n)
        expo = -n / (k + 1.0)
        logval = (
            expo * (np.log(t3) + np.log(gn) - np.log(t1) - np.log(gd))
            + np.log1p(gn)
            + np.log1p((t2 / t1) * gn)
            - np.log1p(gd)
            - np.log1p(gd / t3)
        )
        return float(np.exp(logval))
    raise UnsupportedFormError("the Rao statistic has no MIS-only form")


def evaluate(kind, stat, form=DetectorForm.DIRECT) -> DetectorOutput:
    """Evaluate a detector on a :class:`SufficientStatistic`.

    Computes the quadratic forms, dispatches to the requested form, and
    returns the value together with the eigenvalues and scale estimates used.
    """
    kind = DetectorKind(kind)
    form = DetectorForm(form)
    psis = compute_psi(stat)
    if form is DetectorForm.MIS_FORM:
        value = mis_form(kind, mis(psis), stat.k, stat.n)
    elif kind is DetectorKind.GLR:
        value = glr(psis, stat.k, stat.n)
    elif kind is DetectorKind.TWO_STEP_GLR:
        value = two_step_glr(psis)
    elif kind is DetectorKind.RAO:
        value = rao(psis, stat.k, stat.n)
    else:
        value = wald(psis, stat.k, stat.n)
    if kind is DetectorKind.TWO_STEP_GLR:
        g0 = g1 = None
    else:
        est = scale_estimates(psis, stat.k, stat.n)
        g0, g1 = est.gamma0_hat, est.gamma1_hat
    return DetectorOutput(
        value=float(value),
        kind=kind,
        form=form,
        gamma0_hat=g0,
        gamma1_hat=g1,
        eigenvalues=psis.lam,
    )
