"""Adaptive radar detection in partially-homogeneous persymmetric disturbance.

The pipeline: complex snapshots are mapped to a real canonical form in which
the steering vector becomes ``e1`` (:mod:`persymdet.canonical`); the
sufficient statistic ``(Zp, S)`` yields two 2x2 quadratic forms whose
eigenvalue ratios form the maximal invariant (:mod:`persymdet.statistics`);
the GLR, two-step GLR, Rao and Wald detectors are functions of that
invariant, hence CFAR, and each is evaluated from it alone as well as
directly (:mod:`persymdet.detectors`); and the Monte Carlo
engine (:mod:`persymdet.montecarlo`) certifies invariance and CFAR behavior
empirically on synthetic scenarios (:mod:`persymdet.scenario`).
"""

__version__ = "0.1.0"

from .canonical import (
    CanonicalizedData,
    CanonicalTransform,
    PersymmetricCovariance,
    SteeringVector,
    build_transform,
    canonicalize,
    exchange_matrix,
    is_persymmetric,
    transform_covariance,
)
from .detectors import (
    NEGATIVE_CONTROL,
    DetectorKind,
    glr,
    mis_form,
    rao,
    two_step_glr,
    wald,
)
from .errors import (
    ConditioningError,
    DegenerateStatisticError,
    DimensionError,
    ModelError,
    NearSingularDenominatorError,
    NormalizationError,
    PersymError,
    SingularSecondaryError,
)
from .group import (
    GroupElement,
    act,
    act_linear,
    act_scale,
    compose,
    discrimination_check,
    factorization_deviation,
    identity_element,
    inverse,
    invariance_report,
    sample_group_element,
)
from .montecarlo import (
    CfarCell,
    CfarSweepResult,
    EstimateWithCI,
    KsResult,
    RocPoint,
    ancillarity_check,
    binomial_band,
    calibrate_threshold,
    cfar_sweep,
    estimate_rate,
    mis_samples,
    roc_curve,
    statistic_samples,
    wilson_interval,
)
from .scenario import (
    Dataset,
    ScenarioConfig,
    alpha_for_sinr,
    as_hypothesis,
    covariance_model,
    sample_dataset,
    sinr,
    steering,
)
from .statistics import (
    MISVector,
    PsiPair,
    ScaleEstimates,
    SufficientStatistic,
    assemble,
    compute_psi,
    mis,
    scale_estimates,
)
from .streams import derive_seed, derive_stream

__all__ = [name for name in dir() if not name.startswith("_")]
