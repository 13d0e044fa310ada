"""The package's public names, pinned so that any change to them is visible."""

import ast
import importlib
from pathlib import Path

import pytest

import persymdet

PUBLIC_NAMES = [
    "CanonicalTransform", "CanonicalizedData", "CfarCell", "CfarSweepResult",
    "ConditioningError", "Dataset", "DegenerateStatisticError", "DetectorKind",
    "DimensionError", "EstimateWithCI", "GroupElement", "KsResult", "MISVector",
    "ModelError", "NEGATIVE_CONTROL", "NearSingularDenominatorError",
    "NormalizationError", "PersymError", "PersymmetricCovariance", "PsiPair",
    "RocPoint", "ScaleEstimates", "ScenarioConfig", "SingularSecondaryError",
    "SteeringVector", "SufficientStatistic", "act", "act_linear", "act_scale",
    "alpha_for_sinr", "ancillarity_check", "as_hypothesis", "assemble",
    "binomial_band", "build_transform", "calibrate_threshold", "canonical",
    "canonicalize", "cfar_sweep", "compose", "compute_psi", "covariance_model",
    "derive_seed", "derive_stream", "detectors", "discrimination_check", "errors",
    "estimate_rate", "exchange_matrix", "factorization_deviation", "glr", "group",
    "identity_element", "invariance_report", "inverse", "is_persymmetric", "mis",
    "mis_form", "mis_samples", "montecarlo", "rao", "roc_curve", "sample_dataset",
    "sample_group_element", "scale_estimates", "scenario", "sinr",
    "statistic_samples", "statistics", "steering", "streams",
    "transform_covariance", "two_step_glr", "wald", "wilson_interval",
]

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_public_surface():
    assert len(PUBLIC_NAMES) == 75
    assert sorted(persymdet.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demos_use_public_names(path):
    # parsed, not run: the Monte Carlo demos take seconds each
    imports = [
        node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "persymdet"
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            if node.module == "persymdet":
                assert alias.name in persymdet.__all__, (path.name, alias.name)
            assert hasattr(module, alias.name), (path.name, node.module, alias.name)
