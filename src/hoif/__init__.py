"""Empirical higher-order influence function (HOIF) estimators.

Library for estimating doubly robust functionals (missing-at-random mean,
average treatment effect, expected conditional covariance) with U-statistic
bias corrections built from an empirical inverse Gram matrix, plus a Monte
Carlo harness for verifying the bias/variance/efficiency behaviour at desk
scale.
"""

__version__ = "0.1.0"

from hoif.basis import BasisSpec, build_basis
from hoif.functionals import (
    FunctionalSpec,
    ate_spec,
    expected_cond_cov_spec,
    mar_mean_spec,
)
from hoif.estimator import EstimatorConfig, EstimateReport, estimate
from hoif.sim import SCENARIOS, generate, true_psi, efficiency_bound, run_study

__all__ = [
    "BasisSpec",
    "build_basis",
    "FunctionalSpec",
    "mar_mean_spec",
    "ate_spec",
    "expected_cond_cov_spec",
    "EstimatorConfig",
    "EstimateReport",
    "estimate",
    "SCENARIOS",
    "generate",
    "true_psi",
    "efficiency_bound",
    "run_study",
]
