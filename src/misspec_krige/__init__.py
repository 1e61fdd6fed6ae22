"""Optimal linear prediction of Gaussian random fields under a misspecified
model: exact error moments, finite-sample efficiency ratios, and probe-scale
diagnostics of the conditions for uniformly asymptotically optimal prediction.
"""

__version__ = "0.1.0"

from . import diagnostics, harness, kernels, kriging, ratios
from .diagnostics import LimitKind, RatioVerdict
from .errors import (
    ConfigError,
    DomainError,
    IllConditionedDesignError,
    MisspecKrigeError,
    NumericalFailureError,
    PartialResultError,
)
from .kriging import (
    Design,
    ErrorMoments,
    GaussianModel,
    LinearPredictor,
    TargetFunctional,
    build_gram,
    error_moments,
    kriging_predictor,
)
from .ratios import RatioRecord, RatioTable, efficiency_ratios, mean_term, ratio_convergence

__all__ = [
    "__version__",
    "kernels", "kriging", "ratios", "diagnostics", "harness",
    "MisspecKrigeError", "DomainError", "IllConditionedDesignError",
    "NumericalFailureError", "PartialResultError", "ConfigError",
    "GaussianModel", "Design", "TargetFunctional", "LinearPredictor", "ErrorMoments",
    "build_gram", "kriging_predictor", "error_moments",
    "RatioRecord", "RatioTable", "efficiency_ratios", "mean_term", "ratio_convergence",
    "LimitKind", "RatioVerdict",
]
