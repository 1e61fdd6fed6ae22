"""Covariance families, the Matern spectral density and eigenvalue sequences."""

from __future__ import annotations

from .base import (
    Box,
    CovarianceKernel,
    Domain,
    EigenSequence,
    ProfileKernel,
    Torus,
    UnitSphere,
)
from .matern import (
    GreatCircleMaternKernel,
    MaternKernel,
    MaternParams,
    MaternSpectralDensity,
    matern_cov,
)
from .periodic import DEFAULT_K_MAX, PeriodicKernel, PeriodicSpectrum
from .sphere import (
    DEFAULT_L_MAX,
    SphereLegendreParams,
    SphereSeriesKernel,
    SphereSeriesParams,
    SphereSpdeParams,
)

__all__ = [
    "Box", "Torus", "UnitSphere", "Domain",
    "CovarianceKernel", "ProfileKernel", "EigenSequence",
    "MaternParams", "MaternKernel", "GreatCircleMaternKernel",
    "MaternSpectralDensity", "matern_cov",
    "PeriodicSpectrum", "PeriodicKernel", "DEFAULT_K_MAX",
    "SphereSeriesParams", "SphereLegendreParams", "SphereSpdeParams", "SphereSeriesKernel",
    "DEFAULT_L_MAX",
]
