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
    ChordalMaternKernel,
    GreatCircleMaternKernel,
    MaternKernel,
    MaternParams,
    MaternSpectralDensity,
    bessel_k,
    matern_cov,
    matern_ratio_limit,
)
from .periodic import DEFAULT_K_MAX, PeriodicKernel, PeriodicSpectrum
from .sphere import (
    DEFAULT_L_MAX,
    SphereLegendreParams,
    SphereSeriesKernel,
    SphereSeriesParams,
    SphereSpdeParams,
    legendre_p,
    sphere_eigen_ratio,
)

from ..errors import DomainError


def eigen_sequence_of(model, truncation: int | None = None) -> EigenSequence:
    """Eigenvalue sequence of a model with known analytic eigenstructure.

    Accepts a :class:`PeriodicSpectrum` (or kernel) and either sphere series
    parameter set (or kernel); multiplicities are expanded and the per-model
    canonical ordering is used, so two models sharing an eigenbasis give
    index-aligned sequences.
    """
    if isinstance(model, PeriodicKernel):
        model = model.spectrum
    if isinstance(model, SphereSeriesKernel):
        model = model.params
    if isinstance(model, (PeriodicSpectrum, SphereSeriesParams)):
        return model.eigen_sequence(truncation)
    raise DomainError(f"no analytic eigenvalue sequence for {type(model).__name__}")


__all__ = [
    "Box", "Torus", "UnitSphere", "Domain",
    "CovarianceKernel", "ProfileKernel", "EigenSequence",
    "MaternParams", "MaternKernel", "ChordalMaternKernel", "GreatCircleMaternKernel",
    "MaternSpectralDensity", "bessel_k", "matern_cov", "matern_ratio_limit",
    "PeriodicSpectrum", "PeriodicKernel", "DEFAULT_K_MAX",
    "SphereSeriesParams", "SphereLegendreParams", "SphereSpdeParams", "SphereSeriesKernel",
    "legendre_p", "sphere_eigen_ratio", "DEFAULT_L_MAX",
    "eigen_sequence_of",
]
