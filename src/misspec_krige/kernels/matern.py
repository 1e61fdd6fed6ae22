"""Matern covariance family on Euclidean domains and on the sphere.

The family is parameterized by a marginal scale ``sigma``, a smoothness
``nu`` and an inverse range ``kappa``:

    rho(r) = sigma^2 / (2^(nu-1) Gamma(nu)) * (kappa r)^nu * K_nu(kappa r)

with ``K_nu`` the modified Bessel function of the second kind.  On R^d the
covariance is stationary with spectral density

    f(omega) = Gamma(nu + d/2) / (Gamma(nu) pi^(d/2))
               * sigma^2 kappa^(2 nu) / (kappa^2 + |omega|^2)^(nu + d/2),

and the combination ``sigma^2 kappa^(2 nu)`` is the quantity identified by
infill observation; the high-frequency limit of the ratio of two such
densities exists exactly when the smoothness parameters agree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError
from .base import (Box, ProfileKernel, UnitSphere, euclidean, inner_products, positive_finite,
                   positive_integer)

# kappa*r below this is treated as zero: the (kappa r)^nu * K_nu factorization
# would overflow/underflow in double precision long before the value departs
# measurably from sigma^2 for the supported nu range.
_R_EFF_FLOOR = 1e-25


# only this family needs scipy.special (about 3.5 MB of resident memory on x86-64
# Linux): it is imported with the first MaternParams, so a run whose models
# are all sphere-series or periodic never loads it
def kv(nu, x):
    from scipy.special import kv
    return kv(nu, x)


def gamma_fn(x):
    from scipy.special import gamma
    return gamma(x)


@dataclass(frozen=True)
class MaternParams:
    """Parameters (sigma, nu, kappa) plus the ambient dimension d.

    ``dim`` only enters the spectral density; the covariance itself is a
    function of distance alone.
    """

    sigma: float
    nu: float
    kappa: float
    dim: int = 1

    def __post_init__(self):
        positive_finite(sigma=self.sigma, nu=self.nu, kappa=self.kappa)
        object.__setattr__(self, "dim", positive_integer(self.dim, "dim"))
        import scipy.special  # noqa: F401  (see ``kv``)

    @property
    def infill_identifiable(self) -> float:
        """sigma^2 * kappa^(2 nu), the combination fixed by infill observation."""
        return self.sigma ** 2 * self.kappa ** (2.0 * self.nu)


def matern_cov(r, p: MaternParams):
    """Matern covariance at finite distance(s) r >= 0; the r = 0 limit is sigma^2."""
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr >= 0.0) & (r_arr < np.inf)):  # NaN fails both
        raise DomainError("matern_cov requires finite r >= 0")
    x = p.kappa * r_arr
    small = x < _R_EFF_FLOOR
    x_safe = np.where(small, 1.0, x)
    amp = p.sigma ** 2 / (2.0 ** (p.nu - 1.0) * gamma_fn(p.nu))
    vals = amp * np.power(x_safe, p.nu) * kv(p.nu, x_safe)
    vals = np.where(small, p.sigma ** 2, vals)
    # guard the rare factored overflow (tiny x with large nu)
    vals = np.where(np.isfinite(vals), vals, p.sigma ** 2)
    return vals if isinstance(r, np.ndarray) else float(vals)


@dataclass(frozen=True)
class MaternKernel(ProfileKernel):
    """Matern covariance of the Euclidean distance on a compact box, or on
    ``UnitSphere()``, where the distance is the chordal one of the embedding
    in R^3 (``params.dim == 3``) and the model is valid for every nu > 0."""

    params: MaternParams
    domain: Box | UnitSphere = field(default_factory=Box)

    infinitely_differentiable = False
    statistic = staticmethod(euclidean)

    def __post_init__(self):
        if self.domain.dim != self.params.dim:
            raise DomainError("kernel domain dimension must match params.dim")

    def profile(self, r: np.ndarray) -> np.ndarray:
        return matern_cov(r, self.params)


@dataclass(frozen=True)
class GreatCircleMaternKernel(ProfileKernel):
    """Matern covariance of the great-circle distance on S^2.

    Strict positive definiteness requires nu <= 1/2; the boundary value is
    accepted.
    """

    params: MaternParams

    domain = UnitSphere()
    infinitely_differentiable = False
    statistic = staticmethod(inner_products)

    def __post_init__(self):
        if self.params.nu > 0.5:
            raise DomainError("the great-circle Matern model requires nu <= 1/2")

    def profile(self, t: np.ndarray) -> np.ndarray:
        return matern_cov(np.arccos(t), self.params)


@dataclass(frozen=True)
class MaternSpectralDensity:
    """The spectral density f(omega) of the Matern covariance on R^d, as given
    in the module docstring."""

    params: MaternParams

    @property
    def dim(self) -> int:
        return self.params.dim

    def __call__(self, omega) -> float:
        """f(omega) >= 0 at one frequency omega in R^d."""
        p = self.params
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        if w.ndim != 1 or w.size != p.dim:
            raise DomainError(f"omega must be a vector in R^{p.dim}")
        norm2 = float(w @ w)
        return self._scale / (p.kappa ** 2 + norm2) ** (p.nu + p.dim / 2.0)

    @functools.cached_property
    def _scale(self) -> float:
        """Gamma(nu + d/2) / (Gamma(nu) pi^(d/2)) * sigma^2 kappa^(2 nu), once per density."""
        p = self.params
        const = gamma_fn(p.nu + p.dim / 2.0) / (gamma_fn(p.nu) * math.pi ** (p.dim / 2.0))
        return const * p.infill_identifiable
