"""Isotropic covariance models on the unit sphere S^2.

Two Matern-like families are provided, both diagonal in the (real) spherical
harmonic basis:

* the Legendre series model

      rho_1(x, x') = sum_l sigma_1^2 / (kappa_1^2 + l^2)^(nu_1 + 1/2) P_l(<x, x'>),

  whose eigenvalue for every harmonic of degree l is the P_l coefficient
  times 4 pi / (2l + 1);

* the model defined through the fractional elliptic equation
  (kappa^2 - Delta)^((nu + 1) / 2) (tau Z) = white noise on S^2, with

      rho_2(x, x') = sum_l tau^-2 (2l + 1) / (4 pi (kappa^2 + l(l+1))^(nu + 1))
                     P_l(<x, x'>)

  and eigenvalue tau^-2 / (kappa^2 + l(l+1))^(nu + 1) per degree-l harmonic.

Both are evaluated by one :class:`SphereSeriesKernel` from their P_l
coefficients, truncated at degree ``l_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import (EigenSequence, ProfileKernel, UnitSphere, inner_products, positive_finite,
                   positive_integer)

DEFAULT_L_MAX = 256


class SphereSeriesParams:
    """What the two sphere parameter sets share: the P_l coefficients and the
    eigenvalue sequence through degree ``l_max``.  Each subclass supplies
    ``coefficient`` and ``eigenvalue``."""

    l_max: int

    def coefficients(self) -> np.ndarray:
        return self.coefficient(np.arange(self.l_max + 1))

    def eigen_sequence(self, l_max: int | None = None) -> EigenSequence:
        """Eigenvalues expanding each degree's multiplicity 2 ell + 1, ell ascending."""
        ells = np.arange((self.l_max if l_max is None else l_max) + 1)
        return EigenSequence(np.repeat(self.eigenvalue(ells), 2 * ells + 1))


@dataclass(frozen=True)
class SphereLegendreParams(SphereSeriesParams):
    """Parameters of the Legendre series model."""

    sigma1: float
    nu1: float
    kappa1: float
    l_max: int = DEFAULT_L_MAX

    def __post_init__(self):
        object.__setattr__(self, "l_max", positive_integer(self.l_max, "l_max"))
        positive_finite(sigma1=self.sigma1, nu1=self.nu1, kappa1=self.kappa1)

    def coefficient(self, ell) -> np.ndarray:
        """P_ell multiplier sigma_1^2 / (kappa_1^2 + ell^2)^(nu_1 + 1/2)."""
        ell = np.asarray(ell, dtype=float)
        return self.sigma1 ** 2 / (self.kappa1 ** 2 + ell ** 2) ** (self.nu1 + 0.5)

    def eigenvalue(self, ell) -> np.ndarray:
        """Eigenvalue shared by the 2 ell + 1 harmonics of degree ell."""
        ell = np.asarray(ell, dtype=float)
        return self.coefficient(ell) * 4.0 * math.pi / (2.0 * ell + 1.0)


@dataclass(frozen=True)
class SphereSpdeParams(SphereSeriesParams):
    """Parameters of the fractional-elliptic-equation model."""

    tau: float
    nu: float
    kappa: float
    l_max: int = DEFAULT_L_MAX

    def __post_init__(self):
        object.__setattr__(self, "l_max", positive_integer(self.l_max, "l_max"))
        positive_finite(tau=self.tau, nu=self.nu, kappa=self.kappa)

    def eigenvalue(self, ell) -> np.ndarray:
        """Eigenvalue tau^-2 / (kappa^2 + ell (ell + 1))^(nu + 1) per harmonic."""
        ell = np.asarray(ell, dtype=float)
        return self.tau ** -2 / (self.kappa ** 2 + ell * (ell + 1.0)) ** (self.nu + 1.0)

    def coefficient(self, ell) -> np.ndarray:
        """P_ell multiplier (eigenvalue times (2 ell + 1) / (4 pi))."""
        ell = np.asarray(ell, dtype=float)
        return self.eigenvalue(ell) * (2.0 * ell + 1.0) / (4.0 * math.pi)


@dataclass(frozen=True)
class SphereSeriesKernel(ProfileKernel):
    """Truncated Legendre series covariance of either sphere parameter set."""

    params: SphereSeriesParams
    domain: UnitSphere = field(default_factory=UnitSphere)

    statistic = staticmethod(inner_products)

    @property
    def rank(self) -> int:
        """Number of spherical harmonics of degree <= l_max."""
        return (self.params.l_max + 1) ** 2

    def profile(self, t: np.ndarray) -> np.ndarray:
        return legendre_series(t, self.params.coefficients())


def legendre_series(t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_l c_l P_l(t) at each entry of the 1-d array ``t``, for two or more
    coefficients: numpy's ``legval`` Clenshaw recurrence, the same five
    operations per degree in the same order, so the same doubles, but in three
    buffers reused across the degrees instead of five new arrays each."""
    c0, c1, scratch = np.full_like(t, c[-2]), np.full_like(t, c[-1]), np.empty_like(t)
    for nd in range(len(c) - 1, 1, -1):
        # c0, c1 = c[nd - 2] - c1 (nd - 1) / nd, c0 + c1 t (2 nd - 1) / nd
        np.multiply(c1, t, out=scratch)
        scratch *= (2 * nd - 1) / nd
        scratch += c0
        np.multiply(c1, (nd - 1) / nd, out=c0)
        np.subtract(c[nd - 2], c0, out=c0)
        c1, scratch = scratch, c1
    c1 *= t
    c1 += c0
    return c1
