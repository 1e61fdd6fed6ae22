"""Domain descriptors and the abstract kernel / spectral-density interfaces."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

UNIT_NORM_TOL = 1e-10


@dataclass(frozen=True)
class Box:
    """Compact axis-aligned box in R^d with the Euclidean metric."""

    lower: tuple[float, ...] = (0.0,)
    upper: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DomainError("box bounds have mismatched dimensions")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise DomainError("box bounds must satisfy lower < upper")

    @property
    def dim(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class Torus:
    """The unit torus [0, 1]^d; all distances are taken modulo 1 per coordinate."""

    dim: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("torus dimension must be >= 1")


@dataclass(frozen=True)
class UnitSphere:
    """The unit sphere S^2 embedded in R^3."""

    @property
    def dim(self) -> int:
        return 3  # ambient coordinates


Domain = Box | Torus | UnitSphere


def as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars / sequences / arrays to a float array of shape (n, dim)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim == 1:
        if dim == 1:
            arr = arr[:, None]
        elif arr.shape[0] == dim:
            arr = arr[None, :]
        else:
            raise DomainError(f"cannot interpret shape {arr.shape} as points in R^{dim}")
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"expected points of dimension {dim}, got shape {arr.shape}")
    return arr


def check_unit_vectors(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise DomainError(f"sphere points must be unit vectors (worst norm deviation {worst:.3e})")
    return x


class CovarianceKernel(ABC):
    """A symmetric, strictly positive definite covariance function.

    The single capability is evaluating rho(x, x') for two points of the
    kernel's domain; ``gram`` vectorizes this over point sets.  Symmetry is
    structural for every implementation and positive definiteness of Gram
    matrices is verified at factorization time, not here.
    """

    #: domain descriptor (Box, Torus or UnitSphere)
    domain: Domain

    #: True/False when the smoothness class of the covariance at the origin is
    #: known, None when it is not.  Finite-smoothness families set False; the
    #: diagnostics use this to sharpen a divergence verdict.
    infinitely_differentiable: bool | None = None

    @property
    def point_dim(self) -> int:
        return self.domain.dim

    @abstractmethod
    def gram(self, x, y=None) -> np.ndarray:
        """Covariance matrix between point sets ``x`` (n, d) and ``y`` (m, d)."""

    def __call__(self, x, y) -> float:
        x = as_points(x, self.point_dim)
        y = as_points(y, self.point_dim)
        return float(self.gram(x, y)[0, 0])


class SpectralDensity(ABC):
    """A nonnegative spectral density on R^d, evaluated at a single frequency."""

    dim: int

    #: smoothness flag with the same meaning as on CovarianceKernel
    infinitely_differentiable: bool | None = None

    @abstractmethod
    def __call__(self, omega) -> float:
        """Evaluate f(omega) >= 0 at omega in R^d."""


@dataclass(frozen=True, eq=False)
class EigenSequence:
    """Eigenvalues of a covariance operator in a model's canonical ordering.

    Multiplicities are expanded (one entry per eigenfunction) so that two
    models sharing an eigenbasis produce index-aligned sequences.  Values are
    required to be strictly positive; a valid trace-class operator has them
    accumulating only at zero, which :meth:`tail_is_monotone` probes.
    """

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("eigenvalue sequence must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise DomainError("eigenvalues must be finite and strictly positive")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def accumulates_at_zero(self, decade_fraction: float = 0.1) -> bool:
        """Cheap sanity probe: after sorting descending, the trailing
        ``decade_fraction`` of the values sits strictly below the leading one."""
        sorted_desc = np.sort(self.values)[::-1]
        tail_start = max(1, int(sorted_desc.size * (1.0 - decade_fraction)))
        return bool(sorted_desc[tail_start:].max(initial=0.0) < sorted_desc[0])
