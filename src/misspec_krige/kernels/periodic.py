"""Weakly periodic covariances on the unit torus [0, 1]^d.

A nonnegative, even spectral mass f on the integer lattice defines

    rho(x, x') = sum_k f(k) cos(2 pi k . (x - x')),

and the trigonometric system {1, sqrt(2) cos(2 pi k . x), sqrt(2) sin(2 pi k . x)}
over lattice representatives k (first nonzero component positive) is an
eigenbasis of the induced integral operator: eigenvalue f(0) for the constant
function and f(k), twice, for every representative k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..errors import DomainError
from .base import CovarianceKernel, EigenSequence, Torus, as_points

#: default truncation (max-norm radius of retained lattice indices) per dimension
DEFAULT_K_MAX = {1: 64, 2: 16}

_SYMMETRY_TOL = 1e-12


def _positive_representatives(dim: int, k_max: int) -> np.ndarray:
    """Lattice representatives (first nonzero component positive) with
    0 < max-norm <= k_max, enumerated by max-norm shell then lexicographically.

    The cube [-k_max, k_max]^dim is enumerated once, in lexicographic order;
    a stable sort by shell keeps that order within each shell."""
    axis = np.arange(-k_max, k_max + 1)
    cube = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    first_nonzero = cube[np.arange(cube.shape[0]), np.argmax(cube != 0, axis=1)]
    reps = cube[first_nonzero > 0]
    return reps[np.argsort(np.abs(reps).max(axis=1), kind="stable")]


@dataclass(frozen=True, eq=False)
class PeriodicSpectrum:
    """Truncated lattice spectral mass; indices with max-norm <= k_max are retained."""

    dim: int
    k_max: int
    zero_mass: float
    rep_indices: np.ndarray  # (M, dim) lattice representatives, canonical order
    rep_masses: np.ndarray   # (M,) f(k) at the representatives

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicSpectrum):
            return NotImplemented
        return (self.dim == other.dim and self.k_max == other.k_max
                and self.zero_mass == other.zero_mass
                and np.array_equal(self.rep_indices, other.rep_indices)
                and np.array_equal(self.rep_masses, other.rep_masses))

    def __hash__(self):
        return hash((self.dim, self.k_max, self.zero_mass, self.rep_masses.tobytes()))

    def __post_init__(self):
        if self.dim < 1 or self.k_max < 1:
            raise DomainError("dim and k_max must be positive integers")
        masses = np.asarray(self.rep_masses, dtype=float)
        if self.zero_mass < 0.0 or np.any(masses < 0.0) or not np.all(np.isfinite(masses)):
            raise DomainError("spectral masses must be finite and nonnegative")
        object.__setattr__(self, "rep_masses", masses)

    @classmethod
    def from_callable(cls, f: Callable[[tuple[int, ...]], float], dim: int = 1,
                      k_max: int | None = None) -> "PeriodicSpectrum":
        """Build from a function on lattice indices; f(-k) = f(k) is verified."""
        if k_max is None:
            k_max = DEFAULT_K_MAX.get(dim, 8)
        reps = _positive_representatives(dim, k_max)
        masses = np.array([float(f(tuple(k))) for k in reps])
        mirrored = np.array([float(f(tuple(-k))) for k in reps])
        bad = np.abs(masses - mirrored) > _SYMMETRY_TOL * np.maximum(1.0, np.abs(masses))
        if np.any(bad):
            k_bad = tuple(reps[int(np.argmax(bad))])
            raise DomainError(f"spectral mass is not even: f({k_bad}) != f(-{k_bad})")
        zero = float(f((0,) * dim))
        return cls(dim=dim, k_max=k_max, zero_mass=zero, rep_indices=reps, rep_masses=masses)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[tuple[int, ...] | int, float], dim: int = 1,
                    k_max: int | None = None) -> "PeriodicSpectrum":
        """Build from a sparse mapping of lattice indices to masses.

        Indices may be given for either sign of a pair; unlisted indices carry
        zero mass.
        """
        table: dict[tuple[int, ...], float] = {}
        for key, val in coeffs.items():
            k = (key,) if isinstance(key, int) else tuple(int(c) for c in key)
            if len(k) != dim:
                raise DomainError(f"index {k} does not match dim={dim}")
            canon = k if (not any(k)) or next(c for c in k if c != 0) > 0 \
                else tuple(-c for c in k)
            if canon in table and abs(table[canon] - float(val)) > _SYMMETRY_TOL:
                raise DomainError(f"conflicting masses for the index pair +-{canon}")
            table[canon] = float(val)
        if k_max is None:
            spans = [max(abs(c) for c in k) for k in table if any(k)]
            k_max = max(spans) if spans else 1
        return cls.from_callable(lambda k: table.get(
            k if (not any(k)) or next(c for c in k if c != 0) > 0 else tuple(-c for c in k),
            0.0), dim=dim, k_max=k_max)

    @property
    def total_mass(self) -> float:
        """rho(x, x) = sum of all retained masses (pairs counted twice)."""
        return self.zero_mass + 2.0 * float(self.rep_masses.sum())

    def eigen_sequence(self, k_max: int | None = None) -> EigenSequence:
        """Positive eigenvalues in canonical order: f(0), then each representative's
        mass twice (cosine and sine eigenfunctions).  Zero masses are dropped, which
        keeps the sequence strictly positive but can offset index alignment between
        spectra with different supports; compare spectra of full support."""
        if k_max is None:
            k_max = self.k_max
        if k_max > self.k_max:
            raise DomainError("cannot extend an eigen sequence past the retained k_max")
        keep = np.max(np.abs(self.rep_indices), axis=1) <= k_max
        doubled = np.repeat(self.rep_masses[keep], 2)
        values = np.concatenate(([self.zero_mass], doubled))
        positive = values > 0.0
        if not np.all(positive):
            values = values[positive]
        return EigenSequence(values, label=f"periodic(dim={self.dim}, k_max={k_max})")


def periodic_cov(x, x_prime, s: PeriodicSpectrum) -> float:
    """Truncated cosine-series covariance between two points of [0, 1]^d."""
    kern = PeriodicKernel(s)
    return kern(x, x_prime)


@dataclass(frozen=True)
class PeriodicKernel(CovarianceKernel):
    """Covariance kernel on the torus induced by a :class:`PeriodicSpectrum`."""

    spectrum: PeriodicSpectrum
    domain: Torus = field(default_factory=Torus)

    def __post_init__(self):
        if self.domain.dim != self.spectrum.dim:
            object.__setattr__(self, "domain", Torus(self.spectrum.dim))

    def gram(self, x, y=None) -> np.ndarray:
        x = self._validated(x)
        y = x if y is None else self._validated(y)
        diff = x[:, None, :] - y[None, :, :]                      # (n, m, d)
        phase = 2.0 * np.pi * diff @ self.spectrum.rep_indices.T  # (n, m, M)
        out = 2.0 * np.cos(phase) @ self.spectrum.rep_masses
        return out + self.spectrum.zero_mass

    def _validated(self, pts) -> np.ndarray:
        pts = as_points(pts, self.spectrum.dim)
        if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
            raise DomainError("torus points must lie in [0, 1]^d")
        return pts
