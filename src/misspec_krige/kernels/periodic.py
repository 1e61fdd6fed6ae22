"""Weakly periodic covariances on the unit torus [0, 1]^d.

A nonnegative, even spectral mass f on the integer lattice defines

    rho(x, x') = sum_k f(k) cos(2 pi k . (x - x')),

and the trigonometric system {1, sqrt(2) cos(2 pi k . x), sqrt(2) sin(2 pi k . x)}
over lattice representatives k (first nonzero component positive) is an
eigenbasis of the induced integral operator: eigenvalue f(0) for the constant
function and f(k), twice, for every representative k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import DomainError
from .base import CovarianceKernel, EigenSequence, Torus, is_whole_number, positive_integer

#: default truncation (max-norm radius of retained lattice indices) per dimension
DEFAULT_K_MAX = {1: 64, 2: 16}

_SYMMETRY_TOL = 1e-12

#: entries of the (rows, m, M) cosine block a Gram's lattice sum reads at once
#: (256 KiB of doubles); bounds its memory at any size
_GRAM_BLOCK_ENTRIES = 1 << 15


def _first_nonzero(rows: np.ndarray) -> np.ndarray:
    """The first nonzero component of each row (0 for a zero row)."""
    return rows[np.arange(rows.shape[0]), np.argmax(rows != 0, axis=1)]


def _positive_representatives(dim: int, k_max: int) -> np.ndarray:
    """Lattice representatives (first nonzero component positive) with
    0 < max-norm <= k_max, enumerated by max-norm shell then lexicographically.

    The cube [-k_max, k_max]^dim is enumerated once, in lexicographic order;
    a stable sort by shell keeps that order within each shell."""
    axis = np.arange(-k_max, k_max + 1)
    cube = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    reps = cube[_first_nonzero(cube) > 0]
    return reps[np.argsort(np.abs(reps).max(axis=1), kind="stable")]


@dataclass(frozen=True)
class PeriodicSpectrum:
    """Truncated lattice spectral mass; indices with max-norm <= k_max are retained."""

    dim: int
    k_max: int
    zero_mass: float
    rep_masses: tuple[float, ...]  # f(k) at each of ``rep_indices``

    def __post_init__(self):
        object.__setattr__(self, "dim", positive_integer(self.dim, "dim"))
        object.__setattr__(self, "k_max", positive_integer(self.k_max, "k_max"))
        masses = np.asarray(self.rep_masses, dtype=float)
        if masses.shape != (len(self.rep_indices),):
            raise DomainError(f"need {len(self.rep_indices)} masses, one per representative")
        every = np.append(masses, self.zero_mass)
        if not np.all((every >= 0.0) & (every < np.inf)):  # NaN fails both
            raise DomainError("spectral masses must be finite and nonnegative")
        object.__setattr__(self, "rep_masses", tuple(masses.tolist()))

    @functools.cached_property
    def rep_indices(self) -> np.ndarray:
        """(M, dim) lattice representatives, canonical order."""
        return _positive_representatives(self.dim, self.k_max)

    @classmethod
    def from_callable(cls, f: Callable[[tuple[int, ...]], float], dim: int = 1,
                      k_max: int | None = None) -> "PeriodicSpectrum":
        """Build from a function on lattice indices; f(-k) = f(k) is verified."""
        dim = positive_integer(dim, "dim")
        k_max = positive_integer(DEFAULT_K_MAX.get(dim, 8) if k_max is None else k_max, "k_max")
        reps = _positive_representatives(dim, k_max)
        masses = np.array([float(f(tuple(k))) for k in reps])
        if not np.all(np.isfinite(masses)):  # before inf - inf in the evenness check
            raise DomainError("spectral masses must be finite and nonnegative")
        mirrored = np.array([float(f(tuple(-k))) for k in reps])
        bad = ~(np.abs(masses - mirrored) <= _SYMMETRY_TOL * np.maximum(1.0, np.abs(masses)))
        if np.any(bad):
            k_bad = tuple(reps[int(np.argmax(bad))].tolist())
            raise DomainError(f"spectral mass is not even: f({k_bad}) != f(-{k_bad})")
        zero = float(f((0,) * dim))
        return cls(dim=dim, k_max=k_max, zero_mass=zero, rep_masses=masses)

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[tuple[int, ...] | int, float], dim: int = 1,
                    k_max: int | None = None) -> "PeriodicSpectrum":
        """Build from a sparse mapping of lattice indices to masses.

        Indices may be given for either sign of a pair; unlisted indices carry
        zero mass.
        """
        dim = positive_integer(dim, "dim")
        table: dict[tuple[int, ...], float] = {}  # both signs of every listed index
        for key, val in coeffs.items():
            k = key if isinstance(key, tuple) else (key,)
            if not all(map(is_whole_number, k)):
                raise DomainError(f"lattice index {key!r} is not an integer or a tuple of them")
            k = tuple(map(int, k))
            if len(k) != dim:
                raise DomainError(f"index {k} does not match dim={dim}")
            pair = (k, tuple(-c for c in k))
            canon = max(pair)  # the sign whose first nonzero component is positive
            if canon in table and abs(table[canon] - float(val)) > _SYMMETRY_TOL:
                raise DomainError(f"conflicting masses for the index pair +-{canon}")
            table.update(dict.fromkeys(pair, float(val)))
        span = max((max(abs(c) for c in k) for k in table if any(k)), default=1)
        if k_max is None:
            k_max = span
        elif span > positive_integer(k_max, "k_max"):
            raise DomainError(f"k_max = {k_max!r} would drop the listed index of max-norm {span}")
        return cls.from_callable(lambda k: table.get(k, 0.0), dim=dim, k_max=k_max)

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
        doubled = np.repeat(np.asarray(self.rep_masses)[keep], 2)
        values = np.concatenate(([self.zero_mass], doubled))
        return EigenSequence(values[values > 0.0])


@dataclass(frozen=True)
class PeriodicKernel(CovarianceKernel):
    """Covariance kernel on the torus induced by a :class:`PeriodicSpectrum`."""

    spectrum: PeriodicSpectrum

    @property
    def domain(self) -> Torus:
        """The torus of the spectrum's dimension."""
        return Torus(self.spectrum.dim)

    @property
    def rank(self) -> int:
        """Number of positive eigenvalues of the truncated spectrum."""
        return len(self.spectrum.eigen_sequence())

    def gram(self, x, y=None) -> np.ndarray:
        """``zero_mass + (2 cos(2 pi (x_i - y_j) . k)) @ rep_masses``: one gemv per
        (m, M) slice of the cosines, in bounded row blocks, so a row's bits do
        not depend on the rows around it.  A square Gram (``y=None``) evaluates
        the cosines once per distinct difference up to sign, canonicalised like
        the lattice representatives; the bits do not change, because x_j - x_i
        = -(x_i - x_j), the phase negates exactly and ``np.cos`` is even.
        Cross blocks rarely repeat a difference and keep the direct formula."""
        x = self.domain.points(x)
        reps, masses = self.spectrum.rep_indices, np.asarray(self.spectrum.rep_masses)
        if y is not None:
            y = self.domain.points(y)

            def cosines(rows: slice) -> np.ndarray:
                return 2.0 * np.cos(2.0 * np.pi * (x[rows, None, :] - y[None, :, :]) @ reps.T)
        else:
            n, dim = x.shape
            diff = (x[:, None, :] - x[None, :, :]).reshape(n * n, dim)
            diff = np.where((_first_nonzero(diff) < 0.0)[:, None], -diff, diff)
            # group the C-ordered rows by bytes: -0.0 and +0.0 land apart and both give
            # cos = 1; one int64 key per row sorts several times faster than a void key in 1-d
            keys = np.ascontiguousarray(diff).view(
                np.int64 if dim == 1 else np.dtype((np.void, 8 * dim))).ravel()
            distinct, inverse = np.unique(keys, return_inverse=True)
            distinct = distinct.view(np.float64).reshape(-1, dim)
            table = 2.0 * np.cos(2.0 * np.pi * distinct @ reps.T)         # (distinct, M)
            inverse = inverse.reshape(n, n)

            def cosines(rows: slice) -> np.ndarray:
                return table[inverse[rows]]
        out = np.empty((len(x), len(x) if y is None else len(y)))
        step = max(1, _GRAM_BLOCK_ENTRIES // max(1, out.shape[1] * len(masses)))
        for i in range(0, len(x), step):
            out[i:i + step] = cosines(slice(i, i + step)) @ masses
        return out + self.spectrum.zero_mass
