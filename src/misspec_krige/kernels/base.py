"""Domain descriptors, the abstract kernel interface and eigenvalue sequences."""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError

UNIT_NORM_TOL = 1e-10

#: statistic entries per profile call: one chunk's temporaries stay in cache,
#: and an elementwise profile gives the same doubles under any split
_PROFILE_CHUNK = 1 << 14

#: 80-bit multiply-adds from which a product splits into row blocks over the
#: block threads; below it, a hand-off to another thread costs more than it saves
_SPLIT_FROM = 1 << 20


def block_threads() -> int:
    """``MISSPEC_KRIGE_THREADS``, or min(4, cpu count) when it is unset: the
    threads a large block is split over, read on every split."""
    env = os.environ.get("MISSPEC_KRIGE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"MISSPEC_KRIGE_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


@functools.cache
def _block_pool() -> ThreadPoolExecutor:
    # made on the first split; it starts a thread only when all it has are busy
    return ThreadPoolExecutor(thread_name_prefix="misspec-krige-block")


# a forked child inherits the pool but none of its threads, so it makes its own
os.register_at_fork(after_in_child=_block_pool.cache_clear)


def map_blocks(fn, count: int, multiply_adds: float | None = None) -> list:
    """``[fn(start, stop)]`` over consecutive ranges covering ``range(count)``:
    one per block thread when the job is large (its ``multiply_adds`` reach
    ``_SPLIT_FROM``, or, not given, it has several large blocks such as
    profile chunks), else one.  The caller runs the first range, the block
    pool the rest; ``fn`` must compute each output entry by itself."""
    parts = min(block_threads(), count)
    if parts <= 1 or (multiply_adds is not None and multiply_adds < _SPLIT_FROM):
        return [fn(0, count)]
    bounds = [count * i // parts for i in range(parts + 1)]
    futures = [_block_pool().submit(fn, start, stop)
               for start, stop in zip(bounds[1:-1], bounds[2:])]
    try:
        first = fn(0, bounds[1])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _members(domain, pts: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """``pts``, or a DomainError naming the first point ``inside`` rejects (NaN always)."""
    if not np.all(inside):
        first = int(np.argmin(inside.reshape(len(pts), -1).all(axis=1)))
        raise DomainError(f"point {pts[first].tolist()} {domain.off_domain}")
    return pts


@dataclass(frozen=True)
class Box:
    """Compact axis-aligned box in R^d with the Euclidean metric."""

    lower: tuple[float, ...] = (0.0,)
    upper: tuple[float, ...] = (1.0,)
    default_design = "accumulating"  # the design kind of an experiment that names none

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise DomainError("box bounds have mismatched dimensions")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise DomainError("box bounds must satisfy lower < upper")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def off_domain(self) -> str:
        return "lies outside the box " + " x ".join(
            f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.lower, self.upper))

    def points(self, x) -> np.ndarray:
        """``x`` as (n, dim) points inside the box bounds."""
        pts = as_points(x, self.dim)
        return _members(self, pts, (pts >= self.lower) & (pts <= self.upper))

    def from_unit(self, u) -> np.ndarray:
        """Unit-cube coordinates ``u`` as (n, dim) points of the box, lower +
        (upper - lower) * u; on the unit box that is exactly u."""
        lower = np.array(self.lower)
        return lower + (np.array(self.upper) - lower) * as_points(u, self.dim)

    def quadrature(self, n: int, exact: bool = False):
        """The n-node trapezoid rule of a 1-d box, endpoints included (every
        count is exact)."""
        if self.dim != 1:
            raise DomainError("quadrature grids are provided for 1-d boxes only")
        if n < 2:
            raise DomainError("need at least 2 nodes")
        lower, upper = self.lower[0], self.upper[0]
        h = (upper - lower) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
        return np.linspace(lower, upper, n)[:, None], weights


@dataclass(frozen=True)
class Torus:
    """The unit torus [0, 1]^d; all distances are taken modulo 1 per coordinate."""

    dim: int = 1
    default_design = "equispaced"

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("torus dimension must be >= 1")

    @property
    def off_domain(self) -> str:
        return "lies outside the torus " + " x ".join(["[0, 1]"] * self.dim)

    def points(self, x) -> np.ndarray:
        """``x`` as (n, dim) points of [0, 1]^d, to within 1e-12."""
        pts = as_points(x, self.dim)
        return _members(self, pts, (pts >= -1e-12) & (pts <= 1.0 + 1e-12))

    def from_unit(self, u) -> np.ndarray:
        """Unit-cube coordinates ``u`` as (n, dim) torus points; the torus's
        bounds are [0, 1]^d, so they are u itself."""
        return as_points(u, self.dim)

    def quadrature(self, n: int, exact: bool = False):
        """Periodic rectangle rule on [0, 1)^d with round(n^(1/d)) >= 2 nodes per
        axis, exact for retained harmonics up to the grid's Nyquist index; with
        ``exact``, an n that is no such count raises, naming the nearest that are."""
        side = max(2, round(n ** (1.0 / self.dim)))
        if exact and side ** self.dim != n:
            low = side if side ** self.dim < n else side - 1
            nearest = sorted({max(2, low) ** self.dim, (low + 1) ** self.dim})
            raise DomainError(
                f"a {self.dim}-d torus grid has k^{self.dim} nodes for an integer k >= 2, "
                f"so not {n}; nearest valid counts: {', '.join(map(str, nearest))}")
        axis = np.arange(side) / side
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        return nodes, np.full(nodes.shape[0], 1.0 / side ** self.dim)


@dataclass(frozen=True)
class UnitSphere:
    """The unit sphere S^2 embedded in R^3."""

    default_design = "sphere_fibonacci"

    @property
    def dim(self) -> int:
        return 3  # ambient coordinates

    @property
    def off_domain(self) -> str:
        return f"is not a unit vector (norm must be within {UNIT_NORM_TOL:g} of 1)"

    def points(self, x) -> np.ndarray:
        """``x`` as (n, 3) vectors of norm 1 to within ``UNIT_NORM_TOL``."""
        pts = as_points(x, 3)
        return _members(self, pts, np.abs(np.linalg.norm(pts, axis=-1) - 1.0) <= UNIT_NORM_TOL)

    def from_unit(self, u) -> np.ndarray:
        """Unit-cube coordinates ``u`` as (n, 3) vectors, unmapped: no affine map
        takes a cube onto the sphere, so ``points`` rejects them."""
        return as_points(u, 3)

    def quadrature(self, n: int, exact: bool = False):
        """The n-node Fibonacci rule (every count is exact)."""
        return fibonacci_sphere_grid(n)


Domain = Box | Torus | UnitSphere


def fibonacci_sphere_grid(n: int, rotate: float = 0.0):
    """Deterministic near-uniform sphere nodes with equal weights 4 pi / n."""
    if n < 2:
        raise DomainError("need at least 2 nodes")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i + rotate
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    nodes = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return nodes, np.full(n, 4.0 * math.pi / n)


def is_whole_number(value) -> bool:
    """True for an integer or a float with no fractional part; booleans and
    everything else are False."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()))


def positive_integer(value, name: str) -> int:
    """``value`` as an int >= 1; booleans and non-integral numbers are rejected
    with a message naming ``name``."""
    if not is_whole_number(value) or value < 1:
        raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def positive_finite(**params) -> None:
    """Reject the parameters unless each is a real number, not a boolean, that
    is > 0 and finite as a float; the message names them all."""
    if not all(isinstance(value, numbers.Real) and not isinstance(value, bool)
               and 0 < value <= sys.float_info.max for value in params.values()):
        shown = ", ".join(f"{name}={value!r}" for name, value in params.items())
        raise DomainError(f"{', '.join(params)} must all be finite and > 0, got {shown}")


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


def euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (n, m) Euclidean distances |x_i - y_j| of (n, d) and (m, d) points.
    Per coordinate the squared differences are added in order, then the
    square root is taken.  That is the formula of
    ``scipy.spatial.distance.cdist``, so the doubles are its doubles, and
    ``euclidean(x, x)`` is exactly symmetric.  Rows are done in blocks of
    about ``_PROFILE_CHUNK`` entries, so each block and its scratch stay in
    cache across the coordinates."""
    out = np.empty((x.shape[0], y.shape[0]))
    rows = max(1, _PROFILE_CHUNK // max(1, y.shape[0]))
    diff = np.empty((min(rows, x.shape[0]), y.shape[0]))
    for start in range(0, x.shape[0], rows):
        block, xb = out[start:start + rows], x[start:start + rows]
        np.subtract.outer(xb[:, 0], y[:, 0], out=block)
        np.square(block, out=block)
        for k in range(1, x.shape[1]):
            scratch = diff[:len(block)]
            np.subtract.outer(xb[:, k], y[:, k], out=scratch)
            np.square(scratch, out=scratch)
            block += scratch
        np.sqrt(block, out=block)
    return out


def inner_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x_i, y_j> of unit vectors, clipped to [-1, 1]."""
    return np.clip(x @ y.T, -1.0, 1.0)


def gram_entries(stat, x: np.ndarray, y: np.ndarray | None):
    """The flat entries of ``stat(x, y)`` a covariance profile is evaluated on,
    and the map laying the profiled values out as the Gram.  With ``y=None``
    they are the upper triangle, diagonal included, and the map mirrors it: for
    an exactly symmetric statistic (``euclidean(x, x)``, or ``x @ x.T``, which BLAS
    ``syrk`` computes on one triangle) and an elementwise profile, the same
    doubles from n(n+1)/2 evaluations instead of n^2."""
    if y is not None:
        full = stat(x, y)
        return full.ravel(), lambda values: values.reshape(full.shape)
    upper = np.triu(np.ones((len(x), len(x)), dtype=bool))

    def mirror(values):
        out = np.empty(upper.shape)
        out[upper] = values
        out.T[upper] = values
        return out
    return stat(x, x)[upper], mirror


class CovarianceKernel(ABC):
    """A symmetric, strictly positive definite covariance function.

    The single capability is evaluating rho(x, x') for two points of the
    kernel's domain; ``gram`` vectorizes this over point sets and
    ``gram_pairs`` over several blocks at once.  Symmetry is
    structural for every implementation and positive definiteness of Gram
    matrices is verified at factorization time, not here.
    """

    #: domain descriptor (Box, Torus or UnitSphere)
    domain: Domain

    #: True/False when the smoothness class of the covariance at the origin is
    #: known, None when it is not.  Finite-smoothness families set False; the
    #: diagnostics use this to sharpen a divergence verdict.
    infinitely_differentiable: bool | None = None

    #: dimension of the span of the kernel's sections when it is finite (a
    #: truncated series), None otherwise; a design of that many sites fixes
    #: the field everywhere
    rank: int | None = None

    @abstractmethod
    def gram(self, x, y=None) -> np.ndarray:
        """Covariance matrix between point sets ``x`` (n, d) and ``y`` (m, d)."""

    def gram_pairs(self, pairs) -> list[np.ndarray]:
        """``gram(x, y)`` for each ``(x, y)`` pair, where ``y=None`` means ``x``."""
        return [self.gram(x, y) for x, y in pairs]

    def __call__(self, x, y) -> float:
        x = as_points(x, self.domain.dim)
        y = as_points(y, self.domain.dim)
        return float(self.gram(x, y)[0, 0])


class ProfileKernel(CovarianceKernel):
    """A covariance that is an elementwise ``profile`` of one pairwise
    ``statistic`` of the points, such as a distance or an inner product."""

    @abstractmethod
    def statistic(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The (n, m) statistic of every point pair, e.g. ``euclidean``."""

    @abstractmethod
    def profile(self, values: np.ndarray) -> np.ndarray:
        """The covariance at each statistic value, elementwise."""

    def points(self, x) -> np.ndarray:
        return self.domain.points(x)

    def gram(self, x, y=None) -> np.ndarray:
        return self._evaluate([(x, y)])[0]

    def gram_pairs(self, pairs) -> list[np.ndarray]:
        return self._evaluate(pairs)

    def _evaluate(self, pairs) -> list[np.ndarray]:
        """The Gram of every ``(x, y)`` pair from one chunked pass of the
        profile over all their statistic entries.  Each distinct point array is
        checked once; each pair keeps its own statistic (stacking rows into one
        product changes how they round), of which a ``y=None`` pair gives its
        upper triangle only.  The profile is elementwise, so the bits are those
        of one call per pair, whichever block thread runs a chunk."""
        if not pairs:
            return []
        arrays = {id(a): a for pair in pairs for a in pair if a is not None}
        checked = {key: self.points(a) for key, a in arrays.items()}
        stats, layouts = zip(*[gram_entries(self.statistic, checked[id(x)],
                                            None if y is None else checked[id(y)])
                               for x, y in pairs])
        ends = np.cumsum([values.size for values in stats])[:-1]
        flat = np.concatenate(stats)
        del stats  # ``flat`` holds the entries now; free each pair's copy before the profile
        starts = range(0, flat.size, _PROFILE_CHUNK)

        def profile_chunks(first: int, last: int) -> None:
            for start in starts[first:last]:
                chunk = flat[start:start + _PROFILE_CHUNK]
                chunk[...] = self.profile(chunk)
        map_blocks(profile_chunks, len(starts))
        return [layout(block) for block, layout in zip(np.split(flat, ends), layouts)]


@dataclass(frozen=True, eq=False)
class EigenSequence:
    """Eigenvalues of a covariance operator in a model's canonical ordering.

    Multiplicities are expanded (one entry per eigenfunction) so that two
    models sharing an eigenbasis produce index-aligned sequences.  Values are
    required to be finite and strictly positive.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise DomainError("eigenvalue sequence must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise DomainError("eigenvalues must be finite and strictly positive")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)
