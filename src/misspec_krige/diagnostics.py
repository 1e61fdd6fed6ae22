"""Finite-scale probes of the compatibility conditions between two models.

Everything in this module reports what can be observed on a finite probe set:
eigenvalue-ratio tails for model pairs that share an eigenbasis, spectral
density ratios at high frequency for stationary pairs, quadrature
eigendecompositions of covariance operators, and a finite-rank image of the
whitened covariance perturbation.  None of these decide an infinite-
dimensional property; verdicts are worded (and should be read) as
"consistent with" or "inconsistent with" the asymptotic condition at probe
scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import DomainError, MisspecKrigeError, NumericalFailureError
from .kernels import (
    Box,
    CovarianceKernel,
    EigenSequence,
    MaternKernel,
    MaternSpectralDensity,
    PeriodicKernel,
    SphereSeriesKernel,
)
from .kernels.base import block_threads
from .kriging import GaussianModel, TargetFunctional
from .ratios import common_domain, mean_term

DEFAULT_WINDOW = 0.2
DEFAULT_TOL = 1e-2

#: a checkpoint trend must shrink/grow past this factor to call divergence
_DIVERGENCE_FACTOR = 2.0

#: the T_a tail starts where every magnitude is below this fraction of the largest
TAIL_TOL_REL = 0.1

#: quadrature eigenvalues, and projected ratios, at or below this fraction of
#: the largest are not resolved in double precision
RANK_CUTOFF = 1e-12

# probe sizes of the composed report
EIGEN_TERMS = 2000
SPECTRAL_RADII = (1.0, 1.0e3, 25)  # (min, max, count), log-spaced
QUAD_NODES = 128
GALERKIN_BASIS = 24
MEAN_DESIGN_SIZES = (8, 32, 64)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class LimitKind(Enum):
    CONVERGES = "converges"
    DIVERGES_TO_ZERO = "diverges_to_zero"
    DIVERGES_TO_INFINITY = "diverges_to_infinity"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TailWindow:
    """Statistics of the trailing probe window backing a verdict."""

    start_index: int
    mean: float
    max_deviation: float


@dataclass(frozen=True)
class RatioVerdict:
    """Outcome of a ratio-limit probe: what was observed on the probed range,
    never a certified asymptotic statement."""

    kind: LimitKind
    a_estimate: float | None = None
    evidence: TailWindow | None = None

    def __post_init__(self):
        if self.kind is LimitKind.CONVERGES:
            if self.a_estimate is None or not self.a_estimate > 0:
                raise ValueError("a convergent verdict requires a positive limit estimate")
        elif self.a_estimate is not None:
            raise ValueError("a_estimate is only meaningful for a convergent verdict")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "a_estimate": self.a_estimate,
            "evidence": None if self.evidence is None else asdict(self.evidence),
        }


# ---------------------------------------------------------------------------
# ratio-limit probes
# ---------------------------------------------------------------------------

def eigen_ratio_limit(g: EigenSequence, g_tilde: EigenSequence,
                      window: float = DEFAULT_WINDOW,
                      tol: float = DEFAULT_TOL) -> RatioVerdict:
    """Verdict on the tail of the index-aligned eigenvalue ratios.

    Convergence: over the trailing ``window`` fraction of the ratios, the max
    deviation from the window mean stays below ``tol`` times that mean.
    Divergence: checkpoint medians at J/8, J/4, J/2, J move monotonically and
    change by more than a factor of two overall.  Anything else is
    inconclusive.
    """
    if len(g) != len(g_tilde):
        raise DomainError("eigenvalue sequences must have equal length")
    if len(g) < 20:
        raise DomainError("need at least 20 eigenvalues for a tail verdict")
    if not 0.0 < window <= 1.0:
        raise DomainError("window must lie in (0, 1]")
    ratios = g_tilde.values / g.values
    return _tail_verdict(ratios, window, tol)


def _tail_verdict(ratios: np.ndarray, window: float, tol: float) -> RatioVerdict:
    size = ratios.shape[0]
    start = size - max(1, math.ceil(window * size))
    tail = ratios[start:]
    center = float(tail.mean())
    max_dev = float(np.max(np.abs(tail - center)))
    evidence = TailWindow(start_index=start, mean=center, max_deviation=max_dev)
    if center > 0.0 and max_dev < tol * center:
        return RatioVerdict(LimitKind.CONVERGES, center, evidence)

    return _trend_verdict(_checkpoint_stats(ratios), evidence)


def _trend_verdict(checkpoints: list[float], evidence: TailWindow) -> RatioVerdict:
    """Divergence when the checkpoints move monotonically by more than
    ``_DIVERGENCE_FACTOR`` overall; inconclusive otherwise."""
    decreasing = all(a > b for a, b in zip(checkpoints, checkpoints[1:]))
    increasing = all(a < b for a, b in zip(checkpoints, checkpoints[1:]))
    if decreasing and checkpoints[0] > _DIVERGENCE_FACTOR * checkpoints[-1]:
        return RatioVerdict(LimitKind.DIVERGES_TO_ZERO, None, evidence)
    if increasing and checkpoints[-1] > _DIVERGENCE_FACTOR * checkpoints[0]:
        return RatioVerdict(LimitKind.DIVERGES_TO_INFINITY, None, evidence)
    return RatioVerdict(LimitKind.INCONCLUSIVE, None, evidence)


def _checkpoint_stats(ratios: np.ndarray) -> list[float]:
    size = ratios.shape[0]
    stats = []
    for frac in (1 / 8, 1 / 4, 1 / 2, 1.0):
        idx = max(0, math.ceil(frac * size) - 1)
        halo = max(1, size // 100)
        block = ratios[max(0, idx - halo): idx + halo + 1]
        stats.append(float(np.median(block)))
    return stats


def spectral_ratio_limit(f: MaternSpectralDensity, f_tilde: MaternSpectralDensity,
                         radii: Sequence[float],
                         tol: float = DEFAULT_TOL) -> RatioVerdict:
    """Verdict on f_tilde / f along rays as the frequency norm grows.

    A density is a callable of one frequency with a ``dim``, such as
    :class:`MaternSpectralDensity`.  Needs at least 3 radii spanning two
    decades.  The ratio is probed on the radii x ``_default_directions``
    grid; convergence requires the last-decade values to agree within ``tol``
    in log space across both radii and directions (the geometric handling
    makes the verdict exactly symmetric under swapping the two densities).  A
    monotone checkpoint trend beyond a factor of two is reported as divergence.
    """
    if f.dim != f_tilde.dim:
        raise DomainError("spectral densities must share the ambient dimension")
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size < 3 or radii[0] <= 0:
        raise DomainError("need at least 3 positive radii")
    if radii[-1] < 100.0 * radii[0]:
        raise DomainError("radii must span at least two decades")
    dirs = [u / np.linalg.norm(u) for u in _default_directions(f.dim)]

    grid = np.empty((len(dirs), radii.size))
    for i, u in enumerate(dirs):
        for j, r in enumerate(radii):
            denom = f(r * u)
            if denom <= 0.0:
                raise DomainError(f"f vanishes at radius {r:g}; the ratio is undefined")
            grid[i, j] = f_tilde(r * u) / denom

    last_decade = radii >= radii[-1] / 10.0
    tail_vals = grid[:, last_decade].ravel()
    log_tail = np.log(np.maximum(tail_vals, np.finfo(float).tiny))
    center = float(np.exp(log_tail.mean()))
    max_dev = float(np.max(np.abs(np.exp(log_tail - log_tail.mean()) - 1.0))) * center
    start_index = int(np.argmax(last_decade))
    evidence = TailWindow(start_index=start_index, mean=center, max_deviation=max_dev)
    if np.all(tail_vals > 0.0) and max_dev < tol * center:
        return RatioVerdict(LimitKind.CONVERGES, center, evidence)

    per_radius = np.exp(np.mean(np.log(np.maximum(grid, np.finfo(float).tiny)), axis=0))
    return _trend_verdict([per_radius[0], per_radius[per_radius.size // 2], per_radius[-1]],
                          evidence)


def _default_directions(dim: int) -> list[np.ndarray]:
    dirs = [np.eye(dim)[i] for i in range(dim)]
    dirs += [-d for d in dirs]
    if dim > 1:
        dirs.append(np.ones(dim) / math.sqrt(dim))
    return dirs


def spectral_equivalence_bounds(f: MaternSpectralDensity, f_tilde: MaternSpectralDensity,
                                probe_grid: Sequence[np.ndarray]) -> tuple[float, float]:
    """Empirical (min, max) of f_tilde / f over a frequency probe grid.

    A finite grid cannot certify two-sided global bounds; the returned pair is
    a necessary-condition probe for the two densities being equivalent up to
    constants.
    """
    ratios = []
    for omega in probe_grid:
        denom = f(omega)
        if denom <= 0.0:
            raise DomainError("f vanishes on the probe grid")
        ratios.append(f_tilde(omega) / denom)
    ratios = np.asarray(ratios)
    return float(ratios.min()), float(ratios.max())


# ---------------------------------------------------------------------------
# quadrature eigendecomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NystromEigen:
    """Quadrature approximation of a covariance operator's eigenpairs.

    ``eigenvectors[:, j]`` holds the node values of the j-th eigenfunction,
    normalized so that the weight-weighted Gram of the retained columns is the
    identity.  ``node_gram`` is the kernel's Gram on the nodes as evaluated,
    before symmetrization.
    """

    nodes: np.ndarray
    weights: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    node_gram: np.ndarray

    def __post_init__(self):
        lam = self.eigenvalues
        if np.any(np.diff(lam) > 0):
            raise NumericalFailureError("eigenvalues must be sorted descending")
        gram = self.eigenvectors.T @ (self.weights[:, None] * self.eigenvectors)
        if float(np.max(np.abs(gram - np.eye(lam.size)))) > 1e-8:
            raise NumericalFailureError("eigenvectors are not weight-orthonormal")

    @property
    def rank(self) -> int:
        return int(self.eigenvalues.size)


def nystrom_eigen(kernel: CovarianceKernel, nodes, weights,
                  rank_cutoff: float = RANK_CUTOFF) -> NystromEigen:
    """Discretize the covariance integral operator on a quadrature rule.

    Solves the symmetric eigenproblem of W^(1/2) K W^(1/2) and rescales the
    eigenvectors to weight-orthonormal node values; eigenvalues at or below
    ``rank_cutoff`` times the leading one are dropped; it must lie in [0, 1),
    or even the leading eigenvalue would go.
    """
    if not 0.0 <= rank_cutoff < 1.0:
        raise DomainError(f"rank_cutoff must lie in [0, 1), got {rank_cutoff!r}")
    block_threads()  # a bad MISSPEC_KRIGE_THREADS fails here, whatever the kernel
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    if nodes.shape[0] < 2:
        raise DomainError("need at least two quadrature nodes")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (nodes.shape[0],) or np.any(weights <= 0.0):
        raise DomainError("quadrature weights must be positive, one per node")
    node_gram = kernel.gram(nodes)
    asym = float(np.max(np.abs(node_gram - node_gram.T)))
    if asym > 1e-10 * max(1.0, float(np.max(np.abs(node_gram)))):
        raise NumericalFailureError(f"kernel matrix asymmetry {asym:.3e}")
    kmat = 0.5 * (node_gram + node_gram.T)
    root_w = np.sqrt(weights)
    sym = root_w[:, None] * kmat * root_w[None, :]
    try:
        lam, vec = scipy.linalg.eigh(sym)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(lam)[::-1]
    lam, vec = lam[order], vec[:, order]
    if lam[0] <= 0.0:
        raise NumericalFailureError("leading eigenvalue is not positive")
    keep = lam > rank_cutoff * lam[0]
    lam, vec = lam[keep], vec[:, keep]
    funcs = vec / root_w[:, None]
    return NystromEigen(nodes=nodes, weights=weights, eigenvalues=lam,
                        eigenvectors=funcs, node_gram=node_gram)


# ---------------------------------------------------------------------------
# whitened-perturbation tail
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TaTailReport:
    """Finite-rank image of C^(-1/2) C~ C^(-1/2) - a I on a leading eigenbasis.

    This is a heuristic indicator: compactness cannot be certified at finite
    rank.  The report states how the projected spectrum decays, nothing more.
    """

    a_used: float
    galerkin_eigs: np.ndarray  # sorted by decreasing magnitude
    tail_index: int
    basis_size: int

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.galerkin_eigs).max(initial=0.0))

    def last_quartile_max(self) -> float:
        start = (3 * self.basis_size) // 4
        return float(np.abs(self.galerkin_eigs[start:]).max(initial=0.0))

    def to_dict(self) -> dict:
        return {"a_used": self.a_used, "basis_size": self.basis_size,
                "tail_index": self.tail_index, "max_abs": self.max_abs,
                "last_quartile_max": self.last_quartile_max()}


def t_a_tail_spectrum(true_kernel: CovarianceKernel, wrong_kernel: CovarianceKernel,
                      nodes, weights, a: float, basis_size: int) -> TaTailReport:
    """Project the whitened covariance perturbation onto a leading eigenbasis.

    Builds B = G^(-1/2) E' W K~ W E G^(-1/2) - a I on the leading
    ``basis_size`` quadrature eigenpairs (E, G) of the true kernel and returns
    the magnitude-sorted spectrum of B.  ``tail_index`` is the first position
    after which every magnitude is below ``TAIL_TOL_REL`` times the largest.
    ``a = 0`` is allowed and exposes the plain whitened spectrum, which is
    nonnegative for any covariance pair.
    """
    if a < 0.0:
        raise DomainError("the constant a must be nonnegative")
    projection = galerkin_projection(true_kernel, wrong_kernel, nodes, weights, basis_size)
    return projection.tail(a, basis_size)


@dataclass(frozen=True, eq=False)
class GalerkinProjection:
    """Leading quadrature eigenpairs (E, G) of the true kernel and the working
    kernel projected onto them, E' W K~ W E."""

    eigenvalues: np.ndarray  # leading G, descending
    projected: np.ndarray    # E' W K~ W E on those eigenfunctions
    resolved: int            # eigenpairs the quadrature resolves above its cutoff

    def tail(self, a: float, basis_size: int) -> TaTailReport:
        """The :func:`t_a_tail_spectrum` report on the leading ``basis_size`` block."""
        if self.resolved < basis_size:
            raise DomainError(
                f"quadrature resolves only {self.resolved} eigenpairs above the cutoff; "
                f"requested a basis of {basis_size}")
        middle = self.projected[:basis_size, :basis_size]
        scale = 1.0 / np.sqrt(self.eigenvalues[:basis_size])
        b = scale[:, None] * middle * scale[None, :] - a * np.eye(basis_size)
        eigs = scipy.linalg.eigvalsh(0.5 * (b + b.T))
        order = np.argsort(np.abs(eigs))[::-1]
        eigs = eigs[order]
        top = abs(eigs[0]) if eigs.size else 0.0
        below = np.abs(eigs) < TAIL_TOL_REL * top if top > 0 else np.ones_like(eigs, bool)
        tail_index = int(np.argmax(below)) if np.any(below) else int(eigs.size)
        return TaTailReport(a_used=a, galerkin_eigs=eigs, tail_index=tail_index,
                            basis_size=basis_size)


def galerkin_projection(true_kernel: CovarianceKernel, wrong_kernel: CovarianceKernel,
                        nodes, weights, basis_size: int) -> GalerkinProjection:
    """Project ``wrong_kernel`` onto the leading ``basis_size`` (or fewer, if
    the quadrature resolves fewer) quadrature eigenfunctions of ``true_kernel``."""
    eig = nystrom_eigen(true_kernel, nodes, weights)
    basis = min(basis_size, eig.rank)
    weighted = eig.weights[:, None] * eig.eigenvectors[:, :basis]
    wrong_gram = eig.node_gram if wrong_kernel == true_kernel else wrong_kernel.gram(eig.nodes)
    middle = weighted.T @ wrong_gram @ weighted
    return GalerkinProjection(eigenvalues=eig.eigenvalues[:basis], projected=middle,
                              resolved=eig.rank)


# ---------------------------------------------------------------------------
# composed report
# ---------------------------------------------------------------------------

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
INCONCLUSIVE = "inconclusive"


def assumption_report(true_model: GaussianModel, wrong_model: GaussianModel,
                      verdict_window: float = DEFAULT_WINDOW,
                      verdict_tol: float = DEFAULT_TOL) -> dict:
    """Bundle the applicable probes into one report.

    Routes: an analytic eigenvalue route when the pair shares a known
    eigenbasis (periodic pair, sphere series pair), a spectral-density route
    for stationary Euclidean pairs, and a quadrature Galerkin route whenever
    the analytic route gives no verdict.  Each route returns its record, or
    None when it does not apply; a library error it raises is recorded as
    ``{"error": message}``, with no verdict.  The report never claims the
    asymptotic conditions hold; it grades each check consistent /
    inconsistent / inconclusive at probe scale.  The quadrature and mean
    probes run on the true model's domain.  ``verdict_window`` and
    ``verdict_tol`` are the trailing-window fraction and the relative
    tolerance of the ratio-limit verdicts.
    """
    domain = common_domain(true_model, wrong_model)
    block_threads()  # a bad MISSPEC_KRIGE_THREADS fails the report, not its routes
    k_true, k_wrong = true_model.kernel, wrong_model.kernel

    def guarded(probe, *args) -> dict | None:
        """The record ``probe(*args)`` returns, or ``{"error": message}`` for a
        library error it raises."""
        try:
            return probe(*args)
        except MisspecKrigeError as exc:
            return {"error": str(exc)}

    @functools.cache
    def projection() -> GalerkinProjection:
        # one quadrature projection serves both the Galerkin route and the tail
        nodes, weights = domain.quadrature(QUAD_NODES)
        return galerkin_projection(k_true, k_wrong, nodes, weights, GALERKIN_BASIS)

    records = {"spectral": guarded(_spectral_route, k_true, k_wrong, verdict_tol),
               "eigen_analytic": guarded(_eigen_route, k_true, k_wrong, verdict_window,
                                         verdict_tol)}
    if "kind" not in (records["eigen_analytic"] or {}):
        records["eigen_galerkin"] = guarded(_galerkin_route, projection, verdict_window,
                                            verdict_tol)
    routes = {name: record for name, record in records.items() if record is not None}
    # the first route that gave a verdict is primary
    primary_route = next((name for name, record in routes.items() if "kind" in record),
                         None)
    primary = routes.get(primary_route)
    t_a = None
    if primary is not None and primary["kind"] == LimitKind.CONVERGES.value:
        t_a = guarded(lambda: projection().tail(primary["a_estimate"],
                                                GALERKIN_BASIS).to_dict())

    mean_probe = _mean_route(true_model, wrong_model, domain)
    return {
        "true_model": true_model.label,
        "wrong_model": wrong_model.label,
        "routes": routes,
        "primary_route": primary_route,
        "ratio_verdict": (None if primary is None else
                          {key: primary[key] for key in ("kind", "a_estimate", "evidence")}),
        "t_a_tail": t_a,
        "mean_check": mean_probe,
        "assessment": _grade(primary, true_model.kernel, mean_probe),
        "disclaimer": ("all verdicts are finite-probe observations; no "
                       "infinite-dimensional property is certified"),
    }


def _eigen_route(k_true, k_wrong, window, tol) -> dict | None:
    if isinstance(k_true, PeriodicKernel) and isinstance(k_wrong, PeriodicKernel):
        common = min(k_true.spectrum.k_max, k_wrong.spectrum.k_max)
        g = k_true.spectrum.eigen_sequence(common)
        g_t = k_wrong.spectrum.eigen_sequence(common)
    elif isinstance(k_true, SphereSeriesKernel) and isinstance(k_wrong, SphereSeriesKernel):
        common = min(k_true.params.l_max, k_wrong.params.l_max,
                     math.isqrt(EIGEN_TERMS))
        g = k_true.params.eigen_sequence(common)
        g_t = k_wrong.params.eigen_sequence(common)
    else:
        return None
    if len(g) != len(g_t):
        raise DomainError("spectra have mismatched supports")
    return eigen_ratio_limit(g, g_t, window=window, tol=tol).to_dict()


def _spectral_route(k_true, k_wrong, tol) -> dict | None:
    # the R^d spectral density describes a Matern pair on a box, not on the sphere
    if not all(isinstance(k, MaternKernel) and isinstance(k.domain, Box)
               for k in (k_true, k_wrong)):
        return None
    f = MaternSpectralDensity(k_true.params)
    f_t = MaternSpectralDensity(k_wrong.params)
    lo, hi, count = SPECTRAL_RADII
    radii = np.logspace(math.log10(lo), math.log10(hi), count)
    verdict = spectral_ratio_limit(f, f_t, radii, tol=tol)
    dirs = _default_directions(f.dim)
    k_hat, big_k_hat = spectral_equivalence_bounds(f, f_t, [r * u for r in radii for u in dirs])
    return dict(verdict.to_dict(), equivalence_bounds={"k_hat": k_hat, "K_hat": big_k_hat})


def _galerkin_route(projection, window, tol) -> dict:
    galerkin = projection()
    diag_ratios = np.diag(galerkin.projected) / galerkin.eigenvalues
    if np.any(diag_ratios <= 0):
        raise NumericalFailureError("nonpositive projected ratios")
    smallest, largest = float(diag_ratios.min()), float(diag_ratios.max())
    if smallest <= RANK_CUTOFF * largest:
        raise NumericalFailureError(
            f"projected ratio {smallest:.3e} is at or below {RANK_CUTOFF:.0e} times the "
            f"largest ({largest:.3e}), so it is not resolved")
    return _tail_verdict(diag_ratios, window=max(0.25, window), tol=tol).to_dict()


def _mean_route(true_model, wrong_model, domain) -> dict:
    try:
        probe_pts, _ = domain.quadrature(33)
    except DomainError:
        return {"status": f"no mean probe grid fits the domain {domain!r}",
                "grade": INCONCLUSIVE}
    delta = np.array([true_model.mean(p) - wrong_model.mean(p) for p in probe_pts])
    if float(np.max(np.abs(delta))) == 0.0:
        return {"status": "means agree on the probe grid", "grade": CONSISTENT}
    if true_model.kernel != wrong_model.kernel:
        return {"status": ("means differ but so do the kernels; the normalized "
                           "interpolation-error probe applies to shared-kernel pairs"),
                "grade": INCONCLUSIVE}
    from .harness import DesignGenerator, generate_design
    try:
        gen = DesignGenerator.accumulating(domain=domain)
    except DomainError:
        return {"status": f"no accumulating design generator fits the domain {domain!r}",
                "grade": INCONCLUSIVE}
    target = TargetFunctional.point(domain.from_unit([gen.x_star])[0], label="acc")
    sizes, values = [], []
    for n in MEAN_DESIGN_SIZES:
        design = generate_design(gen, n)
        try:
            values.append(mean_term(design, target, true_model, wrong_model))
        except NumericalFailureError as exc:
            return {"status": f"mean probe degenerate at n={n}: {exc}",
                    "design_sizes": sizes, "values": values, "grade": INCONCLUSIVE}
        sizes.append(n)
    decreasing = all(a >= b for a, b in zip(values, values[1:]))
    grade = CONSISTENT if decreasing and values[-1] < values[0] else INCONCLUSIVE
    return {"status": "normalized interpolation error of the mean difference",
            "design_sizes": sizes, "values": values, "grade": grade}


def _grade(record: dict | None, true_kernel, mean_probe) -> dict:
    """Grades from the primary route's record; no record reads inconclusive."""
    kind = LimitKind(record["kind"]) if record else LimitKind.INCONCLUSIVE
    if kind is LimitKind.CONVERGES:
        ratio_grade = f"{CONSISTENT} (a~{record['a_estimate']:.6g})"
        equivalence_grade = CONSISTENT
    elif kind is LimitKind.INCONCLUSIVE:
        ratio_grade = INCONCLUSIVE
        equivalence_grade = INCONCLUSIVE
    else:
        ratio_grade = INCONSISTENT
        # a diverging ratio rules out variance-norm equivalence outright for
        # finitely smooth covariances
        equivalence_grade = (INCONSISTENT
                             if true_kernel.infinitely_differentiable is False
                             else INCONCLUSIVE)
    return {
        "variance_norm_equivalence": equivalence_grade,
        "bounded_ratio_limit": ratio_grade,
        "mean_difference": mean_probe.get("grade", INCONCLUSIVE),
    }
