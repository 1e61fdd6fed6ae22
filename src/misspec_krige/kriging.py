"""Best linear prediction and exact error moments under a second model.

Given observations of a field at design sites x_1..x_n and a model
(m, rho), the best linear predictor of a target functional
h = a_0 + sum_l b_l Z(t_l) is

    prediction(z) = intercept + w' z,
    Sigma w = c,        [Sigma]_ij = rho(x_i, x_j),
    [c]_i = sum_l b_l rho(t_l, x_i),
    intercept = a_0 + sum_l b_l m(t_l) - w' m_n.

Because a predictor is just (weights, intercept), its error moments under any
other model (m'', rho'') are exact bilinear-form evaluations; no sampling is
involved anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (DomainError, IllConditionedDesignError, NegativeVarianceError,
                     NumericalFailureError)
from .kernels import CovarianceKernel
from .kernels.base import euclidean, map_blocks

MeanFunction = Callable[[np.ndarray], float]

#: jitter ladder for near-singular Gram matrices, relative to tr(Sigma)/n
JITTER_START = 1e-12
JITTER_MAX = 1e-6

#: ``_row_dots`` sums intercepts and error means with compensated summation
#: from this vector length upward
_COMPENSATED_FROM = 256

_NEGATIVE_VARIANCE_TOL = 1e-10

#: matrix entries a block thread converts, multiplies or checks at a time: a
#: level's n x n steps go in slabs of ``_SLAB // n`` rows or columns, so none
#: holds a whole 80-bit copy of a Gram or an n x n buffer, and every product
#: at n <= 128 is one slab per thread
_SLAB = 1 << 16


# ---------------------------------------------------------------------------
# mean functions
# ---------------------------------------------------------------------------

def zero_mean(x) -> float:
    return 0.0


def constant_mean(value: float) -> MeanFunction:
    def mean(x) -> float:
        return value
    return mean


def linear_mean(intercept: float, slope) -> MeanFunction:
    """intercept + <slope, x>; slope may be a scalar for 1-d domains."""
    slope_arr = np.atleast_1d(np.asarray(slope, dtype=float))

    def mean(x) -> float:
        return intercept + float(slope_arr @ np.atleast_1d(np.asarray(x, dtype=float)))
    return mean


def kink_mean(x0, alpha: float, scale: float = 1.0) -> MeanFunction:
    """scale * |x - x0|^alpha, a non-smooth bump used to stress mean checks."""
    x0_arr = np.atleast_1d(np.asarray(x0, dtype=float))

    def mean(x) -> float:
        d = np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float)) - x0_arr)
        return scale * float(d) ** alpha
    return mean


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianModel:
    """A mean function paired with a covariance kernel."""

    mean: MeanFunction
    kernel: CovarianceKernel
    label: str = ""

    def mean_at(self, points: np.ndarray) -> np.ndarray:
        return np.array([self.mean(p) for p in np.atleast_2d(points)], dtype=float)


@dataclass(frozen=True, eq=False)
class Design:
    """Ordered, pairwise-distinct observation sites."""

    sites: np.ndarray

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        if sites.ndim != 2 or sites.shape[0] < 1:
            raise DomainError("a design needs at least one site")
        if not np.all(np.isfinite(sites)):
            raise DomainError("design sites must be finite")
        # a computed distance of 0, an underflow included, makes two sites one
        if np.triu(euclidean(sites, sites) <= 0.0, 1).any():
            raise DomainError("design sites must be pairwise distinct")
        object.__setattr__(self, "sites", sites)

    @property
    def n(self) -> int:
        return int(self.sites.shape[0])


@dataclass(frozen=True, eq=False)
class TargetFunctional:
    """A finite linear functional a_0 + sum_l b_l Z(t_l) to be predicted."""

    intercept_coeff: float
    sites: np.ndarray
    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if sites.shape[0] != coeffs.shape[0]:
            raise DomainError("one coefficient per target site is required")
        for name, value in (("sites", sites), ("coeffs", coeffs),
                            ("intercept_coeff", self.intercept_coeff)):
            if not np.all(np.isfinite(value)):
                raise DomainError(f"target {name} must be finite")
        if not np.any(coeffs != 0.0):
            raise DomainError("a target needs at least one nonzero site coefficient")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def point(cls, site, label: str = "") -> "TargetFunctional":
        return cls(0.0, np.atleast_2d(np.asarray(site, dtype=float)), np.array([1.0]),
                   label=label)


@dataclass(frozen=True, eq=False)
class GramFactor:
    """Cholesky factor of the (possibly jittered) design covariance matrix.

    ``matrix`` holds the system that was factored (``sigma``, the covariance,
    plus jitter); solves of an (n,) or (n, k) right-hand side do one
    extended-precision residual-refinement pass, which matters on clustered
    designs where plain solves lose enough digits to erode the predictors'
    own-measure optimality.  A level drops its factor after the solve.
    """

    lower: np.ndarray
    jitter: float
    matrix: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return int(self.lower.shape[0])

    @property
    def inverse_rcond(self) -> float:
        """1/rcond of the factored system in the 1-norm: LAPACK ``dpocon`` on
        the factor, O(n^2), rounded to 12 significant digits.  ``dpocon``'s
        last digits depend on where its workspace lands in memory, so the same
        factor can give two values in one process; the estimate errs by up to
        3x anyway, and the rounded value is reproducible.  The 1-norm sums each
        column in order, as np.linalg.norm, a slab of rows at a time."""
        sums = np.zeros(self.n)
        for lo, hi, block in _slabs(0, self.n, self.n, float):
            np.abs(self.matrix[lo:hi], out=block)
            block[0] += sums
            sums = np.add.reduce(block, axis=0)
        rcond, _ = scipy.linalg.lapack.dpocon(self.lower, sums.max(), uplo="L")
        return float(f"{1.0 / rcond:.12g}") if rcond > 0.0 else math.inf

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # ``scipy.linalg.cholesky`` checked the input of ``lower``: only the
        # n x k right-hand side is checked, not the n x n factor per solve
        if not np.all(np.isfinite(rhs)):
            raise DomainError("the right-hand side of a solve must be finite")
        x = scipy.linalg.cho_solve((self.lower, True), rhs, check_finite=False)
        residual = rhs.astype(np.longdouble) - _long_dot(self.matrix, x.astype(np.longdouble))
        return x + scipy.linalg.cho_solve((self.lower, True), residual.astype(float),
                                          check_finite=False)


@dataclass(frozen=True, eq=False)
class LinearPredictor:
    """Intercept plus weights over a design; applying it to observed values z
    gives intercept + weights . z."""

    design: Design
    weights: np.ndarray
    intercept: float

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape[0] != self.design.n:
            raise DomainError("weight vector length must equal the design size")
        if not np.all(np.isfinite(w)) or not math.isfinite(self.intercept):
            raise DomainError("predictor weights and intercept must be finite")
        object.__setattr__(self, "weights", w)

    def predict(self, observed: np.ndarray) -> float:
        return self.intercept + float(self.weights @ np.asarray(observed, dtype=float))


@dataclass(frozen=True)
class ErrorMoments:
    """Mean, variance and second moment of a predictor's error under one model:
    ``_moment_rules`` of an ``_error_means`` entry and a ``_variances`` entry."""

    mean: float
    variance: float
    second_moment: float = field(init=False)

    def __post_init__(self):
        variance, _, second_moment = _moment_rules(self.mean, self.variance)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "second_moment", second_moment)


def _moment_rules(mean: float, variance: float) -> tuple[float, float, float]:
    """An error's clamped variance, squared mean and second moment: the one
    place a mean is squared.  The square is ``mean * mean``, correctly rounded
    on every IEEE platform, as an array's ``** 2`` is; Python's ``mean ** 2``
    calls libm ``pow``, which is not, and rounds some means one bit apart."""
    if variance < -_NEGATIVE_VARIANCE_TOL:
        raise NegativeVarianceError(f"error variance {variance:.3e} is negative beyond tolerance")
    variance = max(variance, 0.0)
    square = mean * mean
    if math.isinf(square) and math.isfinite(mean):
        raise NumericalFailureError(f"error mean {mean:.3e} overflows when squared")
    return variance, square, variance + square


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_gram(design: Design, kernel: CovarianceKernel,
               sigma: np.ndarray | None = None) -> GramFactor:
    """Cholesky-factorize the design covariance matrix with an escalating
    jitter ladder (1e-12 .. 1e-6 times tr(Sigma)/n) for near-singular cases.
    ``sigma``, when given, is ``kernel.gram(design.sites)`` already evaluated."""
    sigma = kernel.gram(design.sites) if sigma is None else sigma
    if sigma.shape != (design.n,) * 2:
        raise DomainError(f"sigma has shape {sigma.shape}, not {(design.n,) * 2}")
    scale = float(np.trace(sigma)) / design.n
    if not scale > 0.0:
        raise NumericalFailureError("covariance matrix has nonpositive trace")
    ladder = [0.0] + [JITTER_START * 10.0 ** k * scale
                      for k in range(int(math.log10(JITTER_MAX / JITTER_START)) + 1)]
    lower = None
    last_error: Exception | None = None
    jitter = 0.0
    for jitter in ladder:
        system = sigma + jitter * np.eye(design.n) if jitter else sigma
        try:
            lower = scipy.linalg.cholesky(system, lower=True)
            break
        except scipy.linalg.LinAlgError as exc:
            last_error = exc
    if lower is None:
        minor = _leading_minor(last_error)
        raise IllConditionedDesignError(
            f"Gram factorization failed up to jitter {jitter:.3e}"
            + (f" (leading minor {minor})" if minor else ""),
            leading_minor=minor, max_jitter=jitter) from last_error

    def resid_rows(start: int, stop: int) -> float:
        # rows lo:hi of L are zero from column hi on, so their rows of LL^T
        # need L's first hi columns only; one slab of the whole matrix is the
        # unsplit LL^T, which numpy forms by syrk
        worst = 0.0
        for lo, hi, block in _slabs(start, stop, design.n, float):
            np.matmul(lower[lo:hi, :hi], lower[:, :hi].T, out=block)
            block -= system[lo:hi]
            worst = max(worst, float(np.max(np.abs(block, out=block))))
        return worst
    # a BLAS float64 multiply-add costs under 1/16 of an 80-bit one, and numpy
    # forms an unsplit LL^T by syrk in half the flops: splits pay from n = 256
    resid = max(map_blocks(resid_rows, design.n, float(design.n) ** 3 / 16))
    if resid > 1e-8 * float(np.max(np.diag(sigma))):
        raise NumericalFailureError(
            f"Cholesky reconstruction error {resid:.3e} exceeds tolerance")
    return GramFactor(lower=lower, jitter=jitter, matrix=system, sigma=sigma)


def _slabs(start: int, stop: int, n: int, dtype):
    """``(lo, hi, block)`` over consecutive ranges covering ``range(start, stop)``
    of the rows or columns of an n x n matrix, ``_SLAB // n`` to a range (at
    least one).  ``block`` is a (hi - lo, n) view of one C-ordered ``dtype``
    buffer that every range reuses, so a block thread holds one slab at a time."""
    step = min(max(1, _SLAB // n), stop - start)
    buffer = np.empty((step, n), dtype=dtype)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        yield lo, hi, buffer[:hi - lo]


def _long_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a, b)`` of a 2-d float64 ``a`` in 80-bit precision, in row
    blocks over the block threads, each converting its rows of ``a`` a slab at
    a time.  np.dot sums each 80-bit row product in order, as matmul does, but
    holds the running sum in a register instead of storing it per term; each
    row is its own sums, so the bits are those of one call."""
    out = np.empty((len(a),) + b.shape[1:], dtype=np.longdouble)

    def rows(start: int, stop: int) -> None:
        for lo, hi, block in _slabs(start, stop, a.shape[1], np.longdouble):
            block[...] = a[lo:hi]
            np.dot(block, b, out=out[lo:hi])
    map_blocks(rows, len(a), a.size * (b.size // len(b)))
    return out


def _leading_minor(exc: Exception) -> int | None:
    match = re.search(r"(\d+)-th leading minor", str(exc))
    return int(match.group(1)) if match else None


class LevelSystem:
    """What a kernel fixes at a schedule level: the design Gram ``sigma``, its
    only n x n array, the cross block of every target's sites, stacked once
    (target t in rows ``offsets[t]:offsets[t + 1]``), and each target's
    kriging weights (one multi-column solve) and tilt.  One ``gram_pairs``
    call gives the Gram and the cross block; the targets' own blocks, which
    no design enters, come from ``own_blocks`` once per run.  Models sharing
    the kernel share the system and its ``moment_block``, the error
    variances; a model enters through its ``means``, from which
    ``_error_means`` forms the error means."""

    def __init__(self, design: Design, targets, kernel: CovarianceKernel):
        self.design, self.targets, self.kernel = design, list(targets), kernel
        self.offsets = np.cumsum([0] + [len(t.coeffs) for t in self.targets])
        self.sites = _stacked_sites(self.targets)
        self.sigma, cross = kernel.gram_pairs([(design.sites, None), (self.sites, design.sites)])
        # copies, and no view left: a view would hold the whole evaluation
        # buffer, the design's triangle included, through the factorization
        self.cross = [cross[lo:hi].copy() for lo, hi in zip(self.offsets, self.offsets[1:])]
        del cross
        rhs = np.column_stack([t.coeffs @ c for t, c in zip(self.targets, self.cross)])
        # the factor, and Sigma plus jitter if any, live for the solve only
        factor = build_gram(design, kernel, sigma=self.sigma)
        self.weights = np.ascontiguousarray(factor.solve(rhs).T)
        del factor
        if not np.all(np.isfinite(self.weights)):
            raise DomainError("predictor weights and intercept must be finite")
        self.tilts = _tilts(self.weights, [t.coeffs for t in self.targets])

    def means(self, model: GaussianModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``model``'s mean m_n at the design sites, each target's a_0 + b . m(t)
        from one evaluation at the stacked sites, and each target's intercept
        a_0 + b . m(t) - w . m_n."""
        m_design = model.mean_at(self.design.sites)
        values = _target_values(self.targets, model.mean_at(self.sites))
        intercepts = values - _row_dots(self.weights, m_design)
        if not np.all(np.isfinite(intercepts)):
            raise DomainError("predictor weights and intercept must be finite")
        return m_design, values, intercepts

    def conditioning(self) -> dict[str, float]:
        """Jitter and 1/rcond of ``sigma``'s factor, made anew and dropped on return."""
        factor = build_gram(self.design, self.kernel, sigma=self.sigma)
        return {"jitter": factor.jitter, "inverse_rcond": factor.inverse_rcond}

    def moment_block(self, weights, tilts, tblocks) -> np.ndarray:
        """``_variances`` under this kernel, ``tblocks`` being its targets'
        ``own_blocks``: the kernel's part of the moments, which no mean enters."""
        return _variances(weights, tilts, self.sigma, self.cross, tblocks,
                          [t.coeffs for t in self.targets])


def own_blocks(targets, kernel: CovarianceKernel) -> list[np.ndarray]:
    """Each target's block k(t, t), which no design enters, from one request;
    as (t, t), not (t, None): the same doubles without the triangle set-up."""
    return kernel.gram_pairs([(t.sites, t.sites) for t in targets])


def _stacked_sites(targets) -> np.ndarray:
    """Every target's sites, stacked in target order; all must share one dimension."""
    if len({t.sites.shape[1] for t in targets}) > 1:
        raise DomainError("every target's sites must have one dimension, the domain's")
    return np.concatenate([t.sites for t in targets])


def kriging_predictor(target: TargetFunctional, design: Design,
                      model: GaussianModel) -> LinearPredictor:
    """Best linear predictor of the target under the given model."""
    system = LevelSystem(design, [target], model.kernel)
    return LinearPredictor(design, system.weights[0], float(system.means(model)[2][0]))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot of every row of the 2-d ``a`` with ``b``: one BLAS dot per row in
    one batched call (an ``a @ b`` gemv rounds otherwise), or, once rows are
    long enough for cancellation to matter in the vanishing-variance regime,
    ``math.fsum`` of each row's products."""
    if a.shape[1] >= _COMPENSATED_FROM:
        return np.array([math.fsum((row * b).tolist()) for row in a])
    return (a[:, None, :] @ b[:, None])[:, 0, 0]


def _target_values(targets, m_sites: np.ndarray) -> np.ndarray:
    """Each target's a_0 + b . m(t), ``m_sites`` being the mean at the targets'
    stacked sites: one BLAS dot ``b @ m`` per target."""
    ends = np.cumsum([len(t.coeffs) for t in targets]).tolist()
    return np.array([t.intercept_coeff + t.coeffs @ m_sites[end - len(t.coeffs):end]
                     for t, end in zip(targets, ends)])


def _error_means(weights: np.ndarray, intercepts, m_design, values) -> np.ndarray:
    """The model's part of the moments: the (S, T) error means of the
    predictors with (S, T, n) ``weights`` and (S, T) ``intercepts`` under the
    mean whose ``means`` are ``m_design`` and ``values``, c + w . m_n - values."""
    n_sets, _, n = weights.shape
    return intercepts + _row_dots(weights.reshape(-1, n), m_design).reshape(n_sets, -1) - values


def _tilts(weights: np.ndarray, coeffs) -> np.ndarray:
    """``math.fsum`` of each predictor's (w, -b), row t of ``weights`` and
    ``-coeffs[t]``, in 80 bits: the exactly rounded sum of its v."""
    return np.array([math.fsum(w.tolist() + (-b).tolist()) for w, b in zip(weights, coeffs)],
                    dtype=np.longdouble)


def error_moments(pred: LinearPredictor, target: TargetFunctional,
                  eval_model: GaussianModel) -> ErrorMoments:
    """Exact moments of prediction - h when the field follows ``eval_model``; its
    kernel blocks come from one request, as a level's do."""
    sites = pred.design.sites
    return _moments_from_pieces(pred, target, *eval_model.kernel.gram_pairs(
        [(sites, None), (target.sites, sites), (target.sites, target.sites)]),
        eval_model.mean_at(sites), eval_model.mean_at(target.sites))


def _moments_from_pieces(pred: LinearPredictor, target: TargetFunctional,
                         sigma: np.ndarray, cross: np.ndarray, tblock: np.ndarray,
                         m_design: np.ndarray, m_target: np.ndarray) -> ErrorMoments:
    weights, coeffs = np.array([[pred.weights]]), [target.coeffs]
    mean = _error_means(weights, pred.intercept, m_design, _target_values([target], m_target))
    variance = _variances(weights, _tilts(weights[0], coeffs)[None], sigma, [cross], [tblock],
                          coeffs)
    return ErrorMoments(mean.item(), variance.item())


def _variances(weights: np.ndarray, tilts, sigma: np.ndarray, cross, tblocks, coeffs):
    """The (S, T) unclamped error variances of the predictors with (S, T, n)
    ``weights`` and (S, T) ``tilts`` under the kernel with design block
    ``sigma`` and per-target cross blocks and blocks."""
    # The variance is v' K v with v = (w, -beta) over design + own target
    # sites.  Its summands are O(1) but cancel down to the kriging variance,
    # which clustered designs push to ~1e-9; assembling naively loses the
    # record invariants' 1e-10 slack to roundoff.  Two measures keep the error
    # at the scale of the result: (1) recenter the kernel block at its leading
    # diagonal value, v'Kv = v'(K - c 11')v + c (sum v)^2, which shrinks the
    # summands to the kernel's local variation exactly where v concentrates,
    # with the tilt term summed exactly-rounded; (2) accumulate in 80-bit
    # precision.  Every sum below adds its terms one at a time, in index
    # order, starting from 0, as numpy's longdouble loops do: ``np.dot``
    # keeps the running sum in an 80-bit register, matmul stores it back after
    # each term, and each ``u += v_l * K_l`` step rounds its product and its
    # sum the same way.  So u = v'(K - c 11') sums over the design sites, then
    # over the own sites, and the quadratic form over (design, own sites).
    # The design part of u goes in column slabs of Sigma, split over the block
    # threads: each slab is converted to 80 bits in Fortran order, recentered,
    # and multiplied by every v, so each entry of u is still one in-order sum
    # down a contiguous column, whatever the slab or split.  Sigma's symmetry
    # is not used: a periodic Gram is not exactly symmetric.  A
    # predictor's v is zero on the other targets' sites, and the padding of
    # shorter targets adds only 0 * 0 terms.  An exact zero term leaves a
    # nonzero sum unchanged, so leaving the former out and the latter in
    # reproduces bit for bit the sums over [design; every target's sites].
    n_sets, n_targets, n = weights.shape
    # each target's rows and own-block entries in C order, as their
    # concatenations hold them, by one mask scatter per array
    held = np.arange(max(len(b) for b in coeffs)) < np.array([[len(b)] for b in coeffs])
    width, anchor = held.shape[1], np.longdouble(sigma[0, 0])
    kc = np.zeros((n_targets, width, n), dtype=np.longdouble)
    kt = np.zeros((n_targets, width, width), dtype=np.longdouble)
    vo = np.zeros((n_targets, width), dtype=np.longdouble)
    kc[held], vo[held] = np.concatenate(cross) - anchor, -np.concatenate(coeffs)
    kt[held[:, :, None] & held[:, None, :]] = \
        np.concatenate([block.ravel() for block in tblocks]) - anchor
    vd = weights.astype(np.longdouble)
    rows = vd.reshape(-1, n)
    ud = np.empty_like(rows)

    def columns(start: int, stop: int) -> None:
        for lo, hi, block in _slabs(start, stop, n, np.longdouble):
            slab = block.T  # Fortran-ordered: its columns are contiguous
            slab[...] = sigma[:, lo:hi]
            slab -= anchor
            ud[:, lo:hi] = np.dot(rows, slab)
    map_blocks(columns, n, rows.size * n)
    ud = ud.reshape(vd.shape)
    uo = (vd[..., None, :] @ kc.transpose(0, 2, 1))[..., 0, :]
    for l in range(width):
        ud += vo[:, l, None] * kc[:, l]
        uo += vo[:, l, None] * kt[:, l]
    v = np.concatenate([vd, np.broadcast_to(vo, (n_sets, n_targets, width))], axis=-1)
    quad = (np.concatenate([ud, uo], axis=-1)[..., None, :] @ v[..., None])[..., 0, 0]
    return (quad + anchor * tilts ** 2).astype(float)
