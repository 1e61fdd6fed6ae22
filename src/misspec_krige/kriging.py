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

from .errors import DomainError, IllConditionedDesignError, NumericalFailureError
from .kernels import CovarianceKernel
from .kernels.base import euclidean, map_blocks

MeanFunction = Callable[[np.ndarray], float]

#: jitter ladder for near-singular Gram matrices, relative to tr(Sigma)/n
JITTER_START = 1e-12
JITTER_MAX = 1e-6

#: ``_dot`` sums intercepts and error means with compensated summation from
#: this vector length upward
_COMPENSATED_FROM = 256

_NEGATIVE_VARIANCE_TOL = 1e-10

#: site-pair distances per block of the pairwise-distinct check of a design
_DISTINCT_BLOCK_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# mean functions
# ---------------------------------------------------------------------------

def zero_mean(x) -> float:
    return 0.0


def constant_mean(value: float) -> MeanFunction:
    def mean(x) -> float:
        return value
    mean.__name__ = f"constant_mean({value!r})"
    return mean


def linear_mean(intercept: float, slope) -> MeanFunction:
    """intercept + <slope, x>; slope may be a scalar for 1-d domains."""
    slope_arr = np.atleast_1d(np.asarray(slope, dtype=float))

    def mean(x) -> float:
        return intercept + float(slope_arr @ np.atleast_1d(np.asarray(x, dtype=float)))
    mean.__name__ = f"linear_mean({intercept!r}, {slope!r})"
    return mean


def kink_mean(x0, alpha: float, scale: float = 1.0) -> MeanFunction:
    """scale * |x - x0|^alpha, a non-smooth bump used to stress mean checks."""
    x0_arr = np.atleast_1d(np.asarray(x0, dtype=float))

    def mean(x) -> float:
        d = np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float)) - x0_arr)
        return scale * float(d) ** alpha
    mean.__name__ = f"kink_mean({x0!r}, {alpha!r})"
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


def _coincident(sites: np.ndarray) -> bool:
    """True when two sites lie at computed Euclidean distance 0, an underflow
    included; the distances are taken one block of rows at a time."""
    n = len(sites)
    rows = max(1, _DISTINCT_BLOCK_ENTRIES // n)
    for start in range(0, n - 1, rows):
        block = euclidean(sites[start:start + rows], sites[start:])
        if np.triu(block <= 0.0, 1).any():
            return True
    return False


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
        if _coincident(sites):
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
        if not np.all(np.isfinite(sites)):
            raise DomainError("target sites must be finite")
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
    own-measure optimality.
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
        3x anyway, and the rounded value is reproducible."""
        rcond, _ = scipy.linalg.lapack.dpocon(self.lower, np.linalg.norm(self.matrix, 1),
                                              uplo="L")
        return float(f"{1.0 / rcond:.12g}") if rcond > 0.0 else math.inf

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = scipy.linalg.cho_solve((self.lower, True), rhs)
        residual = rhs.astype(np.longdouble) - _long_dot(self.matrix, x.astype(np.longdouble))
        return x + scipy.linalg.cho_solve((self.lower, True),
                                          residual.astype(float))


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
    """Mean, variance and second moment of a predictor's error under one model."""

    mean: float
    variance: float
    second_moment: float = field(init=False)

    def __post_init__(self):
        if self.variance < -_NEGATIVE_VARIANCE_TOL:
            raise NumericalFailureError(
                f"error variance {self.variance:.3e} is negative beyond tolerance")
        variance = max(self.variance, 0.0)
        object.__setattr__(self, "variance", variance)
        try:
            object.__setattr__(self, "second_moment", variance + self.mean ** 2)
        except OverflowError:
            raise NumericalFailureError(
                f"error mean {self.mean:.3e} overflows when squared") from None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_gram(design: Design, kernel: CovarianceKernel) -> GramFactor:
    """Cholesky-factorize the design covariance matrix with an escalating
    jitter ladder (1e-12 .. 1e-6 times tr(Sigma)/n) for near-singular cases."""
    sigma = kernel.gram(design.sites)
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
    # the blocks work in the caller's buffer: what a pool thread allocates
    # stays in its own malloc arena, held against the peak RSS
    llt = np.empty_like(system)

    def resid_rows(start: int, stop: int) -> float:
        block = np.matmul(lower[start:stop], lower.T, out=llt[start:stop])
        block -= system[start:stop]
        return float(np.max(np.abs(block, out=block)))
    # a BLAS float64 multiply-add costs under 1/16 of an 80-bit one, and numpy
    # forms an unsplit LL^T by syrk in half the flops: splits pay from n = 256
    resid = max(map_blocks(resid_rows, design.n, float(design.n) ** 3 / 16))
    if resid > 1e-8 * float(np.max(np.diag(sigma))):
        raise NumericalFailureError(
            f"Cholesky reconstruction error {resid:.3e} exceeds tolerance")
    return GramFactor(lower=lower, jitter=jitter, matrix=system, sigma=sigma)


def _long_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a, b)`` of a 2-d ``a`` in 80-bit precision, in row blocks over
    the block threads.  np.dot sums each 80-bit row product in order, as
    matmul does, but holds the running sum in a register instead of storing
    it per term; each row is its own sums, so the bits are those of one call."""
    a = np.asarray(a, dtype=np.longdouble)
    out = np.empty((len(a),) + b.shape[1:], dtype=np.longdouble)

    def rows(start: int, stop: int) -> None:
        np.dot(a[start:stop], b, out=out[start:stop])
    map_blocks(rows, len(a), a.size * (b.size // len(b)))
    return out


def _leading_minor(exc: Exception) -> int | None:
    match = re.search(r"(\d+)-th leading minor", str(exc))
    return int(match.group(1)) if match else None


class LevelSystem:
    """What a kernel fixes at a schedule level: the factored design Gram, each
    target's cross-covariance and target block (all from one ``gram_pairs``
    call) and each target's kriging weights (one multi-column solve).  Models
    sharing the kernel share the system; their means enter only through
    ``predictors`` (the intercepts) and ``moments`` (the error means)."""

    def __init__(self, design: Design, targets, kernel: CovarianceKernel):
        self.design, self.targets = design, list(targets)
        self.gram = build_gram(design, kernel)
        # (t, t), not (t, None): the same doubles without the triangle set-up
        blocks = kernel.gram_pairs([(t.sites, design.sites) for t in self.targets]
                                   + [(t.sites, t.sites) for t in self.targets])
        self.cross, self.tblocks = blocks[:len(self.targets)], blocks[len(self.targets):]
        rhs = np.column_stack([t.coeffs @ c for t, c in zip(self.targets, self.cross)])
        self.weights = np.ascontiguousarray(self.gram.solve(rhs).T)

    def predictors(self, model: GaussianModel) -> list[LinearPredictor]:
        """Every target's best linear predictor under ``model``."""
        m_design = model.mean_at(self.design.sites)
        return [LinearPredictor(self.design, w,
                                intercept=(t.intercept_coeff
                                           + float(t.coeffs @ model.mean_at(t.sites))
                                           - _dot(w, m_design)))
                for t, w in zip(self.targets, self.weights)]

    def moments(self, predictor_sets, model: GaussianModel) -> list[list[ErrorMoments]]:
        """Moments under ``model`` of each set's per-target predictors."""
        return _moment_block(predictor_sets, self.targets, self.gram.sigma, self.cross,
                             self.tblocks, model.mean_at(self.design.sites),
                             [model.mean_at(t.sites) for t in self.targets])


def kriging_predictor(target: TargetFunctional, design: Design,
                      model: GaussianModel) -> LinearPredictor:
    """Best linear predictor of the target under the given model."""
    return LevelSystem(design, [target], model.kernel).predictors(model)[0]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # compensated accumulation once vectors are long enough for cancellation
    # to matter in the vanishing-variance regime
    if a.shape[0] >= _COMPENSATED_FROM:
        return math.fsum((a * b).tolist())
    return float(a @ b)


def error_moments(pred: LinearPredictor, target: TargetFunctional,
                  eval_model: GaussianModel) -> ErrorMoments:
    """Exact moments of prediction - h when the field follows ``eval_model``."""
    kernel, sites = eval_model.kernel, pred.design.sites
    return _moments_from_pieces(
        pred, target, kernel.gram(sites), kernel.gram(target.sites, sites),
        kernel.gram(target.sites), eval_model.mean_at(sites), eval_model.mean_at(target.sites))


def _moments_from_pieces(pred: LinearPredictor, target: TargetFunctional,
                         sigma: np.ndarray, cross: np.ndarray, tblock: np.ndarray,
                         m_design: np.ndarray, m_target: np.ndarray) -> ErrorMoments:
    return _moment_block([[pred]], [target], sigma, [cross], [tblock],
                         m_design, [m_target])[0][0]


def _moment_block(predictor_sets, targets, sigma: np.ndarray, cross, tblocks,
                  m_design: np.ndarray, m_targets) -> list[list[ErrorMoments]]:
    """Moments of ``predictor_sets[s][t]``, a predictor of ``targets[t]``, under
    the measure with design block ``sigma``, per-target cross-covariances
    (L_t, n) and target blocks, and means ``m_design`` and ``m_targets``."""
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
    # sum the same way.  So u = v'(K - c 11') sums over the design sites (down
    # contiguous columns of the Fortran-ordered design block), then over the
    # own sites, and the quadratic form over (design, own sites).  A
    # predictor's v is zero on the other targets' sites, and the padding of
    # shorter targets adds only 0 * 0 terms.  An exact zero term leaves a
    # nonzero sum unchanged, so leaving the former out and the latter in
    # reproduces bit for bit the sums over [design; every target's sites].
    n_sets, n_targets, n = len(predictor_sets), len(targets), sigma.shape[0]
    width = max(len(t.coeffs) for t in targets)
    anchor = np.longdouble(sigma[0, 0])
    kdd = np.asfortranarray(sigma, dtype=np.longdouble) - anchor
    kc = np.zeros((n_targets, width, n), dtype=np.longdouble)
    kt = np.zeros((n_targets, width, width), dtype=np.longdouble)
    vo = np.zeros((n_targets, width), dtype=np.longdouble)
    for t, (target, c, tblock) in enumerate(zip(targets, cross, tblocks)):
        size = len(target.coeffs)
        kc[t, :size], kt[t, :size, :size] = c - anchor, tblock - anchor
        vo[t, :size] = -target.coeffs
    vd = np.array([[pred.weights for pred in preds] for preds in predictor_sets],
                  dtype=np.longdouble)
    ud = _long_dot(vd.reshape(-1, n), kdd).reshape(vd.shape)
    uo = (vd[..., None, :] @ kc.transpose(0, 2, 1))[..., 0, :]
    for l in range(width):
        ud += vo[:, l, None] * kc[:, l]
        uo += vo[:, l, None] * kt[:, l]
    v = np.concatenate([vd, np.broadcast_to(vo, (n_sets, n_targets, width))], axis=-1)
    quad = (np.concatenate([ud, uo], axis=-1)[..., None, :] @ v[..., None])[..., 0, 0]
    moments = []
    for preds, quads in zip(predictor_sets, quad):
        row = []
        for pred, target, m_target, q in zip(preds, targets, m_targets, quads):
            mean = (pred.intercept + _dot(pred.weights, m_design)
                    - (target.intercept_coeff + float(target.coeffs @ m_target)))
            tilt = np.longdouble(math.fsum(pred.weights.tolist() + (-target.coeffs).tolist()))
            row.append(ErrorMoments(mean=mean, variance=float(q + anchor * tilt ** 2)))
        moments.append(row)
    return moments
