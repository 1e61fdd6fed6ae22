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

MeanFunction = Callable[[np.ndarray], float]

#: jitter ladder for near-singular Gram matrices, relative to tr(Sigma)/n
JITTER_START = 1e-12
JITTER_MAX = 1e-6

#: moment assemblies switch to compensated summation from this size upward
_COMPENSATED_FROM = 256

_NEGATIVE_VARIANCE_TOL = 1e-10


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


@dataclass(frozen=True, eq=False)
class Design:
    """Ordered, pairwise-distinct observation sites."""

    sites: np.ndarray

    def __post_init__(self):
        sites = np.atleast_2d(np.asarray(self.sites, dtype=float))
        if sites.ndim != 2 or sites.shape[0] < 1:
            raise DomainError("a design needs at least one site")
        if sites.shape[0] > 1:
            from scipy.spatial.distance import pdist
            if float(pdist(sites).min()) <= 0.0:
                raise DomainError("design sites must be pairwise distinct")
        object.__setattr__(self, "sites", sites)

    @property
    def n(self) -> int:
        return int(self.sites.shape[0])

    def append(self, new_sites) -> "Design":
        extra = np.atleast_2d(np.asarray(new_sites, dtype=float))
        return Design(np.vstack([self.sites, extra]))


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
    cond_estimate: float
    matrix: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return int(self.lower.shape[0])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = scipy.linalg.cho_solve((self.lower, True), rhs)
        residual = (rhs.astype(np.longdouble)
                    - self.matrix.astype(np.longdouble) @ x.astype(np.longdouble))
        return x + scipy.linalg.cho_solve((self.lower, True),
                                          residual.astype(float))


@dataclass(frozen=True, eq=False)
class LinearPredictor:
    """Intercept plus weights over a design; applying it to observed values z
    gives intercept + weights . z."""

    design: Design
    weights: np.ndarray
    intercept: float
    built_under: str = ""

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
        object.__setattr__(self, "second_moment", variance + self.mean ** 2)


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
        try:
            lower = scipy.linalg.cholesky(sigma + jitter * np.eye(design.n), lower=True)
            break
        except scipy.linalg.LinAlgError as exc:
            last_error = exc
    if lower is None:
        minor = _leading_minor(last_error)
        raise IllConditionedDesignError(
            f"Gram factorization failed up to jitter {jitter:.3e}"
            + (f" (leading minor {minor})" if minor else ""),
            leading_minor=minor, max_jitter=jitter) from last_error
    diag = np.diag(lower)
    cond_estimate = float((diag.max() / diag.min()) ** 2)
    system = sigma + jitter * np.eye(design.n) if jitter else sigma
    resid = float(np.max(np.abs(lower @ lower.T - system)))
    if resid > 1e-8 * float(np.max(np.diag(sigma))):
        raise NumericalFailureError(
            f"Cholesky reconstruction error {resid:.3e} exceeds tolerance")
    return GramFactor(lower=lower, jitter=jitter, cond_estimate=cond_estimate,
                      matrix=system, sigma=sigma)


def _leading_minor(exc: Exception) -> int | None:
    match = re.search(r"(\d+)-th leading minor", str(exc))
    return int(match.group(1)) if match else None


class LevelSystem:
    """One model's share of a schedule level: the factored design Gram, each
    target's cross-covariance and the means, each evaluated once.  The model
    builds predictors (``predictors``) and serves as a measure (``moments``)."""

    def __init__(self, design: Design, targets, model: GaussianModel,
                 gram: GramFactor | None = None):
        self.design, self.targets, self.model = design, list(targets), model
        self.gram = build_gram(design, model.kernel) if gram is None else gram
        self.cross = [model.kernel.gram(t.sites, design.sites) for t in self.targets]
        self.m_design = model.mean_at(design.sites)
        self.m_targets = [model.mean_at(t.sites) for t in self.targets]

    def predictors(self) -> list[LinearPredictor]:
        """Every target's best linear predictor, from one multi-column solve."""
        rhs = np.column_stack([t.coeffs @ c for t, c in zip(self.targets, self.cross)])
        weights = np.ascontiguousarray(self.gram.solve(rhs).T)
        return [LinearPredictor(self.design, w, built_under=self.model.label,
                                intercept=(t.intercept_coeff + float(t.coeffs @ m_t)
                                           - _dot(w, self.m_design)))
                for t, m_t, w in zip(self.targets, self.m_targets, weights)]

    def moments(self, predictor_sets) -> list[list[ErrorMoments]]:
        """Moments under this model of each set's per-target predictors."""
        tblocks = [self.model.kernel.gram(t.sites) for t in self.targets]
        return _moment_block(predictor_sets, self.targets, self.gram.sigma, self.cross,
                             tblocks, self.m_design, self.m_targets)


def kriging_predictor(target: TargetFunctional, design: Design, model: GaussianModel,
                      gram: GramFactor | None = None) -> LinearPredictor:
    """Best linear predictor of the target under the given model."""
    return LevelSystem(design, [target], model, gram).predictors()[0]


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
    n = sigma.shape[0]
    bounds = np.cumsum([n] + [len(t.coeffs) for t in targets])
    # The variance is v' K v with v = (w, -beta) over design + target sites.
    # Its summands are O(1) but cancel down to the kriging variance, which
    # clustered designs push to ~1e-9; assembling naively loses the record
    # invariants' 1e-10 slack to roundoff.  Two measures keep the error at
    # the scale of the result: (1) recenter the kernel block at its leading
    # diagonal value, v'Kv = v'(K - c 11')v + c (sum v)^2, which shrinks the
    # summands to the kernel's local variation exactly where v concentrates,
    # with the tilt term summed exactly-rounded; (2) accumulate in 80-bit
    # precision.  All predictors share one K over [design; all target sites];
    # numpy's longdouble matmul sums in order over the inner index, so the
    # zeros of v on other targets' sites leave every variance bit-identical.
    kmat = np.zeros((bounds[-1], bounds[-1]), dtype=np.longdouble)
    kmat[:n, :n] = sigma
    for lo, hi, c, tblock in zip(bounds, bounds[1:], cross, tblocks):
        kmat[lo:hi, :n], kmat[:n, lo:hi], kmat[lo:hi, lo:hi] = c, c.T, tblock
    anchor = float(sigma[0, 0])
    kmat -= np.longdouble(anchor)
    rows = [(pred, t) for preds in predictor_sets for t, pred in enumerate(preds)]
    vs = [np.concatenate([pred.weights, -targets[t].coeffs]) for pred, t in rows]
    v_block = np.zeros((len(rows), bounds[-1]), dtype=np.longdouble)
    for v_row, v, (_, t) in zip(v_block, vs, rows):
        v_row[:n], v_row[bounds[t]:bounds[t + 1]] = v[:n], v[n:]
    moments = []
    for v, u, (pred, t) in zip(vs, v_block @ kmat, rows):
        mean = (pred.intercept + _dot(pred.weights, m_design)
                - (targets[t].intercept_coeff + float(targets[t].coeffs @ m_targets[t])))
        # a 1-D dot in order over (design, own sites), as for a single target
        variance_ld = (np.concatenate([u[:n], u[bounds[t]:bounds[t + 1]]])
                       @ v.astype(np.longdouble)
                       + np.longdouble(anchor) * np.longdouble(math.fsum(v.tolist())) ** 2)
        moments.append(ErrorMoments(mean=mean, variance=float(variance_ld)))
    return [moments[i:i + len(targets)] for i in range(0, len(moments), len(targets))]


def mean_shift_identity_check(target: TargetFunctional, design: Design,
                              model_a: GaussianModel, model_b: GaussianModel,
                              n_probes: int = 10, seed: int = 20240601) -> float:
    """Consistency of predictors built under two mean functions sharing a kernel.

    The model-a predictor must equal the model-b predictor minus the model-a
    expectation of the model-b predictor's error; returns the max absolute
    deviation of that identity over seeded probe observation vectors.
    """
    if model_a.kernel != model_b.kernel:
        raise DomainError("the two models must share the same covariance kernel")
    system_a = LevelSystem(design, [target], model_a)
    pred_a = system_a.predictors()[0]
    pred_b = LevelSystem(design, [target], model_b, system_a.gram).predictors()[0]
    bias = system_a.moments([[pred_b]])[0][0].mean
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        z = rng.standard_normal(design.n)
        worst = max(worst, abs(pred_a.predict(z) - (pred_b.predict(z) - bias)))
    return worst
