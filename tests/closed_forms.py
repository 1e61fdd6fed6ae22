"""Closed forms and identities the tests check the library against.

None of these is on a path the CLI runs; they are kept here, next to the
tests that compare the library's numbers with them.
"""

import math

import numpy as np
from scipy.special import kv

from misspec_krige.diagnostics import LimitKind, RatioVerdict
from misspec_krige.errors import DomainError
from misspec_krige.kernels import MaternParams, SphereLegendreParams, SphereSpdeParams
from misspec_krige.kriging import (_COMPENSATED_FROM, Design, ErrorMoments, GaussianModel,
                                   LevelSystem, LinearPredictor, TargetFunctional,
                                   _error_means, _moment_rules)


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x) for x > 0, nu >= 0.

    Accurate to well over 10 significant digits on x in [1e-6, 50],
    nu in [0.05, 10] (validated against high-precision reference values).
    K_nu overflows double precision as x -> 0 for nu > 0, and that raises.
    """
    if nu < 0:
        raise DomainError("bessel_k requires nu >= 0")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise DomainError("bessel_k requires x > 0")
    out = kv(nu, x_arr)
    if np.any(np.isinf(out)):
        raise DomainError("K_nu(x) overflows double precision for this (nu, x)")
    return out if isinstance(x, np.ndarray) else float(out)


def matern_ratio_limit(p: MaternParams, p_tilde: MaternParams) -> RatioVerdict:
    """High-frequency limit of f_tilde / f for two Matern spectral densities.

    The ratio converges to a positive constant exactly when the smoothness
    parameters agree, in which case the constant is the ratio of the
    infill-identifiable combinations.  Otherwise it diverges to zero
    (nu_tilde > nu) or infinity (nu_tilde < nu).
    """
    if p.dim != p_tilde.dim:
        raise DomainError("spectral densities must share the ambient dimension")
    if p_tilde.nu > p.nu:
        return RatioVerdict(LimitKind.DIVERGES_TO_ZERO)
    if p_tilde.nu < p.nu:
        return RatioVerdict(LimitKind.DIVERGES_TO_INFINITY)
    return RatioVerdict(LimitKind.CONVERGES,
                        p_tilde.infill_identifiable / p.infill_identifiable)


def legendre_p(ell: int, y):
    """Legendre polynomial P_ell(y) on [-1, 1] by the three-term recurrence

        (l + 1) P_{l+1}(y) = (2l + 1) y P_l(y) - l P_{l-1}(y).
    """
    if ell < 0 or int(ell) != ell:
        raise DomainError("ell must be a nonnegative integer")
    y_arr = np.asarray(y, dtype=float)
    if np.any(np.abs(y_arr) > 1.0 + 1e-12):
        raise DomainError("legendre_p requires |y| <= 1")
    y_arr = np.clip(y_arr, -1.0, 1.0)
    p_prev = np.ones_like(y_arr)
    if ell == 0:
        return p_prev if isinstance(y, np.ndarray) else float(p_prev)
    p_curr = y_arr.copy()
    for l in range(1, ell):
        p_prev, p_curr = p_curr, ((2 * l + 1) * y_arr * p_curr - l * p_prev) / (l + 1)
    return p_curr if isinstance(y, np.ndarray) else float(p_curr)


def sphere_eigen_ratio(p1: SphereLegendreParams, p2: SphereSpdeParams, ell: int) -> float:
    """Per-degree eigenvalue ratio lambda_2(ell)/lambda_1(ell) of the two models.

    Tends to 1 / (tau^2 sigma_1^2 2 pi) as ell grows exactly when nu_1 = nu;
    to 0 when nu_1 < nu and to infinity when nu_1 > nu.
    """
    if ell < 0 or int(ell) != ell:
        raise DomainError("ell must be a nonnegative integer")
    return float(p2.eigenvalue(ell) / p1.eigenvalue(ell))


def level_moments(system, weights, intercepts, tilts, means):
    """The (S, T) error means, clamped variances, squares and second moments
    of the predictors with ``weights``, ``intercepts`` and ``tilts`` under
    ``system``'s kernel and the mean whose ``LevelSystem.means`` are ``means``,
    as a level forms them: the kernel's ``moment_block``, the model's
    ``_error_means`` and ``_moment_rules`` in (set, target) order."""
    errors = _error_means(weights, intercepts, *means[:2])
    checked = np.array([list(map(_moment_rules, *row)) for row in
                        zip(errors.tolist(), system.moment_block(weights, tilts).tolist())])
    return (errors, *checked.transpose(2, 0, 1))


def own_moments(system, build, measure):
    """The moments under ``measure`` of the one target's predictor under
    ``build``, ``system`` being their shared kernel's one-target system, as the
    one-target ``ErrorMoments``."""
    means, variances, *_ = level_moments(system, system.weights[None],
                                         system.means(build)[2][None],
                                         system.tilts[None], system.means(measure))
    return ErrorMoments(mean=means.item(), variance=variances.item())


def one_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot of two vectors by the library's rule for means and intercepts:
    a BLAS dot, or ``math.fsum`` of the products from ``_COMPENSATED_FROM``
    entries on."""
    if a.shape[0] >= _COMPENSATED_FROM:
        return math.fsum((a * b).tolist())
    return float(a @ b)


def mean_shift_identity_check(target: TargetFunctional, design: Design,
                              model_a: GaussianModel, model_b: GaussianModel) -> float:
    """Consistency of predictors built under two mean functions sharing a kernel.

    The model-a predictor must equal the model-b predictor minus the model-a
    expectation of the model-b predictor's error; returns the max absolute
    deviation of that identity over ten seeded probe observation vectors.
    """
    if model_a.kernel != model_b.kernel:
        raise DomainError("the two models must share the same covariance kernel")
    system = LevelSystem(design, [target], model_a.kernel)
    pred_a, pred_b = (LinearPredictor(design, system.weights[0], float(system.means(m)[2][0]))
                      for m in (model_a, model_b))
    bias = own_moments(system, model_b, model_a).mean
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for _ in range(10):
        z = rng.standard_normal(design.n)
        worst = max(worst, abs(pred_a.predict(z) - (pred_b.predict(z) - bias)))
    return worst


def mercer_reconstruction(eig) -> np.ndarray:
    """sum_j gamma_j e_j(x) e_j(x') on the node grid of a ``NystromEigen``."""
    return (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T


def n_values(table) -> list[int]:
    """The design sizes of a ``RatioTable``'s records, ascending."""
    return sorted({rec.n for rec in table.records})
