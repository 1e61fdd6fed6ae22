"""Kernel entries against a 40-digit mpmath oracle.

Each reference takes the float64 statistic the kernel evaluates (a distance,
or an inner product on the sphere) as exact and evaluates the covariance in
40-digit arithmetic; the kernel's entry must agree to rel 1e-14.  The Gram
entries come from the kernels' own ``gram``, so the triangle path is covered.
"""

import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from misspec_krige.harness import SCENARIO_NAMES, builtin_scenario, generate_design
from misspec_krige.kernels import MaternKernel, SphereSeriesKernel

DIGITS = 40
REL_TOL = 1e-14


def builtin_kernels(kind, n):
    """Distinct kernels of class ``kind`` across the built-in scenarios, each
    with the sites of its scenario's design at size ``n``."""
    found = {}
    for name in SCENARIO_NAMES:
        scenario = builtin_scenario(name)
        for model in (scenario.true_model, scenario.wrong_model):
            if isinstance(model.kernel, kind) and model.kernel not in found:
                found[model.kernel] = generate_design(scenario.design_generator, n).sites
    return list(found.items())


def matern_oracle(r, p):
    if r == 0.0:
        return mpmath.mpf(p.sigma) ** 2
    nu, x = mpmath.mpf(p.nu), mpmath.mpf(p.kappa) * mpmath.mpf(r)
    return (mpmath.mpf(p.sigma) ** 2 / (2 ** (nu - 1) * mpmath.gamma(nu))
            * x ** nu * mpmath.besselk(nu, x))


def series_coefficients(params):
    """The P_l coefficients through l_max from the parameter set's formula."""
    ell = [mpmath.mpf(k) for k in range(params.l_max + 1)]
    if hasattr(params, "sigma1"):
        s2, k2, power = (mpmath.mpf(params.sigma1) ** 2, mpmath.mpf(params.kappa1) ** 2,
                         mpmath.mpf(params.nu1) + 0.5)
        return [s2 / (k2 + l * l) ** power for l in ell]
    t2, k2, power = (mpmath.mpf(params.tau) ** -2, mpmath.mpf(params.kappa) ** 2,
                     mpmath.mpf(params.nu) + 1)
    return [t2 / (k2 + l * (l + 1)) ** power * (2 * l + 1) / (4 * mpmath.pi) for l in ell]


def legendre_series_oracle(t, coeffs):
    """sum_l c_l P_l(t), with (l + 1) P_{l+1} = (2l + 1) t P_l - l P_{l-1}."""
    t = mpmath.mpf(t)
    p_prev, p_curr = mpmath.mpf(1), t
    total = coeffs[0] + coeffs[1] * t
    for ell in range(1, len(coeffs) - 1):
        p_prev, p_curr = p_curr, ((2 * ell + 1) * t * p_curr - ell * p_prev) / (ell + 1)
        total += coeffs[ell + 1] * p_curr
    return total


def max_rel_error(gram, stat, oracle):
    rows, cols = np.triu_indices(gram.shape[0])
    worst = 0.0
    with mpmath.workdps(DIGITS):
        for i, j in zip(rows, cols):
            exact = oracle(float(stat[i, j]))
            worst = max(worst, float(abs((mpmath.mpf(gram[i, j]) - exact) / exact)))
    return worst


# a series entry sums 257 terms in 40 digits, so the sphere design is smaller
MATERN = builtin_kernels(MaternKernel, 24)
SPHERE = builtin_kernels(SphereSeriesKernel, 12)


def test_every_builtin_parameter_set_is_covered():
    assert {(k.params.sigma, k.params.nu, k.params.kappa) for k, _ in MATERN} == {
        (1.0, 0.5, 1.0), (2.0, 0.5, 1.0), (2.0, 0.5, 0.5), (1.0, 1.5, 1.0)}
    assert len(SPHERE) == 2


@pytest.mark.parametrize("kernel, sites", MATERN,
                         ids=[f"matern{k.params.sigma, k.params.nu, k.params.kappa}"
                              for k, _ in MATERN])
def test_matern_entries_against_besselk(kernel, sites):
    gram = kernel.gram(sites)
    error = max_rel_error(gram, cdist(sites, sites), lambda r: matern_oracle(r, kernel.params))
    assert error < REL_TOL


@pytest.mark.parametrize("kernel, sites", SPHERE, ids=["legendre", "spde"])
def test_sphere_series_entries_against_legendre_sum(kernel, sites):
    gram = kernel.gram(sites)
    inner = np.clip(sites @ sites.T, -1.0, 1.0)
    with mpmath.workdps(DIGITS):
        coeffs = series_coefficients(kernel.params)
    error = max_rel_error(gram, inner, lambda t: legendre_series_oracle(t, coeffs))
    assert error < REL_TOL
