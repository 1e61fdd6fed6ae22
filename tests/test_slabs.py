"""A level's n x n steps go in slabs of ``_SLAB // n`` rows or columns: the
refinement product of ``GramFactor.solve``, the moment product of
``_moments`` and the reconstruction check of ``build_gram``.  The outputs are
bit for bit those of the whole-matrix forms below, at 1 and 2 block threads,
and a level's traced memory stays bounded."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from misspec_krige import kriging
from misspec_krige.errors import NumericalFailureError
from misspec_krige.harness import DesignGenerator, default_targets, generate_design
from misspec_krige.kernels import MaternKernel, MaternParams, PeriodicKernel, PeriodicSpectrum
from misspec_krige.kriging import (Design, GaussianModel, LevelSystem, TargetFunctional,
                                   build_gram, constant_mean, zero_mean, _row_dots)
from misspec_krige.ratios import efficiency_ratios

#: the n whose square Gram is one slab
SIDE = math.isqrt(kriging._SLAB)


def whole_solve(gram, rhs):
    """``GramFactor.solve`` with the whole system converted to 80 bits at once."""
    x = scipy.linalg.cho_solve((gram.lower, True), rhs)
    residual = rhs.astype(np.longdouble) - np.dot(gram.matrix.astype(np.longdouble),
                                                  x.astype(np.longdouble))
    return x + scipy.linalg.cho_solve((gram.lower, True), residual.astype(float))


def whole_moments(weights, intercepts, tilts, sigma, cross, tblocks, coeffs, m_design, values):
    """``_moments``' error means and unclamped variances from whole 80-bit
    matrices: per predictor, v = (w, -b) over [design; own sites], the kernel
    block K over the same sites, u = v'(K - c 11') by one np.dot, and
    v'Kv = u . v + c (sum v)^2."""
    n_sets, n_targets, n = weights.shape
    anchor = np.longdouble(sigma[0, 0])
    quad = np.empty((n_sets, n_targets), dtype=np.longdouble)
    for t, (b, c, tblock) in enumerate(zip(coeffs, cross, tblocks)):
        k = np.block([[sigma, c.T], [c, tblock]]).astype(np.longdouble) - anchor
        for s in range(n_sets):
            v = np.concatenate([weights[s, t], -b]).astype(np.longdouble)
            quad[s, t] = np.dot(np.dot(v, k), v)
    means = intercepts + _row_dots(weights.reshape(-1, n), m_design).reshape(n_sets, -1) - values
    return means, (quad + anchor * tilts ** 2).astype(float)


def _periodic(dim, k_max=None):
    return PeriodicKernel(PeriodicSpectrum.from_callable(
        lambda k: (1.0 + sum(c * c for c in k)) ** -2.0, dim=dim, k_max=k_max))


MATERN = MaternKernel(MaternParams(1.0, 0.5, 1.0))
#: each case: the kernels of the two predictor sets (one kernel: a shared-kernel
#: pair) and the site dimension
CASES = {
    "matern-pair": ((MATERN, MaternKernel(MaternParams(2.0, 0.5, 0.5))), 1),
    # a square periodic Gram is not exactly symmetric on random sites
    "periodic-2d": ((_periodic(2, k_max=10),), 2),
    # rank 17 < n: the factor is jittered, so ``matrix`` is not ``sigma``
    "jittered": ((_periodic(1, k_max=8),), 1),
    "shared-kernel": ((MATERN,), 1),
}


def design_sites(n, dim):
    return np.random.default_rng(n).uniform(0.0, 1.0, (n, dim))


def level(case, n):
    """The case's systems on n random sites, and ``moment_block``'s arguments
    for each: both sets' weights, intercepts and tilts and the system's means,
    as ``_level_ratios`` forms them."""
    kernels, dim = CASES[case]
    design = Design(design_sites(n, dim))
    rng = np.random.default_rng(n + 1)
    # point targets and one two-site target, whose width pads the others
    targets = [TargetFunctional.point(p) for p in rng.uniform(0.0, 1.0, (5, dim))]
    targets.append(TargetFunctional(0.3, rng.uniform(0.0, 1.0, (2, dim)), np.array([1.0, -0.5])))
    systems = ([LevelSystem(design, targets, kernel) for kernel in kernels] * 2)[:2]
    models = [GaussianModel(zero_mean, kernels[0]),
              GaussianModel(constant_mean(0.5), kernels[-1])]
    means = [system.means(model) for system, model in zip(systems, models)]
    weights = np.stack([s.weights for s in systems])
    intercepts = np.stack([m[2] for m in means])
    tilts = np.stack([s.tilts for s in systems])
    return systems, [(weights, intercepts, tilts, m) for m in means]


N_CASES = [SIDE - 1, SIDE, SIDE + 1, SIDE + SIDE // 2 + 7]


@pytest.fixture(params=["1", "2"], ids=["threads-1", "threads-2"])
def block_threads(request, monkeypatch):
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", request.param)
    return int(request.param)


@pytest.mark.parametrize("n", N_CASES)
@pytest.mark.parametrize("case", CASES)
def test_slabs_give_the_bits_of_the_whole_matrix_forms(case, n, block_threads):
    systems, blocks = level(case, n)
    if case == "jittered":
        assert systems[0].gram.jitter > 0.0
        assert systems[0].gram.matrix is not systems[0].gram.sigma
    for system, (weights, intercepts, tilts, means) in zip(systems, blocks):
        rhs = np.column_stack([t.coeffs @ c for t, c in zip(system.targets, system.cross)])
        np.testing.assert_array_equal(system.gram.solve(rhs), whole_solve(system.gram, rhs))
        got = system.moment_block(weights, intercepts, tilts, means)
        want = whole_moments(weights, intercepts, tilts, system.gram.sigma, system.cross,
                             system.tblocks, [t.coeffs for t in system.targets], *means[:2])
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], np.maximum(want[1], 0.0))


def test_periodic_case_has_grams_that_are_not_exactly_symmetric():
    (kernel,), dim = CASES["periodic-2d"]
    grams = [kernel.gram(design_sites(n, dim)) for n in N_CASES]
    assert sum(not np.array_equal(gram, gram.T) for gram in grams) >= 2


@pytest.mark.parametrize("n", N_CASES)
def test_reconstruction_check_reads_the_last_slab(monkeypatch, block_threads, n):
    """A factor wrong in its last entry alone fails the check: every slab is read."""
    cholesky = scipy.linalg.cholesky

    def off_by_one_entry(*args, **kwargs):
        lower = cholesky(*args, **kwargs)
        lower[-1, -1] += 1e-3
        return lower
    monkeypatch.setattr(scipy.linalg, "cholesky", off_by_one_entry)
    design = Design(np.random.default_rng(n).uniform(0.0, 1.0, (n, 1)))
    with pytest.raises(NumericalFailureError, match="Cholesky reconstruction error"):
        build_gram(design, MATERN)


def test_level_memory_is_bounded_by_slabs(monkeypatch):
    """The n = 512 level of the ``euclid_large`` pair (Halton design, 33
    targets) at 2 block threads: its traced peak stays below 7 n^2 doubles,
    where whole 80-bit copies of the Gram and an n x n reconstruction buffer
    reach 7.6."""
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "2")
    n = 512
    generator = DesignGenerator.halton()
    design, targets = generate_design(generator, n), default_targets(generator, n)
    true = GaussianModel(zero_mean, MATERN)
    wrong = GaussianModel(zero_mean, MaternKernel(MaternParams(2.0, 0.5, 0.5)))
    tracemalloc.start()
    try:
        efficiency_ratios(design, targets, true, wrong, limit_a=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7.0 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} n^2 doubles"
