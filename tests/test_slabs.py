"""A level's n x n steps go in slabs of ``_SLAB // n`` rows or columns: the
refinement product of ``GramFactor.solve``, the variance product of
``LevelSystem.moment_block``, the reconstruction check of ``build_gram`` and
the 1-norm of ``GramFactor.inverse_rcond``.  The outputs are bit for bit those
of the whole-matrix forms below, at 1 and 2 block threads, and a level's traced
memory stays bounded."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from misspec_krige import kriging
from misspec_krige.errors import DomainError, NumericalFailureError
from misspec_krige.harness import DesignGenerator, default_targets, generate_design
from misspec_krige.kernels import MaternKernel, MaternParams, PeriodicKernel, PeriodicSpectrum
from misspec_krige.kriging import (Design, GaussianModel, LevelSystem, TargetFunctional,
                                   build_gram, constant_mean, own_blocks, zero_mean,
                                   _error_means, _row_dots)
from misspec_krige.ratios import efficiency_ratios, ratio_convergence

#: the n whose square Gram is one slab
SIDE = math.isqrt(kriging._SLAB)


def whole_solve(gram, rhs):
    """``GramFactor.solve`` with the whole system converted to 80 bits at once."""
    x = scipy.linalg.cho_solve((gram.lower, True), rhs)
    residual = rhs.astype(np.longdouble) - np.dot(gram.matrix.astype(np.longdouble),
                                                  x.astype(np.longdouble))
    return x + scipy.linalg.cho_solve((gram.lower, True), residual.astype(float))


def whole_moments(weights, intercepts, tilts, sigma, cross, tblocks, coeffs, m_design, values):
    """The error means and ``moment_block``'s unclamped variances from whole
    80-bit matrices: per predictor, v = (w, -b) over [design; own sites], the
    kernel block K over the same sites, u = v'(K - c 11') by one np.dot, and
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
    kernels = (CASES[case][0] * 2)[:2]
    grams = [build_gram(system.design, kernel, sigma=system.sigma)
             for system, kernel in zip(systems, kernels)]
    if case == "jittered":
        assert grams[0].jitter > 0.0
        assert grams[0].matrix is not grams[0].sigma
    for system, gram, (weights, intercepts, tilts, means) in zip(systems, grams, blocks):
        rhs = np.column_stack([t.coeffs @ c for t, c in zip(system.targets, system.cross)])
        np.testing.assert_array_equal(gram.solve(rhs), whole_solve(gram, rhs))
        tblocks = own_blocks(system.targets, system.kernel)
        want = whole_moments(weights, intercepts, tilts, system.sigma, system.cross,
                             tblocks, [t.coeffs for t in system.targets], *means[:2])
        np.testing.assert_array_equal(_error_means(weights, intercepts, *means[:2]), want[0])
        np.testing.assert_array_equal(system.moment_block(weights, tilts, tblocks), want[1])


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


def euclid_large_level(n):
    """The ``euclid_large`` pair on its Halton design of n sites, and its 33 targets."""
    generator = DesignGenerator.halton()
    return (generate_design(generator, n), default_targets(generator, n),
            GaussianModel(zero_mean, MATERN),
            GaussianModel(zero_mean, MaternKernel(MaternParams(2.0, 0.5, 0.5))))


def test_level_memory_is_bounded_by_slabs(monkeypatch):
    """The n = 512 level of the ``euclid_large`` pair (Halton design, 33
    targets) at 2 block threads: its traced peak stays below 5 n^2 doubles
    (4.73), where keeping each kernel's factor through the moment blocks
    reaches 6.19 and whole 80-bit copies of the Gram and an n x n
    reconstruction buffer reach 7.6.  Each ``gram_pairs`` request (each
    kernel's own blocks, then each kernel's design Gram and cross block)
    traces below 2 n^2 doubles over what was traced at its start, where
    keeping each pair's statistic entries through the profile pass reaches
    2.27."""
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "2")
    n = 512
    design, targets, true, wrong = euclid_large_level(n)
    peaks, requests = [], []
    gram_pairs = MaternKernel.gram_pairs

    def traced(self, pairs):
        # the level's peak so far, then this request's own peak
        start, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        try:
            return gram_pairs(self, pairs)
        finally:
            requests.append(tracemalloc.get_traced_memory()[1] - start)
    monkeypatch.setattr(MaternKernel, "gram_pairs", traced)
    tracemalloc.start()
    try:
        efficiency_ratios(design, targets, true, wrong, limit_a=2.0)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 5.0 * n * n * 8, f"traced peak {max(peaks) / (n * n * 8):.2f} n^2 doubles"
    assert len(requests) == 4
    assert max(requests) < 2.0 * n * n * 8, \
        f"gram_pairs peaks {[round(r / (n * n * 8), 2) for r in requests]} n^2 doubles"


def test_one_level_run_with_its_conditioning_pass_is_bounded(monkeypatch):
    """The same level through ``ratio_convergence``, whose conditioning pass
    factors each kernel's Gram again: its traced peak stays below 5 n^2
    doubles (4.75), where holding the true kernel's factor while the
    working one is factored, and each system's factor through the moment
    blocks, reaches 6.20."""
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "2")
    n = 512
    design, targets, true, wrong = euclid_large_level(n)
    tracemalloc.start()
    try:
        table = ratio_convergence(true, wrong, lambda m: design, targets, [n], limit_a=2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(table.metadata["conditioning"][str(n)]) == {"true", "wrong"}
    assert peak < 5.0 * n * n * 8, f"traced peak {peak / (n * n * 8):.2f} n^2 doubles"


def whole_inverse_rcond(gram):
    """``GramFactor.inverse_rcond`` with the 1-norm of the whole system at once."""
    rcond, _ = scipy.linalg.lapack.dpocon(gram.lower, np.linalg.norm(gram.matrix, 1), uplo="L")
    return float(f"{1.0 / rcond:.12g}")


def test_inverse_rcond_takes_no_n_by_n_temporary(monkeypatch):
    """At n = 2048, the design cap, at one block thread: the 1-norm goes a slab
    at a time, so the estimate traces below 0.2 n^2 doubles, where |matrix| as
    one temporary traces 1.0, and it is the whole-matrix estimate's value."""
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
    n = 2048
    gram = build_gram(Design(design_sites(n, 1)), MATERN)
    tracemalloc.start()
    try:
        value = gram.inverse_rcond
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * n * n * 8, f"inverse_rcond peak {peak / (n * n * 8):.3f} n^2 doubles"
    assert value == whole_inverse_rcond(gram)


@pytest.mark.parametrize("n", [1, 2, SIDE - 1, SIDE, SIDE + 1, 391, 2048])
@pytest.mark.parametrize("jittered", [False, True], ids=["plain", "jittered"])
def test_slab_one_norm_is_the_whole_matrix_one_norm(monkeypatch, n, jittered):
    """The 1-norm handed to ``dpocon`` is ``np.linalg.norm(matrix, 1)`` bit
    for bit, one slab or many, on either side of a slab boundary.  The rank-17
    periodic kernel jitters its system from n = 18 on."""
    kernel = CASES["jittered"][0][0] if jittered else MATERN
    gram = build_gram(Design(design_sites(n, 1)), kernel)
    assert (gram.jitter > 0.0) == (jittered and n > 17)
    norms = []
    dpocon = scipy.linalg.lapack.dpocon

    def recorded(lower, anorm, **kwargs):
        norms.append(anorm)
        return dpocon(lower, anorm, **kwargs)
    monkeypatch.setattr(scipy.linalg.lapack, "dpocon", recorded)
    gram.inverse_rcond
    assert [norm.tobytes() for norm in norms] == [np.linalg.norm(gram.matrix, 1).tobytes()]


def test_solve_checks_no_n_by_n_finiteness_mask(monkeypatch):
    """A solve of 33 right-hand sides at n = 2048, the design cap, at one
    block thread: the factor came from ``scipy.linalg.cholesky``, so no
    ``cho_solve`` scans it into an n x n mask (0.125 n^2 doubles; the solve
    peaks at 0.19 n^2 doubles with them, 0.14 without).  A non-finite
    right-hand side is still rejected."""
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
    n = 2048
    gram = build_gram(Design(design_sites(n, 1)), MATERN)
    rhs = np.random.default_rng(1).standard_normal((n, 33))
    tracemalloc.start()
    try:
        solved = gram.solve(rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.16 * n * n * 8, f"solve peak {peak / (n * n * 8):.3f} n^2 doubles"
    np.testing.assert_array_equal(solved, whole_solve(gram, rhs))
    rhs[7, 3] = np.nan
    with pytest.raises(DomainError, match="right-hand side of a solve must be finite"):
        gram.solve(rhs)
