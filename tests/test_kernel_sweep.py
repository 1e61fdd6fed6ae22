"""Every covariance family on random point sets: the square Gram is finite,
exactly symmetric and has a positive diagonal, and one ``gram_pairs`` request
gives the bits of the separate ``gram`` calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_krige.kernels import (
    Box,
    GreatCircleMaternKernel,
    MaternKernel,
    MaternParams,
    PeriodicKernel,
    PeriodicSpectrum,
    SphereLegendreParams,
    SphereSeriesKernel,
    SphereSpdeParams,
    UnitSphere,
)


def _box(dim):
    return lambda rng, n: rng.uniform(0.0, 1.0, (n, dim))


def _sphere(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _periodic(dim):
    return PeriodicKernel(PeriodicSpectrum.from_callable(
        lambda k: (1.0 + sum(c * c for c in k)) ** -2.0, dim=dim))


#: each family with a sampler of n points of its domain
FAMILIES = {
    "matern-1d": (MaternKernel(MaternParams(1.0, 0.5, 1.0)), _box(1)),
    "matern-3d": (MaternKernel(MaternParams(1.0, 1.5, 2.0, dim=3),
                               domain=Box((0.0,) * 3, (1.0,) * 3)), _box(3)),
    "chordal": (MaternKernel(MaternParams(1.0, 1.5, 1.0, dim=3), UnitSphere()), _sphere),
    "great_circle": (GreatCircleMaternKernel(MaternParams(1.0, 0.5, 1.0, dim=3)), _sphere),
    "sphere_legendre": (SphereSeriesKernel(SphereLegendreParams(1.0, 1.0, 1.0)), _sphere),
    "sphere_spde": (SphereSeriesKernel(SphereSpdeParams(1.0, 1.0, 1.0)), _sphere),
    "periodic-1d": (_periodic(1), _box(1)),
    "periodic-2d": (_periodic(2), _box(2)),
}

#: the lattice sum of a square periodic Gram is one gemv per (rows, n, M) block,
#: and entries (i, j) and (j, i) sit at different positions in it
PERIODIC_ASYMMETRY = pytest.mark.xfail(
    strict=True, reason="PeriodicKernel's square Gram on a random point set is not "
    "exactly symmetric: (i, j) and (j, i) are summed at different positions of "
    "one gemv per (rows, n, M) block, |K - K^T| up to about 5e-15")


def point_set(family, seed, n, repeat):
    """n points of the family's domain; with ``repeat``, the last one is the first."""
    points = FAMILIES[family][1](np.random.default_rng(seed), n)
    if repeat:
        points[-1] = points[0]
    return points


sets = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), repeat=st.booleans())


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(**sets)
def test_square_gram_is_finite_with_positive_diagonal(family, seed, n, repeat):
    gram = FAMILIES[family][0].gram(point_set(family, seed, n, repeat))
    assert gram.shape == (n, n)
    assert np.isfinite(gram).all()
    assert (np.diag(gram) > 0.0).all()


@pytest.mark.parametrize("family", [
    pytest.param(name, marks=PERIODIC_ASYMMETRY) if name.startswith("periodic") else name
    for name in FAMILIES])
@settings(max_examples=60, deadline=None)
@given(**sets)
def test_square_gram_is_exactly_symmetric(family, seed, n, repeat):
    gram = FAMILIES[family][0].gram(point_set(family, seed, n, repeat))
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60, deadline=None)
@given(**sets, other_seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 60))
def test_gram_pairs_gives_the_bits_of_gram(family, seed, n, repeat, other_seed, m):
    kernel = FAMILIES[family][0]
    x = point_set(family, seed, n, repeat)
    y = point_set(family, other_seed, m, False)
    got = kernel.gram_pairs([(x, None), (x, y), (y, x)])
    want = [kernel.gram(x), kernel.gram(x, y), kernel.gram(y, x)]
    for block, reference in zip(got, want):
        assert block.shape == reference.shape and block.tobytes() == reference.tobytes()
