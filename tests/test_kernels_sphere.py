"""Sphere models: Legendre recurrence, series covariances, eigenvalue ratios."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval

from misspec_krige.errors import DomainError
from misspec_krige.kernels import base as kernels_base
from misspec_krige.kernels import sphere as sphere_module
from misspec_krige.kernels import (
    ChordalMaternKernel,
    GreatCircleMaternKernel,
    MaternKernel,
    MaternParams,
    PeriodicKernel,
    PeriodicSpectrum,
    ProfileKernel,
    SphereLegendreParams,
    SphereSeriesKernel,
    SphereSpdeParams,
)

from closed_forms import legendre_p, sphere_eigen_ratio

# explicit polynomials up to degree 6 (independent of the recurrence)
EXPLICIT = {
    0: lambda y: 1.0,
    1: lambda y: y,
    2: lambda y: (3 * y ** 2 - 1) / 2,
    3: lambda y: (5 * y ** 3 - 3 * y) / 2,
    4: lambda y: (35 * y ** 4 - 30 * y ** 2 + 3) / 8,
    5: lambda y: (63 * y ** 5 - 70 * y ** 3 + 15 * y) / 8,
    6: lambda y: (231 * y ** 6 - 315 * y ** 4 + 105 * y ** 2 - 5) / 16,
}


def north():
    return np.array([0.0, 0.0, 1.0])


def on_sphere(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi),
                     math.cos(theta)])


class TestLegendre:
    def test_degree_zero_and_one(self):
        for y in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert legendre_p(0, y) == 1.0
            assert legendre_p(1, y) == y

    def test_degree_two_hand_value(self):
        assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_recurrence_vs_explicit(self):
        ys = np.linspace(-1.0, 1.0, 20)
        for ell, poly in EXPLICIT.items():
            got = legendre_p(ell, ys)
            want = np.array([poly(y) for y in ys])
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_bounded_by_one(self):
        ys = np.linspace(-1, 1, 101)
        for ell in (3, 10, 40):
            assert np.max(np.abs(legendre_p(ell, ys))) <= 1.0 + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            legendre_p(2, 1.5)
        with pytest.raises(DomainError):
            legendre_p(-1, 0.0)


class TestSphereCovariances:
    def test_legendre_matern_diagonal(self):
        p = SphereLegendreParams(sigma1=1.3, nu1=1.0, kappa1=0.7, l_max=200)
        ells = np.arange(201)
        want = float(np.sum(p.sigma1 ** 2 / (p.kappa1 ** 2 + ells ** 2) ** (p.nu1 + 0.5)))
        x = north()
        assert SphereSeriesKernel(p)(x, x) == pytest.approx(want, rel=1e-12)

    def test_spde_diagonal(self):
        p = SphereSpdeParams(tau=2.0, nu=1.0, kappa=1.0, l_max=200)
        ells = np.arange(201)
        want = float(np.sum(
            p.tau ** -2 * (2 * ells + 1)
            / (4 * math.pi * (p.kappa ** 2 + ells * (ells + 1)) ** (p.nu + 1))))
        x = on_sphere(1.0, 2.0)
        assert SphereSeriesKernel(p)(x, x) == pytest.approx(want, rel=1e-12)

    def test_rotation_invariance(self):
        p = SphereLegendreParams(1.0, 1.0, 1.0, l_max=128)
        a1, b1 = on_sphere(0.3, 0.1), on_sphere(1.2, 2.4)
        # rotate both points about z by the same angle: inner product unchanged
        a2, b2 = on_sphere(0.3, 0.1 + 1.1), on_sphere(1.2, 2.4 + 1.1)
        assert SphereSeriesKernel(p)(a1, b1) == pytest.approx(
            SphereSeriesKernel(p)(a2, b2), rel=1e-12)

    def test_scale_parameters(self):
        x, y = on_sphere(0.4, 0.0), on_sphere(1.0, 1.0)
        p1 = SphereLegendreParams(1.0, 1.0, 1.0)
        p2 = SphereLegendreParams(2.0, 1.0, 1.0)
        assert SphereSeriesKernel(p2)(x, y) == pytest.approx(
            4.0 * SphereSeriesKernel(p1)(x, y), rel=1e-12)
        q1 = SphereSpdeParams(1.0, 1.0, 1.0)
        q2 = SphereSpdeParams(2.0, 1.0, 1.0)
        assert SphereSeriesKernel(q2)(x, y) == pytest.approx(
            0.25 * SphereSeriesKernel(q1)(x, y), rel=1e-12)

    def test_series_against_direct_sum(self):
        """Clenshaw evaluation vs brute-force recurrence sum."""
        p = SphereSpdeParams(1.0, 1.5, 0.8, l_max=60)
        x, y = on_sphere(0.7, 0.3), on_sphere(2.1, 4.0)
        t = float(x @ y)
        brute = sum(float(p.coefficient(ell)) * legendre_p(ell, t)
                    for ell in range(61))
        assert SphereSeriesKernel(p)(x, y) == pytest.approx(brute, rel=1e-11)

    def test_non_unit_rejected(self):
        p = SphereLegendreParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            SphereSeriesKernel(p)(np.array([1.0, 0.0, 1e-4]), north())

    def test_nan_point_rejected(self):
        p = SphereLegendreParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="is not a unit vector"):
            SphereSeriesKernel(p).gram(np.array([[math.nan, 0.0, 0.0]]), north()[None, :])


class TestEigenRatio:
    def test_limit_value_at_high_degree(self):
        p1 = SphereLegendreParams(1.0, 1.0, 1.0)
        p2 = SphereSpdeParams(1.0, 1.0, 1.0)
        assert sphere_eigen_ratio(p1, p2, 2000) == pytest.approx(
            1.0 / (2.0 * math.pi), abs=1e-3)

    def test_hand_computed_ratio(self):
        p1 = SphereLegendreParams(1.5, 1.0, 0.5)
        p2 = SphereSpdeParams(0.7, 2.0, 1.3)
        ell = 3
        lam1 = 1.5 ** 2 / (0.5 ** 2 + 9.0) ** 1.5 * 4 * math.pi / 7.0
        lam2 = 0.7 ** -2 / (1.3 ** 2 + 12.0) ** 3.0
        assert sphere_eigen_ratio(p1, p2, ell) == pytest.approx(lam2 / lam1, rel=1e-12)

    def test_smoothness_mismatch_trends(self):
        smoother_spde = SphereSpdeParams(1.0, 2.0, 1.0)   # nu1 < nu
        rougher_spde = SphereSpdeParams(1.0, 0.5, 1.0)    # nu1 > nu
        p1 = SphereLegendreParams(1.0, 1.0, 1.0)
        r_to_zero = [sphere_eigen_ratio(p1, smoother_spde, l) for l in (10, 100, 1000)]
        r_to_inf = [sphere_eigen_ratio(p1, rougher_spde, l) for l in (10, 100, 1000)]
        assert r_to_zero[0] > r_to_zero[1] > r_to_zero[2]
        assert r_to_zero[2] < 1e-3
        # growth is ~ell^(2(nu1 - nu)) = ell here
        assert r_to_inf[0] < r_to_inf[1] < r_to_inf[2]
        assert r_to_inf[2] > 100.0 * r_to_inf[0]

    def test_multiplicity_expansion(self):
        p2 = SphereSpdeParams(1.0, 1.0, 1.0)
        seq = p2.eigen_sequence(3)
        assert len(seq) == 1 + 3 + 5 + 7
        lam1 = 1.0 / (1.0 + 2.0) ** 2
        np.testing.assert_allclose(seq.values[1:4], lam1, rtol=1e-14)


def unit_rows(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


SPHERE_KERNELS = {
    "legendre": SphereSeriesKernel(SphereLegendreParams(1.0, 1.0, 1.0)),
    "spde": SphereSeriesKernel(SphereSpdeParams(0.8, 1.5, 1.2, l_max=100)),
}
ALL_KERNELS = {
    "matern": MaternKernel(MaternParams(1.0, 1.5, 2.0)),
    "chordal": ChordalMaternKernel(MaternParams(1.0, 1.5, 2.0)),
    "great_circle": GreatCircleMaternKernel(MaternParams(1.0, 0.5, 2.0)),
    "periodic": PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5, 3: 0.125},
                                                            dim=1)),
    **SPHERE_KERNELS,
}


def mixed_pairs(kernel, rng):
    """Blocks of several shapes: cross blocks against one shared design,
    ``y=None`` target blocks, single- and multi-site targets."""
    if kernel.domain.dim == 3:
        def points(n):
            return unit_rows(rng, n)
    else:
        def points(n):
            return rng.uniform(0.0, 1.0, (n, 1))
    design = points(17)
    targets = [points(3), points(1), points(5), points(2)]
    return ([(t, design) for t in targets] + [(t, None) for t in targets]
            + [(targets[0], targets[2]), (design, None)])


class TestGramPairs:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_equals_per_pair_gram_bit_for_bit(self, name):
        kernel = ALL_KERNELS[name]
        pairs = mixed_pairs(kernel, np.random.default_rng(3))
        blocks = kernel.gram_pairs(pairs)
        assert len(blocks) == len(pairs)
        for block, (x, y) in zip(blocks, pairs):
            assert np.array_equal(block, kernel.gram(x, y))
        assert kernel.gram_pairs([]) == []

    @pytest.mark.parametrize("name", sorted(
        name for name, kernel in ALL_KERNELS.items() if isinstance(kernel, ProfileKernel)))
    def test_profile_chunk_boundaries_keep_the_bits(self, monkeypatch, name):
        # an odd chunk splits every block, and triangles, off their row ends
        kernel = ALL_KERNELS[name]
        pairs = mixed_pairs(kernel, np.random.default_rng(7))
        default = kernel.gram_pairs(pairs)
        monkeypatch.setattr(kernels_base, "_PROFILE_CHUNK", 7)
        for block, chunked in zip(default, kernel.gram_pairs(pairs), strict=True):
            assert np.array_equal(block, chunked)
        assert kernel.gram_pairs([]) == []

    @pytest.mark.parametrize("name", sorted(
        name for name, kernel in ALL_KERNELS.items() if isinstance(kernel, ProfileKernel)))
    def test_chunks_split_over_threads_keep_the_bits(self, split_blocks, monkeypatch, name):
        kernel = ALL_KERNELS[name]
        pairs = mixed_pairs(kernel, np.random.default_rng(9))
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
        unsplit = kernel.gram_pairs(pairs)
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", str(split_blocks["threads"]))
        monkeypatch.setattr(kernels_base, "_PROFILE_CHUNK", 7)
        for block, split in zip(unsplit, kernel.gram_pairs(pairs), strict=True):
            assert np.array_equal(block, split)
        assert bool(split_blocks["handed"]) == (split_blocks["threads"] > 1)

    @pytest.mark.parametrize("name", sorted(SPHERE_KERNELS))
    def test_sphere_matches_one_series_evaluation_per_block(self, name):
        # the reference is the series evaluated on each block alone
        kernel = SPHERE_KERNELS[name]
        pairs = mixed_pairs(kernel, np.random.default_rng(5))
        coeffs = kernel.params.coefficients()
        for block, (x, y) in zip(kernel.gram_pairs(pairs), pairs):
            t = np.clip(x @ (x if y is None else y).T, -1.0, 1.0)
            assert np.array_equal(block, legval(t, coeffs))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.integers(1, 40), min_size=1, max_size=6),
           design_rows=st.integers(1, 40), self_blocks=st.lists(st.booleans(), max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sphere_batch_equals_per_pair_property(self, rows, design_rows, self_blocks,
                                                   seed):
        rng = np.random.default_rng(seed)
        kernel = SPHERE_KERNELS["legendre"]
        design = unit_rows(rng, design_rows)
        pairs = [(unit_rows(rng, n), None if own else design)
                 for n, own in zip(rows, self_blocks + [False] * len(rows))]
        for block, (x, y) in zip(kernel.gram_pairs(pairs), pairs):
            assert np.array_equal(block, kernel.gram(x, y))

    @pytest.mark.parametrize("bad", ["non_unit", "wrong_dim"])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_malformed_point_in_any_pair_rejected(self, bad, slot):
        rng = np.random.default_rng(11)
        design = unit_rows(rng, 6)
        broken = unit_rows(rng, 3)
        if bad == "non_unit":
            broken[1] *= 1.0 + 1e-6
        else:
            broken = broken[:, :2]
        pairs = [(unit_rows(rng, 2), design), (unit_rows(rng, 1), None)]
        pairs.append((broken, design) if slot == 0 else (unit_rows(rng, 2), broken))
        for kernel in SPHERE_KERNELS.values():
            with pytest.raises(DomainError):
                kernel.gram_pairs(pairs)


@settings(max_examples=60, deadline=None)
@given(l_max=st.integers(1, 300), t=st.lists(st.floats(-1.0, 1.0), max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_legendre_series_is_legval_bit_for_bit(l_max, t, seed):
    coeffs = np.random.default_rng(seed).standard_normal(l_max + 1)
    t = np.array(t + [-1.0, 0.0, 1.0])
    given_t = t.copy()
    assert np.array_equal(sphere_module.legendre_series(t, coeffs), legval(t, coeffs))
    assert np.array_equal(t, given_t)


def full_series(x, params):
    """The full-matrix formula: the series at every entry of ``x @ x.T``."""
    return legval(np.clip(x @ x.T, -1.0, 1.0), params.coefficients())


def clustered_rows(n):
    # sites contracting geometrically toward the north pole
    k = np.arange(n)
    theta, phi = 0.5 * 0.6 ** k, 2.399963 * k
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1)


class TestTriangleGram:
    """A ``y=None`` block is evaluated on its upper triangle and mirrored;
    the doubles are those of the full-matrix formula."""

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("name", sorted(SPHERE_KERNELS))
    def test_equals_full_matrix(self, name, n):
        kernel = SPHERE_KERNELS[name]
        x = unit_rows(np.random.default_rng(n), n)
        gram = kernel.gram(x)
        assert np.array_equal(gram, full_series(x, kernel.params))
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("name", sorted(SPHERE_KERNELS))
    def test_clustered_design(self, name):
        kernel = SPHERE_KERNELS[name]
        x = clustered_rows(40)
        gram = kernel.gram(x)
        assert np.array_equal(gram, full_series(x, kernel.params))
        assert np.array_equal(gram, gram.T)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), name=st.sampled_from(sorted(SPHERE_KERNELS)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_full_matrix_property(self, n, name, seed):
        kernel = SPHERE_KERNELS[name]
        x = unit_rows(np.random.default_rng(seed), n)
        gram = kernel.gram(x)
        assert np.array_equal(gram, full_series(x, kernel.params))
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_series_runs_on_the_triangle_only(self, monkeypatch, n):
        evaluated, series = [], sphere_module.legendre_series

        def counting_series(t, coeffs):
            evaluated.append(np.size(t))
            return series(t, coeffs)
        monkeypatch.setattr(sphere_module, "legendre_series", counting_series)
        kernel = SPHERE_KERNELS["legendre"]
        kernel.gram(unit_rows(np.random.default_rng(n), n))
        assert evaluated == [n * (n + 1) // 2]
        evaluated.clear()
        pairs = mixed_pairs(kernel, np.random.default_rng(n))
        kernel.gram_pairs(pairs)
        sizes = [len(x) * (len(x) + 1) // 2 if y is None else len(x) * len(y)
                 for x, y in pairs]
        assert evaluated == [sum(sizes)]
