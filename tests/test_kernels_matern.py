"""Matern family: special functions, closed forms, spectral density."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from misspec_krige.diagnostics import LimitKind
from misspec_krige.errors import DomainError
from misspec_krige.harness import DesignGenerator, generate_design
from misspec_krige.kernels import matern as matern_module
from misspec_krige.kernels import (
    Box,
    GreatCircleMaternKernel,
    MaternKernel,
    MaternParams,
    MaternSpectralDensity,
    UnitSphere,
    matern_cov,
)
from misspec_krige.kernels.base import euclidean

from closed_forms import bessel_k, matern_ratio_limit

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def k_half(x):
    # closed form K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)


def k_three_halves(x):
    # closed form K_{3/2}(x) = sqrt(pi/(2x)) exp(-x) (1 + 1/x)
    return k_half(x) * (1.0 + 1.0 / x)


class TestBesselK:
    def test_half_integer_point(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2) / math.e,
                                                   rel=1e-12)

    def test_three_halves_point(self):
        expected = math.sqrt(math.pi / 4) * math.exp(-2.0) * 1.5
        assert bessel_k(1.5, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_half_integer_sweep(self):
        xs = np.logspace(-6, math.log10(50.0), 200)
        got = bessel_k(0.5, xs)
        want = np.array([k_half(x) for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_reference_fixtures(self):
        """10+ significant digits against arbitrary-precision references."""
        table = json.loads((FIXTURES / "bessel_k_reference.json").read_text())
        for case in table["cases"]:
            got = bessel_k(case["nu"], case["x"])
            assert got == pytest.approx(float(case["k"]), rel=1e-10), case

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_k(-0.5, 1.0)

    def test_tiny_x_overflow_policy(self):
        # K_10 overflows double precision near x = 1e-31
        with pytest.raises(DomainError):
            bessel_k(10.0, 1e-305)


class TestMaternCov:
    def test_zero_distance_is_sill(self):
        assert matern_cov(0.0, MaternParams(2.0, 0.7, 3.0)) == 4.0

    def test_exponential_closed_form(self):
        p = MaternParams(1.0, 0.5, 1.0)
        assert matern_cov(1.0, p) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_nu_three_halves_closed_form(self):
        p = MaternParams(1.0, 1.5, 2.0)
        assert matern_cov(0.5, p) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("nu,closed", [
        (0.5, lambda x: math.exp(-x)),
        (1.5, lambda x: (1.0 + x) * math.exp(-x)),
        (2.5, lambda x: (1.0 + x + x * x / 3.0) * math.exp(-x)),
    ])
    def test_half_integer_sweep(self, nu, closed):
        p = MaternParams(1.3, nu, 0.8)
        rs = np.concatenate([[0.0], np.logspace(-4, 1, 200)])
        got = matern_cov(rs, p)
        want = np.array([p.sigma ** 2 * closed(p.kappa * r) if r > 0
                         else p.sigma ** 2 for r in rs])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_invalid_params(self):
        for bad in [dict(sigma=0.0, nu=1.0, kappa=1.0),
                    dict(sigma=1.0, nu=-1.0, kappa=1.0),
                    dict(sigma=1.0, nu=1.0, kappa=0.0),
                    dict(sigma=1.0, nu=True, kappa=1.0),
                    dict(sigma=1.0, nu="0.5", kappa=1.0),
                    dict(sigma=10 ** 400, nu=1.0, kappa=1.0)]:
            with pytest.raises(DomainError):
                MaternParams(**bad)
        with pytest.raises(DomainError):
            matern_cov(-0.1, MaternParams(1, 1, 1))

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, r):
        with pytest.raises(DomainError, match="finite r >= 0"):
            matern_cov(np.array([0.5, r]), MaternParams(2.0, 0.5, 1.0))

    def test_nan_point_rejected(self):
        with pytest.raises(DomainError, match=r"point \[nan\] lies outside the box"):
            MaternKernel(MaternParams(2.0, 0.5, 1.0)).gram([[math.nan]], [[0.5]])


class TestSpectralDensity:
    def test_exponential_at_zero(self):
        got = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))(np.array([0.0]))
        assert got == pytest.approx(1.0 / math.pi, rel=1e-12)

    @given(st.floats(-30.0, 30.0), st.floats(0.1, 4.0))
    @settings(max_examples=50, deadline=None)
    def test_sigma_scaling(self, omega, sigma):
        base = MaternParams(sigma, 0.7, 1.3, dim=1)
        doubled = MaternParams(2 * sigma, 0.7, 1.3, dim=1)
        f1 = MaternSpectralDensity(base)(np.array([omega]))
        f2 = MaternSpectralDensity(doubled)(np.array([omega]))
        assert f2 == pytest.approx(4.0 * f1, rel=1e-12)

    def test_decay_exponent(self):
        p = MaternParams(1.0, 1.2, 2.0, dim=2)
        for omega in ([0.0, 0.0], [3.0, 4.0], [100.0, 0.0]):
            w = np.asarray(omega)
            f = MaternSpectralDensity(p)(w)
            invariant = f * (p.kappa ** 2 + float(w @ w)) ** (p.nu + p.dim / 2.0)
            ref = MaternSpectralDensity(p)(np.zeros(2)) * p.kappa ** (2 * (p.nu + 1.0))
            assert invariant == pytest.approx(ref, rel=1e-12)

    def test_inversion_reproduces_covariance(self):
        """1-d quadrature of the spectral density against the covariance."""
        from scipy.integrate import quad
        p = MaternParams(1.0, 0.5, 1.0, dim=1)
        f = MaternSpectralDensity(p)
        for r in (0.1, 0.5, 1.0):
            val, _ = quad(lambda w: f(np.array([w])) * 2.0 * math.cos(w * r),
                          0.0, 4000.0, limit=400)
            assert val == pytest.approx(matern_cov(r, p), abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            MaternSpectralDensity(MaternParams(1, 1, 1, dim=1))(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("params", [MaternParams(1.0, 0.5, 1.0, dim=1),
                                        MaternParams(1.3, 1.7, 0.4, dim=2)])
    def test_constant_once_per_density_with_the_bits_of_each_call(self, monkeypatch, params):
        # the gamma-function constant is formed on the first call only, and
        # every value is the per-call formula's to the bit
        calls = []

        def counted(x):
            calls.append(x)
            return gamma_fn(x)
        p, gamma_fn = params, matern_module.gamma_fn
        monkeypatch.setattr(matern_module, "gamma_fn", counted)
        f = MaternSpectralDensity(p)
        rng = np.random.default_rng(3)
        for w in rng.standard_normal((50, p.dim)) * 10.0 ** rng.integers(-2, 3, (50, 1)):
            const = gamma_fn(p.nu + p.dim / 2.0) / (gamma_fn(p.nu) * math.pi ** (p.dim / 2.0))
            want = const * p.infill_identifiable / (p.kappa ** 2 + float(w @ w)) ** (
                p.nu + p.dim / 2.0)
            assert f(w) == want
        assert len(calls) == 2


class TestRatioLimit:
    def test_same_nu_constant(self):
        verdict = matern_ratio_limit(MaternParams(1.0, 0.5, 1.0),
                                     MaternParams(2.0, 0.5, 0.5))
        assert verdict.kind is LimitKind.CONVERGES
        assert verdict.a_estimate == pytest.approx(2.0, rel=1e-12)

    def test_identical_is_one(self):
        p = MaternParams(1.7, 1.1, 0.9)
        verdict = matern_ratio_limit(p, p)
        assert verdict.a_estimate == pytest.approx(1.0)

    def test_smoothness_mismatch(self):
        rough = MaternParams(1.0, 0.5, 1.0)
        smooth = MaternParams(1.0, 1.5, 1.0)
        assert matern_ratio_limit(rough, smooth).kind is LimitKind.DIVERGES_TO_ZERO
        assert matern_ratio_limit(smooth, rough).kind is LimitKind.DIVERGES_TO_INFINITY

    def test_matches_probed_high_frequency_ratio(self):
        p, pt = MaternParams(1.0, 0.5, 1.0), MaternParams(2.0, 0.5, 0.5)
        f, ft = MaternSpectralDensity(p), MaternSpectralDensity(pt)
        w = np.array([1.0e5])
        assert ft(w) / f(w) == pytest.approx(
            matern_ratio_limit(p, pt).a_estimate, rel=1e-6)


class TestKernels:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_exact(self, x, y):
        kern = MaternKernel(MaternParams(1.0, 1.5, 2.0))
        assert kern(x, y) == kern(y, x)

    def test_gram_matches_pointwise(self):
        kern = MaternKernel(MaternParams(1.2, 0.5, 1.7))
        pts = np.array([[0.1], [0.4], [0.9]])
        gram = kern.gram(pts)
        for i in range(3):
            for j in range(3):
                assert gram[i, j] == pytest.approx(
                    matern_cov(abs(pts[i, 0] - pts[j, 0]), kern.params), rel=1e-12)

    def test_great_circle_nu_restriction(self):
        with pytest.raises(DomainError):
            GreatCircleMaternKernel(MaternParams(1.0, 0.75, 1.0))
        GreatCircleMaternKernel(MaternParams(1.0, 0.5, 1.0))  # boundary accepted

    @pytest.mark.parametrize("domain", [Box(), UnitSphere()])
    def test_domain_dimension_must_match_params(self, domain):
        with pytest.raises(DomainError, match="kernel domain dimension must match params.dim"):
            MaternKernel(MaternParams(1.0, 1.5, 1.0, dim=2), domain)

    def test_sphere_kernels_reject_non_unit(self):
        chordal = MaternKernel(MaternParams(1.0, 1.5, 1.0, dim=3), UnitSphere())
        with pytest.raises(DomainError):
            chordal(np.array([1.0, 0.0, 0.1]), np.array([0.0, 1.0, 0.0]))

    def test_chordal_uses_embedded_distance(self):
        chordal = MaternKernel(MaternParams(1.0, 1.5, 1.0, dim=3), UnitSphere())
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert chordal(x, y) == pytest.approx(
            matern_cov(math.sqrt(2.0), chordal.params), rel=1e-12)


def mixed_scale_points(rng, n, dim):
    """Points whose coordinates span 1e-8 to 1e3, a different scale per axis."""
    return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-8.0, 3.0, dim)


class TestEuclidean:
    """The Euclidean statistic gives the doubles of ``cdist``, the reference."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 57), (57, 1), (23, 40)])
    def test_equals_cdist(self, dim, shape):
        rng = np.random.default_rng(dim * 100 + shape[0] + shape[1])
        for _ in range(25):
            x, y = mixed_scale_points(rng, shape[0], dim), mixed_scale_points(rng, shape[1], dim)
            assert np.array_equal(euclidean(x, y), cdist(x, y))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_square_block_equals_cdist(self, dim):
        x = np.random.default_rng(dim).uniform(0.0, 1.0, (300, dim))
        assert np.array_equal(euclidean(x, x), cdist(x, x))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gram_without_y_equals_cdist(self, dim):
        x = mixed_scale_points(np.random.default_rng(dim), 50, dim)
        # a box that holds the points, whose coordinates reach about 1e3
        kern = MaternKernel(MaternParams(1.3, 1.5, 2.0, dim=dim),
                            Box(tuple(x.min(axis=0)), tuple(x.max(axis=0))))
        assert_same_symmetric(kern.gram(x), full_matern(x, kern.params))


# The full-matrix formulas: every entry of the n x n statistic evaluated.  The
# kernels evaluate the upper triangle of a symmetric Gram and mirror it, which
# must give the same doubles.
def full_matern(x, p):
    return matern_cov(cdist(x, x), p)


def full_great_circle(x, p):
    return matern_cov(np.arccos(np.clip(x @ x.T, -1.0, 1.0)), p)


def unit_rows(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def euclid_kernel(dim, nu):
    return MaternKernel(MaternParams(1.3, nu, 2.0, dim=dim),
                        Box((0.0,) * dim, (1.0,) * dim))


SPHERE_MATERN = {
    "chordal": (MaternKernel(MaternParams(1.0, 1.5, 2.0, dim=3), UnitSphere()), full_matern),
    "great_circle": (GreatCircleMaternKernel(MaternParams(1.0, 0.5, 2.0, dim=3)),
                     full_great_circle),
}


def assert_same_symmetric(gram, reference):
    assert np.array_equal(gram, reference)
    assert np.array_equal(gram, gram.T)


class TestTriangleGram:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_euclid_equals_full_matrix(self, dim, nu, n):
        kern = euclid_kernel(dim, nu)
        x = np.random.default_rng(n + 10 * dim).uniform(0.0, 1.0, (n, dim))
        assert_same_symmetric(kern.gram(x), full_matern(x, kern.params))

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.3])
    def test_clustered_accumulating_design(self, nu):
        # the built-ins' design at its largest n: sites 1e-33 apart near x_star
        kern = euclid_kernel(1, nu)
        x = generate_design(DesignGenerator.accumulating(), 144).sites
        assert_same_symmetric(kern.gram(x), full_matern(x, kern.params))

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("name", sorted(SPHERE_MATERN))
    def test_sphere_equals_full_matrix(self, name, n):
        kern, full = SPHERE_MATERN[name]
        x = unit_rows(np.random.default_rng(n), n)
        assert_same_symmetric(kern.gram(x), full(x, kern.params))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), dim=st.integers(1, 3), nu=st.sampled_from([0.5, 1.5, 2.3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_full_matrix_property(self, n, dim, nu, seed):
        rng = np.random.default_rng(seed)
        kern = euclid_kernel(dim, nu)
        x = rng.uniform(0.0, 1.0, (n, dim))
        assert_same_symmetric(kern.gram(x), full_matern(x, kern.params))
        kern, full = SPHERE_MATERN["great_circle" if seed % 2 else "chordal"]
        x = unit_rows(rng, n)
        assert_same_symmetric(kern.gram(x), full(x, kern.params))

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_profile_runs_on_the_triangle_only(self, monkeypatch, n):
        evaluated, kv = [], matern_module.kv

        def counting_kv(nu, x):
            evaluated.append(np.size(x))
            return kv(nu, x)
        monkeypatch.setattr(matern_module, "kv", counting_kv)
        rng = np.random.default_rng(n)
        kernels = [(euclid_kernel(2, 1.5), rng.uniform(0.0, 1.0, (n, 2)))]
        kernels += [(kern, unit_rows(rng, n)) for kern, _ in SPHERE_MATERN.values()]
        for kern, x in kernels:
            evaluated.clear()
            kern.gram(x)
            assert evaluated == [n * (n + 1) // 2]
            evaluated.clear()
            kern.gram(x, x)  # a cross block is evaluated in full
            assert evaluated == [n * n]
