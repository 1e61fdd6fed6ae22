"""Eigenvalue/spectral ratio probes, quadrature eigendecomposition, tail images."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_krige.diagnostics import (
    DEFAULT_WINDOW,
    QUAD_NODES,
    LimitKind,
    NystromEigen,
    RatioVerdict,
    assumption_report,
    eigen_ratio_limit,
    nystrom_eigen,
    spectral_equivalence_bounds,
    spectral_ratio_limit,
    t_a_tail_spectrum,
)
from misspec_krige.errors import DomainError, NumericalFailureError
from misspec_krige.harness import builtin_scenario
from misspec_krige.kernels import (
    Box,
    EigenSequence,
    MaternKernel,
    MaternParams,
    MaternSpectralDensity,
    PeriodicKernel,
    PeriodicSpectrum,
    Torus,
    UnitSphere,
)
from misspec_krige.kernels.base import fibonacci_sphere_grid
from misspec_krige.kriging import GaussianModel, constant_mean, zero_mean

from closed_forms import mercer_reconstruction


def seq(values):
    return EigenSequence(np.asarray(values, dtype=float))


class TestEigenRatioLimit:
    def test_constructed_limit_three(self):
        j = np.arange(1, 10001, dtype=float)
        g = seq(j ** -2.0)
        g_t = seq(3.0 * j ** -2.0 * (1.0 + 1.0 / j))
        verdict = eigen_ratio_limit(g, g_t, window=0.2, tol=1e-2)
        assert verdict.kind is LimitKind.CONVERGES
        assert verdict.a_estimate == pytest.approx(3.0, abs=1e-2)

    def test_identical_sequences(self):
        j = np.arange(1, 200, dtype=float)
        verdict = eigen_ratio_limit(seq(j ** -1.5), seq(j ** -1.5))
        assert verdict.kind is LimitKind.CONVERGES
        assert verdict.a_estimate == 1.0

    def test_diverges_to_zero(self):
        j = np.arange(1, 5001, dtype=float)
        verdict = eigen_ratio_limit(seq(j ** -2.0), seq(j ** -3.0))
        assert verdict.kind is LimitKind.DIVERGES_TO_ZERO

    def test_diverges_to_infinity(self):
        j = np.arange(1, 5001, dtype=float)
        verdict = eigen_ratio_limit(seq(j ** -3.0), seq(j ** -2.0))
        assert verdict.kind is LimitKind.DIVERGES_TO_INFINITY

    def test_oscillating_is_inconclusive(self):
        j = np.arange(1, 2001, dtype=float)
        wobble = 1.0 + 0.5 * np.sin(j)
        verdict = eigen_ratio_limit(seq(j ** -2.0), seq(j ** -2.0 * wobble))
        assert verdict.kind is LimitKind.INCONCLUSIVE

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, c):
        j = np.arange(1, 501, dtype=float)
        g = seq(j ** -2.0)
        g_t = seq(2.0 * j ** -2.0 * (1.0 + 1.0 / j ** 2))
        base = eigen_ratio_limit(g, g_t)
        scaled = eigen_ratio_limit(g, seq(c * g_t.values))
        assert scaled.kind is base.kind
        assert scaled.a_estimate == pytest.approx(c * base.a_estimate, rel=1e-12)

    def test_validation(self):
        j = np.arange(1, 30, dtype=float)
        with pytest.raises(DomainError):
            eigen_ratio_limit(seq(j), seq(np.arange(1, 29, dtype=float)))
        with pytest.raises(DomainError):
            eigen_ratio_limit(seq(j[:10]), seq(j[:10]))


def density(dim=1):
    return MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=dim))


class VanishingDensity:
    """A 1-d spectral density that is 0 at every frequency."""

    dim = 1

    def __call__(self, omega):
        return 0.0


class TestRejectedProbeInputs:
    """Each probe rejects its inputs up front, naming what is wrong."""

    @pytest.mark.parametrize("probe, message", [
        (lambda: eigen_ratio_limit(seq(np.ones(20)), seq(np.ones(20)), window=0.0),
         "window must lie in (0, 1]"),
        (lambda: eigen_ratio_limit(seq(np.ones(20)), seq(np.ones(20)), window=1.5),
         "window must lie in (0, 1]"),
        (lambda: spectral_ratio_limit(density(1), density(2), np.logspace(0, 3, 25)),
         "spectral densities must share the ambient dimension"),
        (lambda: spectral_ratio_limit(density(), density(), [1.0, 1e3]),
         "need at least 3 positive radii"),
        (lambda: spectral_ratio_limit(density(), density(), [0.0, 1.0, 1e3]),
         "need at least 3 positive radii"),
        (lambda: spectral_ratio_limit(density(), density(), [1.0, 2.0, 99.0]),
         "radii must span at least two decades"),
        (lambda: spectral_ratio_limit(VanishingDensity(), density(), [1.0, 10.0, 100.0]),
         "f vanishes at radius 1; the ratio is undefined"),
        (lambda: spectral_equivalence_bounds(VanishingDensity(), density(), [np.ones(1)]),
         "f vanishes on the probe grid"),
        (lambda: nystrom_eigen(small_periodic_kernel(), [[0.5]], [1.0]),
         "need at least two quadrature nodes"),
    ], ids=["window-zero", "window-above-one", "dimensions", "two-radii", "zero-radius",
            "one-decade", "vanishing-density", "vanishing-on-grid", "one-node"])
    def test_domain_error(self, probe, message):
        with pytest.raises(DomainError) as exc:
            probe()
        assert str(exc.value) == message

    @pytest.mark.parametrize("eigenvalues, scale, message", [
        ([1.0, 2.0], 1.0, "eigenvalues must be sorted descending"),
        ([2.0, 1.0], 0.5, "eigenvectors are not weight-orthonormal"),
    ], ids=["unsorted", "not-orthonormal"])
    def test_nystrom_eigen_invariants(self, eigenvalues, scale, message):
        weights = np.array([0.5, 0.5])
        with pytest.raises(NumericalFailureError) as exc:
            NystromEigen(nodes=np.array([[0.25], [0.75]]), weights=weights,
                         eigenvalues=np.array(eigenvalues),
                         eigenvectors=scale * np.eye(2) / np.sqrt(weights), node_gram=np.eye(2))
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, a_estimate, message", [
        (LimitKind.CONVERGES, None, "a convergent verdict requires a positive limit estimate"),
        (LimitKind.CONVERGES, 0.0, "a convergent verdict requires a positive limit estimate"),
        (LimitKind.CONVERGES, math.nan,
         "a convergent verdict requires a positive limit estimate"),
        (LimitKind.INCONCLUSIVE, 2.0, "a_estimate is only meaningful for a convergent verdict"),
        (LimitKind.DIVERGES_TO_ZERO, 2.0,
         "a_estimate is only meaningful for a convergent verdict"),
    ], ids=["converges-none", "converges-zero", "converges-nan", "inconclusive-a",
            "diverges-a"])
    def test_verdict_needs_a_exactly_when_it_converges(self, kind, a_estimate, message):
        with pytest.raises(ValueError) as exc:
            RatioVerdict(kind, a_estimate)
        assert str(exc.value) == message


class TestSpectralRatioLimit:
    RADII = np.logspace(0, 3, 25)

    def test_matern_same_nu(self):
        f = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))
        f_t = MaternSpectralDensity(MaternParams(2.0, 0.5, 0.5, dim=1))
        verdict = spectral_ratio_limit(f, f_t, self.RADII)
        assert verdict.kind is LimitKind.CONVERGES
        assert verdict.a_estimate == pytest.approx(2.0, rel=1e-2)

    def test_identical(self):
        f = MaternSpectralDensity(MaternParams(1.0, 1.0, 1.0, dim=2))
        verdict = spectral_ratio_limit(f, f, self.RADII)
        assert verdict.kind is LimitKind.CONVERGES
        assert verdict.a_estimate == pytest.approx(1.0, rel=1e-12)

    def test_nu_mismatch_diverges(self):
        rough = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))
        smooth = MaternSpectralDensity(MaternParams(1.0, 1.5, 1.0, dim=1))
        assert spectral_ratio_limit(rough, smooth, self.RADII).kind \
            is LimitKind.DIVERGES_TO_ZERO
        assert spectral_ratio_limit(smooth, rough, self.RADII).kind \
            is LimitKind.DIVERGES_TO_INFINITY

    def test_relabel_symmetry(self):
        """Swapping the densities maps a -> 1/a and zero <-> infinity."""
        pairs = [
            (MaternParams(1.0, 0.5, 1.0, dim=1), MaternParams(2.0, 0.5, 0.5, dim=1)),
            (MaternParams(1.0, 0.5, 1.0, dim=1), MaternParams(1.0, 1.5, 1.0, dim=1)),
        ]
        flip = {LimitKind.DIVERGES_TO_ZERO: LimitKind.DIVERGES_TO_INFINITY,
                LimitKind.DIVERGES_TO_INFINITY: LimitKind.DIVERGES_TO_ZERO,
                LimitKind.CONVERGES: LimitKind.CONVERGES,
                LimitKind.INCONCLUSIVE: LimitKind.INCONCLUSIVE}
        for p, pt in pairs:
            fwd = spectral_ratio_limit(MaternSpectralDensity(p),
                                       MaternSpectralDensity(pt), self.RADII)
            bwd = spectral_ratio_limit(MaternSpectralDensity(pt),
                                       MaternSpectralDensity(p), self.RADII)
            assert bwd.kind is flip[fwd.kind]
            if fwd.kind is LimitKind.CONVERGES:
                assert bwd.a_estimate == pytest.approx(1.0 / fwd.a_estimate,
                                                       rel=1e-12)

    def test_needs_two_decades(self):
        f = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))
        with pytest.raises(DomainError):
            spectral_ratio_limit(f, f, [1.0, 2.0, 4.0])

    def test_direction_dependent_limit_is_inconclusive(self):
        class Anisotropic:
            """Ratio over the base tends to 3 along the first axis, 1 along
            the second; no direction-free limit exists."""
            dim = 2

            def __init__(self, base):
                self.base = base

            def __call__(self, omega):
                omega = np.asarray(omega, dtype=float)
                n2 = float(omega @ omega)
                weight = 1.0 + 2.0 * omega[0] ** 2 / (1.0 + n2)
                return self.base(omega) * weight

        base = MaternSpectralDensity(MaternParams(1.0, 1.0, 1.0, dim=2))
        verdict = spectral_ratio_limit(base, Anisotropic(base), self.RADII)
        assert verdict.kind is LimitKind.INCONCLUSIVE
        assert verdict.evidence is not None
        assert verdict.evidence.max_deviation > 0.0


class TestEquivalenceBounds:
    def test_exact_scaling(self):
        f = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))
        f2 = MaternSpectralDensity(MaternParams(math.sqrt(2.0), 0.5, 1.0, dim=1))
        grid = [np.array([w]) for w in np.linspace(0.0, 50.0, 101)]
        k_hat, K_hat = spectral_equivalence_bounds(f, f2, grid)
        assert k_hat == pytest.approx(2.0, rel=1e-12)
        assert K_hat == pytest.approx(2.0, rel=1e-12)

    def test_same_nu_bounded_spread(self):
        f = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))
        f_t = MaternSpectralDensity(MaternParams(2.0, 0.5, 0.5, dim=1))
        grid = [np.array([w]) for w in np.linspace(0.0, 100.0, 401)]
        k_hat, K_hat = spectral_equivalence_bounds(f, f_t, grid)
        assert 2.0 <= k_hat <= K_hat <= 8.0
        assert K_hat / k_hat <= 4.1

    def test_mismatch_spread_grows_with_grid(self):
        f = MaternSpectralDensity(MaternParams(1.0, 0.5, 1.0, dim=1))
        f_t = MaternSpectralDensity(MaternParams(1.0, 1.5, 1.0, dim=1))
        short = [np.array([w]) for w in np.linspace(0.0, 10.0, 101)]
        long = [np.array([w]) for w in np.linspace(0.0, 1000.0, 101)]
        k1, K1 = spectral_equivalence_bounds(f, f_t, short)
        k2, K2 = spectral_equivalence_bounds(f, f_t, long)
        assert K2 / k2 > 10.0 * K1 / k1

    def test_report_builds_the_directions_once_per_probe(self, monkeypatch):
        # the verdict and the bounds each build the directions once, not once
        # per radius, and the bounds' grid is every radius times every direction
        from misspec_krige import diagnostics
        calls, grids = [], []
        directions, bounds = diagnostics._default_directions, spectral_equivalence_bounds

        def counted(dim):
            calls.append(dim)
            return directions(dim)

        def recorded(f, f_t, grid):
            grids.append(grid)
            return bounds(f, f_t, grid)
        monkeypatch.setattr(diagnostics, "_default_directions", counted)
        monkeypatch.setattr(diagnostics, "spectral_equivalence_bounds", recorded)
        true = MaternKernel(MaternParams(1.0, 0.5, 1.0, dim=2), Box((0.0, 0.0), (1.0, 1.0)))
        wrong = MaternKernel(MaternParams(2.0, 0.5, 0.5, dim=2), Box((0.0, 0.0), (1.0, 1.0)))
        diagnostics._spectral_route(true, wrong, diagnostics.DEFAULT_TOL)
        assert calls == [2, 2]
        lo, hi, count = diagnostics.SPECTRAL_RADII
        radii = np.logspace(math.log10(lo), math.log10(hi), count)
        expected = [r * u for r in radii for u in directions(2)]
        assert [w.tobytes() for w in grids[0]] == [w.tobytes() for w in expected]


def small_periodic_kernel():
    return PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))


class TestNystromEigen:
    def test_rank_one_constant_kernel(self):
        from misspec_krige.kernels import CovarianceKernel

        class ConstantKernel(CovarianceKernel):
            domain = Box()

            def gram(self, x, y=None):
                n = np.atleast_2d(x).shape[0]
                m = n if y is None else np.atleast_2d(y).shape[0]
                return np.full((n, m), 0.7)

        nodes, weights = Box().quadrature(40)
        eig = nystrom_eigen(ConstantKernel(), nodes, weights, rank_cutoff=1e-10)
        assert eig.rank == 1
        assert eig.eigenvalues[0] == pytest.approx(0.7, rel=1e-12)

    def test_periodic_small_spectrum(self):
        nodes, weights = Torus().quadrature(64)
        eig = nystrom_eigen(small_periodic_kernel(), nodes, weights,
                            rank_cutoff=1e-9)
        assert eig.rank == 3
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 0.5, 0.5], atol=1e-6)

    def test_mercer_reconstruction_on_nodes(self):
        nodes, weights = Torus().quadrature(64)
        kern = small_periodic_kernel()
        eig = nystrom_eigen(kern, nodes, weights, rank_cutoff=1e-9)
        recon = mercer_reconstruction(eig)
        np.testing.assert_allclose(recon, kern.gram(nodes), atol=1e-6)

    def test_trace_consistency(self):
        nodes, weights = Box().quadrature(80)
        kern = MaternKernel(MaternParams(1.0, 1.5, 3.0))
        eig = nystrom_eigen(kern, nodes, weights, rank_cutoff=0.0)
        diag_integral = float(weights @ np.diag(kern.gram(nodes)))
        assert float(eig.eigenvalues.sum()) == pytest.approx(
            diag_integral, rel=1e-8)

    def test_matern_descending_positive(self):
        nodes, weights = Box().quadrature(128)
        eig = nystrom_eigen(MaternKernel(MaternParams(1.0, 0.5, 1.0)),
                            nodes, weights)
        assert np.all(eig.eigenvalues > 0)
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_bad_weights(self):
        nodes, weights = Box().quadrature(16)
        with pytest.raises(DomainError):
            nystrom_eigen(small_periodic_kernel(), nodes, -weights)

    @pytest.mark.parametrize("node_gram, message", [
        ([[1.0, 0.5], [0.5 + 1e-9, 1.0]], "kernel matrix asymmetry 1.000e-09"),
        ([[-1.0, 0.0], [0.0, -1.0]], "leading eigenvalue is not positive"),
    ], ids=["asymmetric", "negative-definite"])
    def test_node_gram_it_cannot_decompose_is_named(self, node_gram, message):
        # a kernel that breaks the class's contract of a symmetric positive
        # definite covariance fails by name, not with a meaningless spectrum
        from misspec_krige.kernels import CovarianceKernel

        class FixedGram(CovarianceKernel):
            domain = Box()

            def gram(self, x, y=None):
                return np.array(node_gram)

        with pytest.raises(NumericalFailureError, match=message):
            nystrom_eigen(FixedGram(), [[0.25], [0.75]], [0.5, 0.5])

    @pytest.mark.parametrize("cutoff", [-1e-9, 1.0, 2.0, math.nan])
    def test_rank_cutoff_outside_unit_interval_rejected(self, cutoff):
        # a cutoff of 1 or more would drop even the leading eigenvalue
        nodes, weights = Box().quadrature(16)
        with pytest.raises(DomainError, match=r"rank_cutoff must lie in \[0, 1\)"):
            nystrom_eigen(small_periodic_kernel(), nodes, weights, rank_cutoff=cutoff)


class TestTaTail:
    def test_scaled_kernel_gives_zero(self):
        nodes, weights = Torus().quadrature(64)
        spec = PeriodicSpectrum.from_callable(
            lambda k: (1.0 + float(k[0]) ** 2) ** -2.0, dim=1, k_max=16)
        scaled = PeriodicSpectrum.from_callable(
            lambda k: 3.0 * (1.0 + float(k[0]) ** 2) ** -2.0, dim=1, k_max=16)
        report = t_a_tail_spectrum(PeriodicKernel(spec), PeriodicKernel(scaled),
                                   nodes, weights, a=3.0, basis_size=16)
        assert report.max_abs <= 1e-8

    def test_diagonal_limit_three_tail_decay(self):
        nodes, weights = Torus().quadrature(128)
        base = lambda k: (1.0 + float(k[0]) ** 2) ** -2.0
        spec = PeriodicSpectrum.from_callable(base, dim=1, k_max=32)
        wobble = PeriodicSpectrum.from_callable(
            lambda k: 3.0 * base(k) * (1.0 + 1.0 / (1.0 + abs(float(k[0])))),
            dim=1, k_max=32)
        report = t_a_tail_spectrum(PeriodicKernel(spec), PeriodicKernel(wobble),
                                   nodes, weights, a=3.0, basis_size=32)
        assert report.last_quartile_max() < 0.1 * report.max_abs

    def test_wrong_a_leaves_tail_offset(self):
        nodes, weights = Torus().quadrature(128)
        base = lambda k: (1.0 + float(k[0]) ** 2) ** -2.0
        spec = PeriodicSpectrum.from_callable(base, dim=1, k_max=32)
        wobble = PeriodicSpectrum.from_callable(
            lambda k: 3.0 * base(k) * (1.0 + 1.0 / (1.0 + abs(float(k[0])))),
            dim=1, k_max=32)
        off = 1.0  # true limit is 3
        report = t_a_tail_spectrum(PeriodicKernel(spec), PeriodicKernel(wobble),
                                   nodes, weights, a=off, basis_size=32)
        assert report.last_quartile_max() > 0.5 * abs(3.0 - off)

    def test_a_zero_image_is_positive(self):
        nodes, weights = Torus().quadrature(64)
        spec = PeriodicSpectrum.from_callable(
            lambda k: (1.0 + float(k[0]) ** 2) ** -2.0, dim=1, k_max=16)
        kern = PeriodicKernel(spec)
        report = t_a_tail_spectrum(kern, kern, nodes, weights, a=0.0,
                                   basis_size=16)
        assert np.all(report.galerkin_eigs >= -1e-8)
        with pytest.raises(DomainError):
            t_a_tail_spectrum(kern, kern, nodes, weights, a=-1.0, basis_size=8)

    def test_basis_larger_than_resolved_rank(self):
        nodes, weights = Torus().quadrature(32)
        with pytest.raises(DomainError):
            t_a_tail_spectrum(small_periodic_kernel(), small_periodic_kernel(),
                              nodes, weights, a=1.0, basis_size=10)


class TestQuadratures:
    def test_uniform_grid_weights_sum(self):
        _, weights = Box((0.0,), (2.0,)).quadrature(33)
        assert weights.sum() == pytest.approx(2.0)

    def test_torus_grid_exactness(self):
        nodes, weights = Torus().quadrature(16)
        assert weights.sum() == pytest.approx(1.0)
        # exact for low harmonics
        assert float(weights @ np.cos(2 * np.pi * nodes[:, 0])) == pytest.approx(
            0.0, abs=1e-14)

    def test_fibonacci_sphere(self):
        nodes, weights = fibonacci_sphere_grid(200)
        np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=1e-12)
        assert weights.sum() == pytest.approx(4 * math.pi)
        # centroid near the origin for a balanced point set
        assert np.linalg.norm(nodes.mean(axis=0)) < 0.02


class TestVerdictTolerances:
    """The report's two verdict tolerances reach every route that reads them."""

    @staticmethod
    def routes(name, *tolerances):
        s = builtin_scenario(name)
        return assumption_report(s.true_model, s.wrong_model, *tolerances)["routes"]

    @pytest.mark.parametrize("name, route_names", [
        ("periodic_ratio3", ["eigen_analytic"]),
        ("matern_same_nu", ["spectral", "eigen_galerkin"])])
    def test_tight_tol_leaves_every_route_inconclusive(self, name, route_names):
        default, tight = self.routes(name), self.routes(name, DEFAULT_WINDOW, 1e-9)
        assert list(default) == list(tight) == route_names
        for route in route_names:
            assert (default[route]["kind"], tight[route]["kind"]) == ("converges",
                                                                      "inconclusive")

    @pytest.mark.parametrize("name, route, starts", [
        ("periodic_ratio3", "eigen_analytic", (103, 12)),
        ("matern_same_nu", "eigen_galerkin", (18, 2))])
    def test_window_moves_the_evidence(self, name, route, starts):
        got = [self.routes(name, *window)[route]["evidence"]["start_index"]
               for window in ((), (0.9,))]
        assert tuple(got) == starts


class TestAssumptionReport:
    def test_identical_matern_pair_both_routes(self):
        model = GaussianModel(zero_mean, MaternKernel(MaternParams(1, 0.5, 1)), "m")
        report = assumption_report(model, model)
        assert report["primary_route"] == "spectral"
        assert report["ratio_verdict"]["kind"] == "converges"
        assert report["ratio_verdict"]["a_estimate"] == pytest.approx(1.0, rel=1e-10)
        galerkin = report["routes"]["eigen_galerkin"]
        assert galerkin["kind"] == "converges"
        assert galerkin["a_estimate"] == pytest.approx(1.0, rel=1e-6)
        assert report["assessment"]["variance_norm_equivalence"] == "consistent"

    def test_nu_mismatch_flags_inconsistent(self):
        rough = GaussianModel(zero_mean, MaternKernel(MaternParams(1, 0.5, 1)), "r")
        smooth = GaussianModel(zero_mean, MaternKernel(MaternParams(1, 1.5, 1)), "s")
        report = assumption_report(rough, smooth)
        assert report["ratio_verdict"]["kind"] == "diverges_to_zero"
        assert report["assessment"]["variance_norm_equivalence"] == "inconsistent"

    def test_never_certifies(self):
        model = GaussianModel(zero_mean, MaternKernel(MaternParams(1, 0.5, 1)), "m")
        report = assumption_report(model, model)
        assert "certified" not in str(report["assessment"]).lower()
        assert "no infinite-dimensional property is certified" in report["disclaimer"]

    def test_mean_difference_route(self):
        kern = MaternKernel(MaternParams(1, 0.5, 1))
        base = GaussianModel(zero_mean, kern, "m0")
        shifted = GaussianModel(constant_mean(1.0), kern, "m1")
        report = assumption_report(base, shifted)
        assert report["mean_check"]["grade"] == "consistent"
        assert report["mean_check"]["values"][-1] < report["mean_check"]["values"][0]

    def test_sphere_pair_eigen_route(self):
        from misspec_krige.kernels import (SphereLegendreParams, SphereSeriesKernel,
                                           SphereSpdeParams)
        m1 = GaussianModel(zero_mean, SphereSeriesKernel(
            SphereLegendreParams(1.0, 1.0, 1.0)), "leg")
        m2 = GaussianModel(zero_mean, SphereSeriesKernel(
            SphereSpdeParams(1.0, 1.0, 1.0)), "spde")
        report = assumption_report(m1, m2)
        assert report["primary_route"] == "eigen_analytic"
        assert report["ratio_verdict"]["kind"] == "converges"
        assert report["ratio_verdict"]["a_estimate"] == pytest.approx(
            1.0 / (2 * math.pi), rel=0.05)

    @staticmethod
    def matern_pair():
        true = GaussianModel(zero_mean, MaternKernel(MaternParams(1.0, 0.5, 1.0)), "t")
        wrong = GaussianModel(zero_mean, MaternKernel(MaternParams(2.0, 0.5, 0.5)), "w")
        return true, wrong

    def test_one_quadrature_eigendecomposition_per_report(self, monkeypatch):
        import misspec_krige.diagnostics as diagnostics
        calls = []
        original = diagnostics.nystrom_eigen

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(diagnostics, "nystrom_eigen", counting)
        report = assumption_report(*self.matern_pair())
        assert report["routes"]["eigen_galerkin"]["kind"] == "converges"
        assert "error" not in report["t_a_tail"]
        assert len(calls) == 1

    def test_equal_kernels_share_one_node_gram(self, monkeypatch):
        scenario = builtin_scenario("identical")
        assert scenario.true_model.kernel == scenario.wrong_model.kernel
        node_grams = []
        original = MaternKernel.gram

        def counting(self, x, y=None):
            if y is None and np.shape(x)[0] == QUAD_NODES:
                node_grams.append(x)
            return original(self, x, y)
        monkeypatch.setattr(MaternKernel, "gram", counting)
        report = assumption_report(scenario.true_model, scenario.wrong_model)
        assert report["routes"]["eigen_galerkin"]["kind"] == "converges"
        assert len(node_grams) == 1

    def test_report_tail_equals_direct_probe(self):
        true, wrong = self.matern_pair()
        report = assumption_report(true, wrong)
        nodes, weights = Box().quadrature(128)
        direct = t_a_tail_spectrum(true.kernel, wrong.kernel, nodes, weights,
                                   report["ratio_verdict"]["a_estimate"], basis_size=24)
        assert report["t_a_tail"] == direct.to_dict()

    def test_failed_galerkin_route_names_no_primary_route(self, monkeypatch):
        import misspec_krige.diagnostics as diagnostics
        from misspec_krige.errors import NumericalFailureError
        true = GaussianModel(zero_mean, MaternKernel(MaternParams(1.0, 0.5, 1.0, dim=3),
                                                     UnitSphere()), "c1")
        wrong = GaussianModel(zero_mean, MaternKernel(MaternParams(2.0, 0.5, 0.5, dim=3),
                                                      UnitSphere()), "c2")
        report = assumption_report(true, wrong)
        assert report["primary_route"] == "eigen_galerkin"
        assert report["ratio_verdict"] == report["routes"]["eigen_galerkin"]

        def failing(*args, **kwargs):
            raise NumericalFailureError("eigendecomposition failed")
        monkeypatch.setattr(diagnostics, "galerkin_projection", failing)
        report = assumption_report(true, wrong)
        assert report["routes"] == {"eigen_galerkin": {"error": "eigendecomposition failed"}}
        assert report["primary_route"] is None
        assert report["ratio_verdict"] is None
        assert report["assessment"]["bounded_ratio_limit"] == "inconclusive"

    def test_two_dimensional_box_grades_the_mean_probe_inconclusive(self):
        square = Box((0.0, 0.0), (1.0, 1.0))
        true = GaussianModel(zero_mean, MaternKernel(MaternParams(1.0, 0.5, 1.0, dim=2),
                                                     square), "t")
        wrong = GaussianModel(constant_mean(1.0), MaternKernel(
            MaternParams(2.0, 0.5, 0.5, dim=2), square), "w")
        report = assumption_report(true, wrong)
        assert report["mean_check"] == {
            "status": f"no mean probe grid fits the domain {square!r}",
            "grade": "inconclusive"}
        assert report["primary_route"] == "spectral"
        assert report["ratio_verdict"]["kind"] == "converges"
        assert report["ratio_verdict"]["a_estimate"] == pytest.approx(2.0, rel=1e-3)

    def test_report_tail_names_an_unresolved_basis(self):
        # the README's k_max = 4 periodic pair: its kernels have rank 9
        def model(scale, label):
            spectrum = PeriodicSpectrum.from_callable(
                lambda k: scale * (1.0 + sum(c * c for c in k)) ** -2.0, dim=1, k_max=4)
            return GaussianModel(zero_mean, PeriodicKernel(spectrum), label)
        report = assumption_report(model(1.0, "t"), model(2.0, "w"))
        assert report["routes"]["eigen_galerkin"]["kind"] in ("converges", "inconclusive")
        assert report["t_a_tail"] == {
            "error": ("quadrature resolves only 9 eigenpairs above the cutoff; "
                      "requested a basis of 24")}

    @staticmethod
    def periodic_pair(true_coeffs, wrong_coeffs):
        def model(coeffs, label):
            spectrum = PeriodicSpectrum.from_coeffs(coeffs, dim=1, k_max=max(coeffs))
            return GaussianModel(zero_mean, PeriodicKernel(spectrum), label)
        return model(true_coeffs, "t"), model(wrong_coeffs, "w")

    @pytest.mark.parametrize("true_coeffs, message", [
        ({0: 1.0, 1: 0.5, 2: 0.25}, "need at least 20 eigenvalues for a tail verdict"),
        ({0: 1.0, 2: 0.25}, "spectra have mismatched supports"),
    ], ids=["short-spectrum", "mismatched-supports"])
    def test_failed_analytic_route_is_recorded_and_galerkin_stands_in(self, true_coeffs,
                                                                      message):
        true, wrong = self.periodic_pair(true_coeffs, {0: 2.0, 1: 1.0, 2: 0.5})
        report = assumption_report(true, wrong)
        assert report["routes"]["eigen_analytic"] == {"error": message}
        assert report["primary_route"] == "eigen_galerkin"
        assert report["ratio_verdict"] == report["routes"]["eigen_galerkin"]
        assert report["ratio_verdict"]["a_estimate"] == pytest.approx(2.0, rel=1e-10)

    def test_unresolved_projected_ratios_are_not_graded_consistent(self):
        # the working kernel has no mass at |k| = 1: two projected ratios are roundoff
        report = assumption_report(*self.periodic_pair({0: 1.0, 1: 0.5, 2: 0.25},
                                                       {0: 2.0, 2: 0.5}))
        error = report["routes"]["eigen_galerkin"]["error"]
        assert error.startswith("projected ratio ")
        assert "at or below 1e-12 times the largest" in error
        assert report["primary_route"] is None
        assert not report["assessment"]["bounded_ratio_limit"].startswith("consistent")
        assert report["assessment"]["variance_norm_equivalence"] != "consistent"

    def test_nonpositive_projected_ratios_are_recorded(self, monkeypatch):
        import misspec_krige.diagnostics as diagnostics
        original = diagnostics.galerkin_projection

        def negated(*args, **kwargs):
            projection = original(*args, **kwargs)
            return diagnostics.GalerkinProjection(
                eigenvalues=projection.eigenvalues, projected=-projection.projected,
                resolved=projection.resolved)
        monkeypatch.setattr(diagnostics, "galerkin_projection", negated)
        report = assumption_report(*self.matern_pair())
        assert report["routes"]["eigen_galerkin"] == {"error": "nonpositive projected ratios"}
        assert report["primary_route"] == "spectral"
        # the tail still uses the one projection of the report
        assert "max_abs" in report["t_a_tail"]
