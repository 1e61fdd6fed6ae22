"""Predictor construction, error moments, and the projection invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_krige.errors import DomainError, IllConditionedDesignError
from misspec_krige.kernels import MaternKernel, MaternParams
from misspec_krige.kriging import (
    Design,
    GaussianModel,
    LevelSystem,
    TargetFunctional,
    build_gram,
    constant_mean,
    error_moments,
    kink_mean,
    kriging_predictor,
    linear_mean,
    mean_shift_identity_check,
    zero_mean,
)


def exp_model(sigma=1.0, kappa=1.0, mean=zero_mean, label="exp"):
    return GaussianModel(mean, MaternKernel(MaternParams(sigma, 0.5, kappa)), label)


class TestDesign:
    def test_duplicate_sites_rejected(self):
        with pytest.raises(DomainError):
            Design(np.array([[0.3], [0.3]]))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Design(np.empty((0, 1)))

    def test_append_preserves_order(self):
        d = Design(np.array([[0.1], [0.2]])).append([[0.5]])
        np.testing.assert_array_equal(d.sites[:, 0], [0.1, 0.2, 0.5])


class TestBuildGram:
    def test_single_site(self):
        factor = build_gram(Design(np.array([[0.4]])), exp_model().kernel)
        assert factor.lower[0, 0] == pytest.approx(1.0)
        assert factor.jitter == 0.0

    def test_two_site_hand_cholesky(self):
        # Sigma = [[1, c], [c, 1]] with c = exp(-d): L = [[1, 0], [c, sqrt(1-c^2)]]
        d = 0.3
        factor = build_gram(Design(np.array([[0.1], [0.1 + d]])), exp_model().kernel)
        c = math.exp(-d)
        np.testing.assert_allclose(
            factor.lower, [[1.0, 0.0], [c, math.sqrt(1 - c * c)]], rtol=1e-12)

    def test_rank_deficient_kernel_gets_jitter(self):
        # a three-harmonic kernel is exactly rank 3: five sites force the ladder
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
        kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
        design = Design((np.arange(5) / 5.0 + 0.01)[:, None])
        factor = build_gram(design, kern)
        assert factor.jitter > 0.0
        assert factor.jitter <= 1e-6 * np.trace(kern.gram(design.sites)) / 5

    def test_indefinite_matrix_exhausts_ladder(self):
        from misspec_krige.kernels import Box, CovarianceKernel

        class BrokenKernel(CovarianceKernel):
            domain = Box()

            def gram(self, x, y=None):
                n = np.atleast_2d(x).shape[0]
                # positive diagonal, but indefinite far beyond the ladder
                return np.full((n, n), 2.0) - np.eye(n)

        with pytest.raises(IllConditionedDesignError) as err:
            build_gram(Design(np.array([[0.1], [0.5]])), BrokenKernel())
        assert err.value.leading_minor == 2
        assert err.value.max_jitter is not None


class TestKrigingPredictor:
    def test_single_site_weights(self):
        model = exp_model()
        design = Design(np.array([[0.3]]))
        target = TargetFunctional.point([0.5])
        pred = kriging_predictor(target, design, model)
        assert pred.weights[0] == pytest.approx(math.exp(-0.2), rel=1e-12)
        assert pred.intercept == 0.0

    def test_exact_interpolation_weights(self):
        model = exp_model()
        design = Design(np.array([[0.2], [0.5], [0.8]]))
        target = TargetFunctional.point([0.5])
        pred = kriging_predictor(target, design, model)
        np.testing.assert_allclose(pred.weights, [0.0, 1.0, 0.0], atol=1e-10)
        assert pred.intercept == pytest.approx(0.0, abs=1e-12)

    def test_scaled_kernel_same_weights(self):
        design = Design(np.arange(1, 6)[:, None] / 6.0)
        target = TargetFunctional.point([0.55])
        base = kriging_predictor(target, design, exp_model(sigma=1.0))
        for c in (0.1, 4.0, 100.0):
            scaled = kriging_predictor(target, design, exp_model(sigma=math.sqrt(c)))
            np.testing.assert_allclose(scaled.weights, base.weights,
                                       rtol=1e-10, atol=1e-12)
            assert scaled.intercept == pytest.approx(base.intercept, abs=1e-12)

    def test_mean_enters_intercept(self):
        model = exp_model(mean=constant_mean(2.0))
        design = Design(np.array([[0.3]]))
        target = TargetFunctional.point([0.5])
        pred = kriging_predictor(target, design, model)
        w = math.exp(-0.2)
        assert pred.intercept == pytest.approx(2.0 - 2.0 * w, rel=1e-12)
        # prediction at the prior mean is the prior mean of the target
        assert pred.predict(np.array([2.0])) == pytest.approx(2.0)


class TestErrorMoments:
    def test_single_site_variance(self):
        model = exp_model()
        d = 0.2
        design = Design(np.array([[0.3]]))
        target = TargetFunctional.point([0.3 + d])
        pred = kriging_predictor(target, design, model)
        em = error_moments(pred, target, model)
        assert em.mean == pytest.approx(0.0, abs=1e-14)
        assert em.variance == pytest.approx(1.0 - math.exp(-2 * d), rel=1e-12)
        assert em.second_moment == em.variance

    def test_scaled_eval_kernel(self):
        model = exp_model()
        eval_model = exp_model(sigma=2.0)
        design = Design(np.array([[0.1], [0.6], [0.9]]))
        target = TargetFunctional.point([0.4])
        pred = kriging_predictor(target, design, model)
        base = error_moments(pred, target, model)
        scaled = error_moments(pred, target, eval_model)
        assert scaled.variance == pytest.approx(4.0 * base.variance, rel=1e-12)
        assert scaled.mean == base.mean

    def test_mean_shift_single_site(self):
        # eval mean = build mean + delta: error mean is delta (exp(-d) - 1)
        delta, d = 0.7, 0.25
        build = exp_model()
        evalm = exp_model(mean=constant_mean(delta))
        design = Design(np.array([[0.5]]))
        target = TargetFunctional.point([0.5 + d])
        pred = kriging_predictor(target, design, build)
        em = error_moments(pred, target, evalm)
        assert em.mean == pytest.approx(delta * (math.exp(-d) - 1.0), rel=1e-12)

    def test_second_moment_identity(self):
        build = exp_model()
        evalm = exp_model(sigma=1.5, mean=linear_mean(0.3, 1.1))
        design = Design(np.array([[0.2], [0.7]]))
        target = TargetFunctional.point([0.4])
        pred = kriging_predictor(target, design, build)
        em = error_moments(pred, target, evalm)
        assert em.second_moment == pytest.approx(em.variance + em.mean ** 2,
                                                 rel=1e-12)

    def test_negative_variance_beyond_tolerance_fails(self):
        from misspec_krige.errors import NumericalFailureError
        from misspec_krige.kriging import ErrorMoments
        with pytest.raises(NumericalFailureError):
            ErrorMoments(mean=0.0, variance=-1e-6)
        clamped = ErrorMoments(mean=0.5, variance=-1e-12)
        assert clamped.variance == 0.0
        assert clamped.second_moment == 0.25

    def test_multi_site_functional(self):
        """Contrast Z(t1) - Z(t2): moments against a direct bilinear oracle."""
        model = exp_model()
        design = Design(np.array([[0.2], [0.5], [0.8]]))
        target = TargetFunctional(0.0, np.array([[0.35], [0.65]]),
                                  np.array([1.0, -1.0]))
        pred = kriging_predictor(target, design, model)
        kern = model.kernel
        pts = np.vstack([design.sites, target.sites])
        cov = kern.gram(pts)
        v = np.concatenate([pred.weights, -target.coeffs])
        oracle = float(v @ cov @ v)
        em = error_moments(pred, target, model)
        assert em.variance == pytest.approx(oracle, rel=1e-10)
        assert em.mean == pytest.approx(0.0, abs=1e-12)


class TestLevelSystem:
    """The batched path must reproduce the one-target path bit for bit."""

    @staticmethod
    def targets():
        return [TargetFunctional(0.7, np.array([[0.12], [0.47], [0.83]]),
                                 np.array([1.5, -0.25, -2.0]), label="mixed"),
                TargetFunctional.point([0.33], label="point"),
                TargetFunctional(-1.1, np.array([[0.55], [0.61]]),
                                 np.array([-1.0, 1.0]), label="contrast")]

    def assert_batched_equals_single(self, design, build, measure):
        targets = self.targets()
        batched = LevelSystem(design, targets, build).predictors()
        moments = LevelSystem(design, targets, measure).moments([batched, batched[::-1]])
        for t, target in enumerate(targets):
            single = kriging_predictor(target, design, build)
            assert np.array_equal(batched[t].weights, single.weights)
            assert batched[t].intercept == single.intercept
            for got, pred in ((moments[0][t], single),
                              (moments[1][t], batched[::-1][t])):
                want = error_moments(pred, target, measure)
                assert (got.mean, got.variance) == (want.mean, want.variance)

    def test_multi_site_targets_match_one_target_path(self):
        design = Design(np.array([[0.05], [0.2], [0.3], [0.5], [0.58], [0.7], [0.9]]))
        build = exp_model(mean=linear_mean(0.4, -0.8))
        measure = exp_model(sigma=1.7, kappa=0.6, mean=constant_mean(0.9))
        self.assert_batched_equals_single(design, build, measure)
        self.assert_batched_equals_single(design, measure, build)

    def test_jittered_gram_moments_use_unjittered_sigma(self):
        # the rank-3 kernel of test_rank_deficient_kernel_gets_jitter
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
        kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
        model = GaussianModel(constant_mean(0.3), kern, "rank3")
        design = Design((np.arange(5) / 5.0 + 0.01)[:, None])
        gram = LevelSystem(design, self.targets(), model).gram
        assert gram.jitter > 0.0
        assert np.array_equal(gram.sigma, kern.gram(design.sites))
        assert not np.array_equal(gram.matrix, gram.sigma)
        self.assert_batched_equals_single(design, model, model)
        self.assert_batched_equals_single(design, exp_model(), model)

    @pytest.mark.parametrize("jittered", [False, True])
    def test_multi_column_solve_equals_single_columns(self, jittered):
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
        if jittered:
            kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
            design = Design((np.arange(5) / 5.0 + 0.01)[:, None])
        else:
            kern = exp_model().kernel
            design = Design((np.arange(1, 41) / 41.0)[:, None])
        gram = build_gram(design, kern)
        assert (gram.jitter > 0.0) == jittered
        rhs = np.random.default_rng(7).standard_normal((design.n, 6))
        solved = gram.solve(rhs)
        for j in range(rhs.shape[1]):
            assert np.array_equal(solved[:, j], gram.solve(rhs[:, j]))


class TestProjectionInvariants:
    def setup_method(self):
        self.model = exp_model()
        self.design = Design(np.array([[0.15], [0.35], [0.55], [0.75], [0.95]]))
        self.target = TargetFunctional.point([0.42])
        self.pred = kriging_predictor(self.target, self.design, self.model)

    def test_first_order_optimality(self):
        base = error_moments(self.pred, self.target, self.model).variance
        for j in range(self.design.n):
            for eps in (1e-3, -1e-3):
                w = self.pred.weights.copy()
                w[j] += eps
                perturbed = type(self.pred)(design=self.design, weights=w,
                                            intercept=self.pred.intercept,
                                            built_under="perturbed")
                var = error_moments(perturbed, self.target, self.model).variance
                assert var >= base - 1e-12

    def test_variance_monotone_in_nested_designs(self):
        prev = math.inf
        sites = np.array([[0.15], [0.35], [0.55], [0.75], [0.95], [0.44], [0.40]])
        for n in range(1, len(sites) + 1):
            design = Design(sites[:n])
            pred = kriging_predictor(self.target, design, self.model)
            var = error_moments(pred, self.target, self.model).variance
            assert var <= prev + 1e-10
            prev = var

    def test_interpolation_zero_variance(self):
        target = TargetFunctional.point([0.55])
        pred = kriging_predictor(target, self.design, self.model)
        var = error_moments(pred, target, self.model).variance
        assert var <= 1e-10

    @given(st.floats(0.05, 0.95), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_unbiasedness_under_build_model(self, t, n):
        model = exp_model(mean=linear_mean(0.5, -1.2))
        design = Design((np.arange(1, n + 1) / (n + 1.0))[:, None])
        target = TargetFunctional.point([t])
        pred = kriging_predictor(target, design, model)
        em = error_moments(pred, target, model)
        assert abs(em.mean) <= 1e-10


class TestMeanShiftIdentity:
    def test_identical_means(self):
        design = Design(np.array([[0.2], [0.6]]))
        target = TargetFunctional.point([0.4])
        dev = mean_shift_identity_check(target, design, exp_model(), exp_model())
        assert dev == 0.0

    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("shift", [constant_mean(0.8),
                                       linear_mean(0.3, 2.0),
                                       kink_mean(0.37, 0.2)])
    def test_shifted_means(self, n, shift):
        design = Design((np.arange(1, n + 1) / (n + 1.0))[:, None])
        target = TargetFunctional.point([0.415])
        dev = mean_shift_identity_check(target, design, exp_model(),
                                        exp_model(mean=shift))
        assert dev <= 1e-10

    def test_requires_shared_kernel(self):
        design = Design(np.array([[0.2]]))
        target = TargetFunctional.point([0.4])
        with pytest.raises(DomainError):
            mean_shift_identity_check(target, design, exp_model(),
                                      exp_model(kappa=2.0))
