"""Predictor construction, error moments, and the projection invariants."""

import math
import multiprocessing
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_krige.errors import DomainError, IllConditionedDesignError
from misspec_krige.kernels import MaternKernel, MaternParams
from misspec_krige.kriging import (
    Design,
    ErrorMoments,
    GaussianModel,
    LevelSystem,
    LinearPredictor,
    TargetFunctional,
    build_gram,
    constant_mean,
    error_moments,
    kink_mean,
    kriging_predictor,
    linear_mean,
    _COMPENSATED_FROM,
    _row_dots,
    _tilts,
    zero_mean,
)

from closed_forms import level_moments, mean_shift_identity_check, one_dot


def exp_model(sigma=1.0, kappa=1.0, mean=zero_mean, label="exp"):
    return GaussianModel(mean, MaternKernel(MaternParams(sigma, 0.5, kappa)), label)


def spread_sites(moved=None):
    """300 distinct 2-d sites; ``moved=(i, j)`` puts site j onto site i."""
    sites = np.random.default_rng(3).uniform(0.0, 1.0, (300, 2))
    if moved is not None:
        sites[moved[1]] = sites[moved[0]]
    return sites


class TestDesign:
    def test_duplicate_sites_rejected(self):
        with pytest.raises(DomainError):
            Design(np.array([[0.3], [0.3]]))

    @pytest.mark.parametrize("sites", [
        [[0.0], [1e-200]],  # the distance underflows to 0
        spread_sites((0, 299)),
        spread_sites((250, 260)),
        spread_sites((10, 11)),
    ], ids=["underflow", "first-and-last", "last-block", "first-block"])
    def test_coincident_sites_rejected(self, sites):
        with pytest.raises(DomainError, match="pairwise distinct"):
            Design(np.array(sites))

    def test_close_distinct_sites_accepted(self):
        assert Design(np.array([[0.0], [1e-150]])).n == 2
        assert Design(spread_sites()).n == 300

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Design(np.empty((0, 1)))

    @pytest.mark.parametrize("sites", [[[math.nan]], [[0.1], [math.nan]], [[0.1], [math.inf]]])
    def test_non_finite_sites_rejected(self, sites):
        with pytest.raises(DomainError, match="design sites must be finite"):
            Design(np.array(sites))

    def test_non_finite_target_site_rejected(self):
        with pytest.raises(DomainError, match="target sites must be finite"):
            TargetFunctional(0.0, np.array([[0.2], [math.nan]]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("make, message", [
        (lambda: TargetFunctional(0.0, [[0.2], [0.4]], [1.0]),
         "one coefficient per target site is required"),
        (lambda: TargetFunctional(1.0, [[0.2], [0.4]], [0.0, -0.0]),
         "a target needs at least one nonzero site coefficient"),
        (lambda: TargetFunctional(0.0, [[0.3], [0.5]], [1.0, math.nan]),
         "target coeffs must be finite"),
        (lambda: TargetFunctional(0.0, [[0.3], [0.5]], [math.inf, 1.0]),
         "target coeffs must be finite"),
        (lambda: TargetFunctional(math.inf, [[0.3]], [1.0]),
         "target intercept_coeff must be finite"),
        (lambda: TargetFunctional(math.nan, [[0.3]], [1.0]),
         "target intercept_coeff must be finite"),
        (lambda: LinearPredictor(Design([[0.1], [0.5]]), [1.0], 0.0),
         "weight vector length must equal the design size"),
        (lambda: LinearPredictor(Design([[0.1], [0.5]]), [1.0, math.nan], 0.0),
         "predictor weights and intercept must be finite"),
        (lambda: LinearPredictor(Design([[0.1], [0.5]]), [1.0, 0.0], math.inf),
         "predictor weights and intercept must be finite"),
    ], ids=["target-coeff-count", "target-all-zero", "target-coeff-nan", "target-coeff-inf",
            "target-intercept-inf", "target-intercept-nan", "weights-length", "weights-nan",
            "intercept-inf"])
    def test_rejected_functional_or_predictor(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message


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

    def test_inverse_rcond_estimates_one_norm_condition(self):
        design = Design(np.linspace(0.1, 0.9, 32)[:, None])
        factor = build_gram(design, exp_model().kernel)
        cond1 = np.linalg.cond(factor.matrix, 1)
        # LAPACK's estimate of the inverse's norm is a lower bound, and tight
        assert cond1 / 3 <= factor.inverse_rcond <= cond1 * (1 + 1e-8)

    def test_inverse_rcond_is_reproducible_under_heap_churn(self):
        # dpocon's last digits follow where its workspace lands; allocations of
        # varying size between calls move it, and the rounded estimate must not
        from misspec_krige.harness import DesignGenerator, generate_design
        design = generate_design(DesignGenerator.halton(), 512)
        factor = build_gram(design, MaternKernel(MaternParams(2.0, 0.5, 0.5)))
        rng = np.random.default_rng(0)
        held, values = [], set()
        for _ in range(200):
            held.append(np.empty(int(rng.integers(1, 4000))))
            if len(held) > 5:
                held.pop(int(rng.integers(0, 5)))
            values.add(factor.inverse_rcond)
        assert len(values) == 1

    def test_rank_deficient_kernel_gets_jitter(self):
        # a three-harmonic kernel is exactly rank 3: five sites force the ladder
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
        kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
        design = Design((np.arange(5) / 5.0 + 0.01)[:, None])
        factor = build_gram(design, kern)
        assert factor.jitter > 0.0
        assert factor.jitter <= 1e-6 * np.trace(kern.gram(design.sites)) / 5

    @staticmethod
    def ladder_case(jittered):
        """A design and kernel factored at the first rung, or (the rank-3
        kernel of test_rank_deficient_kernel_gets_jitter) past it."""
        if jittered:
            from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
            return (Design((np.arange(5) / 5.0 + 0.01)[:, None]),
                    PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1)))
        return Design(np.linspace(0.1, 0.9, 32)[:, None]), exp_model().kernel

    @pytest.mark.parametrize("jittered", [False, True])
    def test_given_sigma_factors_bit_for_bit(self, jittered):
        design, kern = self.ladder_case(jittered)
        own = build_gram(design, kern)
        given = build_gram(design, kern, sigma=kern.gram(design.sites))
        assert (own.jitter > 0.0) == jittered
        assert given.lower.tobytes() == own.lower.tobytes()
        assert (given.jitter, given.inverse_rcond) == (own.jitter, own.inverse_rcond)

    @pytest.mark.parametrize("shape", [(4, 3), (16,), (5, 5)])
    def test_given_sigma_of_another_shape_rejected(self, shape):
        design = Design(np.linspace(0.1, 0.9, 4)[:, None])
        with pytest.raises(DomainError, match=re.escape(f"shape {shape}")):
            build_gram(design, exp_model().kernel, sigma=np.ones(shape))

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

    @pytest.mark.parametrize("columns", [None, 7])
    def test_refined_solve_matches_matmul_residual(self, columns):
        # reference: the refinement residual as one ordered 80-bit matmul
        design = Design(np.concatenate([np.arange(1, 41) / 41.0 + 0.003,
                                        0.37 + 1e-3 * 0.6 ** np.arange(24)])[:, None])
        gram = build_gram(design, exp_model().kernel)
        shape = design.n if columns is None else (design.n, columns)
        rhs = np.random.default_rng(3).standard_normal(shape)
        x = scipy.linalg.cho_solve((gram.lower, True), rhs)
        residual = (rhs.astype(np.longdouble)
                    - gram.matrix.astype(np.longdouble) @ x.astype(np.longdouble))
        want = x + scipy.linalg.cho_solve((gram.lower, True), residual.astype(float))
        assert np.array_equal(gram.solve(rhs), want)


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

    def test_moment_rules_run_once(self, monkeypatch):
        # ``error_moments`` hands the raw mean and variance to ``ErrorMoments``
        from misspec_krige import kriging
        calls = []
        rules = kriging._moment_rules

        def counting(mean, variance):
            calls.append((mean, variance))
            return rules(mean, variance)
        monkeypatch.setattr(kriging, "_moment_rules", counting)
        build, evalm = exp_model(), exp_model(sigma=1.5, mean=linear_mean(0.3, 1.1))
        design = Design(np.array([[0.2], [0.7]]))
        target = TargetFunctional.point([0.4])
        em = error_moments(kriging_predictor(target, design, build), target, evalm)
        assert len(calls) == 1
        assert calls[0] == (em.mean, em.variance)

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

    def test_mean_that_overflows_when_squared_is_named(self):
        from misspec_krige.errors import NumericalFailureError
        from misspec_krige.kriging import ErrorMoments
        with pytest.raises(NumericalFailureError,
                           match="error mean -1.000e\\+300 overflows when squared"):
            ErrorMoments(mean=-1e300, variance=1.0)

    def test_second_moment_squares_as_python_floats(self):
        # Python's ``m ** 2`` (libm pow) and ``m * m``, a numpy array's square,
        # round this mean one bit apart on glibc; the moments keep the former,
        # and TestLevelSystem holds a level's second moments to these
        m = 0.4127425118455319
        for v in (0.0, 0.03, 1.0):
            assert ErrorMoments(mean=m, variance=v).second_moment == v + m ** 2

    def test_one_profile_pass_per_call(self, kernel_work):
        # the design Gram, the cross block and the target's block in one request
        design = Design(np.array([[0.1], [0.35], [0.6], [0.9]]))
        target = TargetFunctional(0.2, np.array([[0.2], [0.7]]), np.array([1.0, -0.5]))
        pred = kriging_predictor(target, design, exp_model())
        before = dict(kernel_work)
        smoother = GaussianModel(linear_mean(0.3, 1.1), MaternKernel(MaternParams(1.5, 1.5, 2.0)))
        for model in (exp_model(), smoother):
            error_moments(pred, target, model)
        assert kernel_work["_evaluate"] - before["_evaluate"] == 2
        assert kernel_work["gram_pairs"] - before["gram_pairs"] == 2
        assert kernel_work["build_gram"] == before["build_gram"]

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


def mixed_targets(points):
    """Multi-site and point targets, 3, 1, 2 and 1 sites, at ``points(k)``."""
    return [TargetFunctional(0.7, points(3), np.array([1.5, -0.25, -2.0]), label="mixed"),
            TargetFunctional.point(points(1)[0], label="point"),
            TargetFunctional(-1.1, points(2), np.array([-1.0, 1.0]), label="contrast"),
            TargetFunctional.point(points(1)[0], label="point2")]


def level_case(family):
    """A design, mixed targets and two models of one kernel family."""
    from misspec_krige.kernels import (GreatCircleMaternKernel, PeriodicKernel,
                                       PeriodicSpectrum, SphereLegendreParams,
                                       SphereSeriesKernel, SphereSpdeParams, UnitSphere)
    from misspec_krige.kernels.base import fibonacci_sphere_grid
    rng = np.random.default_rng(LEVEL_FAMILIES.index(family))

    def unit(k):
        x = rng.standard_normal((k, 3))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    def spectrum(dim, power):
        return PeriodicSpectrum.from_callable(
            lambda k: 1.0 / (1.0 + sum(c * c for c in k)) ** power, dim=dim, k_max=6)
    sphere_mean = linear_mean(0.2, [0.3, -0.1, 0.5])
    if family == "matern_box":
        design, points = Design(np.linspace(0.03, 0.97, 12)[:, None]), \
            lambda k: rng.uniform(0.0, 1.0, (k, 1))
        kernels = (MaternKernel(MaternParams(1.0, 1.5, 2.0)),
                   MaternKernel(MaternParams(1.7, 1.5, 0.8)))
        means = (linear_mean(0.4, -0.8), constant_mean(0.9))
    elif family in ("periodic_1d", "periodic_2d"):
        dim = int(family[-2])
        design, points = Design(rng.uniform(0.0, 1.0, (12, dim))), \
            lambda k: rng.uniform(0.0, 1.0, (k, dim))
        kernels = (PeriodicKernel(spectrum(dim, 1.0)), PeriodicKernel(spectrum(dim, 2.0)))
        means = (constant_mean(0.4), linear_mean(-0.3, [1.1] * dim))
    else:
        design, points = Design(fibonacci_sphere_grid(16)[0]), unit
        kernels = {
            "matern_sphere": (MaternKernel(MaternParams(1.0, 1.5, 2.0, dim=3), UnitSphere()),
                              MaternKernel(MaternParams(0.8, 0.5, 1.0, dim=3), UnitSphere())),
            "great_circle": (GreatCircleMaternKernel(MaternParams(1.0, 0.5, 2.0)),
                             GreatCircleMaternKernel(MaternParams(1.3, 0.25, 1.0))),
            "sphere_series": (SphereSeriesKernel(SphereLegendreParams(1.0, 1.0, 1.0)),
                              SphereSeriesKernel(SphereSpdeParams(0.9, 1.0, 1.3, l_max=60))),
        }[family]
        means = (sphere_mean, constant_mean(-0.6))
    build, measure = (GaussianModel(mean, kernel, f"{family}{i}")
                      for i, (mean, kernel) in enumerate(zip(means, kernels)))
    return design, mixed_targets(points), build, measure


LEVEL_FAMILIES = ("matern_box", "matern_sphere", "great_circle", "sphere_series",
                  "periodic_1d", "periodic_2d")


class TestLevelSystem:
    """The batched path must reproduce the one-target path bit for bit."""

    @staticmethod
    def targets():
        return [TargetFunctional(0.7, np.array([[0.12], [0.47], [0.83]]),
                                 np.array([1.5, -0.25, -2.0]), label="mixed"),
                TargetFunctional.point([0.33], label="point"),
                TargetFunctional(-1.1, np.array([[0.55], [0.61]]),
                                 np.array([-1.0, 1.0]), label="contrast")]

    def assert_batched_equals_single(self, design, build, measure, targets=None):
        targets = self.targets() if targets is None else targets
        system = LevelSystem(design, targets, build.kernel)
        weights, intercepts = system.weights, system.means(build)[2]
        reversed_tilts = _tilts(weights[::-1], [t.coeffs for t in targets])
        measure_system = LevelSystem(design, targets, measure.kernel)
        means, variances, _, seconds = level_moments(
            measure_system, np.stack([weights, weights[::-1]]),
            np.stack([intercepts, intercepts[::-1]]),
            np.stack([system.tilts, reversed_tilts]), measure_system.means(measure))
        for t, target in enumerate(targets):
            single = kriging_predictor(target, design, build)
            assert np.array_equal(weights[t], single.weights)
            assert intercepts[t] == single.intercept
            reversed_pred = LinearPredictor(design, weights[::-1][t], intercepts[::-1][t])
            for s, pred in enumerate((single, reversed_pred)):
                want = error_moments(pred, target, measure)
                assert (means[s, t], variances[s, t], seconds[s, t]) == \
                    (want.mean, want.variance, want.second_moment)

    def test_multi_site_targets_match_one_target_path(self):
        design = Design(np.array([[0.05], [0.2], [0.3], [0.5], [0.58], [0.7], [0.9]]))
        build = exp_model(mean=linear_mean(0.4, -0.8))
        measure = exp_model(sigma=1.7, kappa=0.6, mean=constant_mean(0.9))
        self.assert_batched_equals_single(design, build, measure)
        self.assert_batched_equals_single(design, measure, build)

    def test_sphere_pair_matches_one_target_path(self):
        # the sphere kernel evaluates all target blocks in one series pass
        from misspec_krige.kernels.base import fibonacci_sphere_grid
        from misspec_krige.kernels import (SphereLegendreParams, SphereSeriesKernel,
                                           SphereSpdeParams)
        rng = np.random.default_rng(4)

        def unit(n):
            x = rng.standard_normal((n, 3))
            return x / np.linalg.norm(x, axis=1, keepdims=True)
        targets = [TargetFunctional(0.7, unit(3), np.array([1.5, -0.25, -2.0]), label="mixed"),
                   TargetFunctional.point(unit(1)[0], label="point"),
                   TargetFunctional(-1.1, unit(2), np.array([-1.0, 1.0]), label="contrast")]
        design = Design(fibonacci_sphere_grid(24)[0])
        build = GaussianModel(constant_mean(0.4),
                              SphereSeriesKernel(SphereLegendreParams(1.0, 1.0, 1.0)), "leg")
        measure = GaussianModel(zero_mean,
                                SphereSeriesKernel(SphereSpdeParams(0.9, 1.0, 1.3)), "spde")
        self.assert_batched_equals_single(design, build, measure, targets)
        self.assert_batched_equals_single(design, measure, build, targets)

    def test_jittered_gram_moments_use_unjittered_sigma(self):
        # the rank-3 kernel of test_rank_deficient_kernel_gets_jitter
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
        kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
        model = GaussianModel(constant_mean(0.3), kern, "rank3")
        design = Design((np.arange(5) / 5.0 + 0.01)[:, None])
        system = LevelSystem(design, self.targets(), kern)
        gram = build_gram(design, kern, sigma=system.sigma)
        assert gram.jitter > 0.0
        assert np.array_equal(system.sigma, kern.gram(design.sites))
        assert not np.array_equal(gram.matrix, system.sigma)
        self.assert_batched_equals_single(design, model, model)
        self.assert_batched_equals_single(design, exp_model(), model)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("family", LEVEL_FAMILIES)
    def test_every_family_matches_one_target_path(self, monkeypatch, family, threads):
        # point and multi-site targets stacked in one level, against each
        # target's own system; every block of two or more rows splits
        from misspec_krige.kernels import base
        monkeypatch.setattr(base, "_SPLIT_FROM", 1)
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", str(threads))
        design, targets, build, measure = level_case(family)
        self.assert_batched_equals_single(design, build, measure, targets)
        # the level path: both predictor sets as arrays, sharing their tilts
        models = (build, measure)
        systems = [LevelSystem(design, targets, model.kernel) for model in models]
        means = [system.means(model) for system, model in zip(systems, models)]
        weights = np.stack([system.weights for system in systems])
        intercepts = np.stack([m[2] for m in means])
        tilts = np.stack([system.tilts for system in systems])
        for system, model, m in zip(systems, models, means):
            block_means, block_variances, *_ = level_moments(
                system, weights, intercepts, tilts, m)
            for s, pred_model in enumerate(models):
                for t, target in enumerate(targets):
                    single = kriging_predictor(target, design, pred_model)
                    assert np.array_equal(weights[s, t], single.weights)
                    assert intercepts[s, t] == single.intercept
                    want = error_moments(single, target, model)
                    assert (block_means[s, t], block_variances[s, t]) == \
                        (want.mean, want.variance)

    def test_targets_of_several_dimensions_rejected(self):
        # the targets' sites are stacked into one array
        design = Design(np.linspace(0.1, 0.9, 5)[:, None])
        targets = [TargetFunctional.point([0.3]), TargetFunctional.point([0.3, 0.4])]
        with pytest.raises(DomainError, match="must have one dimension, the domain's"):
            LevelSystem(design, targets, exp_model().kernel)

    def test_blocks_hold_no_share_of_the_evaluation_buffer(self):
        # the design Gram's triangle, the cross and the target blocks are
        # profiled in one flat buffer; a block kept as a view of it would hold
        # all of it for as long as the system lives
        design = Design((np.arange(1, 41) / 41.0)[:, None])
        system = LevelSystem(design, self.targets(), exp_model().kernel)
        for block in system.cross + system.tblocks:
            owner = block if block.base is None else block.base
            assert owner.nbytes == block.nbytes
            assert not np.shares_memory(block, system.sigma)

    @pytest.mark.parametrize("jittered", [False, True])
    def test_multi_column_solve_equals_single_columns(self, jittered):
        design, kern = TestBuildGram.ladder_case(jittered)
        gram = build_gram(design, kern)
        assert (gram.jitter > 0.0) == jittered
        rhs = np.random.default_rng(7).standard_normal((design.n, 6))
        solved = gram.solve(rhs)
        for j in range(rhs.shape[1]):
            assert np.array_equal(solved[:, j], gram.solve(rhs[:, j]))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100, 255, 256, 257, 400])
def test_row_dots_equal_one_dot_per_row(n):
    # one batched call on either side of the compensated summation's threshold
    rng = np.random.default_rng(n)
    rows, b = rng.standard_normal((9, n)) * 10.0 ** rng.integers(-3, 4, (9, 1)), \
        rng.standard_normal(n)
    assert (n >= _COMPENSATED_FROM) == (n >= 256)
    assert _row_dots(rows, b).tolist() == [one_dot(row, b) for row in rows]


def dense_moment_block(weights, intercepts, targets, sigma, cross, tblocks, m_design,
                       m_targets):
    """Reference assembly: one dense K over [design; every target's sites],
    multiplied by all rows of v, as the library computed it before it
    restricted each row to its nonzeros."""
    n = sigma.shape[0]
    bounds = np.cumsum([n] + [len(t.coeffs) for t in targets])
    kmat = np.zeros((bounds[-1], bounds[-1]), dtype=np.longdouble)
    kmat[:n, :n] = sigma
    for lo, hi, c, tblock in zip(bounds, bounds[1:], cross, tblocks):
        kmat[lo:hi, :n], kmat[:n, lo:hi], kmat[lo:hi, lo:hi] = c, c.T, tblock
    anchor = float(sigma[0, 0])
    kmat -= np.longdouble(anchor)
    rows = [(w, c, t) for ws, cs in zip(weights, intercepts)
            for t, (w, c) in enumerate(zip(ws, cs))]
    vs = [np.concatenate([w, -targets[t].coeffs]) for w, _, t in rows]
    v_block = np.zeros((len(rows), bounds[-1]), dtype=np.longdouble)
    for v_row, v, (_, _, t) in zip(v_block, vs, rows):
        v_row[:n], v_row[bounds[t]:bounds[t + 1]] = v[:n], v[n:]
    moments = []
    for v, u, (w, c, t) in zip(vs, v_block @ kmat, rows):
        mean = (c + one_dot(w, m_design)
                - (targets[t].intercept_coeff + float(targets[t].coeffs @ m_targets[t])))
        variance = (np.concatenate([u[:n], u[bounds[t]:bounds[t + 1]]])
                    @ v.astype(np.longdouble)
                    + np.longdouble(anchor) * np.longdouble(math.fsum(v.tolist())) ** 2)
        moments.append(ErrorMoments(mean=mean, variance=float(variance)))
    return [moments[i:i + len(targets)] for i in range(0, len(moments), len(targets))]


class TestMomentBlockMatchesDenseAssembly:
    """Restricting each row to its nonzeros must leave every bit in place."""

    @staticmethod
    def assert_bit_identical(design, targets, builds, measure):
        systems = [LevelSystem(design, targets, b.kernel) for b in builds]
        weights = np.stack([s.weights for s in systems])
        intercepts = np.stack([s.means(b)[2] for s, b in zip(systems, builds)])
        tilts = np.stack([s.tilts for s in systems])
        system = LevelSystem(design, targets, measure.kernel)
        got = level_moments(system, weights, intercepts, tilts, system.means(measure))
        want = dense_moment_block(weights, intercepts, targets, system.sigma, system.cross,
                                  system.tblocks, measure.mean_at(design.sites),
                                  [measure.mean_at(t.sites) for t in targets])
        assert len(want) == len(builds)
        means, variances, squares, seconds = got
        for got_values, name in zip((means, variances, seconds),
                                    ("mean", "variance", "second_moment")):
            assert got_values.shape == (len(builds), len(targets))
            assert got_values.tolist() == [[getattr(w, name) for w in row] for row in want]
        assert squares.tolist() == [[w.mean ** 2 for w in row] for row in want]
        return variances.ravel().tolist()

    def test_point_targets_both_predictor_sets(self):
        design = Design((np.arange(1, 30) / 30.0)[:, None])
        targets = [TargetFunctional.point([x], label=f"p{i}")
                   for i, x in enumerate((0.013, 0.37, 0.5, 0.981))]
        build = exp_model(mean=linear_mean(0.4, -0.8))
        measure = exp_model(sigma=1.7, kappa=0.6, mean=constant_mean(0.9))
        self.assert_bit_identical(design, targets, [build, measure], measure)
        self.assert_bit_identical(design, targets, [measure, build], build)

    def test_multi_site_targets_of_unequal_length(self):
        # 1, 3 and 2 sites: the shorter targets are zero-padded to 3
        design = Design(np.array([[0.05], [0.2], [0.3], [0.5], [0.58], [0.7], [0.9]]))
        targets = [TargetFunctional.point([0.33], label="point"),
                   TargetFunctional(0.7, np.array([[0.12], [0.47], [0.83]]),
                                    np.array([1.5, -0.25, -2.0]), label="mixed"),
                   TargetFunctional(-1.1, np.array([[0.55], [0.61]]),
                                    np.array([-1.0, 1.0]), label="contrast")]
        build = exp_model(mean=constant_mean(0.4))
        measure = exp_model(sigma=0.8, kappa=2.5, mean=kink_mean(0.4, 0.7))
        self.assert_bit_identical(design, targets, [build, measure], measure)

    def test_clustered_design_near_vanishing_variance(self):
        # 40 spread sites plus 24 accumulating at 0.37; long enough for the
        # compensated mean dot, close enough for kriging variances near 1e-9
        x_star = 0.37
        sites = np.concatenate([np.arange(1, 41) / 41.0 + 0.003,
                                x_star + 1e-3 * 0.6 ** np.arange(24)])
        design = Design(sites[:, None])
        targets = [TargetFunctional.point([x_star + d], label=f"c{i}")
                   for i, d in enumerate((7e-9, 7.5e-9, 5e-9))]
        # multi-site targets whose sites sit nanometres from far-apart design
        # sites: their O(1) cross terms cancel to ~1e-8, so summing the own
        # sites in any other order changes the last bits of the variance
        targets += [TargetFunctional(0.2, np.array([[sites[3] + 6e-9], [x_star + 5e-9],
                                                    [sites[29] - 4.5e-9]]),
                                     np.array([0.3137, 1.2179, -0.8711]), label="mixed"),
                    TargetFunctional(0.0, np.array([[x_star + 7e-9], [sites[19] + 6.5e-9]]),
                                     np.array([1.0, -0.9733]), label="contrast")]
        model = exp_model()
        variances = self.assert_bit_identical(design, targets, [model, exp_model(kappa=3.0)],
                                              model)
        assert min(variances) < 5e-9

    def test_jittered_gram(self):
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum
        kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
        model = GaussianModel(constant_mean(0.3), kern, "rank3")
        design = Design((np.arange(5) / 5.0 + 0.01)[:, None])
        targets = TestLevelSystem.targets()
        assert build_gram(design, kern, sigma=LevelSystem(design, targets, kern).sigma).jitter > 0.0
        self.assert_bit_identical(design, targets, [model, exp_model()], model)


@pytest.mark.parametrize("case", ["test_point_targets_both_predictor_sets",
                                  "test_multi_site_targets_of_unequal_length",
                                  "test_clustered_design_near_vanishing_variance",
                                  "test_jittered_gram"])
def test_split_moment_block_matches_dense_assembly(split_blocks, case):
    # the dense reference multiplies in one matmul, whatever the threads
    getattr(TestMomentBlockMatchesDenseAssembly(), case)()
    assert bool(split_blocks["handed"]) == (split_blocks["threads"] > 1)


@pytest.mark.parametrize("columns", [None, 1, 6])
def test_split_solve_matches_unsplit(split_blocks, monkeypatch, columns):
    design = Design(np.concatenate([np.arange(1, 30) / 30.0, 0.37 + 1e-3 * 0.6 ** np.arange(9)])
                    [:, None])
    rhs = np.random.default_rng(4).standard_normal(
        design.n if columns is None else (design.n, columns))
    factor = build_gram(design, exp_model().kernel)
    split = factor.solve(rhs)
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
    assert np.array_equal(split, factor.solve(rhs))
    assert bool(split_blocks["handed"]) == (split_blocks["threads"] > 1)


def test_map_blocks_covers_each_row_once_in_order(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    from misspec_krige.kernels import base
    monkeypatch.setattr(base, "_SPLIT_FROM", 1)
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in range(1, 40):
            hits = np.zeros(count, dtype=int)

            def fill(start, stop):
                hits[start:stop] += 1
                return start, stop
            ranges = base.map_blocks(fill, count, 1.0)
            assert np.all(hits == 1)
            assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
            assert len(ranges) == min(8, count)
    finally:
        sys.setswitchinterval(interval)


def test_forked_child_splits_on_a_pool_of_its_own(monkeypatch):
    from misspec_krige.kernels import base
    monkeypatch.setattr(base, "_SPLIT_FROM", 1)
    monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "2")
    assert base.map_blocks(lambda start, stop: stop - start, 4, 1.0) == [2, 2]

    def split_in_child():
        assert base.map_blocks(lambda start, stop: stop - start, 4, 1.0) == [2, 2]
    child = multiprocessing.get_context("fork").Process(target=split_in_child)
    child.start()
    child.join(timeout=20)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung and child.exitcode == 0


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
                                            intercept=self.pred.intercept)
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
                                       kink_mean(0.37, 0.2)],
                             ids=["constant_mean(0.8)", "linear_mean(0.3, 2.0)",
                                  "kink_mean(0.37, 0.2)"])
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

    def test_one_kernel_system_serves_both_means(self, kernel_work):
        design = Design((np.arange(1, 9) / 9.0)[:, None])
        dev = mean_shift_identity_check(TargetFunctional.point([0.415]), design,
                                        exp_model(), exp_model(mean=constant_mean(0.8)))
        assert dev <= 1e-10
        assert kernel_work == {"build_gram": 1, "gram_pairs": 1, "_evaluate": 1}
