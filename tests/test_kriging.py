"""Predictor construction, error moments, and the projection invariants."""

import math
import multiprocessing
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
    TargetFunctional,
    build_gram,
    constant_mean,
    error_moments,
    kink_mean,
    kriging_predictor,
    linear_mean,
    _dot,
    _moment_block,
    zero_mean,
)

from closed_forms import mean_shift_identity_check


def exp_model(sigma=1.0, kappa=1.0, mean=zero_mean, label="exp"):
    return GaussianModel(mean, MaternKernel(MaternParams(sigma, 0.5, kappa)), label)


def spread_sites(moved=None):
    """300 distinct 2-d sites, more than one row block of the distinct check;
    ``moved=(i, j)`` puts site j onto site i."""
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

    def assert_batched_equals_single(self, design, build, measure, targets=None):
        targets = self.targets() if targets is None else targets
        batched = LevelSystem(design, targets, build.kernel).predictors(build)
        moments = LevelSystem(design, targets, measure.kernel).moments(
            [batched, batched[::-1]], measure)
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
        gram = LevelSystem(design, self.targets(), kern).gram
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


def dense_moment_block(predictor_sets, targets, sigma, cross, tblocks, m_design, m_targets):
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
    rows = [(pred, t) for preds in predictor_sets for t, pred in enumerate(preds)]
    vs = [np.concatenate([pred.weights, -targets[t].coeffs]) for pred, t in rows]
    v_block = np.zeros((len(rows), bounds[-1]), dtype=np.longdouble)
    for v_row, v, (_, t) in zip(v_block, vs, rows):
        v_row[:n], v_row[bounds[t]:bounds[t + 1]] = v[:n], v[n:]
    moments = []
    for v, u, (pred, t) in zip(vs, v_block @ kmat, rows):
        mean = (pred.intercept + _dot(pred.weights, m_design)
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
        predictor_sets = [LevelSystem(design, targets, b.kernel).predictors(b) for b in builds]
        system = LevelSystem(design, targets, measure.kernel)
        args = (predictor_sets, targets, system.gram.sigma, system.cross, system.tblocks,
                measure.mean_at(design.sites), [measure.mean_at(t.sites) for t in targets])
        got, want = _moment_block(*args), dense_moment_block(*args)
        assert len(got) == len(want) == len(builds)
        for got_row, want_row in zip(got, want):
            assert len(got_row) == len(want_row) == len(targets)
            for g, w in zip(got_row, want_row):
                assert g.mean == w.mean
                assert g.variance == w.variance
        return [m.variance for row in got for m in row]

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
        assert LevelSystem(design, targets, kern).gram.jitter > 0.0
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

    def test_one_kernel_system_serves_both_means(self, kernel_work):
        design = Design((np.arange(1, 9) / 9.0)[:, None])
        dev = mean_shift_identity_check(TargetFunctional.point([0.415]), design,
                                        exp_model(), exp_model(mean=constant_mean(0.8)))
        assert dev <= 1e-10
        assert kernel_work == {"build_gram": 1, "gram_pairs": 1}
