"""Efficiency ratios, mean term, and their algebraic identities."""

import math
import re
import warnings

import numpy as np
import pytest

from misspec_krige.errors import DomainError, NumericalFailureError
from misspec_krige.kernels import MaternKernel, MaternParams
from misspec_krige.kriging import (
    Design,
    GaussianModel,
    TargetFunctional,
    constant_mean,
    error_moments,
    kriging_predictor,
    zero_mean,
)
from misspec_krige.ratios import (
    RATIO_NAMES,
    SUP_TARGET_ID,
    RatioRecord,
    efficiency_ratios,
    mean_term,
    ratio_convergence,
)


def exp_model(sigma=1.0, kappa=1.0, mean=zero_mean, label="exp"):
    return GaussianModel(mean, MaternKernel(MaternParams(sigma, 0.5, kappa)), label)


def grid_design(n):
    return Design((np.arange(1, n + 1) / (n + 1.0))[:, None])


def grid_targets(count=5):
    return [TargetFunctional.point([(i + 0.618) / count], label=f"t{i}")
            for i in range(count)]


class TestEfficiencyRatios:
    def test_identical_models_all_ones(self):
        recs = efficiency_ratios(grid_design(12), grid_targets(), exp_model(),
                                 exp_model(), limit_a=1.0)
        for rec in recs:
            for name in RATIO_NAMES:
                assert rec.value(name) == pytest.approx(1.0, abs=1e-10)
            assert rec.mean_term <= 1e-12

    def test_scaled_kernel_exact_values(self):
        recs = efficiency_ratios(grid_design(10), grid_targets(),
                                 exp_model(sigma=1.0), exp_model(sigma=2.0),
                                 limit_a=4.0)
        for rec in recs:
            assert rec.r_var_1 == pytest.approx(1.0, abs=1e-10)
            assert rec.r_var_2 == pytest.approx(1.0, abs=1e-10)
            assert rec.r_var_3 == pytest.approx(4.0, abs=1e-10)
            assert rec.r_var_4 == pytest.approx(0.25, abs=1e-10)

    def test_sup_record_takes_max_deviation(self):
        recs = efficiency_ratios(grid_design(9), grid_targets(),
                                 exp_model(), exp_model(sigma=2.0, kappa=0.5),
                                 limit_a=None)
        per_target = [r for r in recs if r.target_id != SUP_TARGET_ID]
        sup = recs[-1]
        assert sup.target_id == SUP_TARGET_ID
        assert sup.r_var_1 == pytest.approx(max(abs(r.r_var_1) for r in per_target))
        assert sup.deviations["r_var_1"] == pytest.approx(
            max(abs(r.r_var_1 - 1.0) for r in per_target))

    def test_target_on_design_site_excluded(self):
        targets = grid_targets() + [TargetFunctional.point(
            grid_design(9).sites[3], label="on-site")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            recs = efficiency_ratios(grid_design(9), targets, exp_model(),
                                     exp_model(sigma=2.0))
        assert any("on-site" in str(w.message) for w in caught)
        assert all(rec.target_id != "on-site" for rec in recs)

    def test_floor_warning_text(self):
        targets = grid_targets() + [TargetFunctional.point(
            grid_design(9).sites[3], label="on-site")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            efficiency_ratios(grid_design(9), targets, exp_model(), exp_model(sigma=2.0))
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert re.fullmatch(r"target on-site excluded: optimal-predictor true-measure "
                            r"error variance -?\d\.\d{3}e[+-]\d+ below 1\.0e-12",
                            messages[0])

    def test_batched_targets_match_one_at_a_time(self):
        targets = grid_targets() + [
            TargetFunctional(0.4, np.array([[0.21], [0.66]]), np.array([2.0, -0.5]),
                             label="pair")]
        true = exp_model(mean=constant_mean(0.2))
        wrong = exp_model(sigma=1.3, kappa=0.4, mean=constant_mean(-0.6))
        batched = efficiency_ratios(grid_design(11), targets, true, wrong, limit_a=2.0)
        for target, rec in zip(targets, batched):
            alone = efficiency_ratios(grid_design(11), [target], true, wrong,
                                      limit_a=2.0)[0]
            assert alone.target_id == rec.target_id
            for name in RATIO_NAMES + ("mean_term",):
                assert alone.value(name) == rec.value(name)
            assert alone.true_variance == rec.true_variance

    def test_zero_mean_symmetry_is_exact(self):
        recs = efficiency_ratios(grid_design(14), grid_targets(),
                                 exp_model(), exp_model(sigma=1.4, kappa=2.0))
        for rec in recs:
            assert rec.r_mom_1 == rec.r_var_1
            assert rec.r_mom_2 == rec.r_var_2
            assert rec.r_mom_3 == rec.r_var_3
            assert rec.r_mom_4 == rec.r_var_4

    def test_chain_identity(self):
        """Var[g-h]/Var[h-h] factorizes through the working measure."""
        design = grid_design(16)
        true, wrong = exp_model(), exp_model(sigma=1.3, kappa=0.4)
        for target in grid_targets():
            pred_t = kriging_predictor(target, design, true)
            pred_w = kriging_predictor(target, design, wrong)
            var_wt = error_moments(pred_w, target, true).variance
            var_tt = error_moments(pred_t, target, true).variance
            var_ww = error_moments(pred_w, target, wrong).variance
            var_tw = error_moments(pred_t, target, wrong).variance
            lhs = var_wt / var_tt
            product = (var_wt / var_ww) * (var_ww / var_tw) * (var_tw / var_tt)
            assert product == pytest.approx(lhs, rel=1e-10)

    def test_second_moment_decomposition(self):
        design = grid_design(12)
        true = exp_model()
        wrong = exp_model(mean=constant_mean(0.9))
        for target in grid_targets():
            pred_t = kriging_predictor(target, design, true)
            under_wrong = error_moments(pred_t, target, wrong)
            under_true = error_moments(pred_t, target, true)
            lhs = under_wrong.second_moment
            rhs = under_wrong.variance + under_wrong.mean ** 2
            assert lhs == pytest.approx(rhs, rel=1e-12)
            # ratio form: r_mom_3 * E[e^2] = r_var_3 * Var[e] + |E~[e]|^2
            assert (under_wrong.second_moment / under_true.second_moment
                    * under_true.second_moment) == pytest.approx(
                under_wrong.variance / under_true.variance * under_true.variance
                + under_wrong.mean ** 2, rel=1e-10)

    def test_optimality_floor_enforced(self):
        with pytest.raises(NumericalFailureError):
            RatioRecord(n=4, target_id="bad", r_var_1=0.5, r_var_2=1.0,
                        r_var_3=1.0, r_var_4=1.0, r_mom_1=1.0, r_mom_2=1.0,
                        r_mom_3=1.0, r_mom_4=1.0, mean_term=0.0)


class TestMeanTerm:
    def test_identical_means_zero(self):
        got = mean_term(grid_design(6), TargetFunctional.point([0.52]),
                        exp_model(), exp_model())
        assert got == 0.0

    def test_single_site_closed_form(self):
        # delta^2 (1 - exp(-d)) / (1 + exp(-d)) at one site distance d
        delta, d = 1.3, 0.4
        design = Design(np.array([[0.3]]))
        target = TargetFunctional.point([0.3 + d])
        got = mean_term(design, target, exp_model(),
                        exp_model(mean=constant_mean(delta)))
        want = delta ** 2 * (1 - math.exp(-d)) / (1 + math.exp(-d))
        assert got == pytest.approx(want, rel=1e-10)

    def test_matches_moment_route(self):
        design = grid_design(10)
        target = TargetFunctional.point([0.435])
        true = exp_model()
        shifted = exp_model(mean=constant_mean(0.6))
        direct = mean_term(design, target, true, shifted)
        pred = kriging_predictor(target, design, true)
        via_moments = (error_moments(pred, target, shifted).mean ** 2
                       / error_moments(pred, target, true).variance)
        assert direct == pytest.approx(via_moments, rel=1e-10)

    def test_constant_shift_decays_with_accumulation(self):
        from misspec_krige.harness import DesignGenerator, generate_design
        gen = DesignGenerator.accumulating()
        target = TargetFunctional.point([gen.x_star])
        true, shifted = exp_model(), exp_model(mean=constant_mean(1.0))
        t8 = mean_term(generate_design(gen, 8), target, true, shifted)
        t64 = mean_term(generate_design(gen, 64), target, true, shifted)
        assert t64 < t8

    def test_requires_shared_kernel(self):
        with pytest.raises(DomainError):
            mean_term(grid_design(4), TargetFunctional.point([0.5]),
                      exp_model(), exp_model(kappa=3.0))


class TestRatioConvergence:
    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            ratio_convergence(exp_model(), exp_model(), grid_design,
                              grid_targets(), [8, 8, 16])

    def test_identical_flat_table(self):
        table = ratio_convergence(exp_model(), exp_model(), grid_design,
                                  grid_targets(), [4, 8, 16], limit_a=1.0)
        assert table.n_values == [4, 8, 16]
        for n in table.n_values:
            sup = table.sup_record(n)
            for name in RATIO_NAMES:
                assert sup.deviations[name] <= 1e-10

    def test_scaled_ratio_constant_across_n(self):
        table = ratio_convergence(exp_model(), exp_model(sigma=2.0), grid_design,
                                  grid_targets(), [4, 8, 16], limit_a=4.0)
        for n in table.n_values:
            assert table.sup_record(n).r_var_3 == pytest.approx(4.0, abs=1e-10)

    def test_deterministic_across_worker_counts(self):
        args = (exp_model(), exp_model(sigma=2.0, kappa=0.5), grid_design,
                grid_targets(), [4, 8, 16])
        t1 = ratio_convergence(*args, max_workers=1)
        t4 = ratio_convergence(*args, max_workers=4)
        for r1, r4 in zip(t1.records, t4.records):
            assert (r1.n, r1.target_id) == (r4.n, r4.target_id)
            for name in RATIO_NAMES:
                assert r1.value(name) == r4.value(name)

    def test_partial_results_attached_on_level_failure(self):
        from misspec_krige.errors import PartialResultError
        # the single target sits on a design site at n=3 but not at n=4
        target = [TargetFunctional.point([0.25], label="edge")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(PartialResultError) as err:
                ratio_convergence(exp_model(), exp_model(sigma=2.0), grid_design,
                                  target, [3, 4], max_workers=1)
        table = err.value.partial_table
        assert table.n_values == [4]
        assert "3" in table.metadata["failed_levels"]

    def test_all_levels_failing_is_plain_failure(self):
        target = [TargetFunctional.point([0.25], label="edge")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalFailureError) as err:
                ratio_convergence(exp_model(), exp_model(sigma=2.0), grid_design,
                                  target, [3], max_workers=1)
        assert not isinstance(err.value, __import__(
            "misspec_krige").PartialResultError)

    def test_same_nu_matern_approaches_limit(self):
        """Cross ratio converging, monotonically, to the
        identifiable-combination ratio 2."""
        from misspec_krige.harness import DesignGenerator, default_targets, generate_design
        gen = DesignGenerator.accumulating()
        table = ratio_convergence(
            exp_model(), exp_model(sigma=2.0, kappa=0.5),
            lambda n: generate_design(gen, n), default_targets(gen, 64),
            [8, 16, 32, 64], limit_a=2.0)
        devs = [table.sup_record(n).deviations["r_var_3"] for n in table.n_values]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05
