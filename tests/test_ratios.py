"""Efficiency ratios, mean term, and their algebraic identities."""

import math
import re
import threading
import time
import warnings

import numpy as np
import pytest

from misspec_krige.errors import DomainError, NumericalFailureError, PartialResultError
from misspec_krige.kernels import MaternKernel, MaternParams
from misspec_krige.kriging import (
    Design,
    GaussianModel,
    LevelSystem,
    TargetFunctional,
    _dot,
    build_gram,
    constant_mean,
    error_moments,
    kink_mean,
    kriging_predictor,
    linear_mean,
    zero_mean,
)
from misspec_krige.ratios import (
    RATIO_NAMES,
    SUP_TARGET_ID,
    VARIANCE_FLOOR,
    RatioRecord,
    efficiency_ratios,
    mean_term,
    ratio_convergence,
)

from closed_forms import n_values


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

    @pytest.mark.parametrize("limit_a", [0.0, -2.0, math.nan, 1e-320])
    def test_limit_without_a_finite_reciprocal_rejected(self, limit_a):
        # the cross ratios back to the true measure tend to 1/a
        with pytest.raises(DomainError, match="positive with a finite reciprocal"):
            efficiency_ratios(grid_design(8), grid_targets(), exp_model(),
                              exp_model(sigma=2.0), limit_a=limit_a)

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
        assert caught[0].filename == __file__   # the warning names its caller
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


    def test_optimality_failure_names_gram_conditioning(self):
        # matern_same_nu at n = 144: the accumulating design's Grams reach
        # 1/rcond ~ 1e14 and an own-measure ratio drops below its floor
        from misspec_krige.harness import builtin_scenario, generate_design
        scenario = builtin_scenario("matern_same_nu")
        design = generate_design(scenario.design_generator, 144)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalFailureError) as err:
                efficiency_ratios(design, list(scenario.targets), scenario.true_model,
                                  scenario.wrong_model)
        message = str(err.value)
        assert "violates own-measure optimality" in message
        match = re.search(r"the limit is Gram conditioning \(1/rcond (\S+) for the true "
                          r"Gram at jitter \S+, (\S+) for the working Gram at jitter", message)
        assert match, message
        assert all(1e13 < float(value) < 1e16 for value in match.groups())


def stored_deviations(values, limits):
    """|value - limit| as each record stored it before deviations were derived."""
    return {name: abs(values[name] - lim) for name, lim in limits.items()}


def stored_sup(records, limits):
    """The SUP values and deviations as the SUP record stored them before
    deviations were derived."""
    values, deviations = {}, {}
    for name in RATIO_NAMES + ("mean_term",):
        per_target = np.array([rec.value(name) for rec in records])
        if name in limits:
            deviation = np.abs(per_target - limits[name])
            pick = int(np.argmax(deviation))
            deviations[name] = float(deviation[pick])
        else:
            pick = int(np.argmax(per_target))
        values[name] = float(per_target[pick])
    return values, deviations


class TestDerivedDeviations:
    @pytest.mark.parametrize("accumulating, n, wrong, limit_a", [
        (False, 9, exp_model(sigma=2.0, kappa=0.5), 2.0),
        (False, 14, exp_model(sigma=2.0, kappa=0.5), None),
        (False, 11, exp_model(mean=linear_mean(-0.3, 1.1)), 1.0),
        (True, 32, exp_model(sigma=1.3, kappa=0.4, mean=constant_mean(0.6)), None),
    ], ids=["limit-a", "no-limit-a", "shared-kernel", "accumulating-no-limit"])
    def test_equal_to_stored_deviations(self, accumulating, n, wrong, limit_a):
        from misspec_krige.harness import DesignGenerator, default_targets, generate_design
        if accumulating:
            gen = DesignGenerator.accumulating()
            design, targets = generate_design(gen, n), default_targets(gen, n, count=9)
        else:
            design, targets = grid_design(n), grid_targets()
        records = efficiency_ratios(design, targets, exp_model(), wrong, limit_a=limit_a)
        per_target, sup = records[:-1], records[-1]
        for rec in per_target:
            values = {name: rec.value(name) for name in RATIO_NAMES + ("mean_term",)}
            assert rec.deviations == stored_deviations(values, rec.limits)
        values, deviations = stored_sup(per_target, sup.limits)
        assert {name: sup.value(name) for name in values} == values
        assert sup.deviations == deviations
        if limit_a is None:
            assert "r_var_3" not in sup.deviations and "r_mom_4" not in sup.deviations


class TestSharedKernel:
    """Models with equal kernels share one factor, one set of blocks and one
    solve; only the intercepts and error means differ."""

    def pair(self):
        return (exp_model(mean=constant_mean(0.2), label="flat"),
                exp_model(mean=linear_mean(-0.3, 1.1), label="sloped"))

    def targets(self):
        return grid_targets() + [
            TargetFunctional(0.4, np.array([[0.21], [0.66]]), np.array([2.0, -0.5]),
                             label="pair")]

    def test_one_factor_and_one_block_call_per_level(self, kernel_work):
        true, wrong = self.pair()
        efficiency_ratios(grid_design(11), self.targets(), true, wrong, limit_a=1.0)
        assert kernel_work == {"build_gram": 1, "gram_pairs": 1}
        efficiency_ratios(grid_design(11), self.targets(), true,
                          exp_model(sigma=1.3, kappa=0.4))
        assert kernel_work == {"build_gram": 3, "gram_pairs": 3}

    def test_one_block_call_per_schedule_level(self, kernel_work, monkeypatch):
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
        true, wrong = self.pair()
        ratio_convergence(true, wrong, grid_design, self.targets(), [5, 9, 13],
                          limit_a=1.0)
        assert kernel_work["gram_pairs"] == 3

    def test_records_equal_one_target_moments(self):
        true, wrong = self.pair()
        design = grid_design(11)
        records = efficiency_ratios(design, self.targets(), true, wrong, limit_a=1.0)
        for target, rec in zip(self.targets(), records):
            preds = {"true": kriging_predictor(target, design, true),
                     "wrong": kriging_predictor(target, design, wrong)}
            mom = {(p, m): error_moments(preds[p], target, model)
                   for p in preds for m, model in (("true", true), ("wrong", wrong))}
            var = {key: em.variance for key, em in mom.items()}
            sec = {key: em.second_moment for key, em in mom.items()}
            want = {}
            for kind, q in (("var", var), ("mom", sec)):
                want[f"r_{kind}_1"] = q["wrong", "true"] / q["true", "true"]
                want[f"r_{kind}_2"] = q["true", "wrong"] / q["wrong", "wrong"]
                want[f"r_{kind}_3"] = q["true", "wrong"] / q["true", "true"]
                want[f"r_{kind}_4"] = q["wrong", "true"] / q["wrong", "wrong"]
            want["mean_term"] = mom["true", "wrong"].mean ** 2 / sec["true", "true"]
            assert rec.target_id == target.label
            assert {name: rec.value(name) for name in want} == want
            assert rec.true_variance == var["true", "true"]


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


def stored_mean_term(design, target, true_model, shifted_mean_model):
    """The mean term as computed before it was read off the moment block: the
    interpolation error of delta = m - m~, squared, over the kriging variance."""
    system = LevelSystem(design, [target], true_model.kernel)
    pred = system.predictors(true_model)[0]
    delta = true_model.mean_at(design.sites) - shifted_mean_model.mean_at(design.sites)
    delta_t = true_model.mean_at(target.sites) - shifted_mean_model.mean_at(target.sites)
    numerator = (float(target.coeffs @ delta_t) - _dot(pred.weights, delta)) ** 2
    return numerator / system.moments([[pred]], true_model)[0][0].variance


MEANS = {"zero": zero_mean, "constant": constant_mean(1.0),
         "linear": linear_mean(0.3, 1.1), "kink": kink_mean(0.37, 0.2)}


class TestMeanTermFromMomentBlock:
    def cases(self):
        from misspec_krige.harness import DesignGenerator, generate_design
        gen = DesignGenerator.accumulating()
        for n in (8, 16, 32, 64, 128, 144):
            design = generate_design(gen, n)
            for x in (0.37, 0.45, 0.9):
                yield design, TargetFunctional.point([x])

    def check(self, true_mean, shifted_mean, compare):
        kernel = exp_model().kernel
        true = GaussianModel(MEANS[true_mean], kernel)
        shifted = GaussianModel(MEANS[shifted_mean], kernel)
        compared = 0
        for design, target in self.cases():
            system = LevelSystem(design, [target], kernel)
            pred = system.predictors(true)[0]
            if system.moments([[pred]], true)[0][0].variance < VARIANCE_FLOOR:
                with pytest.raises(NumericalFailureError):
                    mean_term(design, target, true, shifted)
                continue
            compare(mean_term(design, target, true, shifted),
                    stored_mean_term(design, target, true, shifted))
            compared += 1
        assert compared >= 12

    @pytest.mark.parametrize("true_mean, shifted_mean", [
        ("zero", "constant"), ("zero", "linear"), ("zero", "kink"),
        ("constant", "zero"), ("linear", "zero"), ("kink", "zero")])
    def test_equal_to_the_delta_formula_when_one_mean_is_zero(self, true_mean, shifted_mean):
        def equal(got, want):
            assert got == want
        self.check(true_mean, shifted_mean, equal)

    @pytest.mark.parametrize("true_mean, shifted_mean", [
        ("constant", "linear"), ("linear", "kink"), ("kink", "constant")])
    def test_within_roundoff_of_the_delta_formula_otherwise(self, true_mean, shifted_mean):
        # the moment block interpolates the two means one after the other, the
        # delta formula their difference; the normalized error means agree to
        # roundoff
        def close(got, want):
            assert abs(math.sqrt(got) - math.sqrt(want)) <= 1e-10
        self.check(true_mean, shifted_mean, close)

    @pytest.mark.parametrize("true_mean, shifted_mean", [
        ("zero", "constant"), ("constant", "linear"), ("kink", "zero")])
    def test_one_moment_block_gives_the_bits_of_two(self, monkeypatch, true_mean,
                                                    shifted_mean):
        # the kernel is shared, so the variance under the shifted model is the
        # true model's to the bit
        kernel = exp_model().kernel
        true = GaussianModel(MEANS[true_mean], kernel)
        shifted = GaussianModel(MEANS[shifted_mean], kernel)
        blocks = []
        original = LevelSystem.moments

        def counting(self, predictor_sets, model):
            blocks.append(model)
            return original(self, predictor_sets, model)
        compared = 0
        for design, target in self.cases():
            system = LevelSystem(design, [target], kernel)
            pred = system.predictors(true)[0]
            bias = system.moments([[pred]], shifted)[0][0].mean
            variance = system.moments([[pred]], true)[0][0].variance
            if variance < VARIANCE_FLOOR:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(LevelSystem, "moments", counting)
                assert mean_term(design, target, true, shifted) == bias ** 2 / variance
            compared += 1
        assert compared >= 12
        assert blocks == [shifted] * compared


class TestRatioConvergence:
    def test_schedule_must_increase(self):
        with pytest.raises(DomainError):
            ratio_convergence(exp_model(), exp_model(), grid_design,
                              grid_targets(), [8, 8, 16])

    def test_identical_flat_table(self):
        table = ratio_convergence(exp_model(), exp_model(), grid_design,
                                  grid_targets(), [4, 8, 16], limit_a=1.0)
        assert n_values(table) == [4, 8, 16]
        for n in n_values(table):
            sup = table.sup_record(n)
            for name in RATIO_NAMES:
                assert sup.deviations[name] <= 1e-10

    def test_scaled_ratio_constant_across_n(self):
        table = ratio_convergence(exp_model(), exp_model(sigma=2.0), grid_design,
                                  grid_targets(), [4, 8, 16], limit_a=4.0)
        for n in n_values(table):
            assert table.sup_record(n).r_var_3 == pytest.approx(4.0, abs=1e-10)

    def test_deterministic_across_worker_counts(self, monkeypatch):
        args = (exp_model(), exp_model(sigma=2.0, kappa=0.5), grid_design,
                grid_targets(), [4, 8, 16])
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
        t1 = ratio_convergence(*args)
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "4")
        t4 = ratio_convergence(*args)
        for r1, r4 in zip(t1.records, t4.records):
            assert (r1.n, r1.target_id) == (r4.n, r4.target_id)
            for name in RATIO_NAMES:
                assert r1.value(name) == r4.value(name)

    def test_levels_never_overlap(self, monkeypatch):
        # a level starts when its design is drawn and ends when its records
        # are; the generator sleeps so that overlapping levels would meet
        from misspec_krige import ratios
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "4")
        lock, running, seen = threading.Lock(), [0], []
        level_ratios = ratios._level_ratios

        def generator(n):
            with lock:
                running[0] += 1
                seen.append(running[0])
            time.sleep(0.02)
            return grid_design(n)

        def finishing_level(*args):
            try:
                return level_ratios(*args)
            finally:
                with lock:
                    running[0] -= 1
        monkeypatch.setattr(ratios, "_level_ratios", finishing_level)
        table = ratio_convergence(exp_model(), exp_model(sigma=2.0), generator,
                                  grid_targets(), [4, 8, 16, 32])
        assert n_values(table) == [4, 8, 16, 32]
        assert seen == [1, 1, 1, 1]

    def test_partial_results_attached_on_level_failure(self, monkeypatch):
        from misspec_krige.errors import PartialResultError
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
        # the single target sits on a design site at n=3 but not at n=4
        target = [TargetFunctional.point([0.25], label="edge")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(PartialResultError) as err:
                ratio_convergence(exp_model(), exp_model(sigma=2.0), grid_design,
                                  target, [3, 4])
        table = err.value.partial_table
        assert n_values(table) == [4]
        assert "3" in table.metadata["failed_levels"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_exclusions_warn_at_the_caller_in_schedule_order(self, monkeypatch, threads):
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", threads)
        # 0.25 is a site at n = 3 and n = 7, 1/6 at n = 5; the level n = 8 fails
        targets = grid_targets() + [TargetFunctional.point([0.25], label="quarter"),
                                    TargetFunctional.point([1.0 / 6.0], label="sixth")]

        def generator(n):
            return grid_design(n + 1 if n == 8 else n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PartialResultError):
                ratio_convergence(exp_model(), exp_model(sigma=2.0), generator, targets,
                                  [3, 5, 7, 8])
        assert [str(w.message).split(" excluded")[0] for w in caught] == [
            "target quarter", "target sixth", "target quarter"]
        assert {w.filename for w in caught} == {__file__}

    def test_all_levels_failing_is_plain_failure(self, monkeypatch):
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
        target = [TargetFunctional.point([0.25], label="edge")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalFailureError) as err:
                ratio_convergence(exp_model(), exp_model(sigma=2.0), grid_design,
                                  target, [3])
        assert not isinstance(err.value, __import__(
            "misspec_krige").PartialResultError)

    def test_conditioning_records_the_factor_inverse_rcond(self):
        true, wrong = exp_model(), exp_model(sigma=2.0, kappa=0.5)
        table = ratio_convergence(true, wrong, grid_design, grid_targets(), [4, 8, 16])
        conditioning = table.metadata["conditioning"]
        assert set(conditioning) == {"4", "8", "16"}
        for n, per_model in conditioning.items():
            assert set(per_model) == {"true", "wrong"}
            for tag, model in (("true", true), ("wrong", wrong)):
                factor = build_gram(grid_design(int(n)), model.kernel)
                assert per_model[tag] == {"jitter": factor.jitter,
                                          "inverse_rcond": factor.inverse_rcond}

    def test_design_of_another_size_fails_its_level(self):
        def generator(n):
            return grid_design(n + 1 if n == 8 else n)
        with pytest.raises(PartialResultError) as err:
            ratio_convergence(exp_model(), exp_model(sigma=2.0), generator,
                              grid_targets(), [4, 8])
        table = err.value.partial_table
        assert n_values(table) == [4]
        assert table.metadata["failed_levels"] == {
            "8": "the design generator returned 9 sites for schedule level n=8"}

    def test_same_nu_matern_approaches_limit(self):
        """Cross ratio converging, monotonically, to the
        identifiable-combination ratio 2."""
        from misspec_krige.harness import DesignGenerator, default_targets, generate_design
        gen = DesignGenerator.accumulating()
        table = ratio_convergence(
            exp_model(), exp_model(sigma=2.0, kappa=0.5),
            lambda n: generate_design(gen, n), default_targets(gen, 64),
            [8, 16, 32, 64], limit_a=2.0)
        devs = [table.sup_record(n).deviations["r_var_3"] for n in n_values(table)]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05
