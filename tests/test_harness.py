"""Design generators, target sets, and scenario execution."""

import numpy as np
import pytest

from misspec_krige.errors import DomainError
from misspec_krige.harness import (
    SCENARIO_NAMES,
    DesignGenerator,
    builtin_scenario,
    default_targets,
    generate_design,
    run_scenario,
)
from misspec_krige.kriging import error_moments, kriging_predictor
from misspec_krige.ratios import SUP_TARGET_ID


class TestGenerators:
    def test_equispaced_interior_grid(self):
        design = generate_design(DesignGenerator.equispaced(), 3)
        np.testing.assert_allclose(design.sites[:, 0], [0.25, 0.5, 0.75])

    def test_accumulating_is_nested(self):
        gen = DesignGenerator.accumulating(0.37, 0.5)
        small = generate_design(gen, 10)
        large = generate_design(gen, 20)
        np.testing.assert_array_equal(large.sites[:10], small.sites)

    def test_accumulating_min_distance_halves(self):
        gen = DesignGenerator.accumulating(0.37, 0.5)
        dist = []
        for n in (8, 16, 32, 64):
            sites = generate_design(gen, n).sites[:, 0]
            dist.append(np.abs(sites - 0.37).min())
        for a, b in zip(dist, dist[1:]):
            assert b <= 0.5 * a

    def test_accumulating_space_filling_component(self):
        sites = generate_design(DesignGenerator.accumulating(), 64).sites[:, 0]
        # the even slots follow the radical-inverse stream: coverage improves
        hist, _ = np.histogram(sites, bins=8, range=(0.0, 1.0))
        assert np.all(hist > 0)

    def test_halton_deterministic_and_nested(self):
        gen = DesignGenerator.halton()
        a = generate_design(gen, 16)
        b = generate_design(gen, 16)
        np.testing.assert_array_equal(a.sites, b.sites)
        np.testing.assert_array_equal(generate_design(gen, 32).sites[:16], a.sites)

    def test_sphere_fibonacci_two_points(self):
        design = generate_design(DesignGenerator.sphere_fibonacci(), 2)
        assert design.n == 2
        gap = np.linalg.norm(design.sites[0] - design.sites[1])
        assert gap > 0.5

    def test_size_cap(self):
        with pytest.raises(DomainError):
            generate_design(DesignGenerator.equispaced(), 4096)

    def test_accumulating_reports_largest_usable_n(self):
        gen = DesignGenerator.accumulating()
        assert gen.max_n == 144
        assert generate_design(gen, 144).n == 144
        with pytest.raises(DomainError, match="largest usable size 144"):
            generate_design(gen, 145)
        assert DesignGenerator.halton().max_n == 2048

    def test_two_dimensional_torus_grid(self):
        from misspec_krige.kernels import Torus
        gen = DesignGenerator.equispaced(domain=Torus(2))
        design = generate_design(gen, 10)
        assert design.sites.shape == (10, 2)
        assert np.all((design.sites >= 0.0) & (design.sites < 1.0))

    def test_two_dimensional_halton(self):
        from misspec_krige.kernels import Box
        gen = DesignGenerator.halton(domain=Box((0.0, 0.0), (1.0, 1.0)))
        design = generate_design(gen, 12)
        assert design.sites.shape == (12, 2)
        # base-2 / base-3 streams
        assert design.sites[0, 0] == 0.5
        assert design.sites[0, 1] == pytest.approx(1.0 / 3.0)

    def test_d2_periodic_experiment_end_to_end(self):
        from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum, Torus
        from misspec_krige.kriging import GaussianModel, zero_mean
        from misspec_krige.ratios import ratio_convergence
        spec = PeriodicSpectrum.from_callable(
            lambda k: 1.0 / (1.0 + k[0] ** 2 + k[1] ** 2) ** 2, dim=2, k_max=4)
        true = GaussianModel(zero_mean, PeriodicKernel(spec), "d2")
        wrong = GaussianModel(
            zero_mean, PeriodicKernel(PeriodicSpectrum.from_callable(
                lambda k: 2.0 / (1.0 + k[0] ** 2 + k[1] ** 2) ** 2, dim=2, k_max=4)),
            "d2x2")
        gen = DesignGenerator.equispaced(domain=Torus(2))
        targets = default_targets(gen, 16, count=5)
        table = ratio_convergence(true, wrong,
                                  lambda n: generate_design(gen, n),
                                  targets, [9, 16], limit_a=2.0)
        for n in (9, 16):
            assert table.sup_record(n).deviations["r_var_3"] <= 1e-10

    def test_x_star_range_guard(self):
        with pytest.raises(DomainError):
            DesignGenerator.accumulating(x_star=0.1)


class TestTargets:
    def test_default_count_and_margin(self):
        gen = DesignGenerator.equispaced()
        targets = default_targets(gen, 64)
        pts = np.array([t.sites[0, 0] for t in targets])
        assert len(targets) == 33
        assert pts.min() > 0.1 and pts.max() < 0.9

    def test_accumulating_adds_near_site_probes(self):
        gen = DesignGenerator.accumulating()
        targets = default_targets(gen, 64)
        labels = [t.label for t in targets]
        assert labels.count("acc") == 1
        assert sum(1 for lab in labels if lab.startswith("a") and lab != "acc") == 3
        assert len(targets) == 37

    def test_targets_disjoint_from_design(self):
        gen = DesignGenerator.accumulating()
        targets = default_targets(gen, 64)
        sites = generate_design(gen, 64).sites[:, 0]
        for t in targets:
            assert np.abs(sites - t.sites[0, 0]).min() > 0.0


class TestScenarios:
    def test_builtin_names(self):
        assert set(SCENARIO_NAMES) == {
            "identical", "scaled_kernel", "matern_same_nu", "matern_diff_nu",
            "periodic_ratio3", "sphere_legendre_vs_spde",
            "mean_shift_constant", "mean_shift_kink"}

    def test_unknown_scenario(self):
        with pytest.raises(DomainError):
            builtin_scenario("nope")

    def test_schedule_override(self):
        s = builtin_scenario("identical", n_schedule=[4, 8])
        assert s.n_schedule == (4, 8)

    def test_run_identical_flat(self):
        res = run_scenario(builtin_scenario("identical", n_schedule=[8, 16]))
        for n in (8, 16):
            sup = res.table.sup_record(n)
            for name in ("r_var_1", "r_var_3", "r_mom_2"):
                assert sup.deviations[name] <= 1e-10

    def test_determinism_byte_identical(self):
        from misspec_krige.cli import table_to_csv
        a = run_scenario(builtin_scenario("matern_same_nu", n_schedule=[8, 16]))
        b = run_scenario(builtin_scenario("matern_same_nu", n_schedule=[8, 16]))
        assert table_to_csv(a.table, "x") == table_to_csv(b.table, "x")

    def test_nested_variance_monotone_in_n(self):
        s = builtin_scenario("identical")
        res = run_scenario(s)
        by_target = {}
        for rec in res.table.records:
            if rec.target_id != SUP_TARGET_ID:
                by_target.setdefault(rec.target_id, []).append(rec.true_variance)
        for values in by_target.values():
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-10

    def test_accumulation_drives_variance_down(self):
        s = builtin_scenario("identical")
        gen = s.design_generator
        target = [t for t in s.targets if t.label == "acc"][0]
        first = generate_design(gen, s.n_schedule[0])
        last = generate_design(gen, s.n_schedule[-1])
        var_first = error_moments(
            kriging_predictor(target, first, s.true_model), target,
            s.true_model).variance
        var_last = error_moments(
            kriging_predictor(target, last, s.true_model), target,
            s.true_model).variance
        assert var_last < var_first

    def test_report_attached(self):
        res = run_scenario(builtin_scenario("scaled_kernel", n_schedule=[8]))
        assert res.report["ratio_verdict"]["a_estimate"] == pytest.approx(4.0)
        assert res.table.metadata["scenario"] == "scaled_kernel"
