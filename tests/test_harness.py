"""Design generators, target sets, and scenario execution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_krige.diagnostics import assumption_report
from misspec_krige.errors import DomainError
from misspec_krige.harness import (
    SCENARIO_NAMES,
    DesignGenerator,
    Scenario,
    builtin_scenario,
    default_targets,
    generate_design,
    run_scenario,
)
from misspec_krige.kernels import (
    Box,
    MaternKernel,
    MaternParams,
    PeriodicKernel,
    PeriodicSpectrum,
    SphereLegendreParams,
    SphereSeriesKernel,
    SphereSpdeParams,
    Torus,
    UnitSphere,
)
from misspec_krige.kriging import GaussianModel, error_moments, kriging_predictor, zero_mean
from misspec_krige.ratios import SUP_TARGET_ID

from closed_forms import n_values


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

    @pytest.mark.parametrize("make, domain, message", [
        (DesignGenerator.halton, UnitSphere(), "is not a unit vector"),
        (DesignGenerator.equispaced, UnitSphere(), "expected points of dimension 3"),
        (lambda domain: DesignGenerator.accumulating(domain=domain), UnitSphere(),
         "expected points of dimension 3"),
        (lambda domain: DesignGenerator.accumulating(domain=domain), Torus(2),
         "expected points of dimension 2"),
        (DesignGenerator.equispaced, Box((0.0, 0.0), (1.0, 1.0)),
         "expected points of dimension 2"),
        (DesignGenerator.halton, Box((0.0,) * 7, (1.0,) * 7), "expected points of dimension 7"),
    ], ids=["halton-sphere", "equispaced-sphere", "accumulating-sphere",
            "accumulating-torus2", "equispaced-box2", "halton-box7"])
    def test_generator_off_its_domain_rejected_when_built(self, make, domain, message):
        with pytest.raises(DomainError, match=message) as info:
            make(domain=domain)
        kind = str(info.value).split()[0]
        assert str(info.value).startswith(f"{kind} design sites are not points of {domain!r}: ")

    def test_sphere_fibonacci_takes_a_domain_and_keeps_the_sphere(self):
        for domain in (None, Box(), Torus(2), UnitSphere()):
            assert DesignGenerator.sphere_fibonacci(domain=domain) \
                == DesignGenerator(kind="sphere_fibonacci", domain=UnitSphere())

    def test_unknown_kind_rejected_when_built(self):
        with pytest.raises(DomainError, match="unknown design generator kind 'spiral'"):
            DesignGenerator(kind="spiral")

    @pytest.mark.parametrize("gen", [
        DesignGenerator.halton(domain=Torus(2)), DesignGenerator.equispaced(domain=Torus(3)),
        DesignGenerator.accumulating(domain=Torus(1)), DesignGenerator.sphere_fibonacci(),
        DesignGenerator.halton(domain=Box((0.0, 0.0), (1.0, 1.0)))])
    def test_designs_are_points_of_their_domain(self, gen):
        sites = generate_design(gen, 40).sites
        assert gen.domain.points(sites) is sites

    def test_x_star_range_guard(self):
        with pytest.raises(DomainError):
            DesignGenerator.accumulating(x_star=0.1)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, math.nan])
    def test_contraction_ratio_range_guard(self, q):
        with pytest.raises(DomainError) as exc:
            DesignGenerator.accumulating(q=q)
        assert str(exc.value) == "the contraction ratio must lie in (0, 1)"

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_design_rejected(self, n):
        with pytest.raises(DomainError) as exc:
            generate_design(DesignGenerator.halton(), n)
        assert str(exc.value) == "a design needs n >= 1 sites"


#: the README's design-kind x domain table: per kind, whether it fits the
#: interval, the torus with d = 1, the torus with d >= 2 (Halton up to d = 6)
#: and the sphere
DESIGN_TABLE = {"equispaced": (True, True, True, False),
                "accumulating": (True, True, False, False),
                "halton": (True, True, True, False),
                "sphere_fibonacci": (False, False, False, True)}
DESIGN_TABLE_COLUMNS = ([Box()], [Torus(1)], [Torus(2), Torus(3), Torus(6)], [UnitSphere()])


def table_generator(kind, domain):
    if kind == "accumulating":
        return DesignGenerator.accumulating(domain=domain)
    return DesignGenerator(kind=kind, domain=domain)


class TestDesignTable:
    @pytest.mark.parametrize("kind", sorted(DESIGN_TABLE))
    def test_each_cell_of_the_readme_table(self, kind):
        for fits, domains in zip(DESIGN_TABLE[kind], DESIGN_TABLE_COLUMNS):
            for domain in domains:
                if not fits:
                    with pytest.raises(DomainError):
                        table_generator(kind, domain)
                    continue
                gen = table_generator(kind, domain)
                largest = generate_design(gen, 64).sites
                for n in (1, 2, 7, 64):
                    sites = generate_design(gen, n).sites
                    assert sites.shape == (n, domain.dim)
                    np.testing.assert_array_equal(domain.points(sites), sites)
                    assert len(np.unique(sites, axis=0)) == n, (kind, domain, n)
                    if gen.nested:
                        np.testing.assert_array_equal(sites, largest[:n])

    def test_halton_stops_at_six_torus_dimensions(self):
        with pytest.raises(DomainError):
            table_generator("halton", Torus(7))


class TestBoxBounds:
    """Box designs and default targets are built in unit-cube coordinates and
    mapped onto the box: lower + (upper - lower) * u."""

    @pytest.mark.parametrize("make", [
        DesignGenerator.halton, DesignGenerator.equispaced,
        lambda domain: DesignGenerator.accumulating(domain=domain)],
        ids=["halton", "equispaced", "accumulating"])
    def test_design_on_a_wider_box_is_the_mapped_unit_design(self, make):
        unit = generate_design(make(domain=Box()), 64).sites
        wide = generate_design(make(domain=Box((0.0,), (2.0,))), 64).sites
        assert np.array_equal(wide, 2.0 * unit)
        assert wide.min() > 0.0 and wide.max() > 1.9
        shifted_gen = make(domain=Box((-1.0,), (1.0,)))
        shifted = generate_design(shifted_gen, 64).sites
        assert np.array_equal(shifted, -1.0 + 2.0 * unit)
        assert shifted_gen.domain.points(shifted) is shifted

    def test_halton_on_a_short_box_stays_inside(self):
        gen = DesignGenerator.halton(domain=Box((0.0,), (0.4,)))
        sites = generate_design(gen, 64).sites
        assert gen.domain.points(sites) is sites
        assert np.array_equal(sites, 0.4 * generate_design(DesignGenerator.halton(), 64).sites)

    def test_unit_box_and_torus_designs_are_the_unit_coordinates(self):
        from misspec_krige.harness import _accumulating_sites
        gen = DesignGenerator.accumulating()
        sites = generate_design(gen, 64).sites[:, 0]
        assert sites.tolist() == _accumulating_sites(gen, 64)
        torus = DesignGenerator.accumulating(domain=Torus(1))
        assert generate_design(torus, 64).sites[:, 0].tolist() == _accumulating_sites(gen, 64)

    def test_accumulating_largest_n_is_checked_on_the_box(self):
        # mapped onto [1000, 1001], the offsets collide long before they do on [0, 1]
        gen = DesignGenerator.accumulating(domain=Box((1000.0,), (1001.0,)))
        assert gen.max_n < DesignGenerator.accumulating().max_n
        assert generate_design(gen, gen.max_n).n == gen.max_n

    def test_default_targets_follow_the_box(self):
        unit = default_targets(DesignGenerator.accumulating(), 64)
        wide = default_targets(DesignGenerator.accumulating(domain=Box((0.0,), (2.0,))), 64)
        assert [t.label for t in wide] == [t.label for t in unit]
        for u, w in zip(unit, wide):
            assert np.array_equal(w.sites, 2.0 * u.sites)
        pts = np.array([t.sites[0, 0] for t in wide])
        assert pts.min() == pytest.approx(0.326, abs=1e-3)
        assert pts.max() == pytest.approx(1.684, abs=1e-3)

    @pytest.mark.parametrize("domain", [Box((0.0, -1.0), (2.0, 1.0)), Torus(6)],
                             ids=["box2", "torus6"])
    def test_default_targets_have_the_domain_dimension(self, domain):
        gen = DesignGenerator.halton(domain=domain)
        targets = default_targets(gen, 16, count=9)
        pts = np.vstack([t.sites for t in targets])
        assert pts.shape == (9, domain.dim)
        assert gen.domain.points(pts) is pts

    def test_scenario_on_a_wider_box_runs(self):
        box = Box((0.0,), (2.0,))
        true = GaussianModel(zero_mean, MaternKernel(MaternParams(1.0, 0.5, 1.0), box), "t")
        wrong = GaussianModel(zero_mean, MaternKernel(MaternParams(2.0, 0.5, 0.5), box), "w")
        gen = DesignGenerator.accumulating(domain=box)
        res = run_scenario(Scenario("wide", true, wrong, gen, default_targets(gen, 16),
                                    n_schedule=(8, 16), limit_a=2.0))
        assert n_values(res.table) == [8, 16]
        assert res.report["primary_route"] == "spectral"


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

    @staticmethod
    def fields(s):
        """Every field of a scenario as a comparable value: targets by label and
        sites, models by label, kernel and mean values at the targets."""
        points = np.concatenate([t.sites for t in s.targets])
        return {"name": s.name, "n_schedule": s.n_schedule, "limit_a": s.limit_a,
                "notes": s.notes, "design_generator": s.design_generator,
                "targets": [(t.label, t.sites.tolist()) for t in s.targets],
                "models": [(m.label, m.kernel, m.mean_at(points).tolist())
                           for m in (s.true_model, s.wrong_model)]}

    def test_schedule_override(self):
        for name in SCENARIO_NAMES:
            default = self.fields(builtin_scenario(name))
            assert self.fields(builtin_scenario(name)) == default
            override = builtin_scenario(name, n_schedule=[4, 8, 12])
            assert self.fields(override) == {**default, "n_schedule": (4, 8, 12)}
        s = builtin_scenario("identical", n_schedule=[4, 8])
        assert s.n_schedule == (4, 8)
        s = builtin_scenario("identical", n_schedule=[4.0, np.int64(8)])
        assert s.n_schedule == (4, 8) and all(type(n) is int for n in s.n_schedule)
        with pytest.raises(DomainError, match="strictly increasing; 8 follows 16"):
            builtin_scenario("identical", n_schedule=[4, 16, 8])
        with pytest.raises(DomainError, match="list of design sizes"):
            builtin_scenario("identical", n_schedule=8)

    def test_models_on_different_domains_rejected(self):
        matern = GaussianModel(zero_mean, MaternKernel(MaternParams(1.0, 0.5, 1.0)), "m")
        spec = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5})
        torus1 = GaussianModel(zero_mean, PeriodicKernel(spec), "t1")
        torus2 = GaussianModel(zero_mean, PeriodicKernel(
            PeriodicSpectrum.from_coeffs({(0, 0): 1.0, (1, 0): 0.5}, dim=2)), "t2")
        for true, wrong, gen in [(torus1, torus2, DesignGenerator.equispaced(Torus(1))),
                                 (matern, torus1, DesignGenerator.accumulating())]:
            with pytest.raises(DomainError) as info:
                Scenario("mixed", true, wrong, gen, targets=(), n_schedule=(8,))
            assert str(info.value) == (f"the two models must live on the same domain, got "
                                       f"{true.kernel.domain!r} and {wrong.kernel.domain!r}")

    def test_generator_on_another_domain_rejected(self):
        matern = GaussianModel(zero_mean, MaternKernel(MaternParams(1.0, 0.5, 1.0)), "m")
        for gen in (DesignGenerator.sphere_fibonacci(), DesignGenerator.halton(Torus(1))):
            with pytest.raises(DomainError) as info:
                Scenario("off", matern, matern, gen, targets=(), n_schedule=(8,))
            assert str(info.value) == (f"the {gen.kind} design lives on {gen.domain!r}, "
                                       f"the models on {Box()!r}")

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

    def test_report_takes_the_verdict_tolerances(self):
        s = builtin_scenario("periodic_ratio3", n_schedule=[8])
        res = run_scenario(s, verdict_window=0.9, verdict_tol=1e-9)
        assert res.report == assumption_report(s.true_model, s.wrong_model, 0.9, 1e-9)
        assert res.report["ratio_verdict"]["kind"] == "inconclusive"

    @settings(max_examples=60, deadline=None)
    @given(l_true=st.integers(1, 12), l_wrong=st.integers(1, 12), n=st.integers(1, 200))
    def test_schedule_rejected_exactly_at_sphere_rank(self, l_true, l_wrong, n):
        true = GaussianModel(zero_mean, SphereSeriesKernel(
            SphereLegendreParams(1.0, 1.0, 1.0, l_max=l_true)), "leg")
        wrong = GaussianModel(zero_mean, SphereSeriesKernel(
            SphereSpdeParams(1.0, 1.0, 1.0, l_max=l_wrong)), "spde")
        rank = (min(l_true, l_wrong) + 1) ** 2

        def build():
            return Scenario("rank", true, wrong, DesignGenerator.sphere_fibonacci(),
                            targets=(), n_schedule=(n,))
        if n >= rank:
            with pytest.raises(DomainError, match=f"rank {rank} "):
                build()
        else:
            assert build().n_schedule == (n,)
