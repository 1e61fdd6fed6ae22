"""CLI contracts: config schema, outputs, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from misspec_krige import cli
from misspec_krige.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, CSV_HEADER, main
from misspec_krige.diagnostics import QUAD_NODES, assumption_report
from misspec_krige.harness import (DEFAULT_SCHEDULE, SCENARIO_NAMES, DesignGenerator,
                                   builtin_scenario)
from misspec_krige.kernels import Box, Torus, UnitSphere


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def no_work(monkeypatch):
    """Makes the CLI exit 3 if it reaches the ratio run, the report or the
    eigensolver, so an exit 2 shows the config was rejected before any work."""
    def refuse(*args, **kwargs):
        raise AssertionError("config accepted")
    for name in ("run_scenario", "assumption_report", "nystrom_eigen"):
        monkeypatch.setattr(cli, name, refuse)


MATERN_PAIR = {"true_model": {"family": "matern", "nu": 0.5},
               "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0}}
SPHERE_PAIR = {"true_model": {"family": "sphere_legendre", "nu1": 1.0},
               "wrong_model": {"family": "sphere_spde", "nu": 1.0}}
# a working mean whose error means overflow once squared
BIG_MEAN_PAIR = {"true_model": {"family": "matern", "nu": 0.5},
                 "wrong_model": {"family": "matern", "nu": 0.5,
                                 "mean": {"kind": "constant", "value": 1e300}}}
# the name is the unquoted first field of every ratios.csv row
NAME_LIMIT = "a string without a comma, double quote, CR or LF"
TORUS2_PAIR = {"true_model": {"family": "periodic", "dim": 2, "k_max": 4},
               "wrong_model": {"family": "periodic", "dim": 2, "k_max": 4, "scale": 2.0}}


class TestRun:
    def test_identical_scenario_csv(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "schedule": [8, 16],
                                      "output_dir": str(tmp_path)})
        assert main(["run", cfg]) == EXIT_OK
        csv_path = tmp_path / "ratios.csv"
        with open(csv_path) as fh:
            assert fh.readline().strip() == CSV_HEADER
        rows = read_rows(csv_path)
        assert rows, "csv must not be empty"
        for row in rows:
            if row["ratio_name"] == "mean_term":
                assert float(row["value"]) <= 1e-12
            else:
                assert float(row["value"]) == pytest.approx(1.0, abs=1e-10)
            assert float(row["abs_dev"]) <= 1e-10
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["scenario"] == "identical"

    def test_matern_same_nu_sup_row(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "matern_same_nu",
                                      "output_dir": str(tmp_path)})
        assert main(["run", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "ratios.csv")
        hits = [r for r in rows
                if r["n"] == "64" and r["target_id"] == "SUP"
                and r["ratio_name"] == "r_var_3"]
        assert len(hits) == 1
        row = hits[0]
        assert float(row["limit"]) == 2.0
        assert abs(float(row["value"]) - 2.0) < 0.2
        assert float(row["abs_dev"]) < 0.2

    def test_malformed_config_exit_2_no_partial_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        out_dir = tmp_path / "out"
        assert main(["run", str(cfg), "--output", str(out_dir)]) == EXIT_CONFIG
        assert not (out_dir / "ratios.csv").exists()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "bogus": True})
        assert main(["run", cfg]) == EXIT_CONFIG

    def test_missing_schema_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "identical"})
        assert main(["run", cfg]) == EXIT_CONFIG

    @pytest.mark.filterwarnings("ignore:target .* excluded")
    def test_schedule_beyond_generator_limit_exit_2(self, tmp_path, capsys):
        # the default accumulating design repeats a site at n = 145
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "schedule": [8, 145]})
        assert main(["run", cfg, "--output", str(tmp_path / "bad")]) == EXIT_CONFIG
        assert "largest usable design size 144" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "ratios.csv").exists()
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "schedule": [8, 144]})
        assert main(["run", cfg, "--output", str(tmp_path / "ok")]) == EXIT_OK
        assert (tmp_path / "ok" / "ratios.csv").exists()

    def test_periodic_schedule_below_kernel_rank(self, tmp_path, capsys):
        # the default periodic spectrum keeps 1 + 2 * 64 = 129 eigenfunctions
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "periodic_ratio3",
                                      "schedule": [8, 129]})
        assert main(["run", cfg, "--output", str(tmp_path / "bad")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "rank 129" in err and "PeriodicKernel" in err and "n <= 128" in err
        assert not (tmp_path / "bad" / "ratios.csv").exists()
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "periodic_ratio3",
                                      "schedule": [8, 128]})
        assert main(["run", cfg, "--output", str(tmp_path / "ok")]) == EXIT_OK
        assert (tmp_path / "ok" / "ratios.csv").exists()

    def test_sphere_schedule_below_kernel_rank(self, tmp_path, capsys):
        def config(schedule):
            return {"schema": 1, "experiment": {
                "name": "sphere-l6",
                "true_model": {"family": "sphere_legendre", "nu1": 1.0, "l_max": 6},
                "wrong_model": {"family": "sphere_spde", "nu": 1.0, "l_max": 6},
                "schedule": schedule}}
        # (l_max + 1)^2 = 49 spherical harmonics
        cfg = write_config(tmp_path, config([8, 49]))
        assert main(["run", cfg, "--output", str(tmp_path / "bad")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "rank 49" in err and "SphereSeriesKernel" in err and "n <= 48" in err
        assert not (tmp_path / "bad" / "ratios.csv").exists()
        cfg = write_config(tmp_path, config([8, 48]))
        assert main(["run", cfg, "--output", str(tmp_path / "ok")]) == EXIT_OK
        assert (tmp_path / "ok" / "ratios.csv").exists()

    @pytest.mark.parametrize("schedule, message", [
        ([], "at least one design size"),
        ([0, 8], "schedule entry 0 is not an integer design size >= 1"),
        ([8.5], "schedule entry 8.5 is not"),
        ([True, 8], "schedule entry True is not"),
    ], ids=["empty", "zero", "fraction", "bool"])
    def test_bad_schedule_exit_2_before_any_work(self, tmp_path, capsys, schedule, message):
        exp = {"true_model": {"family": "matern", "nu": 0.5},
               "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0}}
        configs = [{"schema": 1, "scenario": "identical", "schedule": schedule},
                   {"schema": 1, "experiment": {**exp, "schedule": schedule}},
                   {"schema": 1, "experiment": exp, "schedule": schedule}]
        for i, payload in enumerate(configs):
            cfg = write_config(tmp_path, payload)
            out = tmp_path / f"out{i}"
            assert main(["run", cfg, "--output", str(out)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not (out / "ratios.csv").exists()
        # check takes no schedule: the key itself is rejected
        cfg = write_config(tmp_path, configs[0], name="check.json")
        assert main(["check", cfg]) == EXIT_CONFIG
        assert "unknown top-level config keys: ['schedule']" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("limit_a", 0, "limit_a must be a finite number > 0, got 0"),
        ("limit_a", -2, "limit_a must be a finite number > 0, got -2"),
        ("limit_a", "x", "limit_a must be a finite number > 0, got 'x'"),
        ("limit_a", 1e-320, "limit_a must be large enough that its reciprocal, the limit "
                            "1/a, is finite, got 1e-320"),
        ("targets", [], '"targets" must be a nonempty list of points'),
        ("targets", [[0.3, 0.4]], "targets[0] must be a list of 1 finite numbers, got [0.3, 0.4]"),
        ("targets", [[0.5], [1.7]], "targets[1] = [1.7] lies outside the box [0, 1]"),
        ("targets", [-0.1], "targets[0] = -0.1 lies outside the box [0, 1]"),
        ("targets", [["a"]], "targets[0][0] must be a finite number, got 'a'"),
        ("targets", [True], "targets[0][0] must be a finite number, got True"),
        ("targets", [[0.5], ["0.41"]], "targets[1][0] must be a finite number, got '0.41'"),
        *[("name", name, f"name must be {NAME_LIMIT}, got {name!r}")
          for name in (5, None, ["l"], "a,b", "x\ny", 'a"b', "a\rb")],
    ], ids=["limit-zero", "limit-negative", "limit-string", "limit-reciprocal", "targets-empty",
            "targets-wrong-dim", "targets-above-box", "targets-below-box", "targets-string",
            "targets-bool", "targets-numeric-string", "name-number", "name-null", "name-list",
            "name-comma", "name-newline", "name-quote", "name-cr"])
    def test_bad_inline_field_exit_2_before_any_work(self, tmp_path, capsys, no_work,
                                                      field, value, message):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": {"family": "matern", "nu": 0.5},
            "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0},
            "schedule": [8, 16], field: value}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "ratios.csv").exists()

    @pytest.mark.parametrize("tolerances, message", [
        ({"verdict_window": 0}, "tolerances.verdict_window must be a number in (0, 1], got 0"),
        ({"verdict_window": 5}, "tolerances.verdict_window must be a number in (0, 1], got 5"),
        ({"verdict_tol": 0}, "tolerances.verdict_tol must be a number in (0, 1], got 0"),
        ({"verdict_tol": "x"}, "tolerances.verdict_tol must be a number in (0, 1], got 'x'"),
        ({"verdict_tol": 10}, "tolerances.verdict_tol must be a number in (0, 1], got 10"),
        ({"verdict_tol": float("inf")},
         "tolerances.verdict_tol must be a number in (0, 1], got inf"),
        ({"variance_floor": float("nan")},
         "tolerances.variance_floor must be a finite number >= 0, got nan"),
        ({"variance_floor": -1}, "tolerances.variance_floor must be a finite number >= 0"),
        ([0.2], '"tolerances" must be an object'),
    ], ids=["window-zero", "window-above-one", "tol-zero", "tol-string", "tol-above-one",
            "tol-infinite", "floor-nan", "floor-negative", "not-an-object"])
    def test_bad_tolerance_exit_2_before_any_work(self, tmp_path, capsys, no_work,
                                                   tolerances, message):
        for scenario in ("periodic_ratio3", "matern_same_nu"):
            cfg = write_config(tmp_path, {"schema": 1, "scenario": scenario,
                                          "tolerances": tolerances})
            assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out" / "ratios.csv").exists()
            assert main(["check", cfg]) == EXIT_CONFIG
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("true_model, wrong_model, target, message", [
        ({"family": "periodic"}, {"family": "periodic", "scale": 2.0}, [1.5],
         "targets[0] = [1.5] lies outside the torus [0, 1]"),
        ({"family": "sphere_legendre", "nu1": 1.0}, {"family": "sphere_spde", "nu": 1.0},
         [0.0, 0.0, 1.1], "targets[0] = [0.0, 0.0, 1.1] is not a unit vector "
                          "(norm must be within 1e-10 of 1)"),
        ({"family": "sphere_legendre", "nu1": 1.0}, {"family": "sphere_spde", "nu": 1.0},
         [0.6, 0.8], "targets[0] must be a list of 3 finite numbers, got [0.6, 0.8]"),
    ], ids=["torus", "sphere-not-unit", "sphere-wrong-dim"])
    def test_inline_target_off_domain_exit_2_before_any_work(
            self, tmp_path, capsys, no_work, true_model, wrong_model, target, message):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": true_model, "wrong_model": wrong_model, "targets": [target]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "ratios.csv").exists()

    @pytest.mark.parametrize("design, schedule, targets, message", [
        (None, [8, 16], [[0.5]],
         "targets[0] = [0.5] equals sites[1] of the accumulating design at every scheduled n"),
        (None, [8, 16], [[0.9], [0.28]],
         "targets[1] = [0.28] equals sites[2] of the accumulating design"),
        ({"kind": "equispaced"}, [1, 3], [[0.5]],
         "targets[0] = [0.5] equals sites[0] of the equispaced design"),
    ], ids=["nested-first-level", "nested-second-target", "equispaced-every-level"])
    def test_target_on_every_design_exit_2_before_any_work(
            self, tmp_path, capsys, no_work, design, schedule, targets, message):
        experiment = {"true_model": {"family": "matern", "nu": 0.5},
                      "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0},
                      "schedule": schedule, "targets": targets}
        if design is not None:
            experiment["design"] = design
        cfg = write_config(tmp_path, {"schema": 1, "experiment": experiment})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "ratios.csv").exists()

    def test_target_on_some_designs_only_runs(self, tmp_path):
        # 0.5 is a site of the 3-site equispaced design, not of the 2-site one
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": {"family": "matern", "nu": 0.5},
            "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0},
            "design": {"kind": "equispaced"}, "schedule": [2, 3],
            "targets": [[0.5], [0.4]]}})
        with pytest.warns(UserWarning, match="target u00 excluded"):
            assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "ratios.csv")
        assert {(r["n"], r["target_id"]) for r in rows} == {
            ("2", "u00"), ("2", "u01"), ("2", "SUP"), ("3", "u01"), ("3", "SUP")}

    def test_matern_dim_other_than_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": {"family": "matern", "nu": 0.5, "dim": 2},
            "wrong_model": {"family": "matern", "nu": 0.5, "dim": 2}}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "dim = 1 only" in capsys.readouterr().err
        assert not (tmp_path / "out" / "ratios.csv").exists()
        cfg = write_config(tmp_path, {
            "schema": 1, "true_model": {"family": "matern", "nu": 0.5, "dim": 3},
            "wrong_model": {"family": "matern", "nu": 0.5}}, name="check.json")
        assert main(["check", cfg]) == EXIT_CONFIG
        assert "dim = 1 only" in capsys.readouterr().err

    @pytest.mark.parametrize("models, design, message", [
        (SPHERE_PAIR, {"kind": "halton"},
         "halton design sites are not points of UnitSphere(): point [0.5, "),
        (SPHERE_PAIR, {"kind": "equispaced"},
         "equispaced design sites are not points of UnitSphere(): expected points of "
         "dimension 3, got shape (2, 1)"),
        (SPHERE_PAIR, {"kind": "accumulating"},
         "accumulating design sites are not points of UnitSphere()"),
        (TORUS2_PAIR, {"kind": "accumulating"},
         "accumulating design sites are not points of Torus(dim=2): expected points of "
         "dimension 2, got shape (2, 1)"),
        (MATERN_PAIR, {"kind": "sphere_fibonacci"},
         "the sphere_fibonacci design lives on UnitSphere(), the models on "
         "Box(lower=(0.0,), upper=(1.0,))"),
    ], ids=["sphere-halton", "sphere-equispaced", "sphere-accumulating",
            "torus2-accumulating", "matern-sphere-fibonacci"])
    def test_design_off_the_models_domain_exit_2_before_any_work(
            self, tmp_path, capsys, no_work, models, design, message):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            **models, "design": design, "schedule": [8, 16]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "ratios.csv").exists()

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builtin_design_is_the_inline_default_of_its_domain(self, name):
        # one default design kind per domain type, for built-ins and inline
        # experiments alike
        scenario = builtin_scenario(name)
        domain = scenario.true_model.kernel.domain
        spec = {Box: {"family": "matern", "nu": 0.5}, Torus: {"family": "periodic"},
                UnitSphere: {"family": "sphere_legendre", "nu1": 1.0}}[type(domain)]
        inline = cli._scenario_from_config({"experiment": {"true_model": spec,
                                                           "wrong_model": spec}})
        assert inline.true_model.kernel.domain == domain
        assert inline.design_generator == scenario.design_generator

    @pytest.mark.parametrize("design, want", [
        ({"kind": "accumulating", "x_star": 0.5, "q": 0.8},
         DesignGenerator.accumulating(0.5, 0.8)),
        ({"kind": "accumulating", "q": 0.8}, DesignGenerator.accumulating(q=0.8)),
        ({"kind": "accumulating"}, DesignGenerator.accumulating()),
        ({"kind": "halton"}, DesignGenerator.halton()),
        ({"kind": "equispaced"}, DesignGenerator.equispaced()),
    ], ids=["accumulating-both", "accumulating-q", "accumulating-defaults", "halton",
            "equispaced"])
    def test_design_spec_calls_its_kinds_classmethod(self, design, want):
        inline = cli._scenario_from_config({"experiment": {**MATERN_PAIR, "design": design}})
        assert inline.design_generator == want

    @pytest.mark.parametrize("true_model, wrong_model, message", [
        ({"family": "periodic"}, {"family": "periodic", "dim": 2, "k_max": 4},
         "the two models must live on the same domain, got Torus(dim=1) and Torus(dim=2)"),
        ({"family": "matern", "nu": 0.5}, {"family": "periodic"},
         "the two models must live on the same domain, got Box(lower=(0.0,), "
         "upper=(1.0,)) and Torus(dim=1)"),
    ], ids=["torus-dim-1-vs-2", "matern-vs-periodic"])
    def test_models_on_different_domains_exit_2_before_any_work(
            self, tmp_path, capsys, no_work, true_model, wrong_model, message):
        pair = {"true_model": true_model, "wrong_model": wrong_model}
        cfg = write_config(tmp_path, {"schema": 1, "experiment": pair})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "ratios.csv").exists()
        cfg = write_config(tmp_path, {"schema": 1, **pair}, name="check.json")
        assert main(["check", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_mean_shift_on_two_dimensional_torus_runs(self, tmp_path, capsys):
        # no accumulating design fits the 2-d torus: the mean probe is inconclusive
        true_model = {"family": "periodic", "dim": 2, "k_max": 4}
        wrong_model = dict(true_model, mean={"kind": "constant", "value": 1.0})
        cfg = write_config(tmp_path, {"schema": 1, "true_model": true_model,
                                      "wrong_model": wrong_model}, name="check.json")
        assert main(["check", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["mean_check"] == {
            "status": "no accumulating design generator fits the domain Torus(dim=2)",
            "grade": "inconclusive"}
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": true_model, "wrong_model": wrong_model, "schedule": [8, 16]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_OK
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["report"]["mean_check"] == report["mean_check"]
        assert {r["n"] for r in read_rows(tmp_path / "out" / "ratios.csv")} == {"8", "16"}

    def test_inline_experiment(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1,
            "experiment": {
                "name": "inline-test",
                "true_model": {"family": "matern", "nu": 0.5},
                "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0},
                "design": {"kind": "equispaced"},
                "schedule": [4, 8],
                "limit_a": 4.0,
            },
            "output_dir": str(tmp_path)})
        assert main(["run", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "ratios.csv")
        r3 = [r for r in rows if r["ratio_name"] == "r_var_3"]
        assert all(float(r["value"]) == pytest.approx(4.0, abs=1e-10) for r in r3)

    def test_scenario_and_experiment_conflict(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "experiment": {}})
        assert main(["run", cfg]) == EXIT_CONFIG

    def test_tolerance_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema": 1, "scenario": "identical", "schedule": [4, 8],
            "tolerances": {"verdict_tol": 0.05, "variance_floor": 1e-10},
            "output_dir": str(tmp_path)})
        assert main(["run", cfg]) == EXIT_OK
        scenario = builtin_scenario("identical")
        report = assumption_report(scenario.true_model, scenario.wrong_model, verdict_tol=0.05)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["report"] == json.loads(cli._json_dumps(report))
        bad = write_config(tmp_path, {
            "schema": 1, "scenario": "identical",
            "tolerances": {"bogus": 1.0}}, name="bad-tol.json")
        assert main(["run", bad]) == EXIT_CONFIG

    def test_partial_results_flushed_with_marker(self, tmp_path):
        # level n=3 fails (target on a design site) but n=4 completes
        cfg = write_config(tmp_path, {
            "schema": 1,
            "experiment": {
                "name": "partial",
                "true_model": {"family": "matern", "nu": 0.5},
                "wrong_model": {"family": "matern", "nu": 0.5, "sigma": 2.0},
                "design": {"kind": "equispaced"},
                "targets": [[0.25]],
                "schedule": [3, 4],
            },
            "output_dir": str(tmp_path)})
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["run", cfg]) == EXIT_NUMERICAL
        rows = read_rows(tmp_path / "ratios.csv")
        assert rows and all(r["n"] == "4" for r in rows)
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert "failure" in diag
        assert "3" in diag["metadata"]["failed_levels"]

    def test_numerical_failure_exit_3(self, tmp_path):
        # a variance floor above the sill: every target is excluded at every level
        cfg = write_config(tmp_path, {
            "schema": 1,
            "experiment": {
                "true_model": {"family": "matern", "nu": 0.5},
                "wrong_model": {"family": "matern", "nu": 0.5},
                "design": {"kind": "equispaced"},
                "targets": [[0.3], [0.6]],
                "schedule": [3],
            },
            "tolerances": {"variance_floor": 10.0},
            "output_dir": str(tmp_path)})
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["run", cfg]) == EXIT_NUMERICAL

    def test_mean_that_overflows_when_squared_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            **BIG_MEAN_PAIR, "schedule": [8, 16]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "first error: error mean 1.653e+297 overflows when squared" in err
        assert "(OverflowError)" not in err
        assert "conditioning" not in err  # the overflow is the mean's, not the Gram's

    def test_negative_variance_names_gram_conditioning(self, tmp_path, capsys):
        # sites clustered far below 1/k_max on the torus: the true Gram's
        # 1/rcond is about 1.5e13, and an error variance comes out negative
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": {"family": "periodic", "power": 2.0, "k_max": 6},
            "wrong_model": {"family": "periodic", "power": 2.0, "k_max": 6, "scale": 2.0},
            "design": {"kind": "accumulating", "q": 0.3, "x_star": 0.37},
            "schedule": [12], "limit_a": 2.0}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "is negative beyond tolerance; the limit is Gram conditioning (1/rcond " in err
        assert "for the true Gram at jitter" in err and "for the working Gram at jitter" in err

    @pytest.mark.parametrize("pair", [
        {"true_model": {"family": "periodic", "k_max": 4},
         "wrong_model": {"family": "periodic", "k_max": 4, "scale": 2.0}},
        {"true_model": {"family": "sphere_legendre", "nu1": 1.0, "l_max": 3},
         "wrong_model": {"family": "sphere_spde", "nu": 1.0, "l_max": 3}},
    ], ids=["periodic-k_max-4", "sphere-l_max-3"])
    def test_short_analytic_spectrum_still_writes_the_table(self, tmp_path, pair):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {**pair, "schedule": [4, 8]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_OK
        assert {r["n"] for r in read_rows(tmp_path / "out" / "ratios.csv")} == {"4", "8"}
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["report"]["routes"]["eigen_analytic"] == {
            "error": "need at least 20 eigenvalues for a tail verdict"}

    def test_output_dir_must_be_a_string(self, tmp_path, capsys, no_work):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "schedule": [8], "output_dir": 5})
        assert main(["run", cfg]) == EXIT_CONFIG
        assert "output_dir must be a path string, got 5" in capsys.readouterr().err

    def test_schedule_in_two_places_exit_2_before_any_work(self, tmp_path, capsys, no_work):
        cfg = write_config(tmp_path, {"schema": 1, "schedule": [8, 16], "experiment": {
            **MATERN_PAIR, "schedule": [8]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert ('"schedule" and "experiment.schedule" are both given; give one'
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "ratios.csv").exists()

    @pytest.mark.parametrize("top, inline, expected", [
        (None, None, DEFAULT_SCHEDULE),
        ("absent", None, DEFAULT_SCHEDULE),
        (None, "absent", DEFAULT_SCHEDULE),
        (None, [8], (8,)),
        ([8], None, (8,)),
    ], ids=["both-null", "inline-null", "top-null", "top-null-inline-given",
            "inline-null-top-given"])
    def test_null_schedule_means_absent(self, top, inline, expected):
        experiment = dict(MATERN_PAIR, **({} if inline == "absent" else {"schedule": inline}))
        config = {"schema": 1, "experiment": experiment,
                  **({} if top == "absent" else {"schedule": top})}
        assert cli._scenario_from_config(config).n_schedule == tuple(expected)

    def test_null_schedule_next_to_a_given_one_runs_the_given_one(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "schedule": None, "experiment": {
            **MATERN_PAIR, "schedule": [8]}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_OK
        assert {r["n"] for r in read_rows(tmp_path / "out" / "ratios.csv")} == {"8"}

    @pytest.mark.parametrize("pair", [
        {"true_model": {"family": "matern", "nu": 0.5}, "wrong_model": {"family": "periodic"}},
        {"true_model": {"family": "matern", "nu": 0.5}},
        {"wrong_model": {"family": "matern", "nu": 0.5}},
    ], ids=["pair", "true-only", "wrong-only"])
    def test_check_scenario_and_model_pair_exit_2_before_any_work(self, tmp_path, capsys,
                                                                 no_work, pair):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical", **pair})
        assert main(["check", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert ('"scenario" and the model pair "true_model"/"wrong_model" are both given; '
                'give one' in captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("command, key, config", [
        ("run", "output_dir", {"experiment": {**MATERN_PAIR, "schedule": [8]}}),
        ("run", "output_dir", {"scenario": "identical", "schedule": [8]}),
        ("eigen", "output", {"kernel": {"family": "matern", "nu": 0.5}, "grid": {"nodes": 16}}),
    ], ids=["run-inline", "run-builtin", "eigen"])
    def test_output_in_two_places_exit_2_before_any_work(self, tmp_path, capsys, no_work,
                                                         command, key, config):
        cfg = write_config(tmp_path, {"schema": 1, **config,
                                      key: str(tmp_path / "from_config")})
        assert main([command, cfg, "--output", str(tmp_path / "from_flag")]) == EXIT_CONFIG
        assert f'"{key}" and --output are both given; give one' in capsys.readouterr().err
        assert not (tmp_path / "from_config").exists()
        assert not (tmp_path / "from_flag").exists()


MODEL_SPEC_CASES = [
    ({"family": "matern", "nu": 0.5, "sigma": 1e400},
     "bad model spec for true: sigma, nu, kappa must all be finite and > 0, got sigma=inf"),
    ({"family": "matern", "nu": float("nan")},
     "bad model spec for true: sigma, nu, kappa must all be finite and > 0, got sigma=1.0, "
     "nu=nan"),
    ({"family": "sphere_spde", "nu": 1.0, "tau": 1e400},
     "bad model spec for true: tau, nu, kappa must all be finite and > 0, got tau=inf"),
    ({"family": "sphere_legendre", "nu1": 1.0, "kappa1": -1e400},
     "bad model spec for true: sigma1, nu1, kappa1 must all be finite and > 0"),
    ({"family": "matern", "nu": 0.5, "kapa": 2},
     "bad model spec for true: unknown matern model keys: ['kapa']"),
    ({"family": "sphere_spde", "nu1": 1.0, "nu": 1.0},
     "bad model spec for true: unknown sphere_spde model keys: ['nu1']"),
    ({"family": "maten", "nu": 0.5}, "bad model spec for true: unknown model family 'maten'"),
    ({"family": "periodic", "coeffs": [1, 2]},
     "bad model spec for true: coeffs must map integer lattice indices to masses, got [1, 2]"),
    ({"family": "periodic", "coeffs": {"0": 1.0, "1": 0.5}, "dim": 2},
     "bad model spec for true: coeffs fix a 1-d spectrum, so ['dim'] must not be given"),
    ({"family": "periodic", "coeffs": {"0": 1.0}, "power": 3, "scale": 2},
     "coeffs fix a 1-d spectrum, so ['power', 'scale'] must not be given"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "constant", "value": 1, "vaule": 2}},
     "bad model spec for true: unknown constant mean keys: ['vaule']"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "constant", "value": 1e400}},
     "bad model spec for true: mean.value must be a finite number, got inf"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "linear", "intercept": 1e400}},
     "bad model spec for true: mean.intercept must be a finite number, got inf"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "kink", "alpha": "nan"}},
     "bad model spec for true: mean.alpha must be a finite number >= 0, got 'nan'"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "kink", "alpha": -1}},
     "bad model spec for true: mean.alpha must be a finite number >= 0, got -1"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "linear", "slope": [1, 2]}},
     "bad model spec for true: mean.slope must be a list of 1 finite numbers, got [1, 2]"),
    ({"family": "matern", "nu": 0.5,
      "mean": {"kind": "kink", "alpha": 0.5, "x0": [0.1, 0.2]}},
     "bad model spec for true: mean.x0 must be a list of 1 finite numbers, got [0.1, 0.2]"),
    ({"family": "periodic", "dim": 2, "mean": {"kind": "linear", "slope": 1.0}},
     "bad model spec for true: mean.slope must be a list of 2 finite numbers, got 1.0"),
    ({"family": "periodic", "dim": 2, "mean": {"kind": "kink", "alpha": 1, "x0": [0.5, 1e400]}},
     "bad model spec for true: mean.x0[1] must be a finite number, got inf"),
    ({"family": "matern", "nu": True},
     "bad model spec for true: sigma, nu, kappa must all be finite and > 0, got sigma=1.0, "
     "nu=True"),
    ({"family": "matern", "nu": 0.5, "sigma": True},
     "bad model spec for true: sigma, nu, kappa must all be finite and > 0, got sigma=True"),
    ({"family": "sphere_spde", "nu": True},
     "bad model spec for true: tau, nu, kappa must all be finite and > 0, got tau=1.0, "
     "nu=True"),
    ({"family": "periodic", "power": True},
     "bad model spec for true: power must be a finite number, got True"),
    ({"family": "periodic", "coeffs": {"0": 1.0, "1": True}},
     "bad model spec for true: coeffs.1 must be a finite number, got True"),
    ({"family": "matern", "nu": "0.5"},
     "bad model spec for true: sigma, nu, kappa must all be finite and > 0, got sigma=1.0, "
     "nu='0.5'"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "constant", "value": "1.5"}},
     "bad model spec for true: mean.value must be a finite number, got '1.5'"),
    ({"family": "matern", "nu": 10 ** 400},
     "bad model spec for true: sigma, nu, kappa must all be finite and > 0, got sigma=1.0, "
     "nu=1000"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "constant", "value": -10 ** 400}},
     "bad model spec for true: mean.value must be a finite number, got -1000"),
    ({"family": "matern", "nu": 0.5, "mean": 3},
     'bad model spec for true: mean spec must be an object with a "kind"'),
    ({"family": "matern", "nu": 0.5, "mean": {"value": 1}},
     'bad model spec for true: mean spec must be an object with a "kind"'),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "constant"}},
     "bad model spec for true: a constant mean needs 'value'"),
    ({"family": "matern", "nu": 0.5, "mean": {"kind": "kink"}},
     "bad model spec for true: a kink mean needs 'alpha'"),
    ({"family": "matern"}, "bad model spec for true: a matern model needs 'nu'"),
    ({"family": "sphere_legendre", "sigma1": 2.0},
     "bad model spec for true: a sphere_legendre model needs 'nu1'"),
    ({"family": "sphere_spde"}, "bad model spec for true: a sphere_spde model needs 'nu'"),
    ({"family": "sphere_greatcircle_matern"},
     "bad model spec for true: a sphere_greatcircle_matern model needs 'nu'"),
    ({"family": "matern", "nu": 0.5, "label": 3},
     "bad model spec for true: label must be a string, got 3"),
    ({"family": "periodic", "label": None},
     "bad model spec for true: label must be a string, got None"),
    ({"family": "periodic", "coeffs": {"0": 1.0, "a": 0.5}},
     "bad model spec for true: coeffs must map integer lattice indices to masses, "
     "got {'0': 1.0, 'a': 0.5}"),
    ({"family": "periodic", "coeffs": {"1.5": 0.5}},
     "bad model spec for true: coeffs must map integer lattice indices to masses, "
     "got {'1.5': 0.5}"),
]
MODEL_SPEC_IDS = ["sigma-inf", "nu-nan", "tau-inf", "kappa1-minus-inf", "matern-typo",
                  "spde-legendre-key", "unknown-family", "coeffs-list", "coeffs-with-dim",
                  "coeffs-with-power-scale", "mean-typo", "mean-value-inf",
                  "mean-intercept-inf", "mean-alpha-nan", "mean-alpha-negative",
                  "mean-slope-too-long", "mean-x0-too-long", "mean-slope-scalar-2d",
                  "mean-x0-entry-inf", "matern-nu-bool", "matern-sigma-bool", "spde-nu-bool",
                  "periodic-power-bool", "coeffs-mass-bool", "matern-nu-string",
                  "mean-value-string", "matern-nu-huge-int", "mean-value-huge-int",
                  "mean-number", "mean-without-kind", "constant-mean-without-value",
                  "kink-mean-without-alpha", "matern-without-nu", "legendre-without-nu1",
                  "spde-without-nu", "greatcircle-without-nu", "label-number", "label-null",
                  "coeffs-key-not-a-number", "coeffs-key-fraction"]


class TestRejectedBeforeAnyWork:
    """Each config here is malformed; every subcommand exits 2 without work."""

    @pytest.mark.parametrize("spec, message", MODEL_SPEC_CASES, ids=MODEL_SPEC_IDS)
    def test_bad_model_spec_exit_2(self, tmp_path, capsys, no_work, spec, message):
        wrong = {"family": spec["family"], "nu": 1.0}
        configs = {
            "run": {"schema": 1, "experiment": {"true_model": spec, "wrong_model": wrong}},
            "check": {"schema": 1, "true_model": spec, "wrong_model": wrong},
            "eigen": {"schema": 1, "kernel": spec, "grid": {"nodes": 16},
                      "output": str(tmp_path / "eigs.csv")},
        }
        for command, payload in configs.items():
            if command == "eigen":
                message = message.replace("for true:", "for kernel:")
            cfg = write_config(tmp_path, payload)
            argv = [command, cfg] + (["--output", str(tmp_path / "out")]
                                     if command == "run" else [])
            assert main(argv) == EXIT_CONFIG
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "eigs.csv").exists()

    @pytest.mark.parametrize("design, message", [
        ({"kind": "accumulating", "qq": 0.2}, "unknown accumulating design keys: ['qq']"),
        ({"kind": "halton", "q": 0.6}, "unknown halton design keys: ['q']"),
        ({"kind": "accumulating", "q": "fast"},
         "config error: bad design spec: design.q must be a finite number, got 'fast'"),
        ([], "config error: design spec must be an object"),
    ], ids=["accumulating-typo", "halton-q", "q-not-a-number", "not-an-object"])
    def test_bad_design_spec_exit_2(self, tmp_path, capsys, no_work, design, message):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": {"family": "matern", "nu": 0.5},
            "wrong_model": {"family": "matern", "nu": 0.5}, "design": design}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, payload, message", [
        ("run", [1, 2], "config must be a JSON object"),
        ("run", {"schema": 1, "experiment": []}, '"experiment" must be an object'),
        ("run", {"schema": 1, "experiment": {"true_model": 3, "wrong_model": 3}},
         'model spec must be an object with a "family"'),
        ("check", {"schema": 1, "true_model": 3, "wrong_model": 3},
         'model spec must be an object with a "family"'),
        ("check", {"schema": 1},
         'check needs "scenario" or both "true_model" and "wrong_model"'),
        ("check", {"schema": 1, "true_model": {"family": "matern", "nu": 0.5}},
         'check needs "scenario" or both "true_model" and "wrong_model"'),
        ("eigen", {"schema": 1}, 'eigen needs a "kernel" model spec'),
        ("eigen", {"schema": 1, "kernel": "matern"},
         'model spec must be an object with a "family"'),
    ], ids=["config-list", "experiment-list", "run-models-numbers", "check-models-numbers",
            "check-without-models", "check-one-model", "eigen-without-kernel",
            "eigen-kernel-string"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, no_work, command, payload,
                                     message):
        out = tmp_path / "out"
        argv = [command, write_config(tmp_path, payload)] + (
            [] if command == "check" else ["--output", str(out)])
        assert main(argv) == EXIT_CONFIG
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "check", "eigen"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.json")
        assert main([command, missing]) == EXIT_CONFIG
        assert f"config error: cannot read config {missing!r}: " in capsys.readouterr().err

    def test_eigen_output_must_be_a_string(self, tmp_path, capsys, no_work):
        cfg = write_config(tmp_path, {"schema": 1, "kernel": {"family": "matern", "nu": 0.5},
                                      "grid": {"nodes": 16}, "output": ["eigs.csv"]})
        assert main(["eigen", cfg]) == EXIT_CONFIG
        assert "output must be a path string, got ['eigs.csv']" in capsys.readouterr().err


class TestCheck:
    def test_identical_pair_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1,
            "true_model": {"family": "matern", "nu": 0.5},
            "wrong_model": {"family": "matern", "nu": 0.5}})
        assert main(["check", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_verdict"]["a_estimate"] == pytest.approx(1.0)
        assert report["routes"]["spectral"]["kind"] == "converges"
        assert report["routes"]["eigen_galerkin"]["kind"] == "converges"

    def test_nu_mismatch_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1,
            "true_model": {"family": "matern", "nu": 0.5},
            "wrong_model": {"family": "matern", "nu": 1.5}})
        assert main(["check", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["routes"]["spectral"]["kind"] == "diverges_to_zero"

    def test_tolerances_reach_the_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1, "scenario": "matern_same_nu",
            "tolerances": {"verdict_window": 0.9, "verdict_tol": 1e-9,
                           "variance_floor": 1e-10}})
        assert main(["check", cfg]) == EXIT_OK
        scenario = builtin_scenario("matern_same_nu")
        report = assumption_report(scenario.true_model, scenario.wrong_model, 0.9, 1e-9)
        assert capsys.readouterr().out == cli._json_dumps(report)
        assert report["ratio_verdict"]["kind"] == "inconclusive"

    def test_sphere_pair_limit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "schema": 1,
            "true_model": {"family": "sphere_legendre", "nu1": 1.0},
            "wrong_model": {"family": "sphere_spde", "nu": 1.0}})
        assert main(["check", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ratio_verdict"]["a_estimate"] == pytest.approx(
            1.0 / (2 * math.pi), rel=0.05)


    @pytest.mark.parametrize("pair", [
        {"true_model": {"family": "periodic", "k_max": k_max},
         "wrong_model": {"family": "periodic", "k_max": k_max, "scale": 2.0}}
        for k_max in (4, 9)
    ] + [SPHERE_PAIR | {"true_model": {**SPHERE_PAIR["true_model"], "l_max": 3},
                        "wrong_model": {**SPHERE_PAIR["wrong_model"], "l_max": 3}}],
        ids=["periodic-k_max-4", "periodic-k_max-9", "sphere-l_max-3"])
    def test_short_analytic_spectrum_is_recorded(self, tmp_path, capsys, pair):
        cfg = write_config(tmp_path, {"schema": 1, **pair})
        assert main(["check", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["routes"]["eigen_analytic"] == {
            "error": "need at least 20 eigenvalues for a tail verdict"}
        assert report["primary_route"] == "eigen_galerkin"
        assert report["ratio_verdict"]["kind"] == "converges"

    def test_mean_that_overflows_when_squared_is_an_inconclusive_probe(self, tmp_path,
                                                                       capsys):
        cfg = write_config(tmp_path, {"schema": 1, **BIG_MEAN_PAIR})
        assert main(["check", cfg]) == EXIT_OK
        mean_check = json.loads(capsys.readouterr().out)["mean_check"]
        assert mean_check["status"] == ("mean probe degenerate at n=8: error mean "
                                        "-8.741e+296 overflows when squared")
        assert mean_check["grade"] == "inconclusive"

    def test_null_scenario_is_absent_as_in_run(self, tmp_path, capsys):
        pair = {"true_model": {"family": "matern", "sigma": 1.0, "nu": 0.5, "kappa": 1.0},
                "wrong_model": {"family": "matern", "sigma": 2.0, "nu": 0.5, "kappa": 0.5}}
        assert main(["check", write_config(tmp_path, {"schema": 1, **pair})]) == EXIT_OK
        alone = capsys.readouterr().out
        cfg = write_config(tmp_path, {"schema": 1, "scenario": None, **pair}, "null.json")
        assert main(["check", cfg]) == EXIT_OK
        assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("key", ["true_model", "wrong_model"])
    def test_null_model_next_to_a_scenario_is_absent(self, tmp_path, capsys, key):
        assert main(["check", write_config(tmp_path, {"schema": 1, "scenario": "identical"})]) \
            == EXIT_OK
        alone = capsys.readouterr().out
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical", key: None},
                           "null.json")
        assert main(["check", cfg]) == EXIT_OK
        assert capsys.readouterr().out == alone

    @pytest.mark.parametrize("key", ["true_model", "wrong_model"])
    def test_null_model_next_to_a_given_one_exit_2(self, tmp_path, capsys, no_work, key):
        cfg = write_config(tmp_path, {"schema": 1, **MATERN_PAIR, key: None})
        assert main(["check", cfg]) == EXIT_CONFIG
        assert ('check needs "scenario" or both "true_model" and "wrong_model"'
                in capsys.readouterr().err)

    def test_null_scenario_without_a_pair_exit_2(self, tmp_path, capsys, no_work):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": None})
        assert main(["check", cfg]) == EXIT_CONFIG
        assert ('check needs "scenario" or both "true_model" and "wrong_model"'
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builtin_check_builds_the_model_pair_alone(self, tmp_path, capsys, monkeypatch,
                                                       name):
        from misspec_krige import harness
        scenario = builtin_scenario(name)
        want = cli._json_dumps(assumption_report(scenario.true_model, scenario.wrong_model))

        def refuse(*args, **kwargs):
            raise AssertionError("check built the scenario's targets")
        monkeypatch.setattr(harness, "default_targets", refuse)
        assert main(["check", write_config(tmp_path, {"schema": 1, "scenario": name})]) \
            == EXIT_OK
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("scenario, message", [
        ("nope", "unknown scenario 'nope'"),
        (5, '"scenario" must be a string'),
    ], ids=["unknown", "number"])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, no_work, scenario, message):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": scenario})
        for command in (["check", cfg], ["run", cfg, "--output", str(tmp_path)]):
            assert main(command) == EXIT_CONFIG
            assert message in capsys.readouterr().err


class TestEigen:
    def test_periodic_small_spectrum(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {
            "schema": 1,
            "kernel": {"family": "periodic", "coeffs": {"0": 1.0, "1": 0.5}},
            "grid": {"nodes": 64, "rank_cutoff": 1e-9},
            "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_OK
        rows = read_rows(out)
        values = sorted((float(r["eigenvalue"]) for r in rows), reverse=True)
        assert values[0] == pytest.approx(1.0, abs=1e-6)
        assert values[1] == pytest.approx(0.5, abs=1e-6)
        assert values[2] == pytest.approx(0.5, abs=1e-6)

    def test_matern_descending(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {
            "schema": 1,
            "kernel": {"family": "matern", "nu": 0.5},
            "grid": {"nodes": 128},
            "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_OK
        values = [float(r["eigenvalue"]) for r in read_rows(out)]
        assert all(v > 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


    @pytest.mark.parametrize("grid, message", [
        ({"nodes": 1}, "grid.nodes must be an integer in [2, 2048], got 1"),
        ({"nodes": "abc"}, "grid.nodes must be an integer in [2, 2048], got 'abc'"),
        ({"nodes": 64.5}, "grid.nodes must be an integer in [2, 2048], got 64.5"),
        ({"nodes": 100000}, "grid.nodes must be an integer in [2, 2048], got 100000"),
        ({"rank_cutoff": "x"}, "grid.rank_cutoff must be a finite number >= 0, got 'x'"),
        ({"rank_cutoff": -1e-9}, "grid.rank_cutoff must be a finite number >= 0"),
        ({"rank_cutoff": 1.0}, "grid.rank_cutoff must be below 1, since a cutoff of 1 or "
                               "more drops even the leading eigenvalue, got 1.0"),
        ({"rank_cutoff": 2.0}, "grid.rank_cutoff must be below 1"),
        ({"nodes": 64, "points": 3}, "unknown grid keys: ['points']"),
        ([64], '"grid" must be an object'),
    ], ids=["nodes-one", "nodes-string", "nodes-fraction", "nodes-above-cap", "cutoff-string",
            "cutoff-negative", "cutoff-one", "cutoff-two", "unknown-key", "not-an-object"])
    def test_bad_grid_exit_2(self, tmp_path, capsys, no_work, grid, message):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {"schema": 1, "kernel": {"family": "matern", "nu": 0.5},
                                      "grid": grid, "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("k_max", 2.5), ("k_max", True), ("k_max", "abc"), ("dim", 2.5), ("dim", 0)])
    def test_bad_periodic_lattice_exit_2(self, tmp_path, capsys, no_work, field, value):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {"schema": 1, "kernel": {"family": "periodic", field: value},
                                      "grid": {"nodes": 16}, "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_CONFIG
        assert f"{field} must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("family, field, value", [
        ("sphere_legendre", "l_max", 6.5), ("sphere_legendre", "l_max", "7"),
        ("sphere_legendre", "l_max", True), ("sphere_spde", "l_max", 0),
        ("matern", "dim", 1.5), ("matern", "dim", True), ("matern", "dim", "1")])
    def test_bad_integer_field_exit_2(self, tmp_path, capsys, no_work, family, field, value):
        out = tmp_path / "eigs.csv"
        nu = "nu1" if family == "sphere_legendre" else "nu"
        cfg = write_config(tmp_path, {"schema": 1,
                                      "kernel": {"family": family, nu: 1.0, field: value},
                                      "grid": {"nodes": 16}, "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_CONFIG
        assert f"{field} must be an integer >= 1, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dim, nodes, message", [
        (2, 2048, "so not 2048; nearest valid counts: 2025, 2116"),
        (3, 2048, "so not 2048; nearest valid counts: 1728, 2197"),
        (2, 3, "so not 3; nearest valid counts: 4"),
        (3, 2, "so not 2; nearest valid counts: 8"),
    ], ids=["2d-2048", "3d-2048", "2d-3", "3d-2"])
    def test_torus_node_count_not_a_power_exit_2(self, tmp_path, capsys, no_work,
                                                 dim, nodes, message):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {"schema": 1,
                                      "kernel": {"family": "periodic", "dim": dim, "k_max": 2},
                                      "grid": {"nodes": nodes}, "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_CONFIG
        assert (f"grid.nodes: a {dim}-d torus grid has k^{dim} nodes for an integer k >= 2, "
                f"{message}") in capsys.readouterr().err
        assert not out.exists()

    def test_torus_node_count_a_power_runs(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {"schema": 1,
                                      "kernel": {"family": "periodic", "dim": 2, "k_max": 2},
                                      "grid": {"nodes": 64}, "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_OK
        # the 8 x 8 grid resolves all 25 lattice masses of k_max = 2
        assert len(read_rows(out)) == 25

    @pytest.mark.parametrize("kernel, nodes", [
        ({"family": "periodic"}, 128),
        ({"family": "matern", "nu": 0.5}, 128),
        ({"family": "sphere_legendre", "nu1": 1.0, "l_max": 16}, 128),
        ({"family": "periodic", "dim": 2, "k_max": 4}, 121),
        ({"family": "periodic", "dim": 3, "k_max": 2}, 125),
    ], ids=["periodic", "matern", "sphere", "torus-2d", "torus-3d"])
    def test_default_grid_is_the_reports(self, tmp_path, kernel, nodes):
        # with no node count, eigen uses the report's QUAD_NODES grid, which a
        # torus rounds to k^d nodes per axis; a node count that is given is exact
        default, given = tmp_path / "default.csv", tmp_path / "given.csv"
        cfg = write_config(tmp_path, {"schema": 1, "kernel": kernel}, "default.json")
        assert main(["eigen", cfg, "--output", str(default)]) == EXIT_OK
        cfg = write_config(tmp_path, {"schema": 1, "kernel": kernel, "grid": {"nodes": nodes}})
        assert main(["eigen", cfg, "--output", str(given)]) == EXIT_OK
        assert default.read_bytes() == given.read_bytes()
        domain = cli._model_from_spec(kernel, "kernel").kernel.domain
        assert len(domain.quadrature(QUAD_NODES)[0]) == nodes

    def test_smallest_grid_runs(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {"schema": 1, "kernel": {"family": "matern", "nu": 0.5},
                                      "grid": {"nodes": 2.0, "rank_cutoff": 0},
                                      "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_OK
        assert len(read_rows(out)) == 2


class TestMisc:
    def test_failed_write_leaves_the_old_file_and_no_temporary(self, tmp_path):
        # a lone surrogate cannot be encoded as UTF-8, so the write fails
        # after its temporary file is made
        path = tmp_path / "ratios.csv"
        path.write_bytes(b"old bytes\n")
        with pytest.raises(UnicodeEncodeError):
            cli._atomic_write(str(path), "new \ud800")
        assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ratios.csv"]

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == EXIT_OK
        names = capsys.readouterr().out.split()
        assert "matern_same_nu" in names

    def test_version(self, capsys):
        assert main(["version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.1.0"

    def test_one_parser_serves_every_call(self, capsys):
        # parsing leaves the parser as it was: a call's arguments and errors
        # do not reach the next call
        parser = cli.build_parser()
        assert main(["version"]) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2
        assert main(["list-scenarios"]) == EXIT_OK
        out = capsys.readouterr().out.split()
        assert out[0] == "0.1.0" and "matern_same_nu" in out[1:]
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("value", [np.arange(3.0), np.int64(3), object()],
                             ids=["ndarray", "numpy-int", "object"])
    def test_json_output_holds_plain_values_only(self, value):
        # a value that is not plain JSON fails the output, never as a quoted repr
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_dumps({"b": value})
        assert cli._json_dumps({"b": [1.5, None], "a": "x"}) == \
            '{\n  "a": "x",\n  "b": [\n    1.5,\n    null\n  ]\n}\n'

    def test_float_format_roundtrips(self, tmp_path):
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "matern_same_nu",
                                      "schedule": [8],
                                      "output_dir": str(tmp_path)})
        assert main(["run", cfg]) == EXIT_OK
        rows = read_rows(tmp_path / "ratios.csv")
        for row in rows[:20]:
            val = float(row["value"])
            assert ("%.17g" % val) == row["value"]

    def test_threads_env_is_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "1")
        cfg = write_config(tmp_path, {"schema": 1, "scenario": "identical",
                                      "schedule": [4, 8],
                                      "output_dir": str(tmp_path)})
        assert main(["run", cfg]) == EXIT_OK
        for value in ("not-a-number", "0", "-2"):
            monkeypatch.setenv("MISSPEC_KRIGE_THREADS", value)
            assert main(["run", cfg]) == EXIT_NUMERICAL

    @pytest.mark.parametrize("command, config", [
        ("check", {"schema": 1, "scenario": "identical"}),
        ("check", {"schema": 1, "scenario": "periodic_ratio3"}),
        ("eigen", {"schema": 1, "kernel": {"family": "periodic"}}),
    ], ids=["check-matern", "check-periodic", "eigen-periodic"])
    def test_bad_threads_env_fails_check_and_eigen(self, tmp_path, monkeypatch, capsys,
                                                   command, config):
        # a route of the report records its own failure; this one fails the command
        argv = [command, write_config(tmp_path, config)] + (
            ["--output", str(tmp_path / "eigs.csv")] if command == "eigen" else [])
        for value in ("not-a-number", "0", "-2"):
            monkeypatch.setenv("MISSPEC_KRIGE_THREADS", value)
            assert main(argv) == EXIT_NUMERICAL
            assert "MISSPEC_KRIGE_THREADS must be an integer" in capsys.readouterr().err

    def test_import_loads_no_scipy_spatial(self):
        import misspec_krige
        src = str(Path(misspec_krige.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, misspec_krige.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"


def rows_by_field(table, scenario_name):
    """``ratios.csv`` of ``table`` as it was written before its rows were
    formatted directly: one ``_fmt`` per field, the limit and the deviation
    read from the record's ``limits`` and ``deviations``."""
    from misspec_krige.ratios import RECORD_COLUMNS
    lines = [CSV_HEADER]
    for rec in table.records:
        deviations = rec.deviations
        for name in RECORD_COLUMNS:
            lines.append(",".join([
                scenario_name, str(rec.n), rec.target_id, name, cli._fmt(rec.value(name)),
                cli._fmt(rec.limits.get(name)), cli._fmt(deviations.get(name))]))
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builtin_table(self, name):
        # every limit is present in the mean_shift pairs; matern_same_nu,
        # periodic_ratio3 and the sphere pair have values below their limits
        from misspec_krige.harness import run_scenario
        table = run_scenario(builtin_scenario(name)).table
        assert cli.table_to_csv(table, name) == rows_by_field(table, name)

    def test_partial_table(self):
        # the single target sits on a design site at n = 3 but not at n = 4
        from misspec_krige.errors import PartialResultError
        from misspec_krige.kernels import MaternKernel, MaternParams
        from misspec_krige.kriging import Design, GaussianModel, TargetFunctional, zero_mean
        from misspec_krige.ratios import ratio_convergence
        true, wrong = (GaussianModel(zero_mean, MaternKernel(MaternParams(sigma, 0.5, 1.0)))
                       for sigma in (1.0, 2.0))
        with pytest.warns(UserWarning, match="excluded"):
            with pytest.raises(PartialResultError) as err:
                ratio_convergence(true, wrong,
                                  lambda n: Design((np.arange(1, n + 1) / (n + 1.0))[:, None]),
                                  [TargetFunctional.point([0.25], label="edge")], [3, 4])
        table = err.value.partial_table
        assert [rec.n for rec in table.records] == [4, 4]
        assert cli.table_to_csv(table, "partial") == rows_by_field(table, "partial")

    def test_table_without_limit_a_or_mean_term_limit(self):
        # no limit_a and distinct kernels: r_var_3, r_var_4 and the mean term have none
        from misspec_krige.harness import run_scenario
        scenario = builtin_scenario("matern_diff_nu")
        assert scenario.limit_a is None
        assert scenario.true_model.kernel != scenario.wrong_model.kernel
        table = run_scenario(scenario).table
        assert all({"r_var_3", "r_var_4", "mean_term"}.isdisjoint(rec.limits)
                   for rec in table.records)
        text = cli.table_to_csv(table, "no_limits")
        assert text == rows_by_field(table, "no_limits")
        assert ",r_var_3," in text and all(
            line.endswith(",,") for line in text.splitlines()
            if line.split(",")[3] in ("r_var_3", "r_var_4", "mean_term"))
