"""CLI contracts: config schema, outputs, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from misspec_krige import cli
from misspec_krige.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, CSV_HEADER, main


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
        ("targets", [[0.3, 0.4]], "targets[0] has dimension 2; the domain needs 1"),
        ("targets", [[0.5], [1.7]], "targets[1] = [1.7] lies outside the box [0, 1]"),
        ("targets", [-0.1], "targets[0] = -0.1 lies outside the box [0, 1]"),
    ], ids=["limit-zero", "limit-negative", "limit-string", "limit-reciprocal", "targets-empty",
            "targets-wrong-dim", "targets-above-box", "targets-below-box"])
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
    ], ids=["window-zero", "window-above-one", "tol-zero", "tol-string", "tol-above-one",
            "tol-infinite", "floor-nan", "floor-negative"])
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
         [0.6, 0.8], "targets[0] has dimension 2; the domain needs 3"),
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
     "bad model spec for true: 'list' object has no attribute 'items'"),
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
]
MODEL_SPEC_IDS = ["sigma-inf", "nu-nan", "tau-inf", "kappa1-minus-inf", "matern-typo",
                  "spde-legendre-key", "unknown-family", "coeffs-list", "coeffs-with-dim",
                  "coeffs-with-power-scale", "mean-typo", "mean-value-inf",
                  "mean-intercept-inf", "mean-alpha-nan", "mean-alpha-negative",
                  "mean-slope-too-long", "mean-x0-too-long", "mean-slope-scalar-2d",
                  "mean-x0-entry-inf", "matern-nu-bool", "matern-sigma-bool", "spde-nu-bool",
                  "periodic-power-bool", "coeffs-mass-bool", "matern-nu-string",
                  "mean-value-string", "matern-nu-huge-int", "mean-value-huge-int"]


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
    ], ids=["accumulating-typo", "halton-q", "q-not-a-number"])
    def test_bad_design_spec_exit_2(self, tmp_path, capsys, no_work, design, message):
        cfg = write_config(tmp_path, {"schema": 1, "experiment": {
            "true_model": {"family": "matern", "nu": 0.5},
            "wrong_model": {"family": "matern", "nu": 0.5}, "design": design}})
        assert main(["run", cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
    ], ids=["nodes-one", "nodes-string", "nodes-fraction", "nodes-above-cap", "cutoff-string",
            "cutoff-negative", "cutoff-one", "cutoff-two", "unknown-key"])
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

    def test_smallest_grid_runs(self, tmp_path):
        out = tmp_path / "eigs.csv"
        cfg = write_config(tmp_path, {"schema": 1, "kernel": {"family": "matern", "nu": 0.5},
                                      "grid": {"nodes": 2.0, "rank_cutoff": 0},
                                      "output": str(out)})
        assert main(["eigen", cfg]) == EXIT_OK
        assert len(read_rows(out)) == 2


class TestMisc:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == EXIT_OK
        names = capsys.readouterr().out.split()
        assert "matern_same_nu" in names

    def test_version(self, capsys):
        assert main(["version"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.1.0"

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
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "not-a-number")
        assert main(["run", cfg]) == EXIT_NUMERICAL

    @pytest.mark.parametrize("command, config", [
        ("check", {"schema": 1, "scenario": "identical"}),
        ("check", {"schema": 1, "scenario": "periodic_ratio3"}),
        ("eigen", {"schema": 1, "kernel": {"family": "periodic"}}),
    ], ids=["check-matern", "check-periodic", "eigen-periodic"])
    def test_bad_threads_env_fails_check_and_eigen(self, tmp_path, monkeypatch, capsys,
                                                   command, config):
        # a route of the report records its own failure; this one fails the command
        monkeypatch.setenv("MISSPEC_KRIGE_THREADS", "not-a-number")
        argv = [command, write_config(tmp_path, config)] + (
            ["--output", str(tmp_path / "eigs.csv")] if command == "eigen" else [])
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
