"""CLI contracts: config schema, outputs, exit codes."""

import csv
import json
import math
import os

import pytest

from misspec_krige.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, CSV_HEADER, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


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
        # every target coincides with a design site: nothing survives the floor
        cfg = write_config(tmp_path, {
            "schema": 1,
            "experiment": {
                "true_model": {"family": "matern", "nu": 0.5},
                "wrong_model": {"family": "matern", "nu": 0.5},
                "design": {"kind": "equispaced"},
                "targets": [[0.25], [0.5], [0.75]],
                "schedule": [3],
            },
            "output_dir": str(tmp_path)})
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["run", cfg]) == EXIT_NUMERICAL


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
