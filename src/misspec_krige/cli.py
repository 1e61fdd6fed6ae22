"""Command-line front end.

Subcommands
-----------
run <config>       run a scenario, write ratios.csv and diagnostics.json
check <config>     print the model-pair diagnostics report as JSON
eigen <config>     write the quadrature eigenvalues of a kernel as CSV
list-scenarios     print the built-in scenario names
version            print the package version

Configs are JSON documents with a mandatory ``"schema": 1`` field; unknown
top-level keys are hard errors.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.  All floating-point output uses 17 significant
digits so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .diagnostics import AssumptionBudget, assumption_report, nystrom_eigen, _quadrature_for
from .errors import ConfigError, MisspecKrigeError, PartialResultError
from .harness import (
    SCENARIO_NAMES,
    DesignGenerator,
    Scenario,
    builtin_scenario,
    default_targets,
    run_scenario,
)
from .kernels import (
    Box,
    MaternKernel,
    MaternParams,
    PeriodicKernel,
    PeriodicSpectrum,
    SphereLegendreKernel,
    SphereLegendreParams,
    SphereSpdeKernel,
    SphereSpdeParams,
    Torus,
)
from .kriging import GaussianModel, TargetFunctional, constant_mean, kink_mean, linear_mean, zero_mean
from .ratios import RATIO_NAMES, RatioTable

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "scenario,n,target_id,ratio_name,value,limit,abs_dev"

_FLOAT_FMT = "%.17g"


def _fmt(value: float | None) -> str:
    return "" if value is None else _FLOAT_FMT % value


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _load_config(path: str, allowed_keys: set[str]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if config.get("schema") != 1:
        raise ConfigError('config must declare "schema": 1')
    unknown = set(config) - allowed_keys - {"schema"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    return config


def _mean_from_spec(spec) -> tuple:
    if spec is None:
        return zero_mean, "0"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError('mean spec must be an object with a "kind"')
    kind = spec["kind"]
    try:
        if kind == "zero":
            return zero_mean, "0"
        if kind == "constant":
            return constant_mean(float(spec["value"])), f"const({spec['value']})"
        if kind == "linear":
            return (linear_mean(float(spec.get("intercept", 0.0)), spec.get("slope", 1.0)),
                    "linear")
        if kind == "kink":
            return (kink_mean(spec.get("x0", 0.37), float(spec["alpha"]),
                              float(spec.get("scale", 1.0))), "kink")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad mean spec {spec!r}: {exc}")
    raise ConfigError(f"unknown mean kind {kind!r}")


def _model_from_spec(spec, label: str) -> GaussianModel:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError('model spec must be an object with a "family"')
    family = spec["family"]
    mean, mean_label = _mean_from_spec(spec.get("mean"))
    try:
        if family == "matern":
            params = MaternParams(sigma=float(spec.get("sigma", 1.0)),
                                  nu=float(spec["nu"]),
                                  kappa=float(spec.get("kappa", 1.0)),
                                  dim=int(spec.get("dim", 1)))
            kernel = MaternKernel(params)
        elif family == "periodic":
            coeffs = spec.get("coeffs")
            if coeffs is not None:
                table = {int(k): float(v) for k, v in coeffs.items()}
                spectrum = PeriodicSpectrum.from_coeffs(table, dim=1,
                                                        k_max=spec.get("k_max"))
            else:
                power = float(spec.get("power", 2.0))
                scale = float(spec.get("scale", 1.0))
                spectrum = PeriodicSpectrum.from_callable(
                    lambda k: scale * (1.0 + sum(c * c for c in k)) ** -power,
                    dim=int(spec.get("dim", 1)), k_max=spec.get("k_max"))
            kernel = PeriodicKernel(spectrum)
        elif family == "sphere_legendre":
            kernel = SphereLegendreKernel(SphereLegendreParams(
                sigma1=float(spec.get("sigma1", 1.0)), nu1=float(spec["nu1"]),
                kappa1=float(spec.get("kappa1", 1.0)),
                l_max=int(spec.get("l_max", 256))))
        elif family == "sphere_spde":
            kernel = SphereSpdeKernel(SphereSpdeParams(
                tau=float(spec.get("tau", 1.0)), nu=float(spec["nu"]),
                kappa=float(spec.get("kappa", 1.0)),
                l_max=int(spec.get("l_max", 256))))
        elif family in ("sphere_chordal_matern", "sphere_greatcircle_matern"):
            # comparison models on the sphere; no ratio-limit claim attached
            from .kernels import ChordalMaternKernel, GreatCircleMaternKernel
            params = MaternParams(sigma=float(spec.get("sigma", 1.0)),
                                  nu=float(spec["nu"]),
                                  kappa=float(spec.get("kappa", 1.0)), dim=3)
            kernel = (ChordalMaternKernel(params)
                      if family == "sphere_chordal_matern"
                      else GreatCircleMaternKernel(params))
        else:
            raise ConfigError(f"unknown model family {family!r}")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, MisspecKrigeError) as exc:
        raise ConfigError(f"bad model spec for {label}: {exc}")
    return GaussianModel(mean=mean, kernel=kernel,
                         label=spec.get("label", f"{family}[{label}]+{mean_label}"))


def _generator_from_spec(spec, domain) -> DesignGenerator:
    if spec is None:
        if isinstance(domain, Torus):
            spec = {"kind": "equispaced"}
        elif isinstance(domain, Box):
            spec = {"kind": "accumulating"}
        else:
            spec = {"kind": "sphere_fibonacci"}
    if not isinstance(spec, dict):
        raise ConfigError("design spec must be an object")
    kind = spec.get("kind")
    try:
        if kind == "equispaced":
            return DesignGenerator.equispaced(domain)
        if kind == "accumulating":
            return DesignGenerator.accumulating(float(spec.get("x_star", 0.37)),
                                                float(spec.get("q", 0.6)), domain)
        if kind == "halton":
            return DesignGenerator.halton(domain)
        if kind == "sphere_fibonacci":
            return DesignGenerator.sphere_fibonacci()
    except MisspecKrigeError as exc:
        raise ConfigError(f"bad design spec: {exc}")
    raise ConfigError(f"unknown design kind {kind!r}")


def _scenario_from_config(config: dict) -> Scenario:
    name = config.get("scenario")
    inline = config.get("experiment")
    if (name is None) == (inline is None):
        raise ConfigError('provide exactly one of "scenario" or "experiment"')
    schedule = config.get("schedule")
    if name is not None:
        if not isinstance(name, str):
            raise ConfigError('"scenario" must be a string')
        try:
            return builtin_scenario(name, n_schedule=schedule)
        except MisspecKrigeError as exc:
            raise ConfigError(str(exc))
    if not isinstance(inline, dict):
        raise ConfigError('"experiment" must be an object')
    allowed = {"name", "true_model", "wrong_model", "design", "targets",
               "schedule", "limit_a"}
    unknown = set(inline) - allowed
    if unknown:
        raise ConfigError(f"unknown experiment keys: {sorted(unknown)}")
    true_model = _model_from_spec(inline.get("true_model"), "true")
    wrong_model = _model_from_spec(inline.get("wrong_model"), "wrong")
    if type(true_model.kernel.domain) is not type(wrong_model.kernel.domain):
        raise ConfigError("the two models must live on the same domain type")
    generator = _generator_from_spec(inline.get("design"), true_model.kernel.domain)
    sched = tuple(inline.get("schedule", schedule or (8, 16, 32, 64)))
    targets_spec = inline.get("targets")
    if targets_spec is None:
        targets = default_targets(generator, max(sched))
    elif isinstance(targets_spec, list):
        targets = [TargetFunctional.point(np.atleast_1d(np.asarray(p, dtype=float)),
                                          label=f"u{i:02d}")
                   for i, p in enumerate(targets_spec)]
    else:
        raise ConfigError('"targets" must be a list of points when given inline')
    limit_a = inline.get("limit_a")
    try:
        return Scenario(name=inline.get("name", "inline"), true_model=true_model,
                        wrong_model=wrong_model, design_generator=generator,
                        targets=tuple(targets), n_schedule=sched,
                        limit_a=None if limit_a is None else float(limit_a))
    except MisspecKrigeError as exc:
        raise ConfigError(str(exc))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def table_to_csv(table: RatioTable, scenario_name: str) -> str:
    """Long-format CSV: one row per (n, target, ratio name), fixed column order."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for rec in table.records:
        for ratio_name in RATIO_NAMES + ("mean_term",):
            limit = rec.limits.get(ratio_name)
            dev = rec.deviations.get(ratio_name)
            out.write(",".join([
                scenario_name, str(rec.n), rec.target_id, ratio_name,
                _fmt(rec.value(ratio_name)), _fmt(limit), _fmt(dev),
            ]) + "\n")
    return out.getvalue()


def _json_dumps(obj) -> str:
    def default(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        return str(value)
    return json.dumps(obj, indent=2, sort_keys=True, default=default) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_TOLERANCE_KEYS = {"verdict_window", "verdict_tol", "variance_floor"}


def _tolerances_from(config: dict):
    spec = config.get("tolerances", {})
    if not isinstance(spec, dict):
        raise ConfigError('"tolerances" must be an object')
    unknown = set(spec) - _TOLERANCE_KEYS
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown)}")
    try:
        values = {k: float(v) for k, v in spec.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerance overrides must be numbers: {exc}")
    budget_kwargs = {k: values[k] for k in ("verdict_window", "verdict_tol")
                     if k in values}
    budget = AssumptionBudget(**budget_kwargs) if budget_kwargs else None
    return budget, values.get("variance_floor")


def cmd_run(args) -> int:
    config = _load_config(args.config,
                          {"scenario", "experiment", "schedule", "output_dir",
                           "tolerances"})
    scenario = _scenario_from_config(config)
    budget, variance_floor = _tolerances_from(config)
    out_dir = config.get("output_dir", args.output or ".")
    try:
        result = run_scenario(scenario, budget=budget,
                              variance_floor=variance_floor)
    except PartialResultError as exc:
        # flush completed levels alongside the failure marker, then fail
        table = exc.partial_table
        _atomic_write(os.path.join(out_dir, "ratios.csv"),
                      table_to_csv(table, scenario.name))
        diag = {"scenario": scenario.name, "metadata": table.metadata,
                "failure": str(exc)}
        _atomic_write(os.path.join(out_dir, "diagnostics.json"), _json_dumps(diag))
        raise
    _atomic_write(os.path.join(out_dir, "ratios.csv"),
                  table_to_csv(result.table, scenario.name))
    diag = {"scenario": scenario.name, "metadata": result.table.metadata,
            "report": result.report}
    _atomic_write(os.path.join(out_dir, "diagnostics.json"), _json_dumps(diag))
    return EXIT_OK


def cmd_check(args) -> int:
    config = _load_config(args.config,
                          {"scenario", "true_model", "wrong_model", "tolerances"})
    if "scenario" in config:
        scenario = builtin_scenario(config["scenario"])
        true_model, wrong_model = scenario.true_model, scenario.wrong_model
    else:
        if "true_model" not in config or "wrong_model" not in config:
            raise ConfigError('check needs "scenario" or both "true_model" and "wrong_model"')
        true_model = _model_from_spec(config["true_model"], "true")
        wrong_model = _model_from_spec(config["wrong_model"], "wrong")
    budget, _ = _tolerances_from(config)
    report = assumption_report(true_model, wrong_model, budget=budget)
    sys.stdout.write(_json_dumps(report))
    return EXIT_OK


def cmd_eigen(args) -> int:
    config = _load_config(args.config, {"kernel", "grid", "output"})
    if "kernel" not in config:
        raise ConfigError('eigen needs a "kernel" model spec')
    model = _model_from_spec(config["kernel"], "kernel")
    grid_spec = config.get("grid", {})
    if not isinstance(grid_spec, dict):
        raise ConfigError('"grid" must be an object')
    n_nodes = int(grid_spec.get("nodes", 128))
    nodes, weights = _quadrature_for(model.kernel.domain, n_nodes)
    eig = nystrom_eigen(model.kernel, nodes, weights,
                        rank_cutoff=float(grid_spec.get("rank_cutoff", 1e-12)))
    lines = ["index,eigenvalue"]
    lines += [f"{j},{_fmt(val)}" for j, val in enumerate(eig.eigenvalues)]
    out_path = config.get("output", args.output or "eigenvalues.csv")
    _atomic_write(out_path, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_list_scenarios(_args) -> int:
    for name in SCENARIO_NAMES:
        sys.stdout.write(name + "\n")
    return EXIT_OK


def cmd_version(_args) -> int:
    sys.stdout.write(__version__ + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misspec-krige",
        description=("evaluate linear prediction of Gaussian random fields under "
                     "a misspecified model"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write CSV/JSON outputs")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="output directory (default: cwd)")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="print the model-pair diagnostics report")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_eigen = sub.add_parser("eigen", help="write quadrature eigenvalues as CSV")
    p_eigen.add_argument("config")
    p_eigen.add_argument("--output", default=None)
    p_eigen.set_defaults(func=cmd_eigen)

    sub.add_parser("list-scenarios", help="print built-in scenario names") \
        .set_defaults(func=cmd_list_scenarios)
    sub.add_parser("version", help="print the package version") \
        .set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MisspecKrigeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # exit codes are contractually {0, 2, 3}
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
