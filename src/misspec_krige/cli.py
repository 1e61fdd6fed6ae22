"""Command-line front end.

Subcommands
-----------
run <config>       run a scenario, write ratios.csv and diagnostics.json
check <config>     print the model-pair diagnostics report as JSON
eigen <config>     write the quadrature eigenvalues of a kernel as CSV
list-scenarios     print the built-in scenario names
version            print the package version

Configs are JSON documents with a mandatory ``"schema": 1`` field; unknown
keys are hard errors.  Each subcommand reads and checks its config, then
returns the work to do; :func:`main` alone maps failures to exit codes: 0
success, 2 for any failure while reading the config, 3 for any failure
during the work.  All floating-point output uses 17 significant digits so
files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import numbers
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .diagnostics import RANK_CUTOFF, AssumptionBudget, assumption_report, nystrom_eigen
from .errors import ConfigError, DomainError, MisspecKrigeError, PartialResultError
from .harness import (
    DEFAULT_CONTRACTION,
    DEFAULT_SCHEDULE,
    DEFAULT_X_STAR,
    MAX_DESIGN_SIZE,
    SCENARIO_NAMES,
    DesignGenerator,
    Scenario,
    builtin_scenario,
    common_domain,
    default_targets,
    generate_design,
    run_scenario,
)
from .kernels import (
    DEFAULT_L_MAX,
    MaternKernel,
    MaternParams,
    PeriodicKernel,
    PeriodicSpectrum,
    SphereLegendreParams,
    SphereSeriesKernel,
    SphereSpdeParams,
)
from .kriging import GaussianModel, TargetFunctional, constant_mean, kink_mean, linear_mean, zero_mean
from .ratios import RATIO_NAMES, RatioTable, check_schedule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "scenario,n,target_id,ratio_name,value,limit,abs_dev"

_FLOAT_FMT = "%.17g"


def _fmt(value: float | None) -> str:
    return "" if value is None else _FLOAT_FMT % value


def _bounded(value, name: str, ok=math.isfinite, limit: str = "a finite number") -> float:
    """``value`` of config field ``name`` as a float for which ``ok`` holds;
    ``limit`` words that condition for the error message.  Booleans and
    strings are no numbers here."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not ok(number):
        raise ConfigError(f"{name} must be {limit}, got {value!r}")
    return number


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
    _check_keys(config, allowed_keys | {"schema"}, "top-level config")
    return config


def _check_keys(spec: dict, allowed, what: str) -> None:
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _kind_of(spec: dict, field: str, keys: dict, what: str) -> str:
    """``spec[field]``, which must name an entry of ``keys``; ``spec`` may hold
    ``field`` and that entry's keys only."""
    kind = spec.get(field)
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {what} {field} {kind!r}")
    _check_keys(spec, keys[kind] | {field}, f"{kind} {what}")
    return kind


#: each mean kind's keys besides "kind"
_MEAN_KEYS = {"zero": set(), "constant": {"value"}, "linear": {"intercept", "slope"},
              "kink": {"x0", "alpha", "scale"}}

#: each model family's keys besides "family"
_MODEL_KEYS = {family: keys | {"label", "mean"} for family, keys in {
    "matern": {"sigma", "nu", "kappa", "dim"},
    "periodic": {"coeffs", "power", "scale", "dim", "k_max"},
    "sphere_legendre": {"sigma1", "nu1", "kappa1", "l_max"},
    "sphere_spde": {"tau", "nu", "kappa", "l_max"},
    "sphere_chordal_matern": {"sigma", "nu", "kappa"},
    "sphere_greatcircle_matern": {"sigma", "nu", "kappa"},
}.items()}

#: each design kind's keys besides "kind"
_DESIGN_KEYS = {"equispaced": set(), "accumulating": {"x_star", "q"}, "halton": set(),
                "sphere_fibonacci": set()}


def _mean_from_spec(spec, dim: int) -> tuple:
    """The mean function of ``spec`` on a domain of dimension ``dim``: every
    parameter finite, ``alpha`` >= 0, and ``slope`` and ``x0`` points of the
    domain's dimension (a number, too, on a 1-d domain)."""
    if spec is None:
        return zero_mean, "0"
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError('mean spec must be an object with a "kind"')
    kind = _kind_of(spec, "kind", _MEAN_KEYS, "mean")

    def number(key, default=None, **bounds):
        if key not in spec and default is None:
            raise ConfigError(f"a {kind} mean needs {key!r}")
        return _bounded(spec.get(key, default), f"mean.{key}", **bounds)

    def point(key, default):
        value = spec.get(key, [default] * dim)
        if dim == 1 and not isinstance(value, list):
            value = [value]
        if not isinstance(value, list) or len(value) != dim:
            raise ConfigError(f"mean.{key} must be a list of {dim} finite numbers, "
                              f"got {value!r}")
        return [_bounded(v, f"mean.{key}[{i}]") for i, v in enumerate(value)]

    if kind == "zero":
        return zero_mean, "0"
    if kind == "constant":
        return constant_mean(number("value")), f"const({spec['value']})"
    if kind == "linear":
        return linear_mean(number("intercept", 0.0), point("slope", 1.0)), "linear"
    return (kink_mean(point("x0", DEFAULT_X_STAR),
                      number("alpha", ok=lambda x: 0.0 <= x < math.inf,
                             limit="a finite number >= 0"),
                      number("scale", 1.0)), "kink")


def _model_from_spec(spec, label: str) -> GaussianModel:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError('model spec must be an object with a "family"')
    try:
        family = _kind_of(spec, "family", _MODEL_KEYS, "model")
        if family == "matern":
            params = MaternParams(sigma=spec.get("sigma", 1.0), nu=spec["nu"],
                                  kappa=spec.get("kappa", 1.0), dim=spec.get("dim", 1))
            if params.dim != 1:
                # the Galerkin route and the mean probe need a quadrature
                # grid, and Box.quadrature exists for d = 1 only
                raise ConfigError(f"matern models support dim = 1 only, got "
                                  f"dim={spec['dim']!r}")
            kernel = MaternKernel(params)
        elif family == "periodic":
            coeffs = spec.get("coeffs")
            if coeffs is not None:
                clash = sorted({"dim", "power", "scale"} & set(spec))
                if clash:
                    raise ConfigError(f"coeffs fix a 1-d spectrum, so {clash} must not be given")
                table = {int(k): _bounded(v, f"coeffs.{k}") for k, v in coeffs.items()}
                spectrum = PeriodicSpectrum.from_coeffs(table, dim=1,
                                                        k_max=spec.get("k_max"))
            else:
                power = _bounded(spec.get("power", 2.0), "power")
                scale = _bounded(spec.get("scale", 1.0), "scale")
                spectrum = PeriodicSpectrum.from_callable(
                    lambda k: scale * (1.0 + sum(c * c for c in k)) ** -power,
                    dim=spec.get("dim", 1), k_max=spec.get("k_max"))
            kernel = PeriodicKernel(spectrum)
        elif family == "sphere_legendre":
            kernel = SphereSeriesKernel(SphereLegendreParams(
                sigma1=spec.get("sigma1", 1.0), nu1=spec["nu1"], kappa1=spec.get("kappa1", 1.0),
                l_max=spec.get("l_max", DEFAULT_L_MAX)))
        elif family == "sphere_spde":
            kernel = SphereSeriesKernel(SphereSpdeParams(
                tau=spec.get("tau", 1.0), nu=spec["nu"], kappa=spec.get("kappa", 1.0),
                l_max=spec.get("l_max", DEFAULT_L_MAX)))
        else:
            # comparison models on the sphere; no ratio-limit claim attached
            from .kernels import ChordalMaternKernel, GreatCircleMaternKernel
            params = MaternParams(sigma=spec.get("sigma", 1.0), nu=spec["nu"],
                                  kappa=spec.get("kappa", 1.0), dim=3)
            kernel = (ChordalMaternKernel(params)
                      if family == "sphere_chordal_matern"
                      else GreatCircleMaternKernel(params))
        mean, mean_label = _mean_from_spec(spec.get("mean"), kernel.domain.dim)
    except (AttributeError, KeyError, TypeError, ValueError, MisspecKrigeError) as exc:
        raise ConfigError(f"bad model spec for {label}: {exc}")
    return GaussianModel(mean=mean, kernel=kernel,
                         label=spec.get("label", f"{family}[{label}]+{mean_label}"))


def _generator_from_spec(spec, domain) -> DesignGenerator:
    if spec is None:
        spec = {"kind": domain.default_design}
    if not isinstance(spec, dict):
        raise ConfigError("design spec must be an object")
    kind = _kind_of(spec, "kind", _DESIGN_KEYS, "design")
    try:
        if kind == "equispaced":
            return DesignGenerator.equispaced(domain)
        if kind == "accumulating":
            return DesignGenerator.accumulating(
                _bounded(spec.get("x_star", DEFAULT_X_STAR), "design.x_star"),
                _bounded(spec.get("q", DEFAULT_CONTRACTION), "design.q"), domain)
        if kind == "halton":
            return DesignGenerator.halton(domain)
        return DesignGenerator.sphere_fibonacci()
    except MisspecKrigeError as exc:
        raise ConfigError(f"bad design spec: {exc}")


def _scenario_from_config(config: dict) -> Scenario:
    name = config.get("scenario")
    inline = config.get("experiment")
    if (name is None) == (inline is None):
        raise ConfigError('provide exactly one of "scenario" or "experiment"')
    schedule = config.get("schedule")
    if name is not None:
        return _builtin_from(name, schedule)
    if not isinstance(inline, dict):
        raise ConfigError('"experiment" must be an object')
    _check_keys(inline, {"name", "true_model", "wrong_model", "design", "targets",
                         "schedule", "limit_a"}, "experiment")
    true_model, wrong_model = _model_pair(inline.get("true_model"), inline.get("wrong_model"))
    domain = true_model.kernel.domain
    generator = _generator_from_spec(inline.get("design"), domain)
    sched = check_schedule(inline.get(
        "schedule", DEFAULT_SCHEDULE if schedule is None else schedule))
    targets_spec = inline.get("targets")
    if targets_spec is None:
        targets = default_targets(generator, max(sched))
    elif isinstance(targets_spec, list) and targets_spec:
        targets = [TargetFunctional.point(_target_point(p, f"targets[{i}]", domain),
                                          label=f"u{i:02d}")
                   for i, p in enumerate(targets_spec)]
    else:
        raise ConfigError('"targets" must be a nonempty list of points when given inline')
    limit_a = inline.get("limit_a")
    if limit_a is not None:
        limit_a = _bounded(limit_a, "limit_a", lambda x: 0.0 < x < math.inf,
                           "a finite number > 0")
        _bounded(limit_a, "limit_a", lambda x: 1.0 / x < math.inf,
                 "large enough that its reciprocal, the limit 1/a, is finite")
    scenario = Scenario(name=inline.get("name", "inline"), true_model=true_model,
                        wrong_model=wrong_model, design_generator=generator,
                        targets=tuple(targets), n_schedule=sched, limit_a=limit_a)
    if targets_spec is not None:
        _reject_design_sites(scenario)
    return scenario


def _reject_design_sites(scenario: Scenario) -> None:
    """Exit 2 for an inline target that is a site of every scheduled level's
    design: its kriging variance is 0 at every level, so every level would
    exclude it.  A nested generator keeps its first level's sites."""
    generator, sched = scenario.design_generator, scenario.n_schedule
    designs = [generate_design(generator, n).sites
               for n in (sched[:1] if generator.nested else sched)]
    for i, target in enumerate(scenario.targets):
        hits = [np.flatnonzero((sites == target.sites[0]).all(axis=1)) for sites in designs]
        if all(hit.size for hit in hits):
            raise ConfigError(
                f"targets[{i}] = {target.sites[0].tolist()} equals sites[{hits[0][0]}] of "
                f"the {generator.kind} design at every scheduled n, where its kriging "
                f"variance is 0; choose a point off the design")


def _target_point(spec, name: str, domain) -> np.ndarray:
    """The inline target ``spec`` as a point of ``domain``; ``name`` labels it
    in the error message."""
    try:
        point = np.asarray(spec, dtype=float).reshape(1, -1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad inline targets: {exc}")
    if point.size != domain.dim:
        raise ConfigError(f"{name} has dimension {point.size}; the domain needs {domain.dim}")
    try:
        return domain.points(point)[0]
    except DomainError:
        raise ConfigError(f"{name} = {spec!r} {domain.off_domain}") from None


def _model_pair(true_spec, wrong_spec) -> tuple[GaussianModel, GaussianModel]:
    """The true and working models of two specs, which must share a domain."""
    true_model = _model_from_spec(true_spec, "true")
    wrong_model = _model_from_spec(wrong_spec, "wrong")
    common_domain(true_model, wrong_model)
    return true_model, wrong_model


def _builtin_from(name, schedule=None) -> Scenario:
    if not isinstance(name, str):
        raise ConfigError('"scenario" must be a string')
    return builtin_scenario(name, n_schedule=schedule)


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
        deviations = rec.deviations
        for ratio_name in RATIO_NAMES + ("mean_term",):
            out.write(",".join([
                scenario_name, str(rec.n), rec.target_id, ratio_name,
                _fmt(rec.value(ratio_name)), _fmt(rec.limits.get(ratio_name)),
                _fmt(deviations.get(ratio_name)),
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

#: each tolerance's admissible values and their wording
_TOLERANCE_LIMITS = {
    "verdict_window": (lambda x: 0.0 < x <= 1.0, "a number in (0, 1]"),
    "verdict_tol": (lambda x: 0.0 < x <= 1.0, "a number in (0, 1]"),
    "variance_floor": (lambda x: 0.0 <= x < math.inf, "a finite number >= 0"),
}


def _tolerances_from(config: dict):
    spec = config.get("tolerances", {})
    if not isinstance(spec, dict):
        raise ConfigError('"tolerances" must be an object')
    _check_keys(spec, _TOLERANCE_LIMITS, "tolerance")
    values = {k: _bounded(v, f"tolerances.{k}", *_TOLERANCE_LIMITS[k])
              for k, v in spec.items()}
    budget_kwargs = {k: values[k] for k in ("verdict_window", "verdict_tol")
                     if k in values}
    budget = AssumptionBudget(**budget_kwargs) if budget_kwargs else None
    return budget, values.get("variance_floor")


def _output_path(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return value


def cmd_run(args):
    config = _load_config(args.config,
                          {"scenario", "experiment", "schedule", "output_dir",
                           "tolerances"})
    scenario = _scenario_from_config(config)
    budget, variance_floor = _tolerances_from(config)
    out_dir = _output_path(config.get("output_dir", args.output or "."), "output_dir")

    def write(table: RatioTable, **outcome) -> None:
        _atomic_write(os.path.join(out_dir, "ratios.csv"), table_to_csv(table, scenario.name))
        diag = {"scenario": scenario.name, "metadata": table.metadata, **outcome}
        _atomic_write(os.path.join(out_dir, "diagnostics.json"), _json_dumps(diag))

    def work() -> None:
        try:
            result = run_scenario(scenario, budget=budget,
                                  variance_floor=variance_floor)
        except PartialResultError as exc:
            # flush completed levels alongside the failure marker, then fail
            write(exc.partial_table, failure=str(exc))
            raise
        write(result.table, report=result.report)
    return work


def cmd_check(args):
    config = _load_config(args.config,
                          {"scenario", "true_model", "wrong_model", "tolerances"})
    if "scenario" in config:
        scenario = _builtin_from(config["scenario"])
        true_model, wrong_model = scenario.true_model, scenario.wrong_model
    else:
        if "true_model" not in config or "wrong_model" not in config:
            raise ConfigError('check needs "scenario" or both "true_model" and "wrong_model"')
        true_model, wrong_model = _model_pair(config["true_model"], config["wrong_model"])
    budget, _ = _tolerances_from(config)
    return lambda: sys.stdout.write(
        _json_dumps(assumption_report(true_model, wrong_model, budget=budget)))


def cmd_eigen(args):
    config = _load_config(args.config, {"kernel", "grid", "output"})
    if "kernel" not in config:
        raise ConfigError('eigen needs a "kernel" model spec')
    model = _model_from_spec(config["kernel"], "kernel")
    grid_spec = config.get("grid", {})
    if not isinstance(grid_spec, dict):
        raise ConfigError('"grid" must be an object')
    _check_keys(grid_spec, {"nodes", "rank_cutoff"}, "grid")
    n_nodes = _bounded(grid_spec.get("nodes", 128), "grid.nodes",
                       lambda x: 2 <= x <= MAX_DESIGN_SIZE and x.is_integer(),
                       f"an integer in [2, {MAX_DESIGN_SIZE}]")
    rank_cutoff = _bounded(grid_spec.get("rank_cutoff", RANK_CUTOFF), "grid.rank_cutoff",
                           lambda x: 0.0 <= x < math.inf, "a finite number >= 0")
    _bounded(rank_cutoff, "grid.rank_cutoff", lambda x: x < 1.0,
             "below 1, since a cutoff of 1 or more drops even the leading eigenvalue")
    try:
        nodes, weights = model.kernel.domain.quadrature(int(n_nodes), exact=True)
    except DomainError as exc:
        raise ConfigError(f"grid.nodes: {exc}")
    out_path = _output_path(config.get("output", args.output or "eigenvalues.csv"), "output")

    def work() -> None:
        eig = nystrom_eigen(model.kernel, nodes, weights, rank_cutoff=rank_cutoff)
        lines = ["index,eigenvalue"]
        lines += [f"{j},{_fmt(val)}" for j, val in enumerate(eig.eigenvalues)]
        _atomic_write(out_path, "\n".join(lines) + "\n")
    return work


def cmd_list_scenarios(_args):
    return lambda: sys.stdout.write("".join(name + "\n" for name in SCENARIO_NAMES))


def cmd_version(_args):
    return lambda: sys.stdout.write(__version__ + "\n")


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


def _report_failure(what: str, exc: Exception) -> None:
    kind = "" if isinstance(exc, MisspecKrigeError) else f" ({type(exc).__name__})"
    print(f"{what}{kind}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand.  Exit codes are contractually {0, 2, 3}: any failure
    while reading the config is 2, any failure during the work is 3."""
    args = build_parser().parse_args(argv)
    try:
        work = args.func(args)
    except Exception as exc:
        _report_failure("config error", exc)
        return EXIT_CONFIG
    try:
        work()
    except Exception as exc:
        _report_failure("numerical failure", exc)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
