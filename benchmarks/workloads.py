"""Workload definitions: the CLI invocations one iteration of each workload makes.

Imports no numpy and no part of the library, so the set-up probe can time the
library import on its own.  Seed 0 reproduces the reference parameters exactly;
other seeds permute the scenario order of ``builtins`` and ``check_pairs`` and
move the working model of ``euclid_large`` (sigma, kappa) or ``sphere_series``
(tau, kappa) within +-20%.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# The eight built-in scenarios, in the order ``misspec-krige list-scenarios``
# prints them.  Kept literal so the benchmark does not import the library
# before it times the import.
SCENARIOS = (
    "identical", "scaled_kernel", "matern_same_nu", "matern_diff_nu",
    "periodic_ratio3", "sphere_legendre_vs_spde", "mean_shift_constant",
    "mean_shift_kink",
)

WORKLOADS = ("builtins", "euclid_large", "sphere_series", "check_pairs")

EUCLID_SCHEDULE = [128, 256, 512]
SPHERE_SCHEDULE = [8, 16, 32, 64, 128]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``misspec-krige <command> <config>``.

    ``key`` names the reference output the call is checked against;
    ``reference`` is False when the seed moved the parameters away from the
    stored reference, so only the record invariants apply.
    """

    command: str          # "run" or "check"
    key: str
    config: dict
    schedule: tuple[int, ...] = ()
    reference: bool = True


def _factor(rng: random.Random | None) -> float:
    return 1.0 if rng is None else rng.uniform(0.8, 1.2)


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one iteration of ``workload`` under ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = None if seed == 0 else random.Random(seed)
    if workload in ("builtins", "check_pairs"):
        order = list(SCENARIOS)
        if rng is not None:
            rng.shuffle(order)
        command = "run" if workload == "builtins" else "check"
        return [Invocation(command, name, {"schema": 1, "scenario": name},
                           schedule=(8, 16, 32, 64)) for name in order]
    if workload == "euclid_large":
        sigma, kappa = 2.0 * _factor(rng), 0.5 * _factor(rng)
        experiment = {
            "name": "euclid_large",
            "true_model": {"family": "matern", "sigma": 1.0, "nu": 0.5, "kappa": 1.0},
            "wrong_model": {"family": "matern", "sigma": sigma, "nu": 0.5, "kappa": kappa},
            "design": {"kind": "halton"},
            "schedule": EUCLID_SCHEDULE,
            # ratio of the infill-identifiable sigma^2 kappa^(2 nu); 2 at seed 0
            "limit_a": sigma ** 2 * kappa,
        }
        return [Invocation("run", "euclid_large", {"schema": 1, "experiment": experiment},
                           schedule=tuple(EUCLID_SCHEDULE), reference=rng is None)]
    if rng is None:
        config = {"schema": 1, "scenario": "sphere_legendre_vs_spde",
                  "schedule": SPHERE_SCHEDULE}
    else:
        tau, kappa = _factor(rng), _factor(rng)
        config = {"schema": 1, "experiment": {
            "name": "sphere_legendre_vs_spde",
            "true_model": {"family": "sphere_legendre", "sigma1": 1.0, "nu1": 1.0,
                           "kappa1": 1.0},
            "wrong_model": {"family": "sphere_spde", "tau": tau, "nu": 1.0,
                            "kappa": kappa},
            "schedule": SPHERE_SCHEDULE,
            # eigenvalue-ratio limit 1 / (tau^2 sigma1^2 2 pi)
            "limit_a": 1.0 / (2.0 * math.pi * tau ** 2),
        }}
    return [Invocation("run", "sphere_series", config,
                       schedule=tuple(SPHERE_SCHEDULE), reference=rng is None)]


def write_configs(invs: list[Invocation], workdir: str) -> list[list[str]]:
    """Write each invocation's config under ``workdir``; return the CLI argv lists."""
    argvs = []
    for i, inv in enumerate(invs):
        path = os.path.join(workdir, f"{i:02d}-{inv.key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh)
        argv = [inv.command, path]
        if inv.command == "run":
            argv += ["--output", os.path.join(workdir, f"{i:02d}-{inv.key}")]
        argvs.append(argv)
    return argvs


def build_scenarios(invs: list[Invocation]) -> None:
    """Parse every config the way the CLI does and build its scenario; part of
    the set-up the benchmark times."""
    from misspec_krige import cli, harness
    for inv in invs:
        if inv.command == "run":
            cli._scenario_from_config(inv.config)
        else:
            harness.builtin_scenario(inv.config["scenario"])
