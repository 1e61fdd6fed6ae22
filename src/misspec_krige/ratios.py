"""Finite-sample efficiency ratios of misspecified linear prediction.

For a target h, let h_n be the best linear predictor under the
data-generating model (E, Var) and g_n the predictor built under a working
model (E~, Var~).  The eight ratios tracked per (n, target) are

    r_var_1 = Var[g_n - h] / Var[h_n - h]            -> 1
    r_var_2 = Var~[h_n - h] / Var~[g_n - h]          -> 1
    r_var_3 = Var~[h_n - h] / Var[h_n - h]           -> a
    r_var_4 = Var[g_n - h] / Var~[g_n - h]           -> 1/a

and the same four with second moments in place of variances.  The limits
shown hold, uniformly over targets, exactly when the two models are
asymptotically compatible; at finite n the ratios are reported as data.  The
additional mean term |E~[h_n - h]|^2 / E[(h_n - h)^2] isolates the effect of
a misspecified mean function.

The supremum over the target space is approximated from below by a finite
probe set; the SUP record per n takes, ratio by ratio, the value at the probe
target farthest from the attached limit (plain max when no limit is known).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, MisspecKrigeError, NumericalFailureError, PartialResultError
from .kriging import Design, GaussianModel, LevelSystem, TargetFunctional, _dot, build_gram

RATIO_NAMES = ("r_var_1", "r_var_2", "r_var_3", "r_var_4",
               "r_mom_1", "r_mom_2", "r_mom_3", "r_mom_4")

SUP_TARGET_ID = "SUP"

#: targets whose true-model kriging variance falls below this are excluded
VARIANCE_FLOOR = 1e-12

_OPTIMALITY_SLACK = 1e-10


@dataclass(frozen=True)
class RatioRecord:
    """The eight ratios plus the mean term for one (n, target) pair.

    ``limits`` maps ratio names to their attached analytic limits (1 for the
    own-measure ratios, a and 1/a for the cross-measure ones when the model
    pair supports a known constant, 0 for the mean term when the kernels
    agree); ``deviations`` stores |value - limit| for exactly those names.
    """

    n: int
    target_id: str
    r_var_1: float
    r_var_2: float
    r_var_3: float
    r_var_4: float
    r_mom_1: float
    r_mom_2: float
    r_mom_3: float
    r_mom_4: float
    mean_term: float
    limits: Mapping[str, float] = field(default_factory=dict)
    deviations: Mapping[str, float] = field(default_factory=dict)
    true_variance: float = float("nan")

    def __post_init__(self):
        values = [getattr(self, name) for name in RATIO_NAMES] + [self.mean_term]
        if not all(np.isfinite(values)):
            raise NumericalFailureError(
                f"non-finite ratio for n={self.n}, target={self.target_id}")
        if self.mean_term < 0.0:
            raise NumericalFailureError("the mean term is a ratio of nonnegative terms")
        for name in ("r_var_1", "r_var_2", "r_mom_1", "r_mom_2"):
            if getattr(self, name) < 1.0 - _OPTIMALITY_SLACK:
                raise NumericalFailureError(
                    f"{name}={getattr(self, name)!r} violates own-measure optimality "
                    f"(n={self.n}, target={self.target_id})")

    def value(self, name: str) -> float:
        if name == "mean_term":
            return self.mean_term
        if name not in RATIO_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    def deviation(self, name: str) -> float | None:
        return self.deviations.get(name)


def _ratio_limits(limit_a: float | None, kernels_match: bool) -> dict[str, float]:
    limits = {"r_var_1": 1.0, "r_var_2": 1.0, "r_mom_1": 1.0, "r_mom_2": 1.0}
    if limit_a is not None:
        if not limit_a > 0:
            raise DomainError("the limit constant must be positive")
        limits.update({"r_var_3": limit_a, "r_mom_3": limit_a,
                       "r_var_4": 1.0 / limit_a, "r_mom_4": 1.0 / limit_a})
    if kernels_match:
        limits["mean_term"] = 0.0
    return limits


def efficiency_ratios(design: Design, targets: Sequence[TargetFunctional],
                      true_model: GaussianModel, wrong_model: GaussianModel,
                      *, limit_a: float | None = None,
                      variance_floor: float = VARIANCE_FLOOR,
                      n_value: int | None = None) -> list[RatioRecord]:
    """Per-target ratio records plus one SUP record for a fixed design.

    Targets whose true-model kriging variance falls below ``variance_floor``
    are excluded with a warning (their ratios are 0/0).  Each model's Gram is
    factorized once and all targets are solved together; each measure's error
    moments for both predictors come from one block (``LevelSystem``).
    """
    if not targets:
        raise DomainError("at least one target is required")
    n = design.n if n_value is None else n_value
    systems = {"true": LevelSystem(design, targets, true_model),
               "wrong": LevelSystem(design, targets, wrong_model)}
    predictors = [systems["true"].predictors(), systems["wrong"].predictors()]
    moments = {measure: system.moments(predictors) for measure, system in systems.items()}
    limits = _ratio_limits(limit_a, true_model.kernel == wrong_model.kernel)

    records: list[RatioRecord] = []
    for idx, target in enumerate(targets):
        target_id = target.label or f"t{idx:02d}"
        mom = {(pred, measure): moments[measure][row][idx]
               for row, pred in enumerate(("true", "wrong")) for measure in systems}
        degenerate = _degenerate_measure(mom, variance_floor)
        if degenerate is not None:
            name, value = degenerate
            warnings.warn(
                f"target {target_id} excluded: {name} error variance "
                f"{value:.3e} below {variance_floor:.1e}", stacklevel=2)
            continue
        values = _assemble_ratios(mom)
        deviations = {name: abs(values[name] - lim) for name, lim in limits.items()}
        records.append(RatioRecord(
            n=n, target_id=target_id, limits=limits, deviations=deviations,
            true_variance=mom[("true", "true")].variance, **values))
    if not records:
        raise NumericalFailureError("every target was excluded by the variance floor")
    records.append(_sup_record(records, n, limits))
    return records


_MEASURE_NAMES = {
    ("true", "true"): "optimal-predictor true-measure",
    ("true", "wrong"): "optimal-predictor working-measure",
    ("wrong", "true"): "working-predictor true-measure",
    ("wrong", "wrong"): "working-predictor working-measure",
}


def _degenerate_measure(mom, floor: float):
    """First (predictor, measure) pair whose error variance denominator is
    numerically unresolvable; all four enter some ratio's denominator."""
    for key, label in _MEASURE_NAMES.items():
        if mom[key].variance < floor:
            return label, mom[key].variance
    return None


def _assemble_ratios(mom) -> dict[str, float]:
    var_tt = mom[("true", "true")].variance
    var_wt = mom[("wrong", "true")].variance
    var_tw = mom[("true", "wrong")].variance
    var_ww = mom[("wrong", "wrong")].variance
    mom_tt = mom[("true", "true")].second_moment
    mom_wt = mom[("wrong", "true")].second_moment
    mom_tw = mom[("true", "wrong")].second_moment
    mom_ww = mom[("wrong", "wrong")].second_moment
    return {
        "r_var_1": var_wt / var_tt,
        "r_var_2": var_tw / var_ww,
        "r_var_3": var_tw / var_tt,
        "r_var_4": var_wt / var_ww,
        "r_mom_1": mom_wt / mom_tt,
        "r_mom_2": mom_tw / mom_ww,
        "r_mom_3": mom_tw / mom_tt,
        "r_mom_4": mom_wt / mom_ww,
        "mean_term": mom[("true", "wrong")].mean ** 2 / mom_tt,
    }


def _sup_record(records: list[RatioRecord], n: int,
                limits: Mapping[str, float]) -> RatioRecord:
    values: dict[str, float] = {}
    deviations: dict[str, float] = {}
    for name in RATIO_NAMES + ("mean_term",):
        per_target = np.array([rec.value(name) for rec in records])
        if name in limits:
            deviation = np.abs(per_target - limits[name])
            pick = int(np.argmax(deviation))
            deviations[name] = float(deviation[pick])
        else:
            pick = int(np.argmax(per_target))
        values[name] = float(per_target[pick])
    return RatioRecord(n=n, target_id=SUP_TARGET_ID, limits=dict(limits),
                       deviations=deviations,
                       true_variance=min(rec.true_variance for rec in records),
                       **values)


def mean_term(design: Design, target: TargetFunctional, true_model: GaussianModel,
              shifted_mean_model: GaussianModel) -> float:
    """Normalized squared interpolation error of the mean difference.

    With a shared kernel, the working-measure expectation of the optimal
    predictor's error equals the kriging interpolation error of the mean
    difference at the target; its square over the kriging variance is the
    exact excess of the second-moment ratio above the variance ratio.
    """
    if true_model.kernel != shifted_mean_model.kernel:
        raise DomainError("mean_term requires the two models to share one kernel")
    system = LevelSystem(design, [target], true_model)
    pred = system.predictors()[0]
    delta = system.m_design - shifted_mean_model.mean_at(design.sites)
    delta_t = system.m_targets[0] - shifted_mean_model.mean_at(target.sites)
    numerator = (float(target.coeffs @ delta_t) - _dot(pred.weights, delta)) ** 2
    variance = system.moments([[pred]])[0][0].variance
    if variance < VARIANCE_FLOOR:
        raise NumericalFailureError("target kriging variance below the floor")
    return numerator / variance


@dataclass(frozen=True, eq=False)
class RatioTable:
    """Ratio records over a schedule of design sizes, with run metadata."""

    records: list[RatioRecord]
    metadata: dict

    def __post_init__(self):
        ns = [rec.n for rec in self.records if rec.target_id == SUP_TARGET_ID]
        if ns != sorted(set(ns)):
            raise DomainError("records must be grouped by strictly increasing n")

    @property
    def n_values(self) -> list[int]:
        return sorted({rec.n for rec in self.records})

    def sup_record(self, n: int) -> RatioRecord:
        for rec in self.records:
            if rec.n == n and rec.target_id == SUP_TARGET_ID:
                return rec
        raise KeyError(f"no SUP record for n={n}")

    def records_for(self, n: int) -> list[RatioRecord]:
        return [rec for rec in self.records if rec.n == n]


def ratio_convergence(true_model: GaussianModel, wrong_model: GaussianModel,
                      design_generator, targets: Sequence[TargetFunctional],
                      n_schedule: Sequence[int], *, limit_a: float | None = None,
                      variance_floor: float = VARIANCE_FLOOR,
                      max_workers: int | None = None,
                      metadata: dict | None = None) -> RatioTable:
    """Evaluate the ratios over an increasing schedule of design sizes.

    ``design_generator`` is any callable n -> Design.  Levels run on a small
    thread pool (capped by MISSPEC_KRIGE_THREADS); assembly is a deterministic
    merge by n, so the result is independent of completion order.
    """
    schedule = [int(n) for n in n_schedule]
    if schedule != sorted(set(schedule)):
        raise DomainError("the n schedule must be strictly increasing")

    def level(n: int) -> tuple[list[RatioRecord], dict]:
        design = design_generator(n)
        records = efficiency_ratios(design, targets, true_model, wrong_model,
                                    limit_a=limit_a, n_value=n,
                                    variance_floor=variance_floor)
        # conditioning is recorded rather than thresholded: how close a target
        # may sit to a clustered design has no principled cutoff
        conditioning = {}
        for tag, model in (("true", true_model), ("wrong", wrong_model)):
            factor = build_gram(design, model.kernel)
            conditioning[tag] = {"jitter": factor.jitter,
                                 "cond_estimate": factor.cond_estimate}
        return records, conditioning

    def safe_level(n: int):
        try:
            return level(n)
        except MisspecKrigeError as exc:
            return exc

    workers = max_workers or _default_workers()
    if workers > 1 and len(schedule) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_level = list(pool.map(safe_level, schedule))
    else:
        per_level = [safe_level(n) for n in schedule]

    completed = [(n, res) for n, res in zip(schedule, per_level)
                 if not isinstance(res, Exception)]
    failed = {n: res for n, res in zip(schedule, per_level)
              if isinstance(res, Exception)}

    records = [rec for _, (level_records, _) in completed for rec in level_records]
    meta = {
        "true_model": true_model.label,
        "wrong_model": wrong_model.label,
        "n_schedule": schedule,
        "n_targets": len(targets),
        "limit_a": limit_a,
        "conditioning": {str(n): cond for n, (_, cond) in completed},
        "sup_note": ("finite probe set: SUP rows lower-bound the supremum over "
                     "all admissible targets"),
    }
    if metadata:
        meta.update(metadata)
    if failed:
        messages = {str(n): str(exc) for n, exc in failed.items()}
        meta["failed_levels"] = messages
        if not completed:
            raise NumericalFailureError(
                f"every schedule level failed; first error: {messages[str(schedule[0])]}")
        raise PartialResultError(
            f"schedule levels {sorted(failed)} failed "
            f"({next(iter(messages.values()))}); partial results attached",
            partial_table=RatioTable(records=records, metadata=meta))
    return RatioTable(records=records, metadata=meta)


def _default_workers() -> int:
    env = os.environ.get("MISSPEC_KRIGE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"MISSPEC_KRIGE_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)
