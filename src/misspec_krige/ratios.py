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

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (DomainError, MisspecKrigeError, NumericalFailureError, OptimalityError,
                     PartialResultError)
from .kernels.base import block_threads as _default_workers, is_whole_number
from .kriging import Design, GaussianModel, LevelSystem, TargetFunctional, build_gram

#: r_var_i and r_mom_i, i = 1..4: the error variance or second moment of the
#: numerator's (predictor, measure) pair over the denominator's
_RATIO_PAIRS = ((("wrong", "true"), ("true", "true")),
                (("true", "wrong"), ("wrong", "wrong")),
                (("true", "wrong"), ("true", "true")),
                (("wrong", "true"), ("wrong", "wrong")))

RATIO_NAMES = tuple(f"r_{kind}_{i}" for kind in ("var", "mom")
                    for i in range(1, len(_RATIO_PAIRS) + 1))

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
    agree); ``deviations`` derives |value - limit| for exactly those names.
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
                raise OptimalityError(
                    f"{name}={getattr(self, name)!r} violates own-measure optimality "
                    f"(n={self.n}, target={self.target_id})")

    def value(self, name: str) -> float:
        if name == "mean_term":
            return self.mean_term
        if name not in RATIO_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    @property
    def deviations(self) -> dict[str, float]:
        return {name: abs(self.value(name) - limit) for name, limit in self.limits.items()}


def _ratio_limits(limit_a: float | None, kernels_match: bool) -> dict[str, float]:
    """1 for a ratio within one measure; with ``limit_a``, a from the true to
    the working measure and 1/a back; 0 for the mean term of equal kernels."""
    by_measures = {("true", "true"): 1.0, ("wrong", "wrong"): 1.0}
    if limit_a is not None:
        if not (limit_a > 0 and 1.0 / limit_a < np.inf):
            raise DomainError(f"the limit constant must be positive with a finite "
                              f"reciprocal, got {limit_a!r}")
        by_measures.update({("wrong", "true"): limit_a, ("true", "wrong"): 1.0 / limit_a})
    limits = {f"r_{kind}_{i}": by_measures[num[1], den[1]]
              for kind in ("var", "mom") for i, (num, den) in enumerate(_RATIO_PAIRS, 1)
              if (num[1], den[1]) in by_measures}
    if kernels_match:
        limits["mean_term"] = 0.0
    return limits


def efficiency_ratios(design: Design, targets: Sequence[TargetFunctional],
                      true_model: GaussianModel, wrong_model: GaussianModel,
                      *, limit_a: float | None = None,
                      variance_floor: float = VARIANCE_FLOOR) -> list[RatioRecord]:
    """Per-target ratio records plus one SUP record for a fixed design.

    Targets whose true-model kriging variance falls below ``variance_floor``
    are excluded with a warning (their ratios are 0/0).  Each distinct kernel
    gets one ``LevelSystem`` (one factor, one solve for all targets); each
    measure's error moments for both predictors come from one block.
    """
    excluded: list[str] = []
    try:
        return _level_ratios(design, targets, true_model, wrong_model, limit_a,
                             variance_floor, excluded)
    finally:
        _warn_excluded(excluded)


def _warn_excluded(messages: list[str]) -> None:
    """One warning per excluded target, attributed to the first stack frame
    outside this package: the line of the caller's code that asked for it."""
    frame, stacklevel = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == __package__:
        frame, stacklevel = frame.f_back, stacklevel + 1
    for message in messages:
        warnings.warn(message, stacklevel=stacklevel)


def _level_ratios(design: Design, targets: Sequence[TargetFunctional],
                  true_model: GaussianModel, wrong_model: GaussianModel,
                  limit_a: float | None, variance_floor: float,
                  excluded: list[str]) -> list[RatioRecord]:
    """The records of :func:`efficiency_ratios`; the message of each excluded
    target is appended to ``excluded`` instead of warned."""
    if not targets:
        raise DomainError("at least one target is required")
    n = design.n
    shared_kernel = true_model.kernel == wrong_model.kernel
    limits = _ratio_limits(limit_a, shared_kernel)
    true_system = LevelSystem(design, targets, true_model.kernel)
    wrong_system = (true_system if shared_kernel
                    else LevelSystem(design, targets, wrong_model.kernel))
    predictors = [true_system.predictors(true_model), wrong_system.predictors(wrong_model)]
    moments = {"true": true_system.moments(predictors, true_model),
               "wrong": wrong_system.moments(predictors, wrong_model)}

    records: list[RatioRecord] = []
    for idx, target in enumerate(targets):
        target_id = target.label or f"t{idx:02d}"
        mom = {(pred, measure): moments[measure][row][idx]
               for row, pred in enumerate(("true", "wrong")) for measure in moments}
        degenerate = _degenerate_measure(mom, variance_floor)
        if degenerate is not None:
            name, value = degenerate
            excluded.append(f"target {target_id} excluded: {name} error variance "
                            f"{value:.3e} below {variance_floor:.1e}")
            continue
        try:
            records.append(RatioRecord(
                n=n, target_id=target_id, limits=limits,
                true_variance=mom[("true", "true")].variance, **_assemble_ratios(mom)))
        except OptimalityError as exc:
            grams = ", ".join(
                f"{system.gram.inverse_rcond:.2g} for the {tag} Gram at jitter "
                f"{system.gram.jitter:.1e}"
                for tag, system in (("true", true_system), ("working", wrong_system)))
            raise OptimalityError(
                f"{exc}; the limit is Gram conditioning (1/rcond {grams})") from exc
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
    ratios = {}
    for i, (num, den) in enumerate(_RATIO_PAIRS, 1):
        ratios[f"r_var_{i}"] = mom[num].variance / mom[den].variance
        ratios[f"r_mom_{i}"] = mom[num].second_moment / mom[den].second_moment
    ratios["mean_term"] = mom[("true", "wrong")].mean ** 2 / mom[("true", "true")].second_moment
    return ratios


def _sup_record(records: list[RatioRecord], n: int,
                limits: Mapping[str, float]) -> RatioRecord:
    values: dict[str, float] = {}
    for name in RATIO_NAMES + ("mean_term",):
        per_target = np.array([rec.value(name) for rec in records])
        key = np.abs(per_target - limits[name]) if name in limits else per_target
        values[name] = float(per_target[int(np.argmax(key))])
    return RatioRecord(n=n, target_id=SUP_TARGET_ID, limits=dict(limits),
                       true_variance=min(rec.true_variance for rec in records),
                       **values)


def mean_term(design: Design, target: TargetFunctional, true_model: GaussianModel,
              shifted_mean_model: GaussianModel) -> float:
    """Normalized squared interpolation error of the mean difference.

    With a shared kernel, the working-measure expectation of the optimal
    predictor's error equals the kriging interpolation error of the mean
    difference at the target; its square over the kriging variance is the
    exact excess of the second-moment ratio above the variance ratio.  Both
    come from one moment block under the shifted model, as the ratios' error
    means do; the kernel is shared, so its variance is the true model's.
    """
    if true_model.kernel != shifted_mean_model.kernel:
        raise DomainError("mean_term requires the two models to share one kernel")
    system = LevelSystem(design, [target], true_model.kernel)
    pred = system.predictors(true_model)[0]
    moments = system.moments([[pred]], shifted_mean_model)[0][0]
    bias, variance = moments.mean, moments.variance
    if variance < VARIANCE_FLOOR:
        raise NumericalFailureError("target kriging variance below the floor")
    return bias ** 2 / variance


@dataclass(frozen=True, eq=False)
class RatioTable:
    """Ratio records over a schedule of design sizes, with run metadata."""

    records: list[RatioRecord]
    metadata: dict

    def __post_init__(self):
        ns = [rec.n for rec in self.records if rec.target_id == SUP_TARGET_ID]
        if ns != sorted(set(ns)):
            raise DomainError("records must be grouped by strictly increasing n")

    def sup_record(self, n: int) -> RatioRecord:
        for rec in self.records:
            if rec.n == n and rec.target_id == SUP_TARGET_ID:
                return rec
        raise KeyError(f"no SUP record for n={n}")


def check_schedule(n_schedule) -> tuple[int, ...]:
    """The schedule as a tuple of ints.  It must be a nonempty, strictly
    increasing sequence of integral design sizes >= 1; booleans and
    non-integral numbers are rejected with a message naming the entry."""
    try:
        sched = tuple(n_schedule)
    except TypeError:
        raise DomainError(f"the schedule must be a list of design sizes, got {n_schedule!r}")
    if not sched:
        raise DomainError("the schedule must list at least one design size")
    for n in sched:
        if not is_whole_number(n) or n < 1:
            raise DomainError(f"schedule entry {n!r} is not an integer design size >= 1")
    sched = tuple(int(n) for n in sched)
    for earlier, later in zip(sched, sched[1:]):
        if later <= earlier:
            raise DomainError(
                f"the schedule must be strictly increasing; {later} follows {earlier}")
    return sched


def ratio_convergence(true_model: GaussianModel, wrong_model: GaussianModel,
                      design_generator, targets: Sequence[TargetFunctional],
                      n_schedule: Sequence[int], *, limit_a: float | None = None,
                      variance_floor: float = VARIANCE_FLOOR,
                      metadata: dict | None = None) -> RatioTable:
    """Evaluate the ratios over an increasing schedule of design sizes.

    ``design_generator`` is any callable n -> Design of n sites.  Levels run
    one at a time, in schedule order; each level splits its large blocks over
    the block threads, whose number MISSPEC_KRIGE_THREADS sets (default
    min(4, cpu count)), and the split leaves every bit in place.  Excluded
    targets are warned about from the calling thread once every level is done,
    in schedule order, failed levels included.
    """
    schedule = list(check_schedule(n_schedule))
    _default_workers()  # a bad MISSPEC_KRIGE_THREADS fails the run before any level
    excluded: dict[int, list[str]] = {n: [] for n in schedule}

    def level(n: int) -> tuple[list[RatioRecord], dict]:
        design = design_generator(n)
        if design.n != n:
            raise DomainError(f"the design generator returned {design.n} sites "
                              f"for schedule level n={n}")
        records = _level_ratios(design, targets, true_model, wrong_model, limit_a,
                                variance_floor, excluded[n])
        # conditioning is recorded rather than thresholded: how close a target
        # may sit to a clustered design has no principled cutoff
        conditioning = {}
        for tag, model in (("true", true_model), ("wrong", wrong_model)):
            factor = build_gram(design, model.kernel)
            conditioning[tag] = {"jitter": factor.jitter,
                                 "inverse_rcond": factor.inverse_rcond}
        return records, conditioning

    def safe_level(n: int):
        try:
            return level(n)
        except MisspecKrigeError as exc:
            return exc

    # One worker, so the levels run in turn.  The executor stays only because
    # the benchmark opens its level spans by patching it; a plain loop takes
    # its place once the benchmark takes them from elsewhere.
    with ThreadPoolExecutor(max_workers=1) as pool:
        per_level = list(pool.map(safe_level, schedule))
    _warn_excluded([message for n in schedule for message in excluded[n]])

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
