"""Scenario library and experiment runner.

Design generators are deterministic functions of (kind, n); scenarios bundle
a model pair, a design generator, a probe target set and a schedule of design
sizes, and running one produces a ratio table plus a diagnostics report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

import numpy as np

from .diagnostics import AssumptionBudget, assumption_report
from .errors import DomainError, MisspecKrigeError
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
    UnitSphere,
)
from .kriging import Design, GaussianModel, TargetFunctional, constant_mean, kink_mean, zero_mean
from .ratios import RatioTable, ratio_convergence

MAX_DESIGN_SIZE = 2048

DEFAULT_SCHEDULE = (8, 16, 32, 64)
DEFAULT_X_STAR = 0.37
DEFAULT_CONTRACTION = 0.6
DEFAULT_TARGET_COUNT = 33

#: the default probe grid keeps this fraction of the domain clear at each end:
#: extreme-boundary targets are extrapolation problems at coarse n, and their
#: transients mask the asymptotic signal the SUP diagnostic tracks
TARGET_BOUNDARY_MARGIN = 0.15

#: amplitude of the accumulating offsets; keeps sites inside [0, 1] for any
#: x_star in [0.26, 0.74]
_ACC_AMPLITUDE = 0.25


# ---------------------------------------------------------------------------
# design generators
# ---------------------------------------------------------------------------

def _van_der_corput(j: int, base: int = 2) -> float:
    """Radical-inverse (van der Corput) sequence, deterministic and seedless."""
    inv, denom = 0.0, 1.0
    while j > 0:
        j, digit = divmod(j, base)
        denom *= base
        inv += digit / denom
    return inv


@dataclass(frozen=True)
class DesignGenerator:
    """Deterministic family of designs indexed by size n."""

    kind: str                      # equispaced | accumulating | halton | sphere_fibonacci
    domain: object = field(default_factory=Box)
    x_star: float | None = None
    q: float | None = None

    #: nested generators satisfy design(n).sites == design(m).sites[:n] for m >= n
    @property
    def nested(self) -> bool:
        return self.kind in ("accumulating", "halton")

    @property
    @cache  # keyed by the generator's fields, so equal generators share it
    def max_n(self) -> int:
        """Largest n whose sites are pairwise distinct in floating point; the
        accumulating offsets end below the float spacing at x_star."""
        if self.kind != "accumulating":
            return MAX_DESIGN_SIZE
        sites = np.array(_accumulating_sites(self, MAX_DESIGN_SIZE))
        repeats = np.setdiff1d(np.arange(sites.size), np.unique(sites, return_index=True)[1])
        return int(repeats[0]) if repeats.size else MAX_DESIGN_SIZE

    @classmethod
    def equispaced(cls, domain=None) -> "DesignGenerator":
        return cls(kind="equispaced", domain=domain or Box())

    @classmethod
    def accumulating(cls, x_star: float = DEFAULT_X_STAR,
                     q: float = DEFAULT_CONTRACTION, domain=None) -> "DesignGenerator":
        if not 0.0 < q < 1.0:
            raise DomainError("the contraction ratio must lie in (0, 1)")
        if not _ACC_AMPLITUDE + 1e-9 < x_star < 1.0 - _ACC_AMPLITUDE - 1e-9:
            raise DomainError(
                f"x_star must keep the accumulating offsets inside the domain "
                f"(allowed ({_ACC_AMPLITUDE}, {1 - _ACC_AMPLITUDE}))")
        return cls(kind="accumulating", domain=domain or Box(), x_star=x_star, q=q)

    @classmethod
    def halton(cls, domain=None) -> "DesignGenerator":
        return cls(kind="halton", domain=domain or Box())

    @classmethod
    def sphere_fibonacci(cls) -> "DesignGenerator":
        return cls(kind="sphere_fibonacci", domain=UnitSphere())

    def describe(self) -> dict:
        out = {"kind": self.kind, "domain": type(self.domain).__name__}
        if self.x_star is not None:
            out.update(x_star=self.x_star, q=self.q)
        return out


def generate_design(g: DesignGenerator, n: int) -> Design:
    """The size-n design of a generator; deterministic in (g, n)."""
    if n < 1:
        raise DomainError("a design needs n >= 1 sites")
    if n > g.max_n:
        raise DomainError(f"n={n} exceeds the largest usable size {g.max_n} "
                          f"of the {g.kind} design generator")
    if g.kind == "equispaced":
        return _equispaced(g, n)
    if g.kind == "accumulating":
        return Design(np.asarray(_accumulating_sites(g, n))[:, None])
    if g.kind == "halton":
        dim = g.domain.dim if isinstance(g.domain, (Box, Torus)) else 1
        bases = (2, 3, 5, 7, 11, 13)[:dim]
        sites = np.array([[_van_der_corput(j + 1, base) for base in bases]
                          for j in range(n)])
        return Design(sites)
    if g.kind == "sphere_fibonacci":
        from .diagnostics import fibonacci_sphere_grid
        nodes, _ = fibonacci_sphere_grid(max(n, 2))
        return Design(nodes[:n])
    raise DomainError(f"unknown design generator kind {g.kind!r}")


def _equispaced(g: DesignGenerator, n: int) -> Design:
    if isinstance(g.domain, Torus):
        dim = g.domain.dim
        if dim == 1:
            # the small offset keeps grid sites off the default probe targets
            sites = (np.arange(n) + DEFAULT_X_STAR) / n
            return Design(sites[:, None] % 1.0)
        side = int(math.ceil(n ** (1.0 / dim)))
        axes = [(np.arange(side) + DEFAULT_X_STAR) / side] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        sites = np.stack([m.ravel() for m in mesh], axis=1)[:n]
        return Design(sites % 1.0)
    # interior grid: endpoints stay available as targets
    sites = np.arange(1, n + 1) / (n + 1.0)
    return Design(sites[:, None])


def _accumulating_sites(g: DesignGenerator, n: int) -> list[float]:
    """Sites approaching x_star geometrically, interleaved with a space-filling
    stream so the design stays dense in the domain as n grows.  Nested by
    construction: odd slots contract toward x_star with alternating sign, even
    slots follow the radical-inverse sequence."""
    sites = []
    for j in range(1, n + 1):
        if j % 2 == 1:
            step = (j + 1) // 2
            side = 1.0 if step % 2 == 1 else -1.0
            sites.append(g.x_star + side * _ACC_AMPLITUDE * g.q ** step)
        else:
            sites.append(_van_der_corput(j // 2))
    return sites


# ---------------------------------------------------------------------------
# target sets
# ---------------------------------------------------------------------------

def default_targets(generator: DesignGenerator, n_max: int,
                    count: int = DEFAULT_TARGET_COUNT) -> list[TargetFunctional]:
    """Probe targets: ``count`` spread-out held-out points, plus, for
    accumulating generators, three probes at the innermost design ring scale
    around x_star."""
    if isinstance(generator.domain, UnitSphere):
        from .diagnostics import fibonacci_sphere_grid
        nodes, _ = fibonacci_sphere_grid(count, rotate=0.5)
        return [TargetFunctional.point(nodes[i], label=f"g{i:02d}") for i in range(count)]
    lo = TARGET_BOUNDARY_MARGIN
    hi = 1.0 - TARGET_BOUNDARY_MARGIN
    if isinstance(generator.domain, Torus) and generator.domain.dim > 1:
        dim = generator.domain.dim
        bases = (3, 5, 7, 11, 13)[:dim]  # offset from the design's base-2 stream
        return [TargetFunctional.point(
            np.array([lo + (hi - lo) * _van_der_corput(i + 1, b) for b in bases]),
            label=f"g{i:02d}") for i in range(count)]
    # the golden-ratio offset keeps the grid off dyadic design sites
    pts = [lo + (hi - lo) * (i + 0.618) / count for i in range(count)]
    targets = [TargetFunctional.point(np.array([p]), label=f"g{i:02d}")
               for i, p in enumerate(pts)]
    if generator.kind == "accumulating":
        ring = generator.q ** ((n_max + 1) // 2) * _ACC_AMPLITUDE
        for i, mult in enumerate((1.1, 1.6, 2.3)):
            targets.append(TargetFunctional.point(
                np.array([generator.x_star + mult * ring]), label=f"a{i}"))
        targets.append(TargetFunctional.point(np.array([generator.x_star]), label="acc"))
    return targets


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    true_model: GaussianModel
    wrong_model: GaussianModel
    design_generator: DesignGenerator
    targets: tuple[TargetFunctional, ...]
    n_schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    limit_a: float | None = None
    notes: str = ""

    def __post_init__(self):
        sched = tuple(int(n) for n in self.n_schedule)
        if list(sched) != sorted(set(sched)):
            raise DomainError("the schedule must be strictly increasing")
        if sched[-1] > self.design_generator.max_n:
            raise DomainError(f"schedule exceeds the largest usable design size "
                              f"{self.design_generator.max_n} of its generator")
        object.__setattr__(self, "n_schedule", sched)
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    table: RatioTable
    report: dict


def run_scenario(s: Scenario, max_workers: int | None = None,
                 budget: AssumptionBudget | None = None,
                 variance_floor: float | None = None) -> ScenarioResult:
    """Ratio table over the schedule plus the composed diagnostics report."""
    from .ratios import VARIANCE_FLOOR
    try:
        table = ratio_convergence(
            s.true_model, s.wrong_model,
            lambda n: generate_design(s.design_generator, n),
            list(s.targets), list(s.n_schedule), limit_a=s.limit_a,
            variance_floor=VARIANCE_FLOOR if variance_floor is None else variance_floor,
            max_workers=max_workers,
            metadata={"scenario": s.name,
                      "design_generator": s.design_generator.describe(),
                      "notes": s.notes})
    except MisspecKrigeError as exc:
        # keep the exception type and attachments (partial tables), add context
        exc.args = (f"scenario {s.name!r}: {exc}",)
        raise
    report = assumption_report(s.true_model, s.wrong_model,
                               domain=s.design_generator.domain, budget=budget)
    return ScenarioResult(scenario=s, table=table, report=report)


# ----- built-ins -----------------------------------------------------------

def _exp_model(label: str, sigma=1.0, kappa=1.0, mean=zero_mean) -> GaussianModel:
    params = MaternParams(sigma=sigma, nu=0.5, kappa=kappa, dim=1)
    return GaussianModel(mean=mean, kernel=MaternKernel(params), label=label)


def _builtin_identical() -> Scenario:
    gen = DesignGenerator.accumulating()
    return Scenario(
        name="identical",
        true_model=_exp_model("matern(1,0.5,1)"),
        wrong_model=_exp_model("matern(1,0.5,1)"),
        design_generator=gen,
        targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=1.0,
        notes="working model equals the truth; every ratio is 1 by construction")


def _builtin_scaled_kernel() -> Scenario:
    gen = DesignGenerator.accumulating()
    return Scenario(
        name="scaled_kernel",
        true_model=_exp_model("matern(1,0.5,1)"),
        wrong_model=_exp_model("matern(2,0.5,1)", sigma=2.0),
        design_generator=gen,
        targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=4.0,
        notes=("working covariance is 4x the truth: identical weights, "
               "own-measure ratios exactly 1, cross ratios 4 and 1/4"))


def _builtin_matern_same_nu() -> Scenario:
    gen = DesignGenerator.accumulating()
    true = _exp_model("matern(1,0.5,1)")
    wrong = GaussianModel(mean=zero_mean,
                          kernel=MaternKernel(MaternParams(2.0, 0.5, 0.5, dim=1)),
                          label="matern(2,0.5,0.5)")
    return Scenario(
        name="matern_same_nu", true_model=true, wrong_model=wrong,
        design_generator=gen, targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=2.0,
        notes="equal smoothness: cross ratios approach the identifiable-combination ratio 2")


def _builtin_matern_diff_nu() -> Scenario:
    gen = DesignGenerator.accumulating()
    true = _exp_model("matern(1,0.5,1)")
    wrong = GaussianModel(mean=zero_mean,
                          kernel=MaternKernel(MaternParams(1.0, 1.5, 1.0, dim=1)),
                          label="matern(1,1.5,1)")
    return Scenario(
        name="matern_diff_nu", true_model=true, wrong_model=wrong,
        design_generator=gen, targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=None,
        notes="smoothness mismatch: the efficiency ratios do not approach 1")


def _ratio3_spectra() -> tuple[PeriodicSpectrum, PeriodicSpectrum]:
    base = lambda k: (1.0 + float(k[0]) ** 2) ** -2.0
    bumped = lambda k: 3.0 * base(k) * (1.0 + 1.0 / (1.0 + abs(float(k[0]))))
    true_spec = PeriodicSpectrum.from_callable(base, dim=1)
    wrong_spec = PeriodicSpectrum.from_callable(bumped, dim=1)
    return true_spec, wrong_spec


def _builtin_periodic_ratio3() -> Scenario:
    true_spec, wrong_spec = _ratio3_spectra()
    gen = DesignGenerator.equispaced(domain=Torus(1))
    return Scenario(
        name="periodic_ratio3",
        true_model=GaussianModel(zero_mean, PeriodicKernel(true_spec),
                                 label="periodic((1+k^2)^-2)"),
        wrong_model=GaussianModel(zero_mean, PeriodicKernel(wrong_spec),
                                  label="periodic(3(1+k^2)^-2(1+1/(1+|k|)))"),
        design_generator=gen,
        targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=3.0,
        notes="shared trigonometric eigenbasis with eigenvalue ratio tending to 3")


def _builtin_sphere() -> Scenario:
    gen = DesignGenerator.sphere_fibonacci()
    p1 = SphereLegendreParams(sigma1=1.0, nu1=1.0, kappa1=1.0)
    p2 = SphereSpdeParams(tau=1.0, nu=1.0, kappa=1.0)
    return Scenario(
        name="sphere_legendre_vs_spde",
        true_model=GaussianModel(zero_mean, SphereLegendreKernel(p1),
                                 label="sphere_legendre(1,1,1)"),
        wrong_model=GaussianModel(zero_mean, SphereSpdeKernel(p2),
                                  label="sphere_spde(1,1,1)"),
        design_generator=gen,
        targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=1.0 / (2.0 * math.pi),
        notes="equal smoothness on the sphere; eigenvalue ratio tends to 1/(2 pi)")


def _builtin_mean_shift_constant() -> Scenario:
    gen = DesignGenerator.accumulating()
    return Scenario(
        name="mean_shift_constant",
        true_model=_exp_model("matern(1,0.5,1)+mean0"),
        wrong_model=_exp_model("matern(1,0.5,1)+mean1", mean=constant_mean(1.0)),
        design_generator=gen,
        targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=1.0,
        notes=("shared kernel, constant mean shift: the mean term decays as the "
               "design accumulates"))


def _builtin_mean_shift_kink() -> Scenario:
    gen = DesignGenerator.accumulating()
    return Scenario(
        name="mean_shift_kink",
        true_model=_exp_model("matern(1,0.5,1)+mean0"),
        wrong_model=_exp_model("matern(1,0.5,1)+kink",
                               mean=kink_mean(DEFAULT_X_STAR, 0.2)),
        design_generator=gen,
        targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
        limit_a=1.0,
        notes=("shared kernel, |x - x*|^0.2 mean shift: a rough mean stressing the "
               "mean term; values are reported without a pass/fail claim"))


_BUILTINS: dict[str, Callable[[], Scenario]] = {
    "identical": _builtin_identical,
    "scaled_kernel": _builtin_scaled_kernel,
    "matern_same_nu": _builtin_matern_same_nu,
    "matern_diff_nu": _builtin_matern_diff_nu,
    "periodic_ratio3": _builtin_periodic_ratio3,
    "sphere_legendre_vs_spde": _builtin_sphere,
    "mean_shift_constant": _builtin_mean_shift_constant,
    "mean_shift_kink": _builtin_mean_shift_kink,
}

SCENARIO_NAMES = tuple(_BUILTINS)


def builtin_scenario(name: str, n_schedule=None) -> Scenario:
    try:
        scenario = _BUILTINS[name]()
    except KeyError:
        raise DomainError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    if n_schedule is not None:
        scenario = replace(scenario, n_schedule=tuple(int(n) for n in n_schedule))
    return scenario
