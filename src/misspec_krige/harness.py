"""Scenario library and experiment runner.

Design generators are deterministic functions of (kind, n); scenarios bundle
a model pair, a design generator, a probe target set and a schedule of design
sizes, and running one produces a ratio table plus a diagnostics report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .diagnostics import DEFAULT_TOL, DEFAULT_WINDOW, assumption_report
from .errors import DomainError, MisspecKrigeError
from .kernels import (
    Box,
    Domain,
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
from .kernels.base import fibonacci_sphere_grid
from .kriging import Design, GaussianModel, TargetFunctional, constant_mean, kink_mean, zero_mean
from .ratios import VARIANCE_FLOOR, RatioTable, check_schedule, common_domain, ratio_convergence

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

#: each design kind's parameters; ``DesignGenerator.<kind>`` takes them and ``domain``
DESIGN_KINDS = {"equispaced": (), "accumulating": ("x_star", "q"), "halton": (),
                "sphere_fibonacci": ()}


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

    kind: str                      # a key of DESIGN_KINDS
    domain: Domain = field(default_factory=Box)
    x_star: float | None = None
    q: float | None = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise DomainError(f"unknown design generator kind {self.kind!r}")
        try:
            self.domain.points(_sites(self, 2))
        except DomainError as exc:
            raise DomainError(f"{self.kind} design sites are not points of "
                              f"{self.domain!r}: {exc}") from None

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
        sites = _sites(self, MAX_DESIGN_SIZE)[:, 0]
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
    def sphere_fibonacci(cls, domain=None) -> "DesignGenerator":
        """Sites on the sphere whatever ``domain`` is; a Scenario names a mismatch."""
        return cls(kind="sphere_fibonacci", domain=UnitSphere())

    def describe(self) -> dict:
        out = {"kind": self.kind, "domain": type(self.domain).__name__}
        if self.x_star is not None:
            out.update(x_star=self.x_star, q=self.q)
        return out


def default_design(domain: Domain) -> DesignGenerator:
    """The design generator of an experiment on ``domain`` that names none."""
    kind = {Box: "accumulating", Torus: "equispaced", UnitSphere: "sphere_fibonacci"}[type(domain)]
    return getattr(DesignGenerator, kind)(domain=domain)


def generate_design(g: DesignGenerator, n: int) -> Design:
    """The size-n design of a generator; deterministic in (g, n)."""
    if n < 1:
        raise DomainError("a design needs n >= 1 sites")
    if n > g.max_n:
        raise DomainError(f"n={n} exceeds the largest usable size {g.max_n} "
                          f"of the {g.kind} design generator")
    return Design(g.domain.points(_sites(g, n)))


def _sites(g: DesignGenerator, n: int) -> np.ndarray:
    """The generator's first n sites, not yet checked against its domain.  Box
    and torus designs are built in unit-cube coordinates and mapped onto the
    domain's bounds."""
    if g.kind == "sphere_fibonacci":
        return fibonacci_sphere_grid(max(n, 2))[0][:n]
    if g.kind == "equispaced":
        unit = _equispaced(g, n)
    elif g.kind == "accumulating":
        unit = np.asarray(_accumulating_sites(g, n))[:, None]
    else:
        bases = (2, 3, 5, 7, 11, 13)[:g.domain.dim]
        unit = [[_van_der_corput(j + 1, base) for base in bases] for j in range(n)]
    return g.domain.from_unit(unit)


def _equispaced(g: DesignGenerator, n: int) -> np.ndarray:
    if isinstance(g.domain, Torus):
        dim = g.domain.dim
        side = int(math.ceil(n ** (1.0 / dim)))
        # the small offset keeps grid sites off the default probe targets
        axes = [(np.arange(side) + DEFAULT_X_STAR) / side] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        sites = np.stack([m.ravel() for m in mesh], axis=1)[:n]
        return sites % 1.0
    # interior grid: endpoints stay available as targets
    sites = np.arange(1, n + 1) / (n + 1.0)
    return sites[:, None]


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
    around x_star and one at x_star.  On a box or torus they are placed in
    unit-cube coordinates, as the design is, and mapped onto its bounds."""
    domain = generator.domain
    if isinstance(domain, UnitSphere):
        nodes, _ = fibonacci_sphere_grid(count, rotate=0.5)
        return [TargetFunctional.point(nodes[i], label=f"g{i:02d}") for i in range(count)]
    lo = TARGET_BOUNDARY_MARGIN
    hi = 1.0 - TARGET_BOUNDARY_MARGIN
    labels = [f"g{i:02d}" for i in range(count)]
    if domain.dim > 1:
        bases = (3, 5, 7, 11, 13, 17)[:domain.dim]  # offset from the design's base-2 stream
        unit = [[lo + (hi - lo) * _van_der_corput(i + 1, b) for b in bases]
                for i in range(count)]
    else:
        # the golden-ratio offset keeps the grid off dyadic design sites
        unit = [[lo + (hi - lo) * (i + 0.618) / count] for i in range(count)]
    if generator.kind == "accumulating":
        ring = generator.q ** ((n_max + 1) // 2) * _ACC_AMPLITUDE
        unit += [[generator.x_star + mult * ring] for mult in (1.1, 1.6, 2.3)]
        unit.append([generator.x_star])
        labels += ["a0", "a1", "a2", "acc"]
    return [TargetFunctional.point(p, label=label)
            for p, label in zip(domain.from_unit(unit), labels)]


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
        domain = common_domain(self.true_model, self.wrong_model)
        if self.design_generator.domain != domain:
            raise DomainError(f"the {self.design_generator.kind} design lives on "
                              f"{self.design_generator.domain!r}, the models on {domain!r}")
        sched = check_schedule(self.n_schedule)
        if sched[-1] > self.design_generator.max_n:
            raise DomainError(f"schedule exceeds the largest usable design size "
                              f"{self.design_generator.max_n} of its generator")
        model = min((self.true_model, self.wrong_model),
                    key=lambda m: math.inf if m.kernel.rank is None else m.kernel.rank)
        rank = model.kernel.rank
        if rank is not None and sched[-1] >= rank:
            raise DomainError(
                f"schedule n={sched[-1]} is not below the rank {rank} of the truncated "
                f"{type(model.kernel).__name__} of {model.label!r}: that many sites fix "
                f"the field and every kriging variance is 0; use n <= {rank - 1}")
        object.__setattr__(self, "n_schedule", sched)
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario: Scenario
    table: RatioTable
    report: dict


def run_scenario(s: Scenario, verdict_window: float = DEFAULT_WINDOW,
                 verdict_tol: float = DEFAULT_TOL,
                 variance_floor: float = VARIANCE_FLOOR) -> ScenarioResult:
    """Ratio table over the schedule plus the composed diagnostics report."""
    try:
        table = ratio_convergence(
            s.true_model, s.wrong_model,
            lambda n: generate_design(s.design_generator, n),
            list(s.targets), list(s.n_schedule), limit_a=s.limit_a,
            variance_floor=variance_floor,
            metadata={"scenario": s.name,
                      "design_generator": s.design_generator.describe(),
                      "notes": s.notes})
    except MisspecKrigeError as exc:
        # keep the exception type and attachments (partial tables), add context
        exc.args = (f"scenario {s.name!r}: {exc}",)
        raise
    report = assumption_report(s.true_model, s.wrong_model, verdict_window, verdict_tol)
    return ScenarioResult(scenario=s, table=table, report=report)


# ----- built-ins -----------------------------------------------------------

def _exp_model(label: str, sigma=1.0, kappa=1.0, mean=zero_mean, nu=0.5) -> GaussianModel:
    params = MaternParams(sigma=sigma, nu=nu, kappa=kappa, dim=1)
    return GaussianModel(mean=mean, kernel=MaternKernel(params), label=label)


def _ratio3_base(k) -> float:
    """The true spectral density of ``periodic_ratio3``; the working one scales
    it by 3 (1 + 1/(1 + |k|))."""
    return (1.0 + float(k[0]) ** 2) ** -2.0


#: each built-in scenario by name: a callable giving the fields it does not
#: share with the others, so every call builds fresh models.  The design is
#: the default one of the models' domain.
_BUILTINS: dict[str, Callable[[], dict]] = {
    "identical": lambda: dict(
        true_model=_exp_model("matern(1,0.5,1)"), wrong_model=_exp_model("matern(1,0.5,1)"),
        limit_a=1.0,
        notes="working model equals the truth; every ratio is 1 by construction"),
    "scaled_kernel": lambda: dict(
        true_model=_exp_model("matern(1,0.5,1)"),
        wrong_model=_exp_model("matern(2,0.5,1)", sigma=2.0),
        limit_a=4.0,
        notes=("working covariance is 4x the truth: identical weights, "
               "own-measure ratios exactly 1, cross ratios 4 and 1/4")),
    "matern_same_nu": lambda: dict(
        true_model=_exp_model("matern(1,0.5,1)"),
        wrong_model=_exp_model("matern(2,0.5,0.5)", sigma=2.0, kappa=0.5),
        limit_a=2.0,
        notes="equal smoothness: cross ratios approach the identifiable-combination ratio 2"),
    "matern_diff_nu": lambda: dict(
        true_model=_exp_model("matern(1,0.5,1)"),
        wrong_model=_exp_model("matern(1,1.5,1)", nu=1.5),
        limit_a=None,
        notes="smoothness mismatch: the efficiency ratios do not approach 1"),
    "periodic_ratio3": lambda: dict(
        true_model=GaussianModel(zero_mean, PeriodicKernel(
            PeriodicSpectrum.from_callable(_ratio3_base, dim=1)),
            label="periodic((1+k^2)^-2)"),
        wrong_model=GaussianModel(zero_mean, PeriodicKernel(PeriodicSpectrum.from_callable(
            lambda k: 3.0 * _ratio3_base(k) * (1.0 + 1.0 / (1.0 + abs(float(k[0])))),
            dim=1)), label="periodic(3(1+k^2)^-2(1+1/(1+|k|)))"),
        limit_a=3.0,
        notes="shared trigonometric eigenbasis with eigenvalue ratio tending to 3"),
    "sphere_legendre_vs_spde": lambda: dict(
        true_model=GaussianModel(zero_mean, SphereSeriesKernel(SphereLegendreParams(
            sigma1=1.0, nu1=1.0, kappa1=1.0)), label="sphere_legendre(1,1,1)"),
        wrong_model=GaussianModel(zero_mean, SphereSeriesKernel(SphereSpdeParams(
            tau=1.0, nu=1.0, kappa=1.0)), label="sphere_spde(1,1,1)"),
        limit_a=1.0 / (2.0 * math.pi),
        notes="equal smoothness on the sphere; eigenvalue ratio tends to 1/(2 pi)"),
    "mean_shift_constant": lambda: dict(
        true_model=_exp_model("matern(1,0.5,1)+mean0"),
        wrong_model=_exp_model("matern(1,0.5,1)+mean1", mean=constant_mean(1.0)),
        limit_a=1.0,
        notes=("shared kernel, constant mean shift: the mean term decays as the "
               "design accumulates")),
    "mean_shift_kink": lambda: dict(
        true_model=_exp_model("matern(1,0.5,1)+mean0"),
        wrong_model=_exp_model("matern(1,0.5,1)+kink", mean=kink_mean(DEFAULT_X_STAR, 0.2)),
        limit_a=1.0,
        notes=("shared kernel, |x - x*|^0.2 mean shift: a rough mean stressing the "
               "mean term; values are reported without a pass/fail claim")),
}

SCENARIO_NAMES = tuple(_BUILTINS)


def _builtin_fields(name: str) -> dict:
    if name not in _BUILTINS:
        raise DomainError(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    return _BUILTINS[name]()


def builtin_models(name: str) -> tuple[GaussianModel, GaussianModel]:
    """The true and working models of the built-in scenario ``name`` alone."""
    fields = _builtin_fields(name)
    return fields["true_model"], fields["wrong_model"]


def builtin_scenario(name: str, n_schedule=None) -> Scenario:
    """The built-in scenario ``name`` on ``n_schedule`` (DEFAULT_SCHEDULE when
    omitted), probed at the default targets of DEFAULT_SCHEDULE's last level."""
    fields = _builtin_fields(name)
    gen = default_design(common_domain(fields["true_model"], fields["wrong_model"]))
    return Scenario(name=name, design_generator=gen,
                    targets=default_targets(gen, DEFAULT_SCHEDULE[-1]),
                    n_schedule=DEFAULT_SCHEDULE if n_schedule is None else n_schedule,
                    **fields)
