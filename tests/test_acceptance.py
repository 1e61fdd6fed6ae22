"""Acceptance suite: one test per criterion, one printed line per criterion.

Tolerances marked as regression goldens were pinned from calibration runs of
this implementation (including a 512-site dense-design oracle for the
convergence criteria); the analytic tolerances come straight from closed
forms.
"""

import math
import time
import warnings

import numpy as np
import pytest

from misspec_krige.diagnostics import (LimitKind, eigen_ratio_limit, nystrom_eigen,
                                       t_a_tail_spectrum)
from misspec_krige.harness import SCENARIO_NAMES, builtin_scenario, generate_design, run_scenario
from misspec_krige.kernels import (
    MaternKernel,
    MaternParams,
    PeriodicKernel,
    PeriodicSpectrum,
    SphereLegendreParams,
    SphereSpdeParams,
    Torus,
    matern_cov,
)
from misspec_krige.kriging import (
    Design,
    GaussianModel,
    TargetFunctional,
    constant_mean,
    linear_mean,
    zero_mean,
)
from misspec_krige.ratios import RATIO_NAMES, SUP_TARGET_ID, efficiency_ratios, mean_term

from closed_forms import (bessel_k, legendre_p, mean_shift_identity_check,
                          mercer_reconstruction, sphere_eigen_ratio)

ACCEPTANCE_LOG: list[str] = []

# regression goldens pinned from the calibration runs (deterministic given
# the default scenario parameters)
GOLDEN_SAME_NU_R3_DEV = {8: 0.1356633462213388, 64: 0.00012414037845376313}
GOLDEN_SAME_NU_R1_DEV = {8: 0.010957748713252391, 64: 5.278700960786864e-07}
GOLDEN_DIFF_NU_R1 = {8: 2.9035275077384957, 64: 4.054985046424351}
GOLDEN_REL = 1e-6


def _report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LOG.append(f"criterion {criterion:2d}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _run(name, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_scenario(builtin_scenario(name), **kwargs)


def test_criterion_01_identity_exactness():
    start = time.monotonic()
    res = _run("identical")
    elapsed = time.monotonic() - start
    worst = 0.0
    for rec in res.table.records:
        for name in RATIO_NAMES:
            worst = max(worst, abs(rec.value(name) - 1.0))
        worst = max(worst, rec.mean_term)
    _report(1, worst <= 1e-10 and elapsed < 5.0,
            f"identical scenario: max deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_scaling_exactness():
    res = _run("scaled_kernel")
    worst = 0.0
    for rec in res.table.records:
        worst = max(worst, abs(rec.r_var_1 - 1.0), abs(rec.r_var_2 - 1.0),
                    abs(rec.r_var_3 - 4.0), abs(rec.r_var_4 - 0.25))
    _report(2, worst <= 1e-10,
            f"4x-scaled working covariance: max deviation {worst:.2e}")


def test_criterion_03_matern_microergodic_limit():
    start = time.monotonic()
    res = _run("matern_same_nu")
    elapsed = time.monotonic() - start
    d3 = {n: res.table.sup_record(n).deviations["r_var_3"] for n in (8, 64)}
    d1 = {n: abs(res.table.sup_record(n).r_var_1 - 1.0) for n in (8, 64)}
    ok = (d3[64] < 0.5 * d3[8] and d1[64] < d1[8] and elapsed < 30.0)
    for n in (8, 64):
        ok = ok and d3[n] == pytest.approx(GOLDEN_SAME_NU_R3_DEV[n], rel=GOLDEN_REL)
        ok = ok and d1[n] == pytest.approx(GOLDEN_SAME_NU_R1_DEV[n], rel=GOLDEN_REL)
    _report(3, ok,
            f"SUP|r_var_3 - 2|: {d3[8]:.4f} -> {d3[64]:.6f}; "
            f"SUP|r_var_1 - 1|: {d1[8]:.4f} -> {d1[64]:.2e}; {elapsed:.1f} s")


def test_criterion_03b_dense_design_oracle():
    """512-site dense design pins the limit the schedule is converging to."""
    true = GaussianModel(zero_mean, MaternKernel(MaternParams(1, 0.5, 1)), "t")
    wrong = GaussianModel(zero_mean, MaternKernel(MaternParams(2, 0.5, 0.5)), "w")
    dense = Design((np.arange(1, 513) / 513.0)[:, None])
    targets = [TargetFunctional.point([(i + 0.618) / 17], label=f"t{i}")
               for i in range(16)]
    recs = efficiency_ratios(dense, targets, true, wrong, limit_a=2.0)
    dev = recs[-1].deviations["r_var_3"]
    _report(3, dev < 1e-5, f"dense 512-site oracle: SUP|r_var_3 - 2| = {dev:.2e}")


def test_criterion_04_matern_smoothness_mismatch():
    res = _run("matern_diff_nu")
    r1 = {n: res.table.sup_record(n).r_var_1 for n in (8, 64)}
    ok = r1[64] > 1.2 and r1[64] >= r1[8]
    for n in (8, 64):
        ok = ok and r1[n] == pytest.approx(GOLDEN_DIFF_NU_R1[n], rel=GOLDEN_REL)
    _report(4, ok, f"SUP r_var_1 stays away from 1: {r1[8]:.3f} -> {r1[64]:.3f}")


def test_criterion_05_periodic_eigen_ratio():
    base = lambda k: (1.0 + float(k[0]) ** 2) ** -2.0
    bumped = lambda k: 3.0 * base(k) * (1.0 + 1.0 / (1.0 + abs(float(k[0]))))
    g = PeriodicSpectrum.from_callable(base, dim=1, k_max=5000).eigen_sequence()
    g_t = PeriodicSpectrum.from_callable(bumped, dim=1, k_max=5000).eigen_sequence()
    verdict = eigen_ratio_limit(g, g_t)
    ok = (verdict.kind is LimitKind.CONVERGES
          and abs(verdict.a_estimate - 3.0) < 1e-2)
    _report(5, ok, f"lattice spectra ratio: {verdict.kind.value}"
            + (f", a = {verdict.a_estimate:.5f}" if verdict.a_estimate else ""))


def test_criterion_06_sphere_limit():
    p1 = SphereLegendreParams(sigma1=1.0, nu1=1.0, kappa1=1.0)
    p2 = SphereSpdeParams(tau=1.0, nu=1.0, kappa=1.0)
    want = 1.0 / (2.0 * math.pi)
    at_2000 = sphere_eigen_ratio(p1, p2, 2000)
    verdict = eigen_ratio_limit(p1.eigen_sequence(2000), p2.eigen_sequence(2000))
    ok = (abs(at_2000 - want) < 1e-3
          and verdict.kind is LimitKind.CONVERGES
          and abs(verdict.a_estimate - want) < 1e-2)
    _report(6, ok, f"degree-2000 ratio {at_2000:.6f} vs 1/(2 pi) = {want:.6f}; "
            f"tail estimate {verdict.a_estimate:.6f}")


def test_criterion_07_mean_shift_identity():
    kern = MaternKernel(MaternParams(1.0, 0.5, 1.0))
    base = GaussianModel(zero_mean, kern, "m0")
    shifts = [GaussianModel(constant_mean(1.0), kern, "const"),
              GaussianModel(linear_mean(0.4, 1.7), kern, "linear")]
    target = TargetFunctional.point([0.415])
    worst = 0.0
    for n in (1, 4, 16):
        design = Design((np.arange(1, n + 1) / (n + 1.0))[:, None])
        for shifted in shifts:
            worst = max(worst, mean_shift_identity_check(
                target, design, base, shifted))
    _report(7, worst <= 1e-10,
            f"predictor mean-shift identity: max deviation {worst:.2e}")


def test_criterion_08_mean_term_vanishing():
    res = _run("mean_shift_constant")
    acc = {rec.n: rec.mean_term for rec in res.table.records
           if rec.target_id == "acc"}
    scenario = builtin_scenario("mean_shift_constant")
    design1 = generate_design(scenario.design_generator, 1)
    target = [t for t in scenario.targets if t.label == "acc"][0]
    got1 = mean_term(design1, target, scenario.true_model, scenario.wrong_model)
    d = abs(design1.sites[0, 0] - target.sites[0, 0])
    want1 = (1.0 - math.exp(-d)) / (1.0 + math.exp(-d))
    ok = acc[64] < 0.25 * acc[8] and got1 == pytest.approx(want1, abs=1e-10)
    _report(8, ok, f"mean term at accumulation site: {acc[8]:.3e} -> {acc[64]:.3e}; "
            f"n=1 closed form matches to {abs(got1 - want1):.1e}")


def test_criterion_09_special_functions():
    rs = np.logspace(-4, 1, 200)
    worst = 0.0
    # half-integer covariances against closed forms
    closed = {0.5: lambda x: np.exp(-x),
              1.5: lambda x: (1.0 + x) * np.exp(-x),
              2.5: lambda x: (1.0 + x + x * x / 3.0) * np.exp(-x)}
    for nu, form in closed.items():
        p = MaternParams(1.0, nu, 1.0)
        worst = max(worst, float(np.max(np.abs(matern_cov(rs, p) - form(rs)))))
    # half-integer Bessel against closed forms
    k_half = np.sqrt(np.pi / (2.0 * rs)) * np.exp(-rs)
    worst = max(worst, float(np.max(np.abs(bessel_k(0.5, rs) - k_half)
                                    / np.abs(k_half))))
    k_32 = k_half * (1.0 + 1.0 / rs)
    worst = max(worst, float(np.max(np.abs(bessel_k(1.5, rs) - k_32)
                                    / np.abs(k_32))))
    # recurrence vs explicit polynomials
    explicit = {
        2: lambda y: (3 * y ** 2 - 1) / 2,
        3: lambda y: (5 * y ** 3 - 3 * y) / 2,
        4: lambda y: (35 * y ** 4 - 30 * y ** 2 + 3) / 8,
        5: lambda y: (63 * y ** 5 - 70 * y ** 3 + 15 * y) / 8,
        6: lambda y: (231 * y ** 6 - 315 * y ** 4 + 105 * y ** 2 - 5) / 16,
    }
    ys = np.linspace(-1, 1, 41)
    for ell, poly in explicit.items():
        worst = max(worst, float(np.max(np.abs(legendre_p(ell, ys) - poly(ys)))))
    _report(9, worst <= 1e-10, f"special functions: max deviation {worst:.2e}")


def test_criterion_10_nystrom_fidelity():
    kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1))
    nodes, weights = Torus().quadrature(64)
    eig = nystrom_eigen(kern, nodes, weights, rank_cutoff=1e-9)
    eig_err = float(np.max(np.abs(eig.eigenvalues - np.array([1.0, 0.5, 0.5]))))
    mercer_err = float(np.max(np.abs(mercer_reconstruction(eig)
                                     - kern.gram(nodes))))
    ok = eig.rank == 3 and eig_err <= 1e-6 and mercer_err <= 1e-6
    _report(10, ok, f"eigenvalues off by {eig_err:.1e}, "
            f"node reconstruction off by {mercer_err:.1e}")


def test_criterion_11_ratio_invariants_all_scenarios():
    worst_chain, worst_floor, worst_split = 0.0, 0.0, 0.0
    for name in SCENARIO_NAMES:
        res = _run(name)
        for rec in res.table.records:
            if rec.target_id == SUP_TARGET_ID:
                continue  # componentwise maxima need not satisfy the identities
            floor_gap = min(rec.r_var_1, rec.r_var_2, rec.r_mom_1, rec.r_mom_2) - 1.0
            worst_floor = min(worst_floor, floor_gap)
            chain = rec.r_var_4 * rec.r_var_3 / rec.r_var_2
            worst_chain = max(worst_chain,
                              abs(chain - rec.r_var_1) / max(1.0, rec.r_var_1))
            split = abs(rec.r_mom_3 - (rec.r_var_3 + rec.mean_term))
            worst_split = max(worst_split, split / max(1.0, rec.r_mom_3))
    ok = worst_floor >= -1e-10 and worst_chain <= 1e-10 and worst_split <= 1e-10
    _report(11, ok, f"floors >= 1 - {abs(worst_floor):.1e}; chain identity off by "
            f"{worst_chain:.1e}; moment split off by {worst_split:.1e}")


def test_criterion_12_whitened_tail_sanity():
    base = lambda k: (1.0 + float(k[0]) ** 2) ** -2.0
    spec = PeriodicSpectrum.from_callable(base, dim=1, k_max=32)
    nodes, weights = Torus().quadrature(128)
    # working covariance = a * truth: the whitened image vanishes
    scaled = PeriodicSpectrum.from_callable(lambda k: 3.0 * base(k), dim=1, k_max=32)
    zero_img = t_a_tail_spectrum(PeriodicKernel(spec), PeriodicKernel(scaled),
                                 nodes, weights, a=3.0, basis_size=32)
    # eigenvalue ratio 3 (1 + 1/(1+|k|)) with a = 3: tail decays
    wobble = PeriodicSpectrum.from_callable(
        lambda k: 3.0 * base(k) * (1.0 + 1.0 / (1.0 + abs(float(k[0])))),
        dim=1, k_max=32)
    decay = t_a_tail_spectrum(PeriodicKernel(spec), PeriodicKernel(wobble),
                              nodes, weights, a=3.0, basis_size=32)
    ok = (zero_img.max_abs <= 1e-8
          and decay.last_quartile_max() < 0.1 * decay.max_abs)
    _report(12, ok, f"proportional pair image {zero_img.max_abs:.1e}; "
            f"tail quartile {decay.last_quartile_max():.3f} vs max {decay.max_abs:.3f}")
