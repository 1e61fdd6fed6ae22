"""Torus covariances and their trigonometric eigenstructure."""

import math

import numpy as np
import pytest

from misspec_krige.errors import DomainError
from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum, eigen_sequence_of, periodic_cov


def rational_spectrum(k_max=8):
    return PeriodicSpectrum.from_callable(
        lambda k: (1.0 + float(k[0]) ** 2) ** -2.0, dim=1, k_max=k_max)


class TestPeriodicCov:
    def test_diagonal_is_total_mass(self):
        s = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5, 3: 0.25}, dim=1)
        x = np.array([0.3])
        assert periodic_cov(x, x, s) == pytest.approx(1.0 + 2 * 0.5 + 2 * 0.25, rel=1e-14)
        assert s.total_mass == pytest.approx(2.5)

    def test_three_term_example(self):
        # f(0)=1, f(+-1)=0.5, lag 0.25: 1 + 2*0.5*cos(pi/2) = 1
        s = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1)
        got = periodic_cov(np.array([0.5]), np.array([0.25]), s)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_shift_invariance(self):
        s = rational_spectrum()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, lag, shift = rng.uniform(0.0, 0.4, size=3)
            a = periodic_cov(np.array([x]), np.array([x + lag]), s)
            b = periodic_cov(np.array([x + shift]), np.array([x + shift + lag]), s)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-13)

    def test_periodic_wraparound(self):
        s = rational_spectrum()
        near_one = periodic_cov(np.array([0.02]), np.array([0.98]), s)
        small_lag = periodic_cov(np.array([0.5]), np.array([0.54]), s)
        assert near_one == pytest.approx(small_lag, rel=1e-12)

    def test_symmetry(self):
        s = rational_spectrum()
        x, y = np.array([0.11]), np.array([0.73])
        assert periodic_cov(x, y, s) == periodic_cov(y, x, s)

    def test_asymmetric_mass_rejected(self):
        with pytest.raises(DomainError):
            PeriodicSpectrum.from_callable(lambda k: 1.0 if k[0] >= 0 else 2.0,
                                           dim=1, k_max=4)

    def test_out_of_domain_points(self):
        s = rational_spectrum()
        with pytest.raises(DomainError):
            periodic_cov(np.array([1.5]), np.array([0.2]), s)


class TestEigenSequence:
    def test_canonical_order_d1(self):
        seq = eigen_sequence_of(rational_spectrum(k_max=3))
        want = [1.0, 0.25, 0.25, 0.04, 0.04, 0.01, 0.01]
        np.testing.assert_allclose(seq.values, want, rtol=1e-14)

    def test_all_positive(self):
        seq = eigen_sequence_of(rational_spectrum(k_max=32))
        assert np.all(seq.values > 0)
        assert seq.accumulates_at_zero()

    def test_truncation_restriction(self):
        s = rational_spectrum(k_max=8)
        assert len(s.eigen_sequence(4)) == 9
        with pytest.raises(DomainError):
            s.eigen_sequence(16)

    def test_d2_shell_order(self):
        s = PeriodicSpectrum.from_callable(
            lambda k: 1.0 / (1.0 + k[0] ** 2 + k[1] ** 2) ** 2, dim=2, k_max=2)
        seq = s.eigen_sequence()
        # shell 1 representatives: (0,1), (1,-1), (1,0), (1,1) -> 8 entries after doubling
        assert seq.values[0] == pytest.approx(1.0)
        np.testing.assert_allclose(seq.values[1:3], [0.25, 0.25], rtol=1e-14)
        assert len(seq) == 1 + 2 * (4 + 8)

    @pytest.mark.parametrize("dim,k_max", [(1, 1), (1, 9), (2, 1), (2, 6), (3, 1), (3, 4)])
    def test_enumeration_matches_shell_scan(self, dim, k_max):
        """Same representatives, same order, as scanning each shell's cube."""
        from itertools import product
        from misspec_krige.kernels.periodic import _positive_representatives
        reps = []
        for shell in range(1, k_max + 1):
            reps.extend(sorted(
                k for k in product(range(-shell, shell + 1), repeat=dim)
                if max(abs(c) for c in k) == shell
                and next(c for c in k if c != 0) > 0))
        expected = np.array(reps, dtype=int).reshape(len(reps), dim)
        assert np.array_equal(_positive_representatives(dim, k_max), expected)

    def test_quadrature_eigenfunctions_match(self):
        """Discrete integral operator on an equispaced grid reproduces f(k)."""
        s = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5, 2: 0.125}, dim=1)
        kern = PeriodicKernel(s)
        n = 32
        grid = (np.arange(n) / n)[:, None]
        kmat = kern.gram(grid)
        for k, mass in ((0, 1.0), (1, 0.5), (2, 0.125)):
            e = np.cos(2 * math.pi * k * grid[:, 0])
            applied = kmat @ e / n
            np.testing.assert_allclose(applied, mass * e, atol=1e-12)
