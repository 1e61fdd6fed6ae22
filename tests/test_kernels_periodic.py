"""Torus covariances and their trigonometric eigenstructure."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misspec_krige.errors import DomainError
from misspec_krige.harness import DesignGenerator, generate_design
from misspec_krige.kernels import PeriodicKernel, PeriodicSpectrum, Torus
from misspec_krige.kernels import periodic


def rational_spectrum(k_max=8):
    return PeriodicSpectrum.from_callable(
        lambda k: (1.0 + float(k[0]) ** 2) ** -2.0, dim=1, k_max=k_max)


class TestPeriodicCov:
    def test_diagonal_is_total_mass(self):
        s = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5, 3: 0.25}, dim=1)
        x = np.array([0.3])
        assert PeriodicKernel(s)(x, x) == pytest.approx(1.0 + 2 * 0.5 + 2 * 0.25, rel=1e-14)

    def test_three_term_example(self):
        # f(0)=1, f(+-1)=0.5, lag 0.25: 1 + 2*0.5*cos(pi/2) = 1
        s = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}, dim=1)
        got = PeriodicKernel(s)(np.array([0.5]), np.array([0.25]))
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_shift_invariance(self):
        s = rational_spectrum()
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, lag, shift = rng.uniform(0.0, 0.4, size=3)
            a = PeriodicKernel(s)(np.array([x]), np.array([x + lag]))
            b = PeriodicKernel(s)(np.array([x + shift]), np.array([x + shift + lag]))
            assert b == pytest.approx(a, rel=1e-12, abs=1e-13)

    def test_periodic_wraparound(self):
        s = rational_spectrum()
        near_one = PeriodicKernel(s)(np.array([0.02]), np.array([0.98]))
        small_lag = PeriodicKernel(s)(np.array([0.5]), np.array([0.54]))
        assert near_one == pytest.approx(small_lag, rel=1e-12)

    def test_symmetry(self):
        s = rational_spectrum()
        x, y = np.array([0.11]), np.array([0.73])
        assert PeriodicKernel(s)(x, y) == PeriodicKernel(s)(y, x)

    def test_asymmetric_mass_rejected(self):
        with pytest.raises(DomainError):
            PeriodicSpectrum.from_callable(lambda k: 1.0 if k[0] >= 0 else 2.0,
                                           dim=1, k_max=4)

    @pytest.mark.parametrize("field, value", [
        ("k_max", 2.5), ("k_max", True), ("k_max", "abc"), ("k_max", 0),
        ("dim", 2.5), ("dim", True), ("dim", 0)])
    def test_lattice_sizes_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer >= 1, got {value!r}"):
            PeriodicSpectrum.from_callable(lambda k: 1.0, **{field: value})

    def test_k_max_below_a_listed_index_rejected(self):
        with pytest.raises(DomainError, match="k_max = 2 would drop the listed index of max-norm 5"):
            PeriodicSpectrum.from_coeffs({0: 1.0, 5: 0.5}, k_max=2)

    def test_whole_float_lattice_sizes_accepted(self):
        s = PeriodicSpectrum.from_callable(lambda k: 1.0, dim=2.0, k_max=3.0)
        assert (s.dim, s.k_max) == (2, 3)
        assert PeriodicSpectrum.from_coeffs({1: 0.5}, k_max=2.0).k_max == 2

    def test_out_of_domain_points(self):
        s = rational_spectrum()
        with pytest.raises(DomainError):
            PeriodicKernel(s)(np.array([1.5]), np.array([0.2]))

    @pytest.mark.parametrize("y", [None, [[0.2]]])
    def test_nan_point_rejected(self, y):
        with pytest.raises(DomainError, match="lies outside the torus"):
            PeriodicKernel(rational_spectrum()).gram([[0.1], [math.nan]], y)

    def test_equal_spectra_hash_equal(self):
        # -0.0 == 0.0, so the spectra are equal, and so must be their hashes
        a = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5, 2: 0.0})
        b = PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5, 2: -0.0})
        assert a == b and hash(a) == hash(b)
        assert len({PeriodicKernel(a), PeriodicKernel(b)}) == 1

    def test_one_mass_per_representative(self):
        with pytest.raises(DomainError, match="need 2 masses, one per representative"):
            PeriodicSpectrum(dim=1, k_max=2, zero_mass=1.0, rep_masses=(0.5,))

    @pytest.mark.parametrize("zero_mass, rep_mass", [
        (math.nan, 0.5), (math.inf, 0.5), (-1.0, 0.5), (1.0, math.nan), (1.0, -0.5)],
        ids=["zero-nan", "zero-inf", "zero-negative", "rep-nan", "rep-negative"])
    def test_non_finite_or_negative_mass_rejected(self, zero_mass, rep_mass):
        # a NaN or inf mass would make every Gram entry NaN or inf
        with pytest.raises(DomainError) as direct:
            PeriodicSpectrum(dim=1, k_max=1, zero_mass=zero_mass, rep_masses=(rep_mass,))
        with pytest.raises(DomainError) as listed:
            PeriodicSpectrum.from_coeffs({0: zero_mass, 1: rep_mass})
        for exc in (direct, listed):
            assert str(exc.value) == "spectral masses must be finite and nonnegative"

    @pytest.mark.parametrize("mass", [math.inf, -math.inf, math.nan])
    def test_non_finite_mass_rejected_before_the_evenness_check(self, mass):
        # inf - inf in the evenness check would warn before the rejection
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as exc:
                PeriodicSpectrum.from_coeffs({0: 1.0, 1: mass})
        assert str(exc.value) == "spectral masses must be finite and nonnegative"

    def test_non_finite_mirror_mass_is_not_even(self):
        with pytest.raises(DomainError, match=r"not even: f\(\(1,\)\) != f\(-\(1,\)\)"):
            PeriodicSpectrum.from_callable(lambda k: 0.5 if k[0] >= 0 else math.nan, k_max=1)

    def test_negative_zero_mass_accepted(self):
        assert PeriodicSpectrum.from_coeffs({0: -0.0, 1: 0.5}).eigen_sequence().values.tolist() \
            == [0.5, 0.5]

    @pytest.mark.parametrize("coeffs, dim, message", [
        ({(0, 1): 1.0}, 1, "index (0, 1) does not match dim=1"),
        ({1: 0.5, -1: 0.25}, 1, "conflicting masses for the index pair +-(1,)"),
        ({(1.5,): 0.5}, 1, "lattice index (1.5,) is not an integer or a tuple of them"),
        ({(True, 2.9): 0.5}, 2,
         "lattice index (True, 2.9) is not an integer or a tuple of them"),
        ({"1": 0.5}, 1, "lattice index '1' is not an integer or a tuple of them"),
    ], ids=["index-dim", "conflicting-pair", "fraction", "bool-and-fraction", "string"])
    def test_bad_coeffs_rejected(self, coeffs, dim, message):
        with pytest.raises(DomainError) as exc:
            PeriodicSpectrum.from_coeffs(coeffs, dim=dim)
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", [np.int64(1), 1.0, (1,), (np.int32(-1),), (1.0,)],
                             ids=["numpy-int", "whole-float", "tuple", "numpy-tuple",
                                  "whole-float-tuple"])
    def test_whole_number_lattice_indices_accepted(self, key):
        assert PeriodicSpectrum.from_coeffs({0: 1.0, key: 0.5}) \
            == PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5})


class TestEigenSequence:
    def test_canonical_order_d1(self):
        seq = rational_spectrum(k_max=3).eigen_sequence()
        want = [1.0, 0.25, 0.25, 0.04, 0.04, 0.01, 0.01]
        np.testing.assert_allclose(seq.values, want, rtol=1e-14)

    def test_all_positive(self):
        seq = rational_spectrum(k_max=32).eigen_sequence()
        assert np.all(seq.values > 0)

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


def rational_kernel(dim=1, k_max=None):
    return PeriodicKernel(PeriodicSpectrum.from_callable(
        lambda k: (1.0 + sum(c * c for c in k)) ** -2.0, dim=dim, k_max=k_max))


def reference_gram(kern, x):
    """The square Gram by the direct formula: one cosine per pair and index."""
    x = np.asarray(x, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    phase = 2.0 * np.pi * diff @ kern.spectrum.rep_indices.T
    return 2.0 * np.cos(phase) @ kern.spectrum.rep_masses + kern.spectrum.zero_mass


class TestSquareGram:
    """gram(x) evaluates one cosine per distinct difference up to sign and must
    give the bits of the direct formula."""

    def assert_reference(self, kern, x):
        assert np.array_equal(kern.gram(x), reference_gram(kern, x))

    def test_equispaced_designs(self):
        kern = rational_kernel()
        gen = DesignGenerator.equispaced(domain=Torus())
        for n in range(1, 130):
            self.assert_reference(kern, generate_design(gen, n).sites)

    @pytest.mark.parametrize("n", [2, 17, 64, 128])
    def test_torus_grid_and_halton(self, n):
        kern = rational_kernel()
        self.assert_reference(kern, Torus().quadrature(n)[0])
        self.assert_reference(kern, generate_design(DesignGenerator.halton(Torus()), n).sites)

    def test_random_sets_and_signed_zero(self):
        kern = rational_kernel(k_max=16)
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 31, 100):
            self.assert_reference(kern, rng.uniform(0.0, 1.0, (n, 1)))
        self.assert_reference(kern, np.array([[0.0], [1.0], [-0.0], [0.5], [0.0]]))

    @pytest.mark.parametrize("dim,k_max", [(2, 4), (2, 16), (3, 3)])
    def test_higher_dimensions(self, dim, k_max):
        kern = rational_kernel(dim, k_max)
        rng = np.random.default_rng(dim * 100 + k_max)
        for n in (1, 5, 40):
            self.assert_reference(kern, rng.uniform(0.0, 1.0, (n, dim)))
        self.assert_reference(kern, Torus(dim).quadrature(4 ** dim)[0])
        self.assert_reference(kern, generate_design(DesignGenerator.halton(Torus(dim)), 30).sites)
        # differences that agree up to the sign of one component only
        self.assert_reference(kern, np.array([[0.5] * dim, [0.6] + [0.7] * (dim - 1),
                                              [0.6] + [0.3] * (dim - 1)]))
        # column-major points, whose rows the byte keys must first make contiguous
        x = rng.uniform(0.0, 1.0, (25, dim))
        assert np.array_equal(kern.gram(np.asfortranarray(x)), kern.gram(x))

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 2), data=st.data())
    def test_property(self, dim, data):
        coords = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
        n = data.draw(st.integers(1, 12))
        x = np.array(data.draw(st.lists(coords, min_size=n * dim, max_size=n * dim)))
        self.assert_reference(rational_kernel(dim, 4), x.reshape(n, dim))

    def test_empty(self):
        assert rational_kernel().gram(np.empty((0, 1))).shape == (0, 0)

    def test_several_row_blocks(self):
        kern = rational_kernel()
        n, m = 203, len(kern.spectrum.rep_masses)
        rows = periodic._GRAM_BLOCK_ENTRIES // (n * m)
        assert 1 <= rows < n and n % rows != 0  # several blocks, the last one short
        x = np.random.default_rng(5).uniform(0.0, 1.0, (n, 1))
        assert np.array_equal(kern.gram(x), reference_gram(kern, x))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cross_rows_are_requests_of_their_own(self, dim):
        # a level stacks every target's sites into one cross request
        kern = rational_kernel(dim, 4 if dim == 2 else None)
        rng = np.random.default_rng(dim)
        x, y = rng.uniform(0.0, 1.0, (61, dim)), rng.uniform(0.0, 1.0, (97, dim))
        assert 1 <= periodic._GRAM_BLOCK_ENTRIES // (len(y) * len(kern.spectrum.rep_masses)) < 61
        cross = kern.gram(x, y)
        for i in range(len(x)):
            assert np.array_equal(cross[i:i + 1], kern.gram(x[i:i + 1], y))

    def test_cos_is_even_bitwise_over_the_phase_range(self):
        # |phase| <= 2 pi |k . delta| <= 2 pi k_max d with every |delta_i| <= 1,
        # at most 2 pi 64 for the default 1-d spectrum
        bound = 2.0 * np.pi * 128
        grid = (2.0 * np.pi * Torus().quadrature(128)[0] @ np.arange(1.0, 65.0)[None, :]).ravel()
        phases = np.concatenate([grid, np.random.default_rng(3).uniform(-bound, bound, 1 << 20)])
        assert np.array_equal(np.cos(phases), np.cos(-phases))

    def test_torus_grid_cosines_one_per_distinct_difference(self, monkeypatch):
        evaluated = []
        cos = np.cos

        def counting_cos(a, *args, **kwargs):
            evaluated.append(np.size(a))
            return cos(a, *args, **kwargs)
        monkeypatch.setattr(np, "cos", counting_cos)
        kern = rational_kernel()
        kern.gram(Torus().quadrature(128)[0])
        assert len(kern.spectrum.rep_masses) == 64
        assert sum(evaluated) <= 128 * 64
