"""Domain geometry: each domain checks its own points and builds its own
quadrature rule."""

import itertools
import math

import numpy as np
import pytest

from misspec_krige.errors import DomainError
from misspec_krige.kernels import (
    Box,
    EigenSequence,
    GreatCircleMaternKernel,
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
from misspec_krige.kernels.base import as_points, fibonacci_sphere_grid


def assert_rule_equal(rule, reference):
    np.testing.assert_array_equal(rule[0], reference[0])
    np.testing.assert_array_equal(rule[1], reference[1])


def trapezoid(n, lower=0.0, upper=1.0):
    """The n-node trapezoid rule on [lower, upper], endpoints included."""
    h = (upper - lower) / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    return np.linspace(lower, upper, n)[:, None], weights


def rectangle_rule(side, dim=1):
    """The rule with nodes k / side, k = 0 .. side - 1, on each axis of [0, 1)^dim,
    the last axis varying fastest, and equal weights."""
    nodes = np.array(list(itertools.product(np.arange(side) / side, repeat=dim)))
    return nodes, np.full(side ** dim, 1.0 / side ** dim)


class TestPoints:
    @pytest.mark.parametrize("domain, x, shape", [
        (Box(), 0.5, (1, 1)),
        (Box(), [0.0, 0.25, 1.0], (3, 1)),
        (Box((0.0, -1.0), (1.0, 1.0)), [0.5, -1.0], (1, 2)),
        (Torus(1), [[0.0], [1.0]], (2, 1)),
        (Torus(2), [0.3, 0.7], (1, 2)),
        (UnitSphere(), [0.0, 0.6, 0.8], (1, 3)),
    ])
    def test_members_coerced_to_rows(self, domain, x, shape):
        pts = domain.points(x)
        assert pts.shape == shape and pts.dtype == float
        np.testing.assert_array_equal(pts.ravel(), np.ravel(x))

    def test_float_rows_pass_through_unchanged(self):
        x = np.array([[0.1], [0.9]])
        assert Box().points(x) is x and Torus().points(x) is x

    @pytest.mark.parametrize("domain, x, message", [
        (Box(), [[0.2], [0.3], [1.5], [2.0]], "point [1.5] lies outside the box [0, 1]"),
        (Box(), [-0.1], "point [-0.1] lies outside the box [0, 1]"),
        (Box((0.0, 0.0), (1.0, 2.0)), [[0.5, 2.5]],
         "point [0.5, 2.5] lies outside the box [0, 1] x [0, 2]"),
        (Torus(1), [[0.5], [1.5]], "point [1.5] lies outside the torus [0, 1]"),
        (Torus(2), [[0.5, -0.25]], "point [0.5, -0.25] lies outside the torus [0, 1] x [0, 1]"),
        (UnitSphere(), [[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]],
         "point [0.0, 0.0, 1.1] is not a unit vector (norm must be within 1e-10 of 1)"),
    ])
    def test_non_members_named(self, domain, x, message):
        with pytest.raises(DomainError) as info:
            domain.points(x)
        assert str(info.value) == message

    @pytest.mark.parametrize("domain, x", [
        (Box(), [[math.nan]]), (Torus(1), [[math.nan]]), (Torus(2), [[0.5, math.inf]]),
        (UnitSphere(), [[math.nan, 0.0, 0.0]])])
    def test_non_finite_points_rejected(self, domain, x):
        with pytest.raises(DomainError):
            domain.points(x)

    def test_torus_slack(self):
        Torus(1).points([[-1e-12], [1.0 + 1e-12]])
        for outside in (-1e-11, 1.0 + 1e-11):
            with pytest.raises(DomainError):
                Torus(1).points([[outside]])

    def test_box_has_no_slack(self):
        with pytest.raises(DomainError):
            Box().points([[1.0 + 1e-15]])

    def test_unit_norm_tolerance(self):
        UnitSphere().points([[0.0, 0.0, 1.0 + 5e-11]])
        with pytest.raises(DomainError):
            UnitSphere().points([[0.0, 0.0, 1.0 + 1e-9]])

    @pytest.mark.parametrize("domain, x", [
        (Box(), [[0.1, 0.2]]), (Torus(2), [[0.1], [0.2]]), (UnitSphere(), [[0.6, 0.8]])])
    def test_wrong_dimension_rejected(self, domain, x):
        with pytest.raises(DomainError, match=f"expected points of dimension {domain.dim}"):
            domain.points(x)


class TestKernelsAskTheDomain:
    def test_periodic(self):
        kern = PeriodicKernel(PeriodicSpectrum.from_coeffs({0: 1.0, 1: 0.5}))
        with pytest.raises(DomainError, match=r"point \[1.5\] lies outside the torus"):
            kern.gram([[0.2], [1.5]])
        with pytest.raises(DomainError, match=r"point \[-0.5\] lies outside the torus"):
            kern.gram([[0.2]], [[-0.5]])

    @pytest.mark.parametrize("kernel", [
        MaternKernel(MaternParams(1.0, 1.5, 2.0, dim=3), UnitSphere()),
        GreatCircleMaternKernel(MaternParams(1.0, 0.5, 2.0, dim=3))])
    def test_sphere_matern(self, kernel):
        north = [[0.0, 0.0, 1.0]]
        with pytest.raises(DomainError, match="is not a unit vector"):
            kernel.gram([[0.0, 0.0, 2.0]])
        with pytest.raises(DomainError, match="is not a unit vector"):
            kernel.gram(north, [[0.0, 0.5, 0.5]])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_periodic_torus_follows_the_spectrum(self, dim):
        kern = PeriodicKernel(PeriodicSpectrum.from_callable(lambda k: 1.0, dim=dim, k_max=2))
        assert kern.domain == Torus(dim)
        with pytest.raises(AttributeError):
            kern.domain = Torus(dim + 1)

    @pytest.mark.parametrize("kernel_class, params", [
        (SphereSeriesKernel, SphereLegendreParams(1.0, 1.0, 1.0)),
        (GreatCircleMaternKernel, MaternParams(1.0, 0.5, 2.0, dim=3))],
        ids=["sphere-series", "great-circle"])
    def test_sphere_kernels_take_no_domain(self, kernel_class, params):
        # the sphere is the only domain these families are defined on
        assert kernel_class(params).domain == UnitSphere()
        with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
            kernel_class(params, Box())
        with pytest.raises(TypeError, match="unexpected keyword argument 'domain'"):
            kernel_class(params, domain=UnitSphere())

    def test_matern_gram_checks_its_box(self):
        kern = MaternKernel(MaternParams(1.0, 0.5, 1.0))
        with pytest.raises(DomainError, match=r"point \[2.0\] lies outside the box \[0, 1\]"):
            kern.gram([[0.0], [2.0]])
        wide = MaternKernel(MaternParams(1.0, 0.5, 1.0), Box((0.0,), (2.0,)))
        assert wide.gram([[0.0], [2.0]])[0, 1] == pytest.approx(math.exp(-2.0))


class TestQuadrature:
    @pytest.mark.parametrize("n", [2, 33, 128])
    def test_box_trapezoid(self, n):
        assert_rule_equal(Box().quadrature(n), trapezoid(n))
        assert_rule_equal(Box((-1.0,), (2.0,)).quadrature(n), trapezoid(n, -1.0, 2.0))

    def test_box_above_one_dimension_rejected(self):
        with pytest.raises(DomainError, match="1-d boxes only"):
            Box((0.0, 0.0), (1.0, 1.0)).quadrature(16)

    def test_box_needs_two_nodes(self):
        with pytest.raises(DomainError, match="need at least 2 nodes"):
            Box().quadrature(1)

    @pytest.mark.parametrize("n", [2, 33, 128, 2048])
    def test_one_dimensional_torus_exact(self, n):
        assert_rule_equal(Torus(1).quadrature(n, exact=True), rectangle_rule(n))

    @pytest.mark.parametrize("dim, n, side", [
        (2, 128, 11), (2, 33, 6), (2, 2048, 45), (3, 2048, 13), (3, 128, 5), (3, 2, 2)])
    def test_torus_rounds_per_axis(self, dim, n, side):
        assert_rule_equal(Torus(dim).quadrature(n), rectangle_rule(side, dim))

    @pytest.mark.parametrize("dim, n, nearest", [
        (2, 2048, "2025, 2116"), (3, 2048, "1728, 2197"), (2, 3, "4"), (2, 10, "9, 16"),
        (3, 126, "125, 216")])
    def test_torus_exact_names_nearest_counts(self, dim, n, nearest):
        with pytest.raises(DomainError) as info:
            Torus(dim).quadrature(n, exact=True)
        assert str(info.value) == (f"a {dim}-d torus grid has k^{dim} nodes for an integer "
                                   f"k >= 2, so not {n}; nearest valid counts: {nearest}")

    @pytest.mark.parametrize("dim, side", [(2, 45), (3, 5), (3, 12)])
    def test_torus_exact_powers_accepted(self, dim, side):
        assert_rule_equal(Torus(dim).quadrature(side ** dim, exact=True),
                          rectangle_rule(side, dim))

    @pytest.mark.parametrize("n", [2, 33, 128])
    def test_sphere_fibonacci(self, n):
        assert_rule_equal(UnitSphere().quadrature(n, exact=True), fibonacci_sphere_grid(n))

    @pytest.mark.parametrize("domain", [Box(), Torus(1), Torus(2), UnitSphere()])
    def test_nodes_are_points_of_their_domain(self, domain):
        nodes, weights = domain.quadrature(64)
        assert domain.points(nodes) is nodes
        assert np.all(weights > 0)


class TestRejectedInputs:
    @pytest.mark.parametrize("make, message", [
        (lambda: Box((0.0, 0.0), (1.0,)), "box bounds have mismatched dimensions"),
        (lambda: Box((0.0, 1.0), (1.0, 1.0)), "box bounds must satisfy lower < upper"),
        (lambda: Box((2.0,), (1.0,)), "box bounds must satisfy lower < upper"),
        (lambda: Torus(dim=0), "torus dimension must be >= 1"),
        (lambda: fibonacci_sphere_grid(1), "need at least 2 nodes"),
        (lambda: as_points([0.1, 0.2], 3), "cannot interpret shape (2,) as points in R^3"),
        (lambda: as_points(np.zeros((2, 2, 1)), 1),
         "expected points of dimension 1, got shape (2, 2, 1)"),
        (lambda: EigenSequence([]), "eigenvalue sequence must be a nonempty 1-d array"),
        (lambda: EigenSequence([[1.0, 0.5]]), "eigenvalue sequence must be a nonempty 1-d array"),
        (lambda: EigenSequence([1.0, 0.0]), "eigenvalues must be finite and strictly positive"),
        (lambda: EigenSequence([1.0, -0.5]), "eigenvalues must be finite and strictly positive"),
        (lambda: EigenSequence([1.0, math.nan]), "eigenvalues must be finite and strictly positive"),
        (lambda: EigenSequence([math.inf]), "eigenvalues must be finite and strictly positive"),
    ], ids=["box-dims", "box-flat-axis", "box-reversed", "torus-dim-0", "fibonacci-one-node",
            "points-vector", "points-3d-array", "eigen-empty", "eigen-2d", "eigen-zero",
            "eigen-negative", "eigen-nan", "eigen-inf"])
    def test_message(self, make, message):
        with pytest.raises(DomainError) as exc:
            make()
        assert str(exc.value) == message


class TestIntegerFields:
    @pytest.mark.parametrize("params", [SphereLegendreParams, SphereSpdeParams])
    @pytest.mark.parametrize("value", [6.5, "7", True, 0, -3, None])
    def test_sphere_l_max_rejected(self, params, value):
        with pytest.raises(DomainError, match=f"l_max must be an integer >= 1, got {value!r}"):
            params(1.0, 1.0, 1.0, l_max=value)

    @pytest.mark.parametrize("params", [SphereLegendreParams, SphereSpdeParams])
    def test_sphere_whole_float_l_max_accepted(self, params):
        p = params(1.0, 1.0, 1.0, l_max=6.0)
        assert p.l_max == 6 and isinstance(p.l_max, int)

    @pytest.mark.parametrize("value", [1.5, True, "1", 0])
    def test_matern_dim_rejected(self, value):
        with pytest.raises(DomainError, match=f"dim must be an integer >= 1, got {value!r}"):
            MaternParams(1.0, 0.5, 1.0, dim=value)

    def test_matern_whole_float_dim_accepted(self):
        p = MaternParams(1.0, 0.5, 1.0, dim=3.0)
        assert p.dim == 3 and isinstance(p.dim, int)
