import math
from math import exp, log, pi

import dual_reference
import numpy as np
import pytest
import quad_reference
import ronkin_reference

from zeta_heights import amoeba, constants, quad
from zeta_heights.amoeba import AmoebaPoint, RegionTag
from zeta_heights.errors import IllConditioned

ETA = constants.eta()
THETA = constants.theta()


def ronkin_2d_oracle(u1: float, u2: float, panels: int = 48) -> float:
    """Ronkin value by brute tensor-product quadrature over both circles.

    Slow and independent of the single-integral reduction used by
    amoeba.ronkin; accuracy is limited by the log singularity along a curve
    when u is inside the amoeba.
    """
    edges = np.linspace(0.0, 1.0, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    s = (centers[:, None] + (0.5 / panels) * quad.NODES[None, :]).ravel()
    w = np.tile(quad.KRONROD_WEIGHTS, panels) * (0.5 / panels)
    z1 = exp(-u1) * np.exp(2j * pi * s)
    z2 = exp(-u2) * np.exp(2j * pi * s)
    vals = np.log(np.abs(1.0 + z1[:, None] + z2[None, :]))
    return -float(w @ vals @ w)


class TestMembership:
    def test_origin_inside(self):
        assert amoeba.contains(AmoebaPoint(0.0, 0.0))

    def test_far_west_outside(self):
        assert not amoeba.contains(AmoebaPoint(-3.0, 0.0))

    def test_boundary_curve_points(self):
        # a point of the northeast contour e^{-u1} + e^{-u2} = 1 ...
        u1 = 0.1
        u2 = -math.log(-math.expm1(-u1))
        assert amoeba.contains(AmoebaPoint(u1, u2))
        assert amoeba.region(AmoebaPoint(u1, u2), 1e-9) is RegionTag.BOUNDARY
        # ... and one on the south contour e^{-u1} + 1 = e^{-u2}
        v2 = -math.log1p(math.exp(-u1))
        assert amoeba.contains(AmoebaPoint(u1, v2))
        assert amoeba.region(AmoebaPoint(u1, v2), 1e-9) is RegionTag.BOUNDARY

    def test_tentacles_inside(self):
        assert amoeba.contains(AmoebaPoint(-8.0, -8.0))
        assert amoeba.contains(AmoebaPoint(14.0, 4e-7))

    def test_regions(self):
        assert amoeba.region(AmoebaPoint(0.2, -0.5)) is RegionTag.SOUTH
        assert amoeba.region(AmoebaPoint(-0.5, 0.2)) is RegionTag.WEST
        assert amoeba.region(AmoebaPoint(0.5, 0.4)) is RegionTag.EAST
        assert amoeba.region(AmoebaPoint(5.0, -1.0)) is RegionTag.OUTSIDE

    def test_psi_vanishes_on_east(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = AmoebaPoint(*rng.uniform(-3, 3, size=2))
            if amoeba.region(u) is RegionTag.EAST:
                assert amoeba.psi(u) == 0.0

    def test_finite_validation(self):
        with pytest.raises(ValueError):
            AmoebaPoint(float("inf"), 0.0)


class TestSouthMoments:
    def test_closed_forms(self):
        for m in range(5):
            res = amoeba.south_moment(m, 1e-10)
            expect = (-1) ** m * math.factorial(m) * constants.zeta(m + 2)
            assert abs(res.value - expect) <= 1e-12 * abs(expect)

    def test_examples(self):
        assert abs(amoeba.south_moment(0).value - 1.6449341) <= 1e-7
        assert abs(amoeba.south_moment(1).value + 1.2020569) <= 1e-7
        assert abs(amoeba.south_moment(3).value + 6.0 * constants.zeta(5)) <= 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            amoeba.south_moment(-1)

    @pytest.mark.parametrize("m", [171, 400])
    def test_overflowing_orders_refused_up_front(self, monkeypatch, m):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(amoeba.quad, "integrate", no_quadrature)
        with pytest.raises(ValueError, match="overflows"):
            amoeba.south_moment(m)

    @pytest.mark.parametrize("m, tol", [(0, 1e-300), (0, 2e-16), (170, 1e-16), (170, 1.9e-13)])
    def test_unattainable_tolerance_refused_up_front(self, monkeypatch, m, tol):
        # south_moment(170, 1e-16) spent 1,124,145 evaluations before BudgetExceeded
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(amoeba.quad, "integrate", no_quadrature)
        with pytest.raises(ValueError, match="what rounding allows"):
            amoeba.south_moment(m, tol)

    def test_every_order_attains_its_floor(self):
        # the floor 2^-52 (1 + (m+1) log(m+1)) the docstring states; at most 705 evaluations on this map
        for m in range(amoeba.MAX_MOMENT + 1):
            floor = 2.0**-52 * (1.0 + (m + 1) * math.log(m + 1))
            assert amoeba.south_moment(m, floor).evaluations <= 1500, m
            with pytest.raises(ValueError, match="what rounding allows"):
                amoeba.south_moment(m, 0.99 * floor)


class TestVolume:
    def test_closed_form(self):
        assert abs(amoeba.volume() - pi**2 / 2) <= 1e-8
        assert abs(amoeba.volume() - 4.9348022) <= 1e-7

    def test_matches_three_zeta2(self):
        assert abs(amoeba.volume() - 3.0 * constants.zeta(2)) <= 1e-12

    def test_monte_carlo_oracle(self):
        # stratified sampling of the exact slice length at random abscissae
        rng = np.random.default_rng(20260810)
        n = 1_000_000
        lo, hi = -20.0, 20.0
        edges = np.linspace(lo, hi, n + 1)
        u1 = edges[:-1] + (edges[1] - edges[0]) * rng.random(n)
        r1 = np.exp(-u1)
        slice_len = np.log((1.0 + r1) / np.abs(1.0 - r1))
        mc = float(np.mean(slice_len) * (hi - lo))
        assert abs(mc - amoeba.volume()) <= 5e-4


class TestPsiAverage:
    def test_integral_of_psi(self):
        integral = 2.0 * amoeba.south_moment(1).value
        assert abs(integral - (-2.4041138)) <= 1e-6
        assert abs(integral + 2.0 * constants.zeta(3)) <= 1e-9

    def test_equals_eta(self):
        assert abs(amoeba.psi_average() - ETA) <= 1e-6


class TestRonkin:
    def test_equals_psi_off_amoeba(self):
        assert abs(amoeba.ronkin(AmoebaPoint(-3.0, 0.0)) + 3.0) <= 1e-9
        assert abs(amoeba.ronkin(AmoebaPoint(10.0, 10.0))) <= 1e-9

    def test_mahler_measure_at_origin(self):
        assert abs(amoeba.ronkin(AmoebaPoint(0.0, 0.0)) + THETA) <= 1e-6

    def test_lattice_bound_and_off_amoeba_equality(self):
        us = np.linspace(-5.0, 5.0, 101)
        for u1 in us:
            for u2 in us:
                u = AmoebaPoint(float(u1), float(u2))
                rho = amoeba.ronkin(u)
                bound = amoeba.psi(u)
                assert rho <= bound + 1e-8
                if not amoeba.contains(u):
                    assert abs(rho - bound) <= 1e-8

    def test_concavity(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = rng.uniform(-4, 4, size=2)
            b = rng.uniform(-4, 4, size=2)
            mid = 0.5 * (a + b)
            lhs = amoeba.ronkin(AmoebaPoint(*mid))
            rhs = 0.5 * (amoeba.ronkin(AmoebaPoint(*a)) + amoeba.ronkin(AmoebaPoint(*b)))
            assert lhs >= rhs - 1e-8

    def test_against_2d_product_quadrature(self):
        for u1, u2, tol in [(0.0, 0.0, 2e-3), (1.2, -0.7, 1e-6), (-3.0, 0.0, 1e-6)]:
            assert abs(amoeba.ronkin(AmoebaPoint(u1, u2)) - ronkin_2d_oracle(u1, u2)) <= tol

    def test_deep_coordinates_do_not_overflow(self):
        # the prefactor e^{-u1} alone exceeds float range here; the scaled
        # evaluation must still return Psi exactly off the amoeba
        for u1, u2 in [(-400.0, 0.0), (-700.0, 0.0), (700.0, 700.0), (-700.0, -700.0)]:
            u = AmoebaPoint(u1, u2)
            assert abs(amoeba.ronkin(u) - amoeba.psi(u)) <= 1e-8

    def test_coordinate_range_guard(self):
        with pytest.raises(ValueError):
            amoeba.ronkin(AmoebaPoint(-701.0, 0.0))


class TestLegendreDual:
    def test_boundary_vertices_and_edge(self):
        for x in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.0, 0.25), (0.3, 1.0 - 0.3), (1.0 + 1e-13, 0.0)]:
            assert amoeba.legendre_dual(x) == 0.0

    def test_center_oracle_value(self):
        assert abs(amoeba.legendre_dual((1.0 / 3.0, 1.0 / 3.0)) - THETA) <= 1e-15

    # (Л(pi x0) + Л(pi x1) + Л(pi x2))/pi with mpmath clsin at 40 digits
    @pytest.mark.parametrize("x, expected", [
        pytest.param((0.2, 0.3), 0.28364123998694401214, id="x0"),
        pytest.param((0.6, 0.1), 0.20427427541096924821, id="x1"),
        pytest.param((0.05, 0.8), 0.10997269533486657222, id="x2"),
        pytest.param((0.872195468024335, 0.01851721767021075), 0.052449950744420372445, id="x3"),
    ])
    def test_frozen_values(self, x, expected):
        assert abs(amoeba.legendre_dual(x) - expected) <= 1e-14

    def test_symmetric_in_the_three_coordinates(self):
        x1, x2 = 0.15, 0.6
        x0 = 1.0 - x1 - x2
        values = [amoeba.legendre_dual(x) for x in [(x1, x2), (x2, x1), (x0, x1), (x1, x0), (x0, x2), (x2, x0)]]
        assert max(values) - min(values) <= 1e-15

    def test_against_reference_search(self):
        # the quadrature pattern search stops at step 1e-4; its own error
        # peaks at 1.6e-8 at (0.85, 0.05) on this grid
        worst = max(abs(amoeba.legendre_dual((i / 20, j / 20)) - dual_reference.legendre_dual((i / 20, j / 20)))
                    for i in range(1, 19) for j in range(1, 20 - i))
        assert worst <= 2e-8

    def test_reference_probes_match_ronkin_reference(self):
        # the vectorised probes are those of one quad.integrate call per point, bit for bit
        rng = np.random.default_rng(23)
        probes = [(0.0, 0.0), (1.0, -0.3), (-2.0, 0.5), (25.0, -25.0), *rng.uniform(-25.0, 25.0, (12, 2)).tolist()]
        want = ronkin_reference.ronkin_batch([AmoebaPoint(a, b) for a, b in probes], 1e-9)
        assert [v.hex() for v in dual_reference.ronkin_batch(probes, 1e-9)] == [v.hex() for v in want]

    def test_nonnegative_on_simplex(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            x1 = rng.uniform(0.0, 1.0)
            x2 = rng.uniform(0.0, 1.0 - x1)
            assert amoeba.legendre_dual((x1, x2)) >= 0.0

    def test_outside_simplex_rejected(self):
        with pytest.raises(ValueError):
            amoeba.legendre_dual((0.7, 0.7))
        with pytest.raises(ValueError):
            amoeba.legendre_dual((-0.2, 0.1))

    def test_integrates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(amoeba, "ronkin_batch", refuse)
        assert amoeba.legendre_dual((0.2, 0.3)) > 0.0


class TestMongeAmpere:
    def test_density_inside(self):
        # the Richardson-extrapolated stencil reads 1.3e-10 and 1.7e-9 off here
        target = 1.0 / pi**2
        for u in [AmoebaPoint(0.0, 0.0), AmoebaPoint(0.3, -0.2)]:
            got = amoeba.monge_ampere_density(u, h=1e-2)
            assert abs(got - target) <= 3e-9

    def test_outside_rejected(self):
        with pytest.raises(IllConditioned):
            amoeba.monge_ampere_density(AmoebaPoint(10.0, 10.0), h=1e-2)

    def test_near_boundary_rejected(self):
        # just inside the east contour but within 3h of it
        u1 = 1.0
        u2 = -math.log1p(math.exp(-u1)) + 1e-3
        assert amoeba.contains(AmoebaPoint(u1, u2))
        with pytest.raises(IllConditioned):
            amoeba.monge_ampere_density(AmoebaPoint(u1, u2), h=1e-2)

    def test_step_validated(self):
        with pytest.raises(ValueError):
            amoeba.monge_ampere_density(AmoebaPoint(0.0, 0.0), h=0.0)


class TestBatchedQueries:
    # the dual probes: values of the depth-first engine, one ronkin_reference
    # call per probe, which the vectorised dual reference reproduces without
    # calling either engine (test_reference_probes_match_ronkin_reference);
    # the Monge-Ampere probes: the closed-form Ronkin stencil,
    # which swapping the quadrature engine must leave bit for bit; the south
    # moments, the volume and the psi average: one integral per moment on the
    # s = log(-u2) map, the same bits from either engine
    @pytest.mark.parametrize("query, bits", [
        (lambda: dual_reference.legendre_dual((0.2, 0.3)), "0x1.2272d968caa6ap-2"),
        (lambda: dual_reference.legendre_dual((0.6, 0.1)), "0x1.a25a8d277141ap-3"),
        (lambda: amoeba.monge_ampere_density(AmoebaPoint(0.0, 0.0)), "0x1.9f02f62b5876fp-4"),
        (lambda: amoeba.monge_ampere_density(AmoebaPoint(0.3, -0.2)), "0x1.9f02f694b258dp-4"),
        (lambda: amoeba.south_moment(0).value, "0x1.a51a6625307d2p+0"),
        (lambda: amoeba.south_moment(1).value, "-0x1.33ba004f00621p+0"),
        (lambda: amoeba.south_moment(2).value, "0x1.151322ac7d848p+1"),
        (lambda: amoeba.south_moment(3).value, "-0x1.8e2e2562fbb35p+2"),
        (lambda: amoeba.volume(), "0x1.3bd3cc9be45dep+2"),
        (lambda: amoeba.psi_average(), "0x1.f2de15d1e2a9fp-2"),
    ], ids=["dual-0.2,0.3", "dual-0.6,0.1", "monge-0,0", "monge-0.3,-0.2", "moment-0", "moment-1", "moment-2",
            "moment-3", "volume", "psi-average"])
    def test_same_bits_as_depth_first_engine(self, monkeypatch, query, bits):
        assert query().hex() == bits
        monkeypatch.setattr(quad, "integrate", quad_reference.integrate)
        assert query().hex() == bits

    def test_batch_equals_points_one_by_one(self):
        rng = np.random.default_rng(11)
        points = [(0.0, 0.0), (-3.0, 1.5), (2.0, -4.0), (0.5, 0.5), (0.5, 0.5), (-600.0, 650.0), (700.0, 1e-300),
                  (-700.0, -700.0), *rng.uniform(-6.0, 6.0, (40, 2)), *rng.uniform(-700.0, 700.0, (20, 2))]
        u1, u2 = np.array(points).T
        assert amoeba.ronkin_batch(u1, u2).tolist() == [amoeba.ronkin(AmoebaPoint(a, b)) for a, b in points]
        # one ulp below mpmath's theta, 0x1.4ad1ccb709037p-2
        assert amoeba.ronkin(AmoebaPoint(0.0, 0.0)).hex() == "-0x1.4ad1ccb709036p-2"
        assert amoeba.ronkin_batch([], []).shape == (0,)

    @pytest.mark.parametrize("u1, u2", [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0),
                                        (0.0, -float("inf")), (700.5, 0.0), (0.0, -701.0)])
    def test_array_form_refuses_bad_coordinates(self, u1, u2):
        with pytest.raises(ValueError, match="supported range"):
            amoeba.ronkin_batch(np.array([0.0, u1]), np.array([0.0, u2]))
