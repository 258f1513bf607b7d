"""``amoeba.ronkin_batch`` against the closed form of the Ronkin function, evaluated in mpmath.

On the amoeba, rho(u) = (a1 u1 + a2 u2)/pi - (Л(a0) + Л(a1) + Л(a2))/pi,
where a0, a1, a2 are the angles of the triangle with sides 1, e^{-u1},
e^{-u2}, each opposite its side, and Л(t) = Cl_2(2t)/2 (Passare and
Rullgard, Duke Math. J. 121, 2004); off the amoeba rho = Psi.  The library
evaluates this formula in doubles; the oracle takes the angles from the law
of cosines in mpmath, at a precision that grows with |u| so that sides as
far apart as e^{+-700} lose nothing, and Л from mpmath's ``clsin``.  It
shares no code with the library.  The formula itself is checked against
the Jensen-reduced quadrature of ``ronkin_reference``, which uses neither
angles nor the Clausen function.
"""

import math
import warnings

import numpy as np
import pytest
import ronkin_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_heights import amoeba
from zeta_heights.amoeba import AmoebaPoint

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp


def tol(u1: float, u2: float) -> float:
    # 1 ulp of Psi is 1.1e-13 at |u| ~ 700; 801 points read at most 6.7e-16 * max(1, |u|)
    return 1e-13 * max(1.0, abs(u1), abs(u2))


def rho_closed(u1: float, u2: float) -> float:
    with mp.workdps(30 + int(0.9 * max(abs(u1), abs(u2)))):
        r1, r2 = mp.exp(-mp.mpf(u1)), mp.exp(-mp.mpf(u2))
        if not (r1 + r2 >= 1 and 1 + r2 >= r1 and 1 + r1 >= r2):
            return min(0.0, u1, u2)
        a1 = mp.acos((1 + r2**2 - r1**2) / (2 * r2))
        a2 = mp.acos((1 + r1**2 - r2**2) / (2 * r1))
        a0 = mp.pi - a1 - a2
    with mp.workdps(30):
        lobachevsky = sum(mp.clsin(2, 2 * a) for a in (a0, a1, a2)) / 2
        return float((a1 * u1 + a2 * u2 - lobachevsky) / mp.pi)


def check(points: list[tuple[float, float]]) -> None:
    u1, u2 = np.array(points, dtype=float).T
    for (a, b), value in zip(points, amoeba.ronkin_batch(u1, u2).tolist()):
        assert abs(value - rho_closed(a, b)) <= tol(a, b), (a, b)


_angle = st.floats(1e-9, math.pi - 1e-9)


@st.composite
def inside(draw):
    # a triangle of angles t0, t1, t2 has sides proportional to their sines
    t1 = draw(_angle)
    t2 = draw(st.floats(1e-9, 1.0)) * (math.pi - t1)
    t0 = math.pi - t1 - t2
    if min(t0, t2) <= 0.0:
        t0 = t2 = 0.5 * (math.pi - t1)
    s0 = math.log(math.sin(t0))
    return s0 - math.log(math.sin(t1)), s0 - math.log(math.sin(t2))


@st.composite
def near_boundary(draw):
    # the contour is e^{-u2} = 1 + e^{-u1} or e^{-u2} = |1 - e^{-u1}|
    u1 = draw(st.floats(-30.0, 30.0).filter(lambda v: abs(v) > 1e-6))
    if draw(st.booleans()):
        u2 = -float(np.logaddexp(0.0, -u1))
    else:
        u2 = -math.log(abs(math.expm1(-u1)))
    return u1, u2 + draw(st.floats(-1e-6, 1e-6))


@st.composite
def tentacle(draw):
    # the east tentacle |u2| <~ e^{-t} as t -> inf, then its images under the
    # symmetries of 1 + z1 + z2 that swap the monomials
    t = draw(st.floats(3.0, 700.0))
    s = draw(st.floats(-1.5, 1.5)) * math.exp(-t)
    return draw(st.sampled_from([(t, s), (s, t), (-t, s - t)]))


class TestClosedForm:
    def test_origin_is_minus_theta(self):
        check([(0.0, 0.0)])
        with mp.workdps(30):
            theta = float(3 * mp.clsin(2, 2 * mp.pi / 3) / (2 * mp.pi))
        assert abs(amoeba.ronkin(AmoebaPoint(0.0, 0.0)) + theta) <= math.ulp(theta)

    def test_formula_against_reference_quadrature(self):
        # the Jensen-reduced integral at its default tolerance 1e-9
        u1, u2 = (axis.ravel() for axis in np.meshgrid(np.linspace(-6.0, 6.0, 25), np.linspace(-6.0, 6.0, 25)))
        reference = ronkin_reference.ronkin_batch([AmoebaPoint(a, b) for a, b in zip(u1.tolist(), u2.tolist())])
        assert np.abs(amoeba.ronkin_batch(u1, u2) - reference).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(near_boundary(), tentacle()), min_size=1, max_size=8))
    def test_no_floating_point_warnings(self, points):
        u1, u2 = np.array(points).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(amoeba.ronkin_batch(u1, u2)).all()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(inside(), min_size=1, max_size=8))
    def test_inside(self, points):
        check(points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(near_boundary(), min_size=1, max_size=8))
    def test_near_boundary(self, points):
        check(points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(tentacle(), min_size=1, max_size=8))
    def test_tentacles(self, points):
        check(points)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-700.0, 700.0), st.floats(-700.0, 700.0)), min_size=1, max_size=8))
    def test_anywhere(self, points):
        check(points)
