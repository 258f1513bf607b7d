"""The special values, the Clausen function, the Legendre dual, south moments, heights and curve limits against mpmath.

The oracle uses mpmath's zeta and Clausen functions at 40 digits, sums each
height over the full Galois orbit at the level d of the pair, with complex
exponentials, and integrates each segment of a torsion curve by mpmath
quadrature at 20 digits; it shares no code with the library or with the
benchmark's oracles.
"""

import functools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from zeta_heights import amoeba, cli, constants, curves, grid  # noqa: E402
from zeta_heights.torsion import TorsionPoint, total_height  # noqa: E402

DIGITS = 40


def l_chi3_2():
    """L(chi_-3, 2) = (2/sqrt 3) Cl_2(2 pi/3)."""
    return 2 / mp.sqrt(3) * mp.clsin(2, 2 * mp.pi / 3)


def height(d, c1, c2):
    """Mean over the units k of d of log max(|w2^k - w1^k|, |w2^k - 1|, |w1^k - 1|), minus Lambda(e)/phi(e)."""
    e = d // math.gcd(c1, c2, d)
    primes = [p for p in range(2, e + 1) if e % p == 0 and all(p % q for q in range(2, p))]
    units = [k for k in range(1, d + 1) if math.gcd(k, d) == 1]
    with mp.workdps(DIGITS):
        w1, w2 = (mp.expjpi(2 * mp.mpf(c) / d) for c in (c1, c2))
        arch = mp.fsum(mp.log(max(abs(w2**k - w1**k), abs(w2**k - 1), abs(w1**k - 1))) for k in units)
        arch /= len(units)
        if len(primes) != 1:
            return arch
        phi_e = e - e // primes[0]
        return arch - mp.log(primes[0]) / phi_e


@functools.cache
def cl2_turns(x):
    """Cl_2(2 pi x) = 2 Л(pi x) at 40 digits."""
    with mp.workdps(DIGITS):
        return mp.clsin(2, 2 * mp.pi * x)


def lobachevsky_dual(x1, x2):
    """(Л(pi x0) + Л(pi x1) + Л(pi x2))/pi with x0 = 1 - x1 - x2 and Л(t) = Cl_2(2t)/2."""
    with mp.workdps(DIGITS):
        return (cl2_turns(1 - mp.mpf(x1) - mp.mpf(x2)) + cl2_turns(x1) + cl2_turns(x2)) / (2 * mp.pi)


class TestSpecialValues:
    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 22])
    def test_zeta(self, s):
        with mp.workdps(DIGITS):
            assert abs(constants.zeta(s) - mp.zeta(s)) <= 1e-15

    def test_l_chi3(self):
        with mp.workdps(DIGITS):
            assert abs(constants.l_chi3() - l_chi3_2()) <= 1e-15

    def test_eta(self):
        with mp.workdps(DIGITS):
            assert abs(constants.eta() - 2 * mp.zeta(3) / (3 * mp.zeta(2))) <= 1e-15

    def test_theta(self):
        with mp.workdps(DIGITS):
            assert abs(constants.theta() - 3 * mp.sqrt(3) / (4 * mp.pi) * l_chi3_2()) <= 1e-15


class TestClausen:
    def test_against_clsin(self):
        # on the argument reduced modulo the double 2 pi, as the library reduces it
        tau = 2 * math.pi
        ts = [k / 16 for k in range(-112, 113)] + [math.pi, -math.pi, tau, 3 * tau, 1e-300, 50.0, -1e4]
        with mp.workdps(DIGITS):
            worst = max(abs(float(constants.clausen2(t)) - mp.clsin(2, mp.mpf(t) - math.floor(t / tau) * mp.mpf(tau)))
                        for t in ts)
        assert worst <= 2e-15

    def test_periodic_in_whole_turns(self):
        assert constants.clausen2(2 * math.pi * np.array([0.0, 1.0, 2.0, -1.0])).tolist() == [0.0] * 4
        assert abs(float(constants.clausen2(2 * math.pi * 1.25) - constants.clausen2(math.pi / 2))) <= 1e-15

    def test_array_shape(self):
        assert constants.clausen2([[0.5, 1.0], [2.0, 3.0]]).shape == (2, 2)


class TestLegendreDual:
    N = 40

    def grid(self):
        # the closed simplex, 41 points a side; x2 = 1 - x1 puts the last
        # point of a row on the edge x0 = 0 exactly
        for i in range(self.N + 1):
            for j in range(self.N + 1 - i):
                yield i / self.N, (j / self.N if i + j < self.N else 1.0 - i / self.N)

    def test_closed_simplex(self):
        worst = max(abs(amoeba.legendre_dual(x) - lobachevsky_dual(*x)) for x in self.grid())
        assert worst <= 1e-14

    def test_zero_on_the_edges(self):
        edges = [x for x in self.grid() if min(x[0], x[1], 1.0 - x[0] - x[1]) == 0.0]
        assert len(edges) == 3 * self.N
        assert max(abs(amoeba.legendre_dual(x)) for x in edges) <= 1e-15


def south_moment(m):
    """(-1)^m m! zeta(m+2) at 40 digits."""
    with mp.workdps(DIGITS):
        return (-1) ** m * mp.factorial(m) * mp.zeta(m + 2)


class TestSouthMoments:
    def test_every_order(self):
        # before the s = log(-u2) map, every m >= 6 ran out of the evaluation budget
        for m in range(amoeba.MAX_MOMENT + 1):
            expect = south_moment(m)
            assert abs(amoeba.south_moment(m).value - expect) <= 1e-12 * abs(expect), m

    def test_moments_volume_and_psi_average_within_2_ulp(self):
        with mp.workdps(DIGITS):
            cases = [(amoeba.south_moment(m).value, south_moment(m)) for m in range(4)]
            cases += [(amoeba.volume(), 3 * mp.zeta(2)), (amoeba.psi_average(), 2 * mp.zeta(3) / (3 * mp.zeta(2)))]
            for value, expect in cases:
                assert abs(value - expect) <= 2 * math.ulp(value), (value, expect)

    def test_moment_20_from_the_cli(self, capsys):
        start = time.perf_counter()
        assert cli.main(["amoeba", "--moment", "20"]) == 0
        assert time.perf_counter() - start < 0.1
        assert abs(json.loads(capsys.readouterr().out)["value"] - south_moment(20)) <= 1e-12 * south_moment(20)


class TestHeights:
    @pytest.mark.parametrize("d, c1, c2", [
        (4, 1, 2), (5, 1, 2), (7, 1, 3), (9, 2, 3), (12, 2, 6), (16, 3, 10), (30, 4, 9), (60, 7, 11),
    ])
    def test_total_height(self, d, c1, c2):
        assert abs(total_height(TorsionPoint(d, c1, c2)).total - height(d, c1, c2)) <= 1e-14

    @pytest.mark.parametrize("d", [8, 12])
    def test_grid(self, d):
        values = grid.compute_grid(d).values
        worst = max(abs(values[c1, c2] - height(d, c1, c2))
                    for c1 in range(d) for c2 in range(d) if (c1, c2) != (0, 0))
        assert worst <= 1e-14


def curve_limit(a1, a2, e):
    """Mean over the units j of e of the integral over w in [0, 1] of log max |2 sin pi x_i(w)|.

    x_1, x_2 = w*(-a2, a1) + j*(r, s)/e with a1*r + a2*s = 1, and x_3 = x_2 - x_1.
    The integrand is smooth except where some x_i or some x_i +- x_k is an
    integer; every such w is a break point of the quadrature.
    """
    r, s = next((r, s) for r in range(-abs(a2) - 1, abs(a2) + 2) for s in range(-abs(a1) - 1, abs(a1) + 2)
                if a1 * r + a2 * s == 1)
    units = [j for j in range(1, e + 1) if math.gcd(j, e) == 1]
    total = 0
    with mp.workdps(20):
        for j in units:
            lines = [(-a2, Fraction(j * r, e)), (a1, Fraction(j * s, e))]
            lines.append((lines[1][0] - lines[0][0], lines[1][1] - lines[0][1]))
            sums = lines + [(m + sgn * n, c + sgn * d) for i, (m, c) in enumerate(lines) for n, d in lines[i + 1:]
                            for sgn in (1, -1)]
            breaks = sorted({(k - c) / m for m, c in sums if m
                             for k in range(math.floor(min(c, c + m)), math.ceil(max(c, c + m)) + 1)
                             if 0 < (k - c) / m < 1} | {Fraction(0), Fraction(1)})
            f = lambda w: mp.log(max(abs(2 * mp.sinpi(m * w + mp.mpf(c.numerator) / c.denominator)) for m, c in lines))
            total += mp.quad(f, [mp.mpf(b.numerator) / b.denominator for b in breaks])
        return total / len(units)


class TestCurveLimits:
    @pytest.mark.parametrize("a1, a2, e", [(3, 5, 15), (4, -3, 28), (5, 4, 9)])
    def test_kinked_curves(self, a1, a2, e):
        # quadrature that declares only the zeros of the chords is off by 1e-8 to 6e-8 here
        assert abs(curves.limit_height(curves.TorsionCurve(a1, a2, e)) - curve_limit(a1, a2, e)) <= 1e-14

    # computed identities, found with mpmath pslq at 60 digits and checked here at 40
    @pytest.mark.parametrize("a2, terms, denominator", [
        (1, {"1/3": 3}, 2),  # theta
        (2, {"1/3": 9, "2/5": 5}, 6),
        (3, {"1/3": -9, "1/4": 16, "2/5": 15, "3/7": 7}, 12),
    ])
    def test_clausen_identities(self, a2, terms, denominator):
        # the sum of c * Cl_2(2 pi x) over {x: c}, divided by denominator * pi
        with mp.workdps(DIGITS):
            value = mp.fsum(c * cl2_turns(mp.mpf(Fraction(x).numerator) / Fraction(x).denominator)
                            for x, c in terms.items()) / (denominator * mp.pi)
            assert abs(curves.limit_height(curves.TorsionCurve(1, a2, 1)) - value) <= 1e-14
            assert abs(curve_limit(1, a2, 1) - value) <= 1e-15
