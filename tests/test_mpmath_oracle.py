"""The special values and heights against an mpmath oracle at 40 digits.

The oracle uses mpmath's zeta and Clausen functions, and sums each height
over the full Galois orbit at the level d of the pair, with complex
exponentials; it shares no code with the library or with the benchmark's
oracles.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

from zeta_heights import constants, grid  # noqa: E402
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


class TestSpecialValues:
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_zeta(self, s):
        with mp.workdps(DIGITS):
            assert abs(constants.zeta(s) - mp.zeta(s)) <= 1e-15

    def test_l_chi3(self):
        with mp.workdps(DIGITS):
            assert abs(constants.l_chi3(2) - l_chi3_2()) <= 1e-15

    def test_eta(self):
        with mp.workdps(DIGITS):
            assert abs(constants.eta() - 2 * mp.zeta(3) / (3 * mp.zeta(2))) <= 1e-15

    def test_theta(self):
        with mp.workdps(DIGITS):
            assert abs(constants.theta() - 3 * mp.sqrt(3) / (4 * mp.pi) * l_chi3_2()) <= 1e-15


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
