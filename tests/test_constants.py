import math
from math import fsum, log, pi

import numpy as np
import pytest
from helpers import limit_integral_pieces

from zeta_heights import constants


class TestZeta:
    def test_zeta2(self):
        assert abs(constants.zeta(2) - pi**2 / 6) <= 1e-14

    def test_zeta3_bracketed_by_series_tails(self):
        # raw million-term series with integral bounds on the tail
        head = fsum(k**-3.0 for k in range(1, 10**6 + 1))
        lo = head + 0.5 * (10**6 + 1) ** -2.0
        hi = head + 0.5 * (10**6) ** -2.0
        assert lo - 1e-13 <= constants.zeta(3) <= hi + 1e-13
        assert abs(constants.zeta(3) - 1.2020569) <= 5e-8

    def test_zeta4(self):
        assert abs(constants.zeta(4) - pi**4 / 90) <= 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            constants.zeta(1)


class TestLChi3:
    def test_two_term_truncation_shape(self):
        # first block of the defining series brackets the value
        assert 1.0 - 1.0 / 4.0 == 0.75
        assert 0.75 < constants.l_chi3() < 0.75 + 1.0 / 16.0

    def test_brute_series(self):
        n = np.arange(1, 10**7 + 1, dtype=float)
        chi = np.zeros_like(n)
        chi[0::3] = 1.0   # n = 1 mod 3
        chi[1::3] = -1.0  # n = 2 mod 3
        brute = float(np.sum(chi / n**2))
        assert abs(constants.l_chi3() - brute) <= 1e-12

    def test_theta_digits(self):
        assert abs(constants.theta() - 0.323065) <= 1e-6


class TestLandmarks:
    def test_eta_digits(self):
        assert abs(constants.eta() - 0.487175) <= 1e-6

    def test_eta_algebraic_identity(self):
        assert abs(constants.eta() - 4.0 * constants.zeta(3) / pi**2) <= 1e-14

    def test_ordering(self):
        assert constants.theta() < constants.eta() < log(2)

    def test_special_values_consistent(self):
        sv = constants.special_values()
        assert sv.eta == constants.eta()
        assert sv.theta == constants.theta()
        assert sv.zeta2 == constants.zeta(2)
        assert abs(sv.theta - 3.0 * math.sqrt(3.0) / (4.0 * pi) * sv.L_chi3_2) <= 1e-16


class TestLimitIntegral:
    def test_matches_eta(self):
        res = constants.limit_integral(1e-10)
        assert abs(res.value - constants.eta()) <= 1e-9

    def test_pieces_closed_forms(self):
        first, second = limit_integral_pieces(1e-10)
        assert abs(first - 1.75 * constants.zeta(3)) <= 1e-9
        assert abs(second - 11.0 / 12.0 * constants.zeta(3)) <= 1e-9

    def test_pieces_assemble_to_eta(self):
        first, second = limit_integral_pieces(1e-10)
        assembled = (3.0 / pi**2) * 0.5 * (first + second)
        assert abs(assembled - constants.eta()) <= 1e-9

    def test_monte_carlo_cross_check(self):
        # slow 2-D check of the full torus average, no symmetry reduction
        rng = np.random.default_rng(414213562)
        u = rng.uniform(0.0, 2.0 * pi, size=(2_000_000, 2))
        t1 = np.abs(2.0 * np.sin(0.5 * u[:, 0]))
        t2 = np.abs(2.0 * np.sin(0.5 * u[:, 1]))
        td = np.abs(2.0 * np.sin(0.5 * (u[:, 1] - u[:, 0])))
        mc = float(np.mean(np.log(np.maximum(np.maximum(td, t2), t1))))
        assert abs(mc - constants.limit_integral(1e-10).value) <= 2e-3
