import math
from math import fsum, pi

import numpy as np
import pytest
import quad_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_heights import quad

# zeta(3) bracketed independently: raw series plus integral tail bounds
_Z3_HEAD = fsum(k**-3.0 for k in range(1, 10**6 + 1))
ZETA3_LO = _Z3_HEAD + 0.5 * (10**6 + 1) ** -2.0
ZETA3_HI = _Z3_HEAD + 0.5 * (10**6) ** -2.0
ZETA3 = 0.5 * (ZETA3_LO + ZETA3_HI)


def log_dist(s):
    return np.log(np.abs(2.0 * np.sin(0.5 * s)))


class TestIntegrate:
    def test_constant(self):
        res = quad.integrate(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
        assert abs(res.value - 1.0) <= 1e-12
        assert res.evaluations >= 15

    def test_weighted_log_singularity(self):
        res = quad.integrate(lambda s: s * log_dist(s), 0.0, pi, 1e-10)
        assert abs(res.value - 1.75 * ZETA3) <= 1e-9

    def test_second_closed_form(self):
        res = quad.integrate(lambda s: (4 * pi - 3 * s) * log_dist(s), pi, 4 * pi / 3, 1e-10)
        assert abs(res.value - 11.0 / 12.0 * ZETA3) <= 1e-9

    def test_error_estimate_sound_on_closed_forms(self):
        res1 = quad.integrate(lambda s: s * log_dist(s), 0.0, pi, 1e-10)
        res2 = quad.integrate(lambda s: (4 * pi - 3 * s) * log_dist(s), pi, 4 * pi / 3, 1e-10)
        assert abs(res1.value - 1.75 * ZETA3) <= 10.0 * res1.err_estimate
        assert abs(res2.value - 11.0 / 12.0 * ZETA3) <= 10.0 * res2.err_estimate
        assert math.isfinite(res1.err_estimate) and res1.err_estimate >= 0.0

    def test_break_points(self):
        kinked = lambda x: np.abs(x - 0.3)
        res = quad.integrate(kinked, 0.0, 1.0, 1e-13, break_points=(0.3,))
        assert abs(res.value - (0.3**2 + 0.7**2) / 2) <= 1e-13

    def test_deterministic(self):
        f = lambda s: s * log_dist(s)
        a = quad.integrate(f, 0.0, pi, 1e-10)
        b = quad.integrate(f, 0.0, pi, 1e-10)
        assert a == b

    def test_budget_exceeded_carries_best_value(self, monkeypatch):
        monkeypatch.setattr(quad, "DEFAULT_BUDGET", 60)  # read at call time
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate(lambda s: s * log_dist(s), 0.0, pi, 1e-13)
        best = info.value.result
        assert best.evaluations >= 60
        assert math.isfinite(best.value)
        assert abs(best.value - 1.75 * ZETA3) <= 1e-2  # crude but usable

    def test_breaks_outside_interval_ignored(self):
        res = quad.integrate(lambda x: x**2, 0.0, 1.0, 1e-12, break_points=(-5.0, 0.5, 7.0, 0.0))
        assert abs(res.value - 1.0 / 3.0) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quad.integrate(lambda x: x, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            quad.integrate(lambda x: x, 0.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            quad.integrate(lambda x: x, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_tolerance_finite_and_positive(self, tol):
        # an infinite tolerance was accepted: one panel, whatever its error
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            quad.integrate(np.exp, 0.0, 1.0, tol)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan, 1.0),
                                      (-1e308, 1e308)])
    def test_non_finite_limits_refused(self, a, b):
        # an infinite end gave nan, and an overflowing width b - a gave 0.0 with error estimate 0.0
        with pytest.raises(ValueError, match="need finite limits"):
            quad.integrate(np.exp, a, b, 1e-10)


# Integrands of one problem each, elementwise in x with scalar parameters c1, c2.
_KINDS = (
    lambda x, c1, c2: np.log(np.abs(np.sin(c2 * (x - c1)))),
    lambda x, c1, c2: np.abs(x - c1) ** 0.3 * np.cos(c2 * x),
    lambda x, c1, c2: np.exp(-c2 * x * x) + c1,
    lambda x, c1, c2: np.maximum(np.log(np.abs(x - c1)), -c2),
)


class TestBatch:
    """The level-synchronous rounds of one integral against the depth-first reference, and their guards."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(0.01, 5.0), st.lists(st.floats(0.0, 1.0), max_size=5),
           st.integers(0, len(_KINDS) - 1), st.floats(-2.0, 2.0), st.floats(0.1, 5.0), st.integers(-12, -4))
    def test_same_bits_as_depth_first_reference(self, a, w, breaks, k, c1, c2, tol_exp):
        tol = 10.0**tol_exp
        f = lambda x: _KINDS[k](x, c1, c2)
        breaks = [a + w * t for t in breaks]
        with pytest.MonkeyPatch.context() as mp:  # hypothesis runs every example under one fixture
            mp.setattr(quad, "DEFAULT_BUDGET", 10**7)
            res = quad.integrate(f, a, a + w, tol, break_points=breaks)
        ref = quad_reference.integrate(f, a, a + w, tol, break_points=breaks, budget=10**7)
        assert (res.value, res.err_estimate, res.evaluations) == (ref.value, ref.err_estimate, ref.evaluations)

    def test_vecdot_is_rowwise_dot(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((20000, 15)) * np.exp(rng.uniform(-30.0, 30.0, (20000, 1)))
        rowwise = np.array([np.dot(quad.KRONROD_WEIGHTS, row) for row in y])
        assert np.array_equal(np.vecdot(y, quad.KRONROD_WEIGHTS), rowwise)

    def test_budget_counted_per_interval(self, monkeypatch):
        f = lambda x: x**2
        monkeypatch.setattr(quad, "DEFAULT_BUDGET", 16)
        res = quad.integrate(f, 0.0, 1.0, 1e-12, break_points=(0.25, 0.5, 0.75))
        assert res.evaluations == 60 and abs(res.value - 1.0 / 3.0) <= 1e-15
        monkeypatch.setattr(quad, "DEFAULT_BUDGET", 60)
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate(lambda s: s * log_dist(s), 0.0, pi, 1e-13, break_points=(1.0, 2.0))
        assert info.value.result.evaluations >= 180

    def test_round_panels_bounded(self, monkeypatch):
        # at 1e-300 only panels with an error estimate of exactly 0 pass: the bound stops the integral
        # after a round of 122,946 panels and 14,969,925 evaluations, long before the budget of 10**8
        rounds = []
        panels = quad._panels
        monkeypatch.setattr(quad, "_panels", lambda f, lo, hi: rounds.append(len(lo)) or panels(f, lo, hi))
        monkeypatch.setattr(quad, "DEFAULT_BUDGET", 10**8)
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate(np.log, 0.0, 1.0, 1e-300)
        result = info.value.result
        assert max(rounds) <= quad.MAX_ROUND_PANELS and result.evaluations < 10**8
        assert abs(result.value + 1.0) <= result.err_estimate

    def test_stalled_batch_carries_best_estimate(self, monkeypatch):
        # many break points: the bound stops the integral after a round of 114,718 panels, when its
        # 32,768 intervals have spent 8,723,610 evaluations, about 266 of each one's budget of 10**6
        rounds = []
        panels = quad._panels
        monkeypatch.setattr(quad, "_panels", lambda f, lo, hi: rounds.append(len(lo)) or panels(f, lo, hi))
        n = quad.MAX_ROUND_PANELS // 4
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate(np.log, 0.0, 1.0, 1e-300, break_points=(np.arange(1, n) / n).tolist())
        result = info.value.result
        assert max(rounds) <= quad.MAX_ROUND_PANELS and result.evaluations < 300 * n
        assert abs(result.value + 1.0) <= result.err_estimate

    def test_too_many_intervals_refused_before_evaluation(self):
        def refuse(x):
            raise AssertionError("evaluated")

        quad.integrate(np.exp, 0.0, 1.0, 1e-10, break_points=np.linspace(0.0, 1.0, quad.MAX_ROUND_PANELS + 1))
        with pytest.raises(ValueError, match="above the limit"):
            quad.integrate(refuse, 0.0, 1.0, 1e-10, break_points=np.linspace(0.0, 1.0, quad.MAX_ROUND_PANELS + 2))
