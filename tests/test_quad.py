import math
from math import fsum, pi

import numpy as np
import pytest
import quad_reference
import ronkin_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta_heights import quad
from zeta_heights.amoeba import AmoebaPoint

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

    def test_budget_exceeded_carries_best_value(self):
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate(lambda s: s * log_dist(s), 0.0, pi, 1e-13, budget=60)
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
            quad.integrate(lambda x: x, 0.0, 1.0, 0.0)


class TestSemiInfinite:
    def test_exponential(self):
        res = quad.integrate_semiinfinite(lambda u: np.exp(u), 1e-12)
        assert abs(res.value - 1.0) <= 1e-12

    def test_dilogarithm_value(self):
        res = quad.integrate_semiinfinite(lambda u: -np.log(-np.expm1(u)), 1e-10)
        assert abs(res.value - pi**2 / 6) <= 1e-9

    def test_weighted_value(self):
        res = quad.integrate_semiinfinite(lambda u: -(u**2) * np.log(-np.expm1(u)), 1e-10)
        assert abs(res.value - pi**4 / 45) <= 1e-9

    def test_budget_propagates(self):
        with pytest.raises(quad.BudgetExceeded):
            quad.integrate_semiinfinite(lambda u: -np.log(-np.expm1(u)), 1e-12, budget=45)


# Integrands of one problem each, all elementwise in x; c1 and c2 are
# scalars in the reference and per-row columns in the batch.
_KINDS = (
    lambda x, c1, c2: np.log(np.abs(np.sin(c2 * (x - c1)))),
    lambda x, c1, c2: np.abs(x - c1) ** 0.3 * np.cos(c2 * x),
    lambda x, c1, c2: np.exp(-c2 * x * x) + c1,
    lambda x, c1, c2: np.maximum(np.log(np.abs(x - c1)), -c2),
)

_problem = st.tuples(
    st.floats(-3.0, 3.0),
    st.floats(0.01, 5.0),
    st.lists(st.floats(0.0, 1.0), max_size=5),
    st.integers(0, len(_KINDS) - 1),
    st.floats(-2.0, 2.0),
    st.floats(0.1, 5.0),
)


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_problem, min_size=1, max_size=4), st.integers(-12, -4))
    def test_same_bits_as_depth_first_reference(self, problems, tol_exp):
        tol = 10.0**tol_exp
        parts = [[a, *(a + w * t for t in breaks), a + w] for a, w, breaks, *_ in problems]
        kind = np.array([p[3] for p in problems])
        c1 = np.array([p[4] for p in problems])[:, None]
        c2 = np.array([p[5] for p in problems])[:, None]

        def f(rows, x):
            out = np.empty_like(x)
            for k in set(kind[rows].tolist()):
                sel = kind[rows] == k
                out[sel] = _KINDS[k](x[sel], c1[rows[sel]], c2[rows[sel]])
            return out

        got = quad.integrate_batch(f, parts, tol, budget=10**7)
        for (a, w, _, k, p1, p2), part, res in zip(problems, parts, got):
            ref = quad_reference.integrate(lambda x: _KINDS[k](x, p1, p2), a, a + w, tol,
                                           break_points=part[1:-1], budget=10**7)
            assert (res.value, res.err_estimate, res.evaluations) == (ref.value, ref.err_estimate, ref.evaluations)

    def test_vecdot_is_rowwise_dot(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((20000, 15)) * np.exp(rng.uniform(-30.0, 30.0, (20000, 1)))
        rowwise = np.array([np.dot(quad.KRONROD_WEIGHTS, row) for row in y])
        assert np.array_equal(np.vecdot(y, quad.KRONROD_WEIGHTS), rowwise)

    def test_budget_counted_per_interval(self):
        f = lambda x: x**2
        res = quad.integrate(f, 0.0, 1.0, 1e-12, break_points=(0.25, 0.5, 0.75), budget=16)
        assert res.evaluations == 60 and abs(res.value - 1.0 / 3.0) <= 1e-15
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate(lambda s: s * log_dist(s), 0.0, pi, 1e-13, break_points=(1.0, 2.0), budget=60)
        assert info.value.result.evaluations >= 180

    def test_raises_for_first_exhausted_problem(self):
        hard = lambda s: s * log_dist(s)
        with pytest.raises(quad.BudgetExceeded) as alone:
            quad.integrate(hard, 0.0, pi, 1e-13, budget=60)
        with pytest.raises(quad.BudgetExceeded) as batch:
            quad.integrate_batch(lambda rows, x: np.where(rows[:, None] == 0, x * x, hard(x)),
                                 [[0.0, 1.0], [0.0, pi], [0.0, 3.0]], 1e-13, budget=60)
        assert batch.value.result == alone.value.result

    def test_partitions_validated(self):
        assert quad.integrate_batch(lambda rows, x: x, [], 1e-10) == []
        for bad in ([0.0], [0.0, 0.0], [1.0, 0.5, 0.0], [0.0, float("nan")]):
            with pytest.raises(ValueError):
                quad.integrate_batch(lambda rows, x: x, [[0.0, 1.0], bad], 1e-10)

    def test_round_panels_bounded(self, monkeypatch):
        # the Ronkin quadrature on 303 points at once: at 1e-300 no point converges, and the bound stops
        # the batch after a round of 79,814 panels and 4,695 evaluations, long before the budget
        rounds = []
        panels = quad._panels
        monkeypatch.setattr(quad, "_panels", lambda f, rows, lo, hi: rounds.append(len(rows)) or panels(f, rows, lo, hi))
        points = [AmoebaPoint(u1, u2) for u1 in np.linspace(-1.0, 1.0, 101).tolist() for u2 in (-1.0, 0.0, 1.0)]
        with pytest.raises(quad.BudgetExceeded) as info:
            ronkin_reference.ronkin_batch(points, 1e-300)
        assert max(rounds) <= quad.MAX_ROUND_PANELS and info.value.result.evaluations < quad.DEFAULT_BUDGET

    def test_stalled_batch_carries_best_estimate(self):
        # rounds of 1, 2 and 4 panels per problem fit, the next would hold 2 * MAX_ROUND_PANELS;
        # the budget of 8 panels per problem keeps an unbounded engine small too
        n = quad.MAX_ROUND_PANELS // 4
        with pytest.raises(quad.BudgetExceeded) as info:
            quad.integrate_batch(lambda rows, x: np.log(x), [[0.0, 1.0]] * n, 1e-300, budget=15 * 8)
        result = info.value.result
        assert result.evaluations == 15 * (1 + 2 + 4)
        assert abs(result.value + 1.0) <= result.err_estimate

    def test_too_many_intervals_refused_before_evaluation(self):
        def refuse(rows, x):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match="above the limit"):
            quad.integrate_batch(refuse, [[0.0, 1.0]] * (quad.MAX_ROUND_PANELS + 1), 1e-10)
        with pytest.raises(ValueError, match="above the limit"):
            quad.integrate_batch(refuse, [np.linspace(0.0, 1.0, quad.MAX_ROUND_PANELS + 2).tolist()], 1e-10)
