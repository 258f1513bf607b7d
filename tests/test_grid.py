import math
import threading
import tracemalloc
import warnings
from math import fsum, log

import numpy as np
import pytest
from helpers import canonical_representative, height, nontrivial_values, orbit, units

from zeta_heights import arith, constants, grid, torsion
from zeta_heights.torsion import LOG2, TorsionPoint, total_height


def grid_stats(g: grid.HeightGrid, eps: float) -> grid.DistStats:
    """Reference oracle for ``grid.stats``: the summary computed over all d*d - 1 cells of a grid."""
    vals = nontrivial_values(g)
    eta = constants.eta()
    theta = constants.theta()
    bins = np.clip((vals * (grid.HISTOGRAM_BINS / LOG2)).astype(np.int64), 0, grid.HISTOGRAM_BINS - 1)
    hist = np.bincount(bins, minlength=grid.HISTOGRAM_BINS)
    return grid.DistStats(
        d=g.d,
        eps=eps,
        mean=math.fsum(vals.tolist()) / vals.size,
        min=float(vals.min()),
        max=float(vals.max()),
        count_near_eta=int(np.count_nonzero(np.abs(vals - eta) < eps)),
        count_near_theta=int(np.count_nonzero(np.abs(vals - theta) < eps)),
        count_zero=int(np.count_nonzero(np.abs(vals) <= grid.ZERO_TOL)),
        histogram=tuple(int(n) for n in hist),
    )


def mean_below_eta_scan(d_range: list[int]) -> list[tuple[int, float, bool]]:
    """Rows (d, mean height over the grid, mean < eta?) over the given moduli."""
    eta = constants.eta()
    out = []
    for d in d_range:
        vals = nontrivial_values(grid.compute_grid(d))
        mean = math.fsum(vals.tolist()) / vals.size
        out.append((d, mean, mean < eta))
    return out


def small_height_census(d: int, eps: float) -> list[TorsionPoint]:
    """Nontrivial d-torsion points with 0 < height < theta - eps.

    Probes whether any heights fall strictly between the exact zeros and
    the first conjectured accumulation value theta.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = grid.compute_grid(d)
    cutoff = constants.theta() - eps
    out = []
    for c1 in range(d):
        for c2 in range(d):
            if (c1, c2) == (0, 0):
                continue
            h = float(g.values[c1, c2])
            if grid.ZERO_TOL < h < cutoff:
                out.append(TorsionPoint(d, c1, c2))
    return out


def naive_grid(d: int) -> np.ndarray:
    """Cell-by-cell recomputation, no symmetry sharing."""
    out = np.full((d, d), np.nan)
    for c1 in range(d):
        for c2 in range(d):
            if (c1, c2) == (0, 0):
                continue
            out[c1, c2] = total_height(TorsionPoint(d, c1, c2)).total
    return out


class TestComputeGrid:
    def test_d2(self):
        g = grid.compute_grid(2)
        assert g.values.shape == (2, 2)
        assert math.isnan(g.values[0, 0])
        assert np.all(np.abs(nontrivial_values(g)) <= 1e-12)

    def test_d3_all_zero(self):
        vals = nontrivial_values(grid.compute_grid(3))
        assert vals.size == 8
        assert np.all(np.abs(vals) <= 1e-12)

    def test_d4_known_cell(self):
        g = grid.compute_grid(4)
        assert abs(height(g, 1, 2) - 0.5 * log(2)) <= 1e-12

    def test_matches_naive_bit_for_bit(self):
        # 30, 42 and 60 have orders with three distinct primes, where some
        # pairs have no unit among c1, c2, c2 - c1
        for d in [*range(2, 25), 30, 42, 60]:
            shared = grid.compute_grid(d).values
            naive = naive_grid(d)
            assert math.isnan(shared[0, 0])
            assert np.array_equal(shared.ravel()[1:], naive.ravel()[1:])

    def test_representative_map(self):
        g = grid.compute_grid(12)
        for c1, c2 in [(1, 5), (7, 7), (0, 3)]:
            rep = canonical_representative((c1, c2), 12)
            assert g.values[c1, c2] == g.values[rep]

    def test_range_of_values(self):
        for d in (17, 24, 48):
            vals = nontrivial_values(grid.compute_grid(d))
            assert vals.min() >= -1e-12
            assert vals.max() <= log(2) + 1e-12

    def test_sentinel_guard(self):
        g = grid.compute_grid(5)
        with pytest.raises(ValueError):
            height(g, 0, 0)
        with pytest.raises(ValueError):
            height(g, 5, -5)  # wraps onto the sentinel

    def test_height_access_is_modular(self):
        g = grid.compute_grid(5)
        assert height(g, -1, 7) == height(g, 4, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            grid.compute_grid(1)

    def test_size_limit(self):
        # refused before any d x d array is allocated
        with pytest.raises(ValueError, match="d <= 4096"):
            grid.compute_grid(grid.MAX_D + 1)

    def test_no_warnings(self):
        # the log-distance table holds log 0 = -inf, which must stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in range(2, 41):
                grid.compute_grid(d)

    def test_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("compute_grid started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        one = grid.compute_grid(60)
        many = grid.compute_grid(60)
        assert np.array_equal(nontrivial_values(one), nontrivial_values(many))


class TestStats:
    def test_d3(self):
        st = grid.stats(3, 0.1)
        assert st.count_zero == 8
        assert abs(st.mean) <= 1e-12
        assert sum(st.histogram) == 8

    def test_d4_mean_against_pointwise_oracle(self):
        st = grid.stats(4, 0.1)
        vals = [
            total_height(TorsionPoint(4, c1, c2)).total
            for c1 in range(4)
            for c2 in range(4)
            if (c1, c2) != (0, 0)
        ]
        assert st.mean == fsum(vals) / 15

    def test_histogram_counts_everything(self):
        for d in (7, 30):
            st = grid.stats(d, 0.1)
            assert sum(st.histogram) == d * d - 1
            assert st.min <= st.mean <= st.max

    def test_d5_exact_counts(self):
        # 12 exact zeros; the other 12 heights all equal log((3+sqrt(5))/2)/4,
        # which lies within 0.1 of theta but not of eta
        st = grid.stats(5, 0.1)
        assert st.count_zero == 12
        assert st.count_near_theta == 12
        assert st.count_near_eta == 0

    def test_d120_golden(self):
        st = grid.stats(120, 0.1)
        assert st.count_near_eta == 12570
        assert st.count_near_eta / (120 * 120 - 1) > 0.5
        assert st.count_zero == 359

    def test_concentration_ladder(self):
        ratios = []
        for d in (30, 60, 120, 240):
            st = grid.stats(d, 0.1)
            ratios.append(st.count_near_eta / (d * d - 1))
        assert ratios == sorted(ratios)


    def test_matches_grid_oracle(self):
        for d in [*range(2, 61), 120, 210, 360]:
            for eps in (0.1, 0.03):
                assert grid.stats(d, eps) == grid_stats(grid.compute_grid(d), eps), (d, eps)

    def test_forms_no_grid(self):
        # from empty caches; a 4096 x 4096 float grid alone is 128 MiB
        for fn in (torsion.class_table, torsion._units_array, torsion._inverses):
            fn.cache_clear()
        tracemalloc.start()
        try:
            st = grid.stats(4096, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(st.histogram) == 4096 * 4096 - 1
        assert peak < 64 << 20

    def test_domain(self):
        with pytest.raises(ValueError, match="d >= 2"):
            grid.stats(1, 0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_epsilon_refused_before_any_table(self, monkeypatch, eps):
        def refuse(e):
            raise AssertionError(f"built the class table of order {e}")

        monkeypatch.setattr(torsion, "class_table", refuse)
        with pytest.raises(ValueError, match="finite epsilon > 0"):
            grid.stats(12, eps)


class TestStatsCost:
    def test_one_modulus_costs_half_its_cells(self):
        # sum over e | d of psi(e)*phi(e) is d*d, the cells of the grid
        for d in (7, 60, 64, 2310):
            assert sum(arith.dedekind_psi(e) * arith.euler_phi(e) for e in arith.divisors(d)) == d * d

    def test_limit(self):
        grid.check_stats_cost([10_000])
        grid.check_stats_cost(range(2, 800))  # each order counts once
        with pytest.raises(ValueError, match="above the limit"):
            grid.check_stats_cost(range(2, 10**9))
        with pytest.raises(ValueError, match="above the limit"):
            grid.stats(25_000, 0.1)
        with pytest.raises(ValueError, match="d >= 2"):
            grid.check_stats_cost([5, 1])


class TestClassTable:
    @pytest.mark.parametrize("e", [2, 3, 4, 8, 9, 12, 30, 49, 60, 105])
    def test_points_of_the_projective_line(self, e):
        table = torsion.class_table(e)
        assert len(table) == arith.dedekind_psi(e)
        assert np.array_equal(torsion.class_index(e, table.first, table.second), np.arange(len(table)))
        r = np.arange(e)
        index = torsion.class_index(e, r[:, None], r)
        assert np.array_equal(index >= 0, np.gcd(np.gcd(r[:, None], r), e) == 1)
        # each class holds phi(e) pairs, all of its height bit for bit
        assert np.array_equal(np.bincount(index[index >= 0]), np.full(len(table), arith.euler_phi(e)))
        for c1, c2 in zip(*np.nonzero(index >= 0)):
            assert total_height(TorsionPoint(e, int(c1), int(c2))).total == table.height[index[c1, c2]]


class TestMeanScan:
    def test_small_means_below_eta(self):
        rows = mean_below_eta_scan([2, 4])
        assert rows[0][1] <= 1e-12 and rows[0][2]
        vals = [
            total_height(TorsionPoint(4, c1, c2)).total
            for c1 in range(4)
            for c2 in range(4)
            if (c1, c2) != (0, 0)
        ]
        assert rows[1][1] == fsum(vals) / 15
        assert rows[1][2]

    def test_no_violations_up_to_100(self):
        rows = mean_below_eta_scan(list(range(2, 101)))
        assert all(below for _, _, below in rows)


class TestSmallHeightCensus:
    def test_d3_empty(self):
        assert small_height_census(3, 0.01) == []

    def test_d5_contains_known_points(self):
        pts = small_height_census(5, 0.05)
        assert len(pts) == 12
        expect = 0.25 * log((3 + math.sqrt(5)) / 2)
        for p in pts:
            assert abs(total_height(p).total - expect) <= 1e-12

    def test_large_prime_empty(self):
        assert small_height_census(131, 0.05) == []

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            small_height_census(5, 0.0)


class TestExactOrbitEquality:
    def test_orbit_members_bit_identical(self):
        # foundation of output determinism: heights are equal floats across
        # each symmetry orbit, not merely close
        for d in (36, 48, 60):
            rng = np.random.default_rng(d)
            for _ in range(40):
                c = (int(rng.integers(d)), int(rng.integers(d)))
                if c == (0, 0):
                    continue
                values = {total_height(TorsionPoint(d, *m)).total for m in orbit(c, d)}
                assert len(values) == 1

    def test_unit_multiples_bit_identical(self):
        # the grid kernel sums one unit multiple of a pair and reuses it for all
        for d in (36, 48, 60, 97):
            rng = np.random.default_rng(d)
            ks = units(d)
            for _ in range(40):
                c1, c2 = int(rng.integers(d)), int(rng.integers(d))
                if (c1, c2) == (0, 0):
                    continue
                k = ks[int(rng.integers(len(ks)))]
                base = total_height(TorsionPoint(d, c1, c2)).total
                assert total_height(TorsionPoint(d, k * c1, k * c2)).total == base
