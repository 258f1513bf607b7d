import cmath
import math
import random
import tracemalloc
from fractions import Fraction
from math import fsum, gcd, log, pi

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import units
from zeta_heights import arith, cli, symmetry, torsion
from zeta_heights.errors import NontrivialityError
from zeta_heights.torsion import Extremality, TorsionPoint


def oracle_total(d: int, c1: int, c2: int) -> float:
    """Height via the full-level orbit sum: raw complex powers over units mod d.

    This keeps the sum at level d (not the reduced order) and uses plain
    complex arithmetic throughout, so it shares nothing with the production
    evaluation path except the final formula.
    """
    w1 = cmath.exp(2j * pi * c1 / d)
    w2 = cmath.exp(2j * pi * c2 / d)
    terms = []
    for k in units(d):
        a, b = w1**k, w2**k
        terms.append(log(max(abs(b - a), abs(b - 1), abs(a - 1))))
    arch = fsum(terms) / len(terms)
    e = d // gcd(gcd(c1, c2), d)
    lam = arith.von_mangoldt(e)
    return arch + (-lam / arith.euler_phi(e) if lam else 0.0)


def full_orbit_archimedean(pt: TorsionPoint) -> float:
    """Galois average over every unit of the order, with no k <-> e - k halving.

    math.fsum over all phi(e) units from the gcd list ``units`` of the log of the
    largest folded distance from torsion._root_distances, divided by phi(e).
    """
    e, c1, c2 = torsion._reduced(pt)
    k = np.array(units(e), dtype=np.int64)
    t1 = torsion._root_distances((c1 * k) % e, e)
    t2 = torsion._root_distances((c2 * k) % e, e)
    td = torsion._root_distances(((c2 - c1) * k) % e, e)
    return fsum(np.log(np.maximum(np.maximum(td, t2), t1)).tolist()) / len(k)


def normalized(pt: torsion.ProjectivePointC) -> tuple[complex, complex, complex]:
    """Coordinates scaled by the first one of nonnegligible modulus."""
    scale = max(abs(z) for z in pt.coords)
    if scale == 0.0:
        raise ValueError("all coordinates vanish")
    pivot = next(z for z in pt.coords if abs(z) > 1e-14 * scale)
    return tuple(z / pivot for z in pt.coords)


class TestTorsionPoint:
    def test_residues_normalized(self):
        pt = TorsionPoint(5, 7, -1)
        assert (pt.c1, pt.c2) == (2, 4)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            TorsionPoint(0, 1, 1)


class TestOrder:
    @pytest.mark.parametrize("d,c,expected", [(12, (4, 6), 6), (5, (1, 2), 5), (8, (4, 4), 2)])
    def test_examples(self, d, c, expected):
        assert torsion.order(TorsionPoint(d, *c)) == expected


class TestIntersectionPoint:
    def test_order_two(self):
        pt = torsion.intersection_point(TorsionPoint(2, 1, 1))
        x = normalized(pt)
        # proportional to (0, 1, -1)
        assert abs(x[0]) <= 1e-15
        assert abs(x[1] / x[2] + 1.0) <= 1e-12

    def test_direct_complex_oracle(self):
        # omega = (i, -1): coordinates (w2^-1 - w1^-1, 1 - w2^-1, w1^-1 - 1)
        pt = torsion.intersection_point(TorsionPoint(4, 1, 2))
        expect = (complex(-1, 1), complex(2, 0), complex(-1, -1))
        for got, want in zip(pt.coords, expect):
            assert abs(got - want) <= 1e-12

    def test_order_three_equal_moduli(self):
        pt = torsion.intersection_point(TorsionPoint(3, 1, 2))
        mods = [abs(z) for z in pt.coords]
        assert max(mods) - min(mods) <= 1e-12

    def test_coordinates_sum_to_zero(self):
        for d in range(2, 30):
            for c in ((1, 0), (1, d // 2), (d - 1, 1)):
                pt = torsion.intersection_point(TorsionPoint(d, *c))
                assert abs(sum(normalized(pt))) <= 1e-12

    def test_trivial_rejected(self):
        with pytest.raises(NontrivialityError):
            torsion.intersection_point(TorsionPoint(6, 0, 0))


class TestArchimedeanHeight:
    def test_two_term_orbit(self):
        # omega = (i, -1): both k=1 and k=3 summands equal log 2
        assert abs(torsion.archimedean_height(TorsionPoint(4, 1, 2)) - log(2)) <= 1e-14

    def test_order_two_point(self):
        # omega = (-1, 1): single summand log max(2, 0, 2); the total height
        # is 0 only because the non-Archimedean part contributes -log 2.
        assert abs(torsion.archimedean_height(TorsionPoint(2, 1, 0)) - log(2)) <= 1e-14

    def test_cancels_nonarchimedean_at_order_three(self):
        pt = TorsionPoint(3, 1, 2)
        arch = torsion.archimedean_height(pt)
        assert abs(arch + torsion.nonarchimedean_height(pt)) <= 1e-14
        assert abs(arch - log(3) / 2) <= 1e-14


class TestUnitsSieve:
    def test_matches_modular_units(self):
        for e in [*range(1, 3001), 2**19, 3**12, 999983, 993300, 510510]:
            got = torsion._units_array(e)
            want = np.array(units(e))
            assert got.dtype == want.dtype, e
            assert np.array_equal(got, want), e

    def test_order_checked_before_factorising(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"factorised {n}")

        monkeypatch.setattr(arith, "_factorize", refuse)
        with pytest.raises(ValueError, match="exceeds"):
            torsion._units_array(torsion.MAX_ORDER + 1)


class TestCacheBound:
    CACHES = (torsion._units_array, torsion._inverses, torsion.class_table)

    def test_bytes_held_stay_under_the_bound(self):
        # 30 prime orders near 10^6 held 206 MiB of unit arrays under entry-count caches
        primes = [p for p in range(999_000, 1_000_000) if arith.euler_phi(p) == p - 1][:30]
        for fn in self.CACHES:
            fn.cache_clear()
        tracemalloc.start()
        try:
            for i, p in enumerate(primes):
                torsion._units_array(p)
                torsion.class_table(1000 + i)
            held = tracemalloc.get_traced_memory()[0]
            cached = torsion._cache_bytes
        finally:
            tracemalloc.stop()
            for fn in self.CACHES:
                fn.cache_clear()
        assert len(primes) == 30
        assert cached > torsion.CACHE_BYTES - (8 << 20)  # the bound, not the inputs, limits what is held
        assert held <= torsion.CACHE_BYTES + (1 << 20)

    def test_cache_clear_drops_only_its_entries(self):
        units, inverses = torsion._units_array(97), torsion._inverses(97)
        assert torsion._inverses(97) is inverses
        torsion._inverses.cache_clear()
        assert torsion._units_array(97) is units
        assert torsion._inverses(97) is not inverses


    def test_oversized_value_is_not_cached(self, monkeypatch):
        for fn in self.CACHES:
            fn.cache_clear()
        tables = [torsion.class_table(100), torsion.class_table(210)]
        monkeypatch.setattr(torsion, "CACHE_BYTES", 64 << 10)
        units = torsion._units_array(100003)  # 800 KB of units
        assert units.nbytes > torsion.CACHE_BYTES
        assert torsion._units_array(100003) is not units
        assert all(a is b for a, b in zip([torsion.class_table(100), torsion.class_table(210)], tables))


class TestHalfOrbit:
    @pytest.mark.parametrize("e", [2, 3, 4, 5, 6, 12, 30, 210, 30030, 100003])
    def test_matches_full_orbit_bit_for_bit(self, e):
        rng = random.Random(e)
        p = arith._factorize(e)[0][0]
        # c2 = 0 and c1 == c2 have height 0; (1, p) has a non-unit c2 when e is composite
        pairs = [(1, 0), (0, 1), (1, 1), (1, p), (1, e - 1), (p, 1)]
        pairs += [(rng.randrange(e), rng.randrange(e)) for _ in range(6)]
        for c1, c2 in pairs:
            if (c1 % e, c2 % e) == (0, 0):
                continue
            pt = TorsionPoint(e, c1, c2)
            assert torsion.archimedean_height(pt) == full_orbit_archimedean(pt), (c1, c2)

    @settings(max_examples=150, deadline=None)
    @given(e=st.integers(2, 5000), c1=st.integers(0, 4999), c2=st.integers(0, 4999))
    def test_matches_full_orbit_on_primitive_pairs(self, e, c1, c2):
        assume(gcd(gcd(c1, c2), e) == 1)
        pt = TorsionPoint(e, c1, c2)
        assert torsion.archimedean_height(pt) == full_orbit_archimedean(pt)

    # orders of point-queries size; their half orbits span more than six blocks
    @pytest.mark.parametrize("e, c1, c2", [(999983, 1, 2), (999983, 123457, 999980), (999983, 500000, 3),
                                           (997920, 1, 2), (997920, 2310, 997919), (997920, 498961, 11)])
    def test_matches_full_orbit_at_large_orders(self, e, c1, c2):
        assert arith.euler_phi(e) // 2 > 6 * torsion._BLOCK
        pt = TorsionPoint(e, c1, c2)
        assert torsion.order(pt) == e
        assert torsion.archimedean_height(pt) == full_orbit_archimedean(pt)


def cold_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs from empty per-order caches."""
    for cached in (torsion._units_array, torsion._inverses, torsion.class_table):
        cached.cache_clear()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedHeight:
    """A single height sieves [0, e/2] and streams it; it builds and caches no per-order array."""

    def test_one_height_near_a_million_peaks_under_2_mib(self):
        # 8.8 MiB with a cached array of the units
        assert cold_peak(torsion.total_height, TorsionPoint(999983, 1, 2)) <= 2 << 20

    def test_one_height_near_ten_million_peaks_under_8_mib(self):
        # 85.8 MiB with a cached array of the units
        assert cold_peak(torsion.total_height, TorsionPoint(9999991, 1, 2)) <= 8 << 20

    def test_limits_window_caches_no_units(self, capsys):
        # 209 heights left 209 unit arrays, 19.5 MiB, in the cache
        assert cold_peak(cli.main, ["limits", "--primes", "10905:12905"]) <= 2 << 20
        assert capsys.readouterr().out.count("\n") == 210
        assert not any(key[0] is torsion._units_array for key in torsion._cache)

    def test_builds_no_unit_array(self, monkeypatch):
        def refuse(e):
            raise AssertionError(f"a unit array of {e} was built")

        monkeypatch.setattr(torsion, "_units_array", refuse)
        for pt in [TorsionPoint(999983, 1, 2), TorsionPoint(997920, 2310, 997919), TorsionPoint(30, 2, 27),
                   TorsionPoint(2, 1, 0)]:
            assert torsion.archimedean_height(pt) == full_orbit_archimedean(pt)

    def test_order_refused_before_sieve_or_factorisation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the order check")

        monkeypatch.setattr(arith, "_factorize", refuse)
        monkeypatch.setattr(np, "ones", refuse)
        with pytest.raises(ValueError, match="exceeds"):
            torsion.archimedean_height(TorsionPoint(torsion.MAX_ORDER + 1, 1, 2))


def images_and_multiples(e: int, c1: int, c2: int, k: int) -> list[tuple[int, int]]:
    """The 12 symmetry images of (c1, c2) mod e and the Galois multiple k*(c1, c2)."""
    return [*symmetry.images(c1 % e, c2 % e, e), (k * c1 % e, k * c2 % e)]


class TestUnitRatio:
    """Sums over (1, c) in place of (c1, c2): the same summands, in another order, so the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(e=st.integers(2, 10**5), c1=st.integers(0, 10**5), c2=st.integers(0, 10**5), k=st.integers(1, 10**5))
    def test_symmetries_and_galois_multiples_bit_identical(self, e, c1, c2, k):
        assume((c1 % e, c2 % e) != (0, 0) and gcd(k, e) == 1)
        base = torsion.archimedean_height(TorsionPoint(e, c1, c2))
        for a, b in images_and_multiples(e, c1, c2, k):
            assert torsion.archimedean_height(TorsionPoint(e, a, b)) == base, (a, b)

    @settings(max_examples=200, deadline=None)
    @given(e=st.integers(6, 3000), x=st.integers(1, 2999), y=st.integers(1, 2999), branch=st.integers(0, 3))
    def test_each_branch_matches_the_full_orbit(self, e, x, y, branch):
        # branch: the first unit is c1, c2, c1 - c2, or there is none; p and q are primes of e
        primes = [p for p, _ in arith._factorize(e)]
        assume(len(primes) >= 2)
        p, q = primes[0], primes[-1]
        c1, c2 = [(x, y), (p * x, y), (p * x, q * y), (p * x, q * y)][branch]
        first = next((i for i, m in enumerate((c1, c2, c1 - c2)) if gcd(m, e) == 1), 3)
        assume(first == branch and gcd(gcd(c1, c2), e) == 1)
        pt = TorsionPoint(e, c1, c2)
        assert (torsion._unit_ratio(*torsion._reduced(pt)) is None) == (branch == 3)
        assert torsion.archimedean_height(pt) == full_orbit_archimedean(pt)

    # pairs with no unit among c1, c2 and c1 - c2; (924000; 2, 35) spans several blocks
    @pytest.mark.parametrize("e, c1, c2", [(30, 2, 27), (30, 3, 5), (60, 2, 35), (210, 2, 7), (210, 2, 35),
                                           (2310, 2, 35), (30030, 2, 35), (924000, 2, 35)])
    def test_pairs_without_a_unit(self, e, c1, c2):
        pt = TorsionPoint(e, c1, c2)
        assert torsion._unit_ratio(*torsion._reduced(pt)) is None
        k = next(k for k in range(e // 3, e) if gcd(k, e) == 1)
        base = torsion.archimedean_height(pt)
        assert base == full_orbit_archimedean(pt)
        for a, b in images_and_multiples(e, c1, c2, k):
            assert torsion.archimedean_height(TorsionPoint(e, a, b)) == base, (a, b)


def exactly_rounded(values: list[float]) -> float:
    """math.fsum, or the exact rational sum rounded once where fsum's partials overflow."""
    try:
        return fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values)))


def row_sums(blocks: list[np.ndarray]) -> tuple[list[float], int]:
    """``_row_sums`` over copies of ``blocks``, and the number of times it made them."""
    calls = 0

    def make() -> list[np.ndarray]:
        nonlocal calls
        calls += 1
        return [b.copy() for b in blocks]

    return torsion._row_sums(make), calls


class TestExactSum:
    """``_row_sums`` against math.fsum row by row, on 2-D blocks and on column slices of them streamed as blocks."""

    B = torsion._BLOCK

    @pytest.fixture(autouse=True, scope="class")
    def split_every_block(self):
        # the chunk split runs on every block here, short ones too (TestShortBlocks sums those whole)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(torsion, "_FSUM_TERMS", 0)
            yield

    def check(self, rows, split: int | None = None) -> int:
        block = np.array(rows, dtype=float).reshape(len(rows), -1)
        blocks = [block] if split is None else [block[:, :split], block[:, split:]]
        try:
            want = [exactly_rounded(row) for row in block.tolist()]
        except OverflowError:
            with pytest.raises(OverflowError):
                row_sums(blocks)
            return 0
        got, calls = row_sums(blocks)
        assert [v.hex() for v in got] == [v.hex() for v in want]  # hex tells -0.0 from 0.0
        return calls

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n), min_size=1, max_size=4)),
        st.integers(0, 40))
    def test_matches_fsum_on_any_floats(self, rows, split):
        self.check(rows)
        self.check(rows, min(split, len(rows[0])))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, B - 1, B, B + 1, 2**16 - 1, 2**16, 2**16 + 1]),
           low=st.integers(-1100, 900), span=st.integers(0, 1100), seed=st.integers(0, 2**32 - 1),
           zeros=st.booleans(), cancel=st.booleans())
    def test_matches_fsum_on_long_arrays(self, n, low, span, seed, zeros, cancel):
        # mixed signs, subnormals below 2^-1022, exponents spread over up to 1100 bits
        rng = np.random.default_rng(seed)
        x = np.ldexp(rng.uniform(-1.0, 1.0, n), np.minimum(rng.integers(low, low + span + 1, n), 990))
        if zeros:
            x[rng.integers(0, n, n // 3 + 1)] = rng.choice([0.0, -0.0])
        if cancel:
            x[n // 2 :] = -x[: n - n // 2]
        rows = [x, -x]
        self.check(rows)
        self.check(rows, min(self.B, n))

    @pytest.mark.parametrize("values", [[0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0], [-5e-324, 5e-324],
                                        [5e-324] * 3, [2.0**-1022, -(2.0**-1074)], [1e308, 1e308],
                                        [1.7976931348623157e308, 1e292, -1e292], [1e300, 1e-300, -1e300]])
    def test_edge_cases(self, values):
        self.check([values])
        self.check([values, [-v for v in values], values[::-1]], 1)

    # exact sums on a rounding midpoint of doubles, or 2^-200 off it, in two blocks: one level cannot tell
    @pytest.mark.parametrize("values", [[1.0, 2**-53], [1.0, 2**-53, 2**-200], [1.0, 2**-53, -(2**-200)],
                                        [3.0, 2**-52, 2**-300], [2**-1000, 2**-1053, -(2**-1100)]])
    def test_near_a_rounding_midpoint_goes_deeper(self, values):
        for row in (values, [-v for v in values]):
            assert self.check([row], 1) > 1

    @pytest.mark.parametrize("x", [1.0, 0.1, 5e-324, 2.0**-1022, 1e300, 1.7976931348623157e308])
    def test_cancelling_rows_and_negative_zeros(self, x):
        # x, -x in one block and in two; rows of -0.0 beside them
        self.check([[x, -x], [-x, x], [-0.0, -0.0]])
        self.check([[x, -x], [-x, x], [-0.0, -0.0]], 1)
        self.check([[x, 0.1, -x], [-0.0, -0.0, -0.0]], 1)

    def test_sum_past_an_intermediate_overflow(self):
        big = 1.7976931348623157e308
        with pytest.raises(OverflowError):
            fsum([big, big, -big])
        assert row_sums([np.array([[big, big, -big], [-big, -big, big]])])[0] == [big, -big]

    def test_blocks_of_several_arrays(self):
        values = [0.1] * 10 + [1e16, -1e16] + [0.3] * (self.B + 5)
        blocks = [np.array([values[:7]]), np.empty((1, 0)), np.array([values[7:]])]
        assert row_sums(blocks)[0] == [fsum(values)]
        assert row_sums([np.empty((2, 0))]) == ([0.0, 0.0], 1)
        assert row_sums([]) == ([], 1)

    def test_bound_holds_for_any_summation_order(self):
        # Remainders summed with the error gamma(n - 1) * sum|f| allows, 3/4 of it downward: the one-level
        # interval still holds the exact sum, 2^-100 above the midpoint 1 + 2^-53, and the sum goes deeper.
        n, u = 64, 2.0**-53
        a = (1 - 2.0**-20) * 2.0**-46  # a remainder just below 2^s, s = 1 - (53 - 6) for 1.0 and 64 columns
        row = [1.0] + [a, -a] * 31 + [2.0**-53 + 2.0**-100]
        gamma = (n - 1) * u / (1 - (n - 1) * u)

        class WorstCaseSum(np.ndarray):
            def sum(self, axis=None, **kwargs):
                assert axis == 1 and not kwargs
                out = []
                for r in np.asarray(self).tolist():
                    exact = fsum(r)  # integer chunks below 2^53 sum exactly in any order
                    out.append(exact if all(v == int(v) for v in r) else exact - 0.75 * gamma * fsum(map(abs, r)))
                return np.array(out)

        calls = 0

        def make():
            nonlocal calls
            calls += 1
            return [np.array([row]).view(WorstCaseSum)]

        assert torsion._row_sums(make)[0].hex() == fsum(row).hex() == (1 + 2.0**-52).hex()
        assert calls == 2


class TestShortBlocks:
    """Blocks of at most ``_FSUM_TERMS`` values go to math.fsum whole: one pass alone, the split's bound beside others."""

    @pytest.mark.parametrize("values", [[1.0, 2**-53], [1.0, 2**-53, -(2**-200)], [0.1, -0.1], [-0.0, -0.0]])
    def test_alone_in_one_pass(self, values):
        rows = [values, [-v for v in values], values[::-1]]
        got, calls = row_sums([np.array(rows)])
        assert [v.hex() for v in got] == [fsum(row).hex() for row in rows]
        assert calls == 1

    def test_beside_a_split_block(self):
        # 1 + 2^-53 + 2^-200: the long block's bound leaves the midpoint in doubt, so both blocks are made again
        short, long = [2**-200, 0.5], [1.0, -0.5, 2**-53] + [0.0] * torsion._FSUM_TERMS
        for sign in (1.0, -1.0):
            got, calls = row_sums([sign * np.array([short]), sign * np.array([long])])
            assert got[0].hex() == fsum(sign * v for v in short + long).hex() == (sign * (1 + 2.0**-52)).hex()
            assert calls == 2


class TestOneLevel:
    """The sums of point queries, a limits window and a class table certify after one level.

    ``_row_sums`` makes its blocks a second time only where one level cannot
    round a row; a change that sends every sum deeper doubles its cost and
    fails here.
    """

    @pytest.fixture
    def calls(self, monkeypatch) -> list[int]:
        calls, row_sums = [], torsion._row_sums

        def counting(blocks):
            calls.append(0)

            def make():
                calls[-1] += 1
                return blocks()

            return row_sums(make)

        monkeypatch.setattr(torsion, "_row_sums", counting)
        return calls

    def test_heights_at_orders_1e5_to_1e6(self, calls):
        # one order per stratum of [1e5, 1e6]: primes and multiples of 2*3*5*7*11, c1 a unit
        rng = random.Random(2310)
        for i in range(40):
            lo, hi = 100_000 + i * 22_500, 100_000 + (i + 1) * 22_500
            if i % 2:
                d = 2310 * rng.randrange(lo // 2310 + 1, hi // 2310)
            else:
                d = next(p for p in range(rng.randrange(lo, hi - 200), hi) if arith._factorize(p) == ((p, 1),))
            c1 = next(c for c in iter(lambda: rng.randrange(1, d), None) if gcd(c, d) == 1)
            torsion.total_height(TorsionPoint(d, c1, rng.randrange(d)))
        assert calls == [1] * 40

    def test_limits_window(self, calls, capsys):
        assert cli.main(["limits", "--primes", "10905:12905"]) == 0
        assert capsys.readouterr().out.count("\n") == 210
        assert calls == [1] * 209

    def test_class_table_row_groups(self, calls):
        torsion.class_table.cache_clear()
        torsion.class_table(9973)
        assert len(calls) > 200 and set(calls) == {1}


def shaped_pair(d: int, z: int, w: int, form: int) -> tuple[int, int]:
    """(c1, c2) in a form of height 0 (0-3), of height log 2 (4-6, d even), or (z, w) (7)."""
    h, t = d // 2 * (d % 2 == 0), d // 3 * (d % 3 == 0)
    return [(0, z), (z, 0), (z, z), (t, 2 * t), (h, z), (z, h), (z, z + h), (z, w)][form]


class TestHeightRange:
    """Totals at orders up to 1e5 lie in [0, log 2], and at 0 and log 2 where classify_extremal says so."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 10**5), z=st.integers(1, 10**5), w=st.integers(0, 10**5), form=st.integers(0, 7))
    def test_total_in_range_and_extremal_values(self, d, z, w, form):
        pt = TorsionPoint(d, *shaped_pair(d, z, w, form))
        assume(not pt.is_trivial)
        total = torsion.total_height(pt).total
        assert -1e-12 <= total <= log(2) + 1e-12
        kind = torsion.classify_extremal(pt)
        if kind is Extremality.MIN:
            assert abs(total) <= 1e-12
        elif kind is Extremality.MAX:
            assert abs(total - log(2)) <= 1e-12


class TestNonArchimedeanHeight:
    def test_prime_power_orders(self):
        assert torsion.nonarchimedean_height(TorsionPoint(4, 1, 2)) == -log(2) / 2
        assert torsion.nonarchimedean_height(TorsionPoint(5, 1, 0)) == -log(5) / 4

    def test_composite_order_vanishes(self):
        assert torsion.nonarchimedean_height(TorsionPoint(6, 1, 1)) == 0.0

    def test_depends_only_on_order(self):
        points = [TorsionPoint(8, 1, 3), TorsionPoint(8, 3, 5), TorsionPoint(16, 2, 6)]
        values = {torsion.nonarchimedean_height(p) for p in points}
        assert len(values) == 1  # all have order 8


class TestTotalHeight:
    def test_known_values(self):
        assert abs(torsion.total_height(TorsionPoint(4, 1, 2)).total - 0.5 * log(2)) <= 1e-10
        expect5 = 0.25 * log((3 + math.sqrt(5)) / 2)
        assert abs(torsion.total_height(TorsionPoint(5, 1, 2)).total - expect5) <= 1e-10
        assert abs(torsion.total_height(TorsionPoint(3, 1, 2)).total) <= 1e-10

    def test_breakdown_sums(self):
        for d, c in [(7, (2, 3)), (12, (5, 8)), (30, (7, 11))]:
            parts = torsion.total_height(TorsionPoint(d, *c))
            assert parts.total == parts.archimedean + parts.nonarchimedean
            assert parts.orbit_size == arith.euler_phi(torsion.order(TorsionPoint(d, *c)))

    def test_matches_full_level_oracle(self):
        for d in range(2, 21):
            for c1 in range(d):
                for c2 in range(d):
                    if (c1, c2) == (0, 0):
                        continue
                    got = torsion.total_height(TorsionPoint(d, c1, c2)).total
                    assert abs(got - oracle_total(d, c1, c2)) <= 1e-12

    def test_range(self):
        for d in range(2, 61):
            for c1 in range(d):
                for c2 in range(d):
                    if (c1, c2) == (0, 0):
                        continue
                    h = torsion.total_height(TorsionPoint(d, c1, c2)).total
                    assert -1e-12 <= h <= log(2) + 1e-12

    def test_galois_invariance(self):
        rng = random.Random(3)
        for _ in range(60):
            d = rng.randrange(2, 61)
            c1, c2 = rng.randrange(d), rng.randrange(d)
            if (c1, c2) == (0, 0):
                continue
            base = torsion.total_height(TorsionPoint(d, c1, c2)).total
            for k in units(d):
                moved = torsion.total_height(TorsionPoint(d, k * c1 % d, k * c2 % d)).total
                assert abs(moved - base) <= 1e-12

    def test_trivial_rejected(self):
        with pytest.raises(NontrivialityError):
            torsion.total_height(TorsionPoint(9, 0, 0))

    def test_refuses_huge_orders(self):
        # refused before the sieve is allocated
        with pytest.raises(ValueError, match="order"):
            torsion.total_height(TorsionPoint(torsion.MAX_ORDER + 1, 1, 0))


class TestTotalHeights:
    @pytest.mark.parametrize("e", [2, 3, 4, 12, 30, 49, 60, 105])
    def test_matches_total_height_bit_for_bit(self, e):
        pairs = [(a, b) for a in range(e) for b in range(e) if gcd(gcd(a, b), e) == 1]
        c1, c2 = np.array(pairs).T
        got = torsion.total_heights(e, c1, c2)
        want = [torsion.total_height(TorsionPoint(e, a, b)).total for a, b in pairs]
        assert got.tolist() == want

    def test_domain(self):
        with pytest.raises(ValueError):
            torsion.total_heights(1, np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="primitive"):
            torsion.total_heights(6, np.array([1, 2]), np.array([1, 4]))


class TestClassifyExtremal:
    def test_examples(self):
        assert torsion.classify_extremal(TorsionPoint(7, 0, 3)) is Extremality.MIN
        assert torsion.classify_extremal(TorsionPoint(6, 3, 1)) is Extremality.MAX
        assert torsion.classify_extremal(TorsionPoint(8, 4, 1)) is Extremality.INTERIOR

    def test_consistent_with_heights(self):
        for d in range(2, 49):
            for c1 in range(d):
                for c2 in range(d):
                    if (c1, c2) == (0, 0):
                        continue
                    h = torsion.total_height(TorsionPoint(d, c1, c2)).total
                    cls = torsion.classify_extremal(TorsionPoint(d, c1, c2))
                    assert (cls is Extremality.MIN) == (abs(h) <= 1e-10)
                    assert (cls is Extremality.MAX) == (abs(h - log(2)) <= 1e-10)


class TestNonArchimedeanViaPadicDistances:
    def test_matches_sum_of_padic_distance_logs(self):
        # the finite-place total equals the sum over primes p of
        # log |zeta_e - 1|_p, nonzero only when e is a power of p
        def primes_to(n):
            return [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]

        def padic_distance_to_one(p, e):
            # |zeta_e - 1|_p = p**(-1/phi(e)) if e is a power of p, else 1
            m = e
            while m % p == 0:
                m //= p
            return p ** (-1.0 / arith.euler_phi(e)) if m == 1 else 1.0

        for d in range(2, 61):
            pt = TorsionPoint(d, 1, 3)
            e = torsion.order(pt)
            from_distances = fsum(log(padic_distance_to_one(p, e)) for p in primes_to(e))
            assert abs(torsion.nonarchimedean_height(pt) - from_distances) <= 1e-15
