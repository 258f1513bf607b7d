import functools
import json
import math
import tracemalloc
from fractions import Fraction
from math import log

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import curve_reference
from helpers import units

from zeta_heights import arith, cli, constants, curves, quad, symmetry
from zeta_heights.curves import TorsionCurve
from zeta_heights.errors import EmptyIntersection
from zeta_heights.torsion import TorsionPoint, order, total_height


def strictness_ratio(a: tuple[int, int], d: int) -> Fraction:
    """Fraction of d-torsion points killed by the character chi^a: gcd(a1, a2, d)/d."""
    if a == (0, 0):
        raise ValueError("character exponent must be nonzero")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return Fraction(math.gcd(math.gcd(a[0], a[1]), d), d)


def sample_on_curve(curve: TorsionCurve, d: int) -> list[TorsionPoint]:
    """All nontrivial d-torsion points on the curve, in lexicographic order."""
    c1, c2 = curves._curve_residues(curve, d)
    return [TorsionPoint(d, i, j) for i, j in zip(c1.tolist(), c2.tolist())]


# Reference implementations: the d x d meshgrid sampler, the scan for the
# witness over TorsionPoint objects, and break points from an integer scan.


def ref_sample_on_curve(curve: TorsionCurve, d: int) -> list[TorsionPoint]:
    targets = {(d // curve.e) * j % d for j in units(curve.e)}
    c1g, c2g = np.meshgrid(np.arange(d, dtype=np.int64), np.arange(d, dtype=np.int64), indexing="ij")
    mask = np.isin((curve.a1 * c1g + curve.a2 * c2g) % d, sorted(targets))
    mask[0, 0] = False
    return [TorsionPoint(d, int(i), int(j)) for i, j in np.argwhere(mask)]


def ref_curve_witness(curve: TorsionCurve, d: int) -> TorsionPoint:
    return min(ref_sample_on_curve(curve, d), key=lambda p: (-order(p), p.c1, p.c2))


@functools.cache
def ref_lattice_hits(m: int, n: int, e: int) -> list[float]:
    # w in (0, 1) with m*w + n/e in Z, 0 <= n < e: w = (k*e - n)/(m*e), |k| <= |m|; int / int rounds correctly
    return [(k * e - n) / (m * e) for k in range(-abs(m), abs(m) + 1) if 0 < (k * e - n) * m < m * m * e]


def ref_segment_breaks(p: int, q: int, n1: int, n2: int, e: int) -> list[float]:
    families = [(p, n1), (q, n2), (p - q, n1 - n2), (p + q, n1 + n2), (2 * p - q, 2 * n1 - n2),
                (2 * q - p, 2 * n2 - n1)]
    return sorted({w for m, n in families for w in ref_lattice_hits(m, n % e, e)})


def assert_breaks_match(curve: TorsionCurve) -> int:
    p, q = -curve.a2, curve.a1
    r, s = curves._bezout(curve.a1, curve.a2)
    js = units(curve.e)
    assert curves._basis(curve) == ((p, q), (r, s))
    assert curves.segment_offsets(curve) == [(j * r, j * s) for j in js]
    n1, n2 = np.array(js) * r, np.array(js) * s
    families = [(p, n1), (q, n2), (q - p, n2 - n1), (p + q, n1 + n2), (2 * p - q, 2 * n1 - n2),
                (2 * q - p, 2 * n2 - n1)]
    expected = [ref_segment_breaks(p, q, j * r, j * s, curve.e) for j in js]
    assert [curve_reference._segment_breaks(p, q, j * r, j * s, curve.e) for j in js] == expected
    k, m, w = curves._breaks(families, curve.e)
    assert np.array_equal(w, k / (m * curve.e))
    assert (np.diff(w, axis=1) >= 0).all() and (w[:, 0] == 0.0).all() and (w[:, -1] == 1.0).all()
    inner = (np.diff(w, axis=1, prepend=-1.0) > 0.0) & (w > 0.0) & (w < 1.0)  # the first of repeats inside (0, 1)
    assert inner.sum(axis=1).tolist() == [len(row) for row in expected]
    assert w[inner].tolist() == [x for row in expected for x in row]
    return len(js)


def assert_points_match(curve: TorsionCurve, d: int) -> None:
    assert sample_on_curve(curve, d) == ref_sample_on_curve(curve, d)
    if d == 1:  # e = 1: the trivial point is the only one
        with pytest.raises(ValueError):
            curves._curve_witness(curve, d)
    else:
        assert curves._curve_witness(curve, d) == ref_curve_witness(curve, d)


def primitive_directions(bound: int) -> list[tuple[int, int]]:
    return [(a1, a2) for a1 in range(-bound, bound + 1) for a2 in range(-bound, bound + 1) if math.gcd(a1, a2) == 1]


class TestTorsionCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorsionCurve(0, 0, 1)
        with pytest.raises(ValueError):
            TorsionCurve(2, 4, 1)  # not primitive
        with pytest.raises(ValueError):
            TorsionCurve(1, 0, 0)


class TestSegmentFamily:
    def test_segment_count_is_phi(self):
        for a, e in [((1, 0), 1), ((2, -1), 6), ((1, 1), 12)]:
            assert len(curves.segment_offsets(TorsionCurve(*a, e))) == arith.euler_phi(e)

    def test_segments_lie_on_curve(self):
        curve = TorsionCurve(3, -2, 4)
        (p, q), _ = curves._basis(curve)
        for (n1, n2), j in zip(curves.segment_offsets(curve), (1, 3)):
            for w in (0.0, 0.25, 0.7):
                u1, u2 = 2 * math.pi * (w * p + n1 / curve.e), 2 * math.pi * (w * q + n2 / curve.e)
                val = (curve.a1 * u1 + curve.a2 * u2) / (2 * math.pi) - j / curve.e
                assert abs(val - round(val)) <= 1e-12

    def test_basis_is_unimodular(self):
        for a1, a2 in primitive_directions(12):
            (p, q), (r, s) = curves._basis(TorsionCurve(a1, a2, 1))
            assert a1 * p + a2 * q == 0
            assert a1 * r + a2 * s == 1
            assert abs(p * s - q * r) == 1


class TestBasisAgainstReferences:
    """The one-basis routes equal the meshgrid sampler, an integer break scan and the segment quadrature."""

    def test_break_lists(self):
        segments = sum(assert_breaks_match(TorsionCurve(*a, e)) for a in primitive_directions(12) for e in range(1, 31))
        assert segments == 102304

    def test_points_and_witnesses(self):
        for a in primitive_directions(6):
            for e in (1, 2, 3, 4, 6, 12):
                for m in (1, 2, 3, 5, 10):
                    assert_points_match(TorsionCurve(*a, e), e * m)

    @settings(max_examples=200, deadline=None)
    @given(a1=st.integers(-40, 40), a2=st.integers(-40, 40), e=st.integers(1, 40), m=st.integers(1, 6))
    def test_random_curves(self, a1, a2, e, m):
        assume(math.gcd(a1, a2) == 1)
        curve = TorsionCurve(a1, a2, e)
        assert_breaks_match(curve)
        assert_points_match(curve, e * m)

    @pytest.mark.parametrize(
        "a1,a2,e,bits",
        [
            pytest.param(0, 1, 1, "0x0.0p+0", id="0-1-1"),
            pytest.param(2, -1, 1, "0x1.4ad1ccb709038p-2", id="2--1-1"),
            pytest.param(1, -2, 3, "0x1.1742a6677f65ap-1", id="1--2-3"),
            pytest.param(5, -3, 7, "0x1.f5561dd64e1e4p-2", id="5--3-7"),
            pytest.param(3, 1, 4, "0x1.f62bd1bd1e115p-2", id="3-1-4"),
            pytest.param(-4, 5, 8, "0x1.f3883c7913e98p-2", id="-4-5-8"),
        ],
    )
    def test_limit_height_bits(self, a1, a2, e, bits):
        # values of the Clausen sum, each within 2.4e-16 of a kink-aware mpmath quadrature at 20 digits
        assert curves.limit_height(TorsionCurve(a1, a2, e)).hex() == bits

    @pytest.mark.parametrize("curve", [TorsionCurve(5, -3, 7), TorsionCurve(-4, 5, 8), TorsionCurve(2, 7, 30)])
    def test_segments_batched_as_one_by_one(self, curve):
        # the segment quadrature, batched over the segments, at tol 1e-13 against the Clausen sum
        assert abs(curve_reference.limit_height(curve) - curves.limit_height(curve)) <= 1e-14

    @pytest.mark.parametrize("a2", [3000, 4999])
    def test_long_curves_finish_near_eta(self, capsys, a2):
        # 6*a2 + 4 break points; over one common denominator (3.5e17 for 4999) the numerators of t overflow int64
        assert cli.main(["curve", "--a", f"1,{a2}", "--e", "1"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["value"] - constants.eta()) <= 1e-6

    def test_witness_memory(self):
        # the meshgrid route peaked at 274.7 MiB here
        tracemalloc.start()
        try:
            pt = curves._curve_witness(TorsionCurve(2, -1, 1), 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (pt.c1, pt.c2) == (1, 2)
        assert peak < 5 * 2**20


class TestCostGuards:
    def refuse(self, *args, **kwargs):
        raise AssertionError("work started before the cost guard")

    def test_break_limit(self, monkeypatch):
        monkeypatch.setattr(curves, "_breaks", self.refuse)
        monkeypatch.setattr(curves, "_units_array", self.refuse)
        for a1, a2, e in [(1, 1000, 1000), (1, 0, 10**8), (5000, 1, 1)]:
            with pytest.raises(ValueError, match="break points"):
                curves.limit_height(TorsionCurve(a1, a2, e))

    def test_break_limit_is_inclusive(self, monkeypatch):
        # phi(1)*(|1| + |4999| + |5000|) is exactly MAX_CURVE_BREAKS; over one piece [0, 1] every chord integrates to 0
        one_piece = (np.array([[0, 1]]), np.array([[1, 1]]), np.array([[0.0, 1.0]]))
        monkeypatch.setattr(curves, "_breaks", lambda families, e: one_piece)
        assert curves.limit_height(TorsionCurve(1, 4999, 1)) == 0.0
        with pytest.raises(ValueError, match="break points"):
            curves.limit_height(TorsionCurve(1, 5000, 1))

    def test_point_limit(self, monkeypatch):
        monkeypatch.setattr(np, "arange", self.refuse)
        for curve, d in [(TorsionCurve(2, -1, 1), 10**11), (TorsionCurve(1, 1, 12), 12 * 2500001)]:
            with pytest.raises(ValueError, match="above the limit"):
                sample_on_curve(curve, d)
            with pytest.raises(ValueError, match="above the limit"):
                curves._curve_witness(curve, d)
        with pytest.raises(AssertionError):  # exactly MAX_CURVE_POINTS = 5*10**6 * phi(4) points pass
            curves._curve_witness(TorsionCurve(1, 1, 4), 5 * 10**6)

    @pytest.mark.parametrize(
        "argv,module,name",
        [
            (["curve", "--a", "1,1000", "--e", "1000"], quad, "integrate"),
            (["curve", "--a", "1,0", "--e", "100000000"], curves, "_units_array"),
            (["limits", "--a", "2,-1", "--d-list", "100000000000"], np, "arange"),
            (["limits", "--primes", "2:100000000000"], cli, "bytearray"),
            (["curve", "--a", "1,1000", "--e", "1000"], curves, "_breaks"),
        ],
    )
    def test_cli_exits_2(self, capsys, monkeypatch, argv, module, name):
        # bytearray is a builtin that cli shadows only while patched; every other name must exist
        monkeypatch.setattr(module, name, self.refuse, raising=name != "bytearray")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_large_curve_witnesses_finish(self, capsys):
        # the meshgrid route needed 74.5 GiB at d = 100000
        assert cli.main(["limits", "--a", "2,-1", "--e", "1", "--d-list", "100000,1000003"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [["100000", "1", "2", "100000"], ["1000003", "1", "2", "1000003"]]


class TestLimitHeight:
    def test_axis_directions_vanish(self):
        for a in [(0, 1), (1, 0), (1, -1)]:
            assert abs(curves.limit_height(TorsionCurve(*a, 1))) <= 1e-9

    def test_mahler_measure_directions(self):
        theta = constants.theta()
        for a in [(2, -1), (1, 1), (1, -2)]:
            assert abs(curves.limit_height(TorsionCurve(*a, 1)) - theta) <= 1e-8

    def test_zero_curves_are_exactly_zero(self):
        # the Clausen values sit at whole and half turns, where Cl_2 is 0 exactly
        for a in [(0, 1), (1, 0), (1, -1)]:
            assert curves.limit_height(TorsionCurve(*a, 1)) == 0.0

    def test_e2_closed_form(self):
        # for a=(0,1), e=2 the segment is u2 = pi, where the distance to -1
        # dominates at value 2, so the average is exactly log 2
        assert abs(curves.limit_height(TorsionCurve(0, 1, 2)) - log(2)) <= 1e-10

    def test_jensen_identity(self):
        res = quad.integrate(lambda w: np.log(np.abs(2.0 * np.sin(math.pi * w))), 0.0, 1.0, 1e-11)
        assert abs(res.value) <= 1e-10


class TestCurveSymmetries:
    @staticmethod
    def dual_images(a1: int, a2: int) -> list[tuple[int, int]]:
        """a.M^-1 for the twelve M of the symmetry group: chi^a(c) is unchanged when c -> M c."""
        out = []
        for (m11, m12), (m21, m22) in symmetry._MATRICES:
            det = m11 * m22 - m12 * m21  # +-1, so M^-1 = det * adj(M)
            out.append((det * (a1 * m22 - a2 * m21), det * (a2 * m11 - a1 * m12)))
        return out

    @pytest.mark.parametrize("a", [(1, 2), (2, 3), (3, -1)])
    def test_limit_height_invariant_under_the_group(self, a):
        images = self.dual_images(*a)
        assert len(set(images)) == 12
        values = [curves.limit_height(TorsionCurve(*b, 3)) for b in images]
        assert max(values) - min(values) <= 1e-13

    def test_theta_orbit(self):
        theta = constants.theta()
        for a in [(1, 1), (2, -1), (1, -2)]:
            assert abs(curves.limit_height(TorsionCurve(*a, 1)) - theta) <= 1e-14

    def test_order_two_translate(self):
        assert abs(curves.limit_height(TorsionCurve(1, 0, 2)) - log(2)) <= 1e-15

    def test_shared_value(self):
        assert abs(curves.limit_height(TorsionCurve(1, 2, 1)) - curves.limit_height(TorsionCurve(3, -1, 1))) <= 1e-14


class TestStrictnessRatio:
    @pytest.mark.parametrize(
        "a,d,expected",
        [((2, 4), 6, Fraction(1, 3)), ((1, 0), 10, Fraction(1, 10)), ((3, 3), 9, Fraction(1, 3))],
    )
    def test_examples(self, a, d, expected):
        assert strictness_ratio(a, d) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            strictness_ratio((0, 0), 5)


class TestSampleOnCurve:
    def test_line_through_origin(self):
        pts = sample_on_curve(TorsionCurve(2, -1, 1), 5)
        assert {(p.c1, p.c2) for p in pts} == {(c, 2 * c % 5) for c in range(1, 5)}

    def test_shifted_level(self):
        pts = sample_on_curve(TorsionCurve(0, 1, 2), 4)
        assert {(p.c1, p.c2) for p in pts} == {(c, 2) for c in range(4)}

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersection):
            sample_on_curve(TorsionCurve(1, 0, 3), 4)

    def test_cardinality(self):
        for a, e, d in [((2, -1), 1, 7), ((1, 1), 2, 8), ((1, -2), 3, 9), ((0, 1), 4, 12)]:
            pts = sample_on_curve(TorsionCurve(*a, e), d)
            assert len(pts) == d * arith.euler_phi(e) - (1 if e == 1 else 0)

    def test_points_satisfy_character_condition(self):
        curve = TorsionCurve(1, -2, 3)
        for p in sample_on_curve(curve, 9):
            val = (curve.a1 * p.c1 + curve.a2 * p.c2) % 9
            assert val in {3, 6}  # (d/e)*j for j coprime to 3


class TestLimitExperiment:
    def test_generic_witness_convergence(self):
        exp = curves.limit_experiment(None, [101, 499, 997])
        assert abs(exp.limit - constants.eta()) <= 1e-15
        gaps = [r.gap for r in exp.rows]
        assert gaps[-1] < 0.02
        assert gaps[-1] < gaps[0]
        # regression pin from the build-time oracle run
        assert abs(exp.rows[-1].height - 0.4834577978415024) <= 1e-9

    def test_curve_witness_convergence(self):
        exp = curves.limit_experiment(TorsionCurve(2, -1, 1), [5, 13, 499])
        assert abs(exp.limit - constants.theta()) <= 1e-8
        assert (exp.rows[0].c1, exp.rows[0].c2) == (1, 2)
        assert exp.rows[-1].gap < 0.02

    def test_degenerate_curve_heights_stay_zero(self):
        exp = curves.limit_experiment(TorsionCurve(0, 1, 1), [7, 11, 13])
        for row in exp.rows:
            assert abs(row.height) <= 1e-9

    def test_random_witness_deterministic(self):
        a = curves.limit_experiment(None, [50, 60], random_witness=True, seed=5)
        b = curves.limit_experiment(None, [50, 60], random_witness=True, seed=5)
        assert a == b
        for row in a.rows:
            assert row.order == row.d  # primitive witness has full order

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError):
            curves.limit_experiment(None, [10, 10])
        with pytest.raises(ValueError):
            curves.limit_experiment(None, [])

    def test_witness_has_maximal_order(self):
        curve = TorsionCurve(1, 1, 2)
        exp = curves.limit_experiment(curve, [8])
        pts = sample_on_curve(curve, 8)
        assert exp.rows[0].order == max(order(p) for p in pts)
        witness = TorsionPoint(8, exp.rows[0].c1, exp.rows[0].c2)
        assert abs(total_height(witness).total - exp.rows[0].height) == 0.0


class TestDomainGuards:
    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            strictness_ratio((1, 2), 0)
        with pytest.raises(ValueError):
            sample_on_curve(TorsionCurve(1, 0, 1), 0)


class TestSegmentAverageAgainstOrbitHeights:
    """Cross-route check: quadrature limits vs actual heights on the curve."""

    @pytest.mark.parametrize(
        "a,e,d",
        [((1, 0), 4, 400), ((1, 1), 2, 402), ((1, -2), 3, 399), ((0, 1), 6, 396)],
    )
    def test_limit_matches_large_order_heights(self, a, e, d):
        curve = TorsionCurve(*a, e)
        lim = curves.limit_height(curve)
        pts = sample_on_curve(curve, d)
        witness = max(pts, key=order)
        assert order(witness) == d
        assert abs(total_height(witness).total - lim) < 5e-3

    def test_direction_symmetries(self):
        # negating or swapping the direction vector leaves the curve family
        # (and hence the limit) unchanged
        for a, e in [((2, -1), 5), ((3, 1), 4)]:
            v = curves.limit_height(TorsionCurve(*a, e))
            assert abs(curves.limit_height(TorsionCurve(-a[0], -a[1], e)) - v) <= 1e-9
            assert abs(curves.limit_height(TorsionCurve(a[1], a[0], e)) - v) <= 1e-9
