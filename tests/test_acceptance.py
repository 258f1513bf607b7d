"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.
"""

import math
import time
from math import log, pi

import numpy as np
from helpers import limit_integral_pieces, nontrivial_values

from zeta_heights import amoeba, cli, constants, curves, grid, torsion
from zeta_heights.amoeba import AmoebaPoint
from zeta_heights.torsion import Extremality, TorsionPoint

ETA = constants.eta()
THETA = constants.theta()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def primes_up_to(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def test_criterion_1_exact_small_heights():
    tol = 1e-10
    expect4 = 0.5 * log(2)
    expect5 = 0.25 * log((3 + math.sqrt(5)) / 2)
    h4 = torsion.total_height(TorsionPoint(4, 1, 2)).total  # warm caches
    h5 = torsion.total_height(TorsionPoint(5, 1, 2)).total
    times = []
    for pt in (TorsionPoint(4, 1, 2), TorsionPoint(5, 1, 2)):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            torsion.total_height(pt)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    ok = (
        abs(h4 - expect4) <= tol
        and abs(h5 - expect5) <= tol
        and max(times) < 1e-3
    )
    report(1, ok, f"|dh4|={abs(h4-expect4):.1e} |dh5|={abs(h5-expect5):.1e} "
                  f"runtime={max(times)*1e3:.3f}ms")


def test_criterion_2_range_and_extremal_sets():
    t0 = time.perf_counter()
    tol = 1e-10
    worst_range = 0.0
    mismatches = 0
    for d in range(2, 49):
        g = grid.compute_grid(d)
        for c1 in range(d):
            for c2 in range(d):
                if (c1, c2) == (0, 0):
                    continue
                h = float(g.values[c1, c2])
                worst_range = max(worst_range, -h, h - log(2))
                cls = torsion.classify_extremal(TorsionPoint(d, c1, c2))
                if (cls is Extremality.MIN) != (abs(h) <= tol):
                    mismatches += 1
                if (cls is Extremality.MAX) != (abs(h - log(2)) <= tol):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = worst_range <= tol and mismatches == 0 and elapsed < 5.0
    report(2, ok, f"d<=48 range excess {worst_range:.1e}, {mismatches} set mismatches, {elapsed:.2f}s")


def test_criterion_3_nonarchimedean_closed_form():
    exact_ok = True
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)):
        e = p**r
        expect = -math.log(p) / (p ** (r - 1) * (p - 1))
        got = torsion.nonarchimedean_height(TorsionPoint(e, 1, 0))
        exact_ok = exact_ok and (got == expect)
    for e in (6, 10, 12, 15):
        got = torsion.nonarchimedean_height(TorsionPoint(e, 1, 0))
        exact_ok = exact_ok and (got == 0.0)
    report(3, exact_ok, "exact -log(p)/(p^(r-1)(p-1)) on prime powers, exact 0 otherwise")


def test_criterion_4_three_routes_to_eta():
    t0 = time.perf_counter()
    i_gap = abs(constants.limit_integral(1e-10).value - ETA)
    psi_gap = abs(amoeba.psi_average() - ETA)
    gaps = {}
    for d in (100, 150, 200, 250):
        st = grid.stats(d, 0.1)
        gaps[d] = abs(st.mean - ETA)
    elapsed = time.perf_counter() - t0
    ok = (
        i_gap <= 1e-8
        and psi_gap <= 1e-6
        and all(v < 0.02 for v in gaps.values())
        and gaps[250] < gaps[100]
        and elapsed < 60.0
    )
    report(4, ok, f"|I-eta|={i_gap:.1e} |psi_avg-eta|={psi_gap:.1e} "
                  f"grid gaps={{100:{gaps[100]:.4f}, 250:{gaps[250]:.4f}}} {elapsed:.1f}s")


def test_criterion_5_weighted_log_integrals():
    t0 = time.perf_counter()
    first, second = limit_integral_pieces(1e-10)
    gap1 = abs(first - 1.75 * constants.zeta(3))
    gap2 = abs(second - 11.0 / 12.0 * constants.zeta(3))
    elapsed = time.perf_counter() - t0
    ok = gap1 <= 1e-9 and gap2 <= 1e-9 and elapsed < 1.0
    report(5, ok, f"gaps {gap1:.1e}, {gap2:.1e}, {elapsed:.2f}s")


def test_criterion_6_amoeba_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(5):
        expect = (-1) ** m * math.factorial(m) * constants.zeta(m + 2)
        worst = max(worst, abs(amoeba.south_moment(m, 1e-10).value - expect))
    vol_gap = abs(amoeba.volume() - pi**2 / 2)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and vol_gap <= 1e-8 and elapsed < 5.0
    report(6, ok, f"worst moment gap {worst:.1e}, volume gap {vol_gap:.1e}, {elapsed:.2f}s")


def test_criterion_7_torsion_curve_limits():
    flat = abs(curves.limit_height(curves.TorsionCurve(0, 1, 1)))
    mahler_gap = abs(curves.limit_height(curves.TorsionCurve(2, -1, 1)) - THETA)
    ds = primes_up_to(499)
    heights = [torsion.total_height(TorsionPoint(d, 1, 2)).total for d in ds]
    final_gap = abs(heights[-1] - THETA)
    ok = flat <= 1e-9 and mahler_gap <= 1e-8 and final_gap < 0.02
    report(7, ok, f"axis value {flat:.1e}, Mahler gap {mahler_gap:.1e}, "
                  f"gap at d={ds[-1]}: {final_gap:.4f}")


def test_criterion_8_ronkin_properties():
    t0 = time.perf_counter()
    lattice = np.linspace(-5.0, 5.0, 101)
    worst_off = 0.0
    worst_bound = 0.0
    for u1 in lattice:
        for u2 in lattice:
            u = AmoebaPoint(float(u1), float(u2))
            rho = amoeba.ronkin(u)
            bound = amoeba.psi(u)
            worst_bound = max(worst_bound, rho - bound)
            if not amoeba.contains(u):
                worst_off = max(worst_off, abs(rho - bound))
    origin_gap = abs(amoeba.ronkin(AmoebaPoint(0.0, 0.0)) + THETA)

    boundary = (
        [(k / 7.0, 0.0) for k in range(8)]
        + [(0.0, k / 6.0) for k in range(1, 7)]
        + [(k / 6.0, 1.0 - k / 6.0) for k in range(1, 7)]
    )
    assert len(boundary) == 20
    worst_dual = max(abs(amoeba.legendre_dual(x)) for x in boundary)

    target = 1.0 / pi**2
    interior = [(0.0, 0.0), (0.3, -0.2), (-0.5, -0.7), (0.8, 0.4), (0.1, 0.1)]
    worst_ma = max(
        abs(amoeba.monge_ampere_density(AmoebaPoint(*u), h=1e-2) - target) for u in interior
    )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_off <= 1e-8
        and worst_bound <= 1e-8
        and origin_gap <= 1e-6
        and worst_dual <= 1e-3
        and worst_ma <= 0.05 * target
        and elapsed < 120.0
    )
    report(8, ok, f"off-amoeba {worst_off:.1e}, bound excess {worst_bound:.1e}, "
                  f"origin {origin_gap:.1e}, dual {worst_dual:.1e}, "
                  f"MA rel {worst_ma/target:.3%}, {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    g1 = grid.compute_grid(60)
    g8 = grid.compute_grid(60)
    grids_equal = np.array_equal(nontrivial_values(g1), nontrivial_values(g8))

    outputs = []
    for threads, run in (("1", "a"), ("8", "b"), ("1", "c")):
        csv_path = tmp_path / f"g{run}.csv"
        pgm_path = tmp_path / f"g{run}.pgm"
        assert cli.main(["grid", "--d", "60", "--format", "csv",
                         "--threads", threads, "--out", str(csv_path)]) == 0
        assert cli.main(["grid", "--d", "60", "--format", "pgm",
                         "--threads", threads, "--out", str(pgm_path)]) == 0
        outputs.append((csv_path.read_bytes(), pgm_path.read_bytes()))
    files_equal = outputs[0] == outputs[1] == outputs[2]
    ok = grids_equal and files_equal
    report(9, ok, f"grids identical: {grids_equal}, files identical: {files_equal}")
