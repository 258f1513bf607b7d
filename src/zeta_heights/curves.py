"""Torsion curves, their segment-average limit heights, and convergence experiments.

For a primitive integer vector a = (a1, a2) and e >= 1, the union of
torsion curves cut out by the e-th cyclotomic polynomial of the character
chi^a meets the argument torus in phi(e) parallel closed geodesics

    {u : a1*u1 + a2*u2 = 2*pi*j/e (mod 2*pi)},  j a unit mod e.

Averaging log max(|e^{i u2}-e^{i u1}|, |e^{i u2}-1|, |e^{i u1}-1|) over
those segments gives the limit of the heights along strict sequences of
torsion points on the curve; ``limit_height`` computes it by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import arith, constants, quad
from .errors import EmptyIntersection
from .torsion import TorsionPoint, order, total_height


@dataclass(frozen=True)
class TorsionCurve:
    """The vanishing locus of the e-th cyclotomic polynomial of chi^(a1,a2)."""

    a1: int
    a2: int
    e: int

    def __post_init__(self) -> None:
        if (self.a1, self.a2) == (0, 0):
            raise ValueError("direction vector must be nonzero")
        if math.gcd(self.a1, self.a2) != 1:
            raise ValueError(f"({self.a1}, {self.a2}) is not primitive")
        if self.e < 1:
            raise ValueError(f"e must be >= 1, got {self.e}")


@dataclass(frozen=True)
class Segment:
    """One geodesic, parameterized as u(w) = 2*pi*(w*p + o1, w*q + o2), w in [0,1].

    (p, q) is a primitive lattice solution of a1*p + a2*q = 0, so w has
    period exactly 1 and dw is the normalized Euclidean measure.
    """

    p: int
    q: int
    o1: Fraction
    o2: Fraction

    def point(self, w: float) -> tuple[float, float]:
        tau = 2.0 * math.pi
        return (tau * (w * self.p + float(self.o1)), tau * (w * self.q + float(self.o2)))


@dataclass(frozen=True)
class SegmentFamily:
    curve: TorsionCurve
    segments: tuple[Segment, ...]


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(r, s) with a*r + b*s = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        return -old_x, -old_y
    return old_x, old_y


def segment_family(curve: TorsionCurve) -> SegmentFamily:
    """The phi(e) segments of the curve on the argument torus."""
    p, q = -curve.a2, curve.a1
    r, s = _bezout(curve.a1, curve.a2)
    segs = []
    for j in arith.modular_units(curve.e):
        segs.append(Segment(p, q, Fraction(j * r, curve.e), Fraction(j * s, curve.e)))
    return SegmentFamily(curve, tuple(segs))


def _lattice_hits(m: int, offset: Fraction) -> list[float]:
    """Solutions w in (0, 1) of w*m + offset in Z."""
    if m == 0:
        return []
    lo = math.ceil(min(offset, m + offset))
    hi = math.floor(max(offset, m + offset))
    out = []
    for k in range(lo, hi + 1):
        w = Fraction(k - offset, m)
        if 0 < w < 1:
            out.append(float(w))
    return out


def _segment_breaks(seg: Segment) -> list[float]:
    """Parameters where any of the three distances vanishes (kinks or singularities)."""
    breaks: set[float] = set()
    breaks.update(_lattice_hits(seg.p, seg.o1))
    breaks.update(_lattice_hits(seg.q, seg.o2))
    breaks.update(_lattice_hits(seg.p - seg.q, seg.o1 - seg.o2))
    return sorted(breaks)


def _torus_log_max(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(np.maximum(constants.chord(u2 - u1), constants.chord(u2)), constants.chord(u1)))


def limit_height(curve: TorsionCurve, tol: float = 1e-10, *, budget: int = quad.DEFAULT_BUDGET) -> float:
    """Segment-average of the torus height integrand along the curve.

    This is the limit of total heights along any strict sequence of torsion
    points of the curve.  Each segment integral is evaluated by adaptive
    quadrature with the lattice points where the integrand degenerates
    declared as break points.
    """
    fam = segment_family(curve)
    per_seg = []
    tau = 2.0 * math.pi

    for seg in fam.segments:
        o1, o2 = float(seg.o1), float(seg.o2)

        def integrand(w: np.ndarray, p=seg.p, q=seg.q, o1=o1, o2=o2) -> np.ndarray:
            return _torus_log_max(tau * (w * p + o1), tau * (w * q + o2))

        res = quad.integrate(integrand, 0.0, 1.0, tol, break_points=_segment_breaks(seg), budget=budget)
        per_seg.append(res.value)
    return math.fsum(per_seg) / len(per_seg)


def strictness_ratio(a: tuple[int, int], d: int) -> Fraction:
    """Fraction of d-torsion points killed by the character chi^a: gcd(a1, a2, d)/d."""
    if a == (0, 0):
        raise ValueError("character exponent must be nonzero")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return Fraction(math.gcd(math.gcd(a[0], a[1]), d), d)


def sample_on_curve(curve: TorsionCurve, d: int) -> list[TorsionPoint]:
    """All nontrivial d-torsion points on the curve, in lexicographic order.

    Requires e | d; the intersection has d*phi(e) points, minus the trivial
    one when e = 1.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d % curve.e != 0:
        raise EmptyIntersection(f"no {d}-torsion on a curve with e = {curve.e} (e does not divide d)")
    targets = {(d // curve.e) * j % d for j in arith.modular_units(curve.e)}
    c1g, c2g = np.meshgrid(np.arange(d, dtype=np.int64), np.arange(d, dtype=np.int64), indexing="ij")
    mask = np.isin((curve.a1 * c1g + curve.a2 * c2g) % d, sorted(targets))
    mask[0, 0] = False
    idx = np.argwhere(mask)
    return [TorsionPoint(d, int(i), int(j)) for i, j in idx]


@dataclass(frozen=True)
class LimitRow:
    d: int
    c1: int
    c2: int
    order: int
    height: float
    gap: float


@dataclass(frozen=True)
class LimitExperiment:
    limit: float
    rows: tuple[LimitRow, ...] = field(default_factory=tuple)


def _generic_witness(d: int) -> TorsionPoint:
    # (1, isqrt(d)) always has order d and escapes any fixed character
    # eventually; a heuristic stand-in for a strict sequence.
    return TorsionPoint(d, 1, math.isqrt(d))


def _random_witness(d: int, rng) -> TorsionPoint:
    while True:
        c1, c2 = rng.randrange(d), rng.randrange(d)
        if (c1, c2) != (0, 0) and math.gcd(math.gcd(c1, c2), d) == 1:
            return TorsionPoint(d, c1, c2)


def _curve_witness(curve: TorsionCurve, d: int) -> TorsionPoint:
    # maximal order, ties broken by lexicographic (c1, c2)
    pts = sample_on_curve(curve, d)
    return min(pts, key=lambda p: (-order(p), p.c1, p.c2))


def limit_experiment(
    curve: TorsionCurve | None,
    d_list: list[int],
    tol: float = 1e-9,
    *,
    random_witness: bool = False,
    seed: int = 0,
) -> LimitExperiment:
    """Convergence table of witness heights against the predicted limit.

    With no curve the limit is eta and the witness at each d is the
    heuristic strict point (1, isqrt(d)); with a curve the limit is its
    segment average and the witness is a point of maximal order among the
    d-torsion points of the curve.  The gap column is reported, not
    asserted, per row.
    """
    if any(b <= a for a, b in zip(d_list, d_list[1:])):
        raise ValueError("d_list must be strictly increasing")
    if not d_list:
        raise ValueError("d_list must be nonempty")
    if curve is None:
        limit = constants.eta()
    else:
        limit = limit_height(curve, tol)
    rng = None
    if random_witness:
        import random

        rng = random.Random(seed)
    rows = []
    for d in d_list:
        if curve is None:
            pt = _random_witness(d, rng) if random_witness else _generic_witness(d)
        else:
            pt = _curve_witness(curve, d)
        h = total_height(pt).total
        rows.append(LimitRow(d, pt.c1, pt.c2, order(pt), h, abs(h - limit)))
    return LimitExperiment(limit, tuple(rows))
