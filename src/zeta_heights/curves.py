"""Torsion curves, their segment-average limit heights, and convergence experiments.

For a primitive a = (a1, a2) and e >= 1, the torsion curve chi^a = zeta_e
is described in one unimodular basis of Z^2 (``_basis``): the direction
(p, q) = (-a2, a1), killed by chi^a, and a Bezout vector (r, s) with
a1*r + a2*s = 1, so that chi^a maps t*(p, q) + u*(r, s) to u.  The curve
meets the argument torus in the phi(e) geodesics
u(w) = 2*pi*(w*p + j*r/e, w*q + j*s/e), j a unit mod e; the average of
log max(|e^{i u2}-e^{i u1}|, |e^{i u2}-1|, |e^{i u1}-1|) over them is the
limit of heights along strict sequences on the curve (``limit_height``).
The three chords are |2 sin pi(m*w + n/e)| with (m, n) = (p, j*r),
(q, j*s) and (q - p, j*(s - r)); the largest changes only where one
vanishes or two are equal (|sin pi x| = |sin pi y| iff x = +-y mod 1), at
the lattice hits of p, q, q - p, p + q, 2p - q and 2q - p.  In between it is
one chord (the largest at the midpoint), and integral log|2 sin pi t| dt =
-Cl_2(2 pi t)/(2 pi), so the limit is a finite sum of Clausen values at
rational multiples of 2 pi, plus width times log for a constant chord (m = 0).
Its d-torsion points are the d*phi(e) pairs t*(p, q) + (d/e)*j*(r, s)
mod d (``_curve_residues``), listed without a d x d array.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import arith, constants
from .errors import EmptyIntersection
from .torsion import TorsionPoint, _units_array, order, total_height

# Largest phi(e)*(|a1| + |a2| + |a1 + a2|), the zeros of the three chords; with the
# kinks at most three times as many pieces: 16-19 ms at the limit on a shared 2-core Xeon.
MAX_CURVE_BREAKS = 10**4

# Largest d*phi(e), the number of d-torsion points of a curve that are
# enumerated; 32 bytes each, so _curve_witness peaks at 305 MiB here.
MAX_CURVE_POINTS = 10**7


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


def _basis(curve: TorsionCurve) -> tuple[tuple[int, int], tuple[int, int]]:
    """The direction (p, q) = (-a2, a1) and the Bezout vector (r, s), a1*r + a2*s = 1."""
    return (-curve.a2, curve.a1), _bezout(curve.a1, curve.a2)


def segment_offsets(curve: TorsionCurve) -> list[tuple[int, int]]:
    """Offset numerators (j*r, j*s) of the phi(e) segments, j the units mod e in ascending order.

    The segment of j is u(w) = 2*pi*(w*p + j*r/e, w*q + j*s/e), w in [0, 1]; w
    has period exactly 1 and dw is the normalized Euclidean measure.
    """
    _, (r, s) = _basis(curve)
    return [(j * r, j * s) for j in _units_array(curve.e).tolist()]


def _breaks(families: list[tuple[int, np.ndarray]], e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends k, m and w = k/(m*e) of the pieces of segment i, sorted along row i: 0, 1 and, for each (m, n) of
    families, the |m| solutions in [0, 1) of m*w + n[i]/e in Z, repeats included."""
    k = np.concatenate([np.tile([0, e], (families[0][1].size, 1))] + [
        (-np.sign(m) * n % e)[:, None] + e * np.arange(abs(m)) for m, n in families if m], axis=1)
    m = np.array([1, 1, *(abs(m) for m, _ in families for _ in range(abs(m)))])
    w = k / (m * e)
    order = np.argsort(w, axis=1, kind="stable")
    return np.take_along_axis(k, order, 1), m[order], np.take_along_axis(w, order, 1)


def _clausen_turns(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Cl_2(2*pi*num/den) of integers: num is folded into [0, den/2] exactly, and half turns give 0."""
    r = num % den
    return np.sign(den - 2 * r) * constants.clausen2(math.tau * (np.minimum(r, den - r) / den))


def limit_height(curve: TorsionCurve) -> float:
    """Average of the torus height integrand over the segments of the curve, as a finite Clausen sum.

    A piece between consecutive ``_breaks`` adds (Cl_2(2 pi t_a) - Cl_2(2 pi t_b))/(2 pi m), with the
    arguments t = m*w + n/e formed as exact fractions.  Curves with more than MAX_CURVE_BREAKS break
    points raise ValueError before any unit of e is enumerated.
    """
    (p, q), _ = _basis(curve)
    e = curve.e
    cost = arith.euler_phi(e) * (abs(p) + abs(q) + abs(p - q))
    if cost > MAX_CURVE_BREAKS:
        raise ValueError(f"{curve} has about {cost} break points, above the limit {MAX_CURVE_BREAKS}")
    n1, n2 = (np.array(col, dtype=np.int64) for col in zip(*segment_offsets(curve)))
    families = [(p, n1), (q, n2), (q - p, n2 - n1), (p + q, n1 + n2), (2 * p - q, 2 * n1 - n2),
                (2 * q - p, 2 * n2 - n1)]
    k, m, w = _breaks(families, e)
    chords = [(mc, nc[:, None] % e) for mc, nc in families[:3]]
    mid = 0.5 * (w[:, 1:] + w[:, :-1])
    pick = np.argmax([constants.chord(math.tau * (mc * mid + nc / e)) for mc, nc in chords], axis=0)
    keep = w[:, 1:] > w[:, :-1]  # repeated ends bound empty pieces
    mc, nc = (np.choose(pick, z)[keep] for z in zip(*chords))
    flat = mc == 0
    ta, tb = (_clausen_turns(mc * kk[keep] + nc * mm[keep], mm[keep] * e)[~flat]
              for kk, mm in ((k[:, :-1], m[:, :-1]), (k[:, 1:], m[:, 1:])))
    terms = [*((ta - tb) / (math.tau * mc[~flat])).tolist(),
             *((w[:, 1:] - w[:, :-1])[keep][flat] * np.log(constants.chord(math.tau * nc[flat] / e))).tolist()]
    return math.fsum(terms) / n1.size


def _check_modulus(curve: TorsionCurve, d: int) -> None:
    """Refuse d unless e | d and the curve has at most MAX_CURVE_POINTS d-torsion points."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d % curve.e != 0:
        raise EmptyIntersection(f"no {d}-torsion on a curve with e = {curve.e} (e does not divide d)")
    size = d * arith.euler_phi(curve.e)
    if size > MAX_CURVE_POINTS:
        raise ValueError(f"the curve has {size} points of order dividing {d}, above the limit {MAX_CURVE_POINTS}")


def _curve_residues(curve: TorsionCurve, d: int) -> tuple[np.ndarray, np.ndarray]:
    """All nontrivial d-torsion points (c1, c2) of the curve as two int64 arrays, in lexicographic order.

    Requires e | d; the intersection has d*phi(e) points, minus the trivial
    one when e = 1.  More than MAX_CURVE_POINTS points raise ValueError.
    """
    _check_modulus(curve, d)
    (p, q), (r, s) = _basis(curve)
    p, q, r, s = p % d, q % d, r % d, s % d
    t = np.arange(d, dtype=np.int64)
    codes = np.concatenate([
        (t * p + u * r) % d * d + (t * q + u * s) % d
        for u in ((d // curve.e) * j % d for j in _units_array(curve.e).tolist())
    ])
    codes.sort()
    return np.divmod(codes[1:] if curve.e == 1 else codes, d)


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
    # maximal order d/gcd(c1, c2, d), ties broken by lexicographic (c1, c2):
    # argmin returns the first minimum of the sorted residues
    c1, c2 = _curve_residues(curve, d)
    if not len(c1):
        raise EmptyIntersection(f"no nontrivial {d}-torsion on the curve")
    i = int(np.argmin(np.gcd(np.gcd(c1, c2), d)))
    return TorsionPoint(d, int(c1[i]), int(c2[i]))


def limit_experiment(
    curve: TorsionCurve | None,
    d_list: list[int],
    *,
    random_witness: bool = False,
    seed: int = 0,
) -> LimitExperiment:
    """Convergence table of witness heights against the predicted limit.

    With no curve the limit is eta and the witness at each d is the
    heuristic strict point (1, isqrt(d)); with a curve the limit is its
    segment average and the witness is a point of maximal order among the
    d-torsion points of the curve; every modulus is checked before the
    limit is computed.  The gap column is reported, not asserted, per row.
    """
    if any(b <= a for a, b in zip(d_list, d_list[1:])):
        raise ValueError("d_list must be strictly increasing")
    if not d_list:
        raise ValueError("d_list must be nonempty")
    if curve is None:
        limit = constants.eta()
    else:
        for d in d_list:
            _check_modulus(curve, d)
        limit = limit_height(curve)
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
