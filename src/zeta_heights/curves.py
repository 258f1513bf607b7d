"""Torsion curves, their segment-average limit heights, and convergence experiments.

For a primitive a = (a1, a2) and e >= 1, the torsion curve chi^a = zeta_e
is described in one unimodular basis of Z^2 (``_basis``): the direction
(p, q) = (-a2, a1), killed by chi^a, and a Bezout vector (r, s) with
a1*r + a2*s = 1, so that chi^a maps t*(p, q) + u*(r, s) to u.  The curve
meets the argument torus in the phi(e) geodesics
u(w) = 2*pi*(w*p + j*r/e, w*q + j*s/e), j a unit mod e; the average of
log max(|e^{i u2}-e^{i u1}|, |e^{i u2}-1|, |e^{i u1}-1|) over them is the
limit of heights along strict sequences on the curve (``limit_height``).
Its d-torsion points are the d*phi(e) pairs t*(p, q) + (d/e)*j*(r, s)
mod d (``_curve_residues``), listed without a d x d array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith, constants, quad
from .errors import EmptyIntersection
from .torsion import TorsionPoint, _units_array, order, total_height

# Largest phi(e)*(|a1| + |a2| + |a1 + a2|), the break points limit_height
# integrates across; 0.2-1.1 s at the limit on a shared 2-core Xeon.
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


def _lattice_hits(m: int, n: int, e: int) -> list[float]:
    """Solutions w in (0, 1) of w*m + n/e in Z: the correctly rounded (k*e - n)/(m*e)."""
    lo, hi = sorted((n, n + m * e))
    return [(k * e - n) / (m * e) for k in range(lo // e + 1, (hi - 1) // e + 1)]


def _segment_breaks(p: int, q: int, n1: int, n2: int, e: int) -> list[float]:
    """Parameters where any of the three distances vanishes (kinks or singularities)."""
    return sorted({*_lattice_hits(p, n1, e), *_lattice_hits(q, n2, e), *_lattice_hits(p - q, n1 - n2, e)})


def limit_height(curve: TorsionCurve, tol: float = 1e-10) -> float:
    """Average of the torus height integrand over the segments of the curve.

    This is the limit of total heights along any strict sequence of torsion
    points of the curve.  Each segment integral is evaluated by adaptive
    quadrature with the lattice points where the integrand degenerates
    declared as break points.  Curves with more than MAX_CURVE_BREAKS break
    points raise ValueError before any unit of e is enumerated.
    """
    (p, q), _ = _basis(curve)
    e = curve.e
    cost = arith.euler_phi(e) * (abs(p) + abs(q) + abs(p - q))
    if cost > MAX_CURVE_BREAKS:
        raise ValueError(f"{curve} has about {cost} break points, above the limit {MAX_CURVE_BREAKS}")
    offsets = segment_offsets(curve)
    o1, o2 = (np.array([n / e for n in col])[:, None] for col in zip(*offsets))
    tau = 2.0 * math.pi

    def integrand(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        u1, u2 = tau * (w * p + o1[rows]), tau * (w * q + o2[rows])
        return np.log(np.maximum(np.maximum(constants.chord(u2 - u1), constants.chord(u2)), constants.chord(u1)))

    parts = [[0.0, *_segment_breaks(p, q, n1, n2, e), 1.0] for n1, n2 in offsets]
    per_seg = [res.value for res in quad.integrate_batch(integrand, parts, tol)]
    return math.fsum(per_seg) / len(per_seg)


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
    tol: float = 1e-9,
    *,
    random_witness: bool = False,
    seed: int = 0,
) -> LimitExperiment:
    """Convergence table of witness heights against the predicted limit.

    With no curve the limit is eta and the witness at each d is the
    heuristic strict point (1, isqrt(d)); with a curve the limit is its
    segment average and the witness is a point of maximal order among the
    d-torsion points of the curve; every modulus is checked before the
    limit is integrated.  The gap column is reported, not asserted, per row.
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
