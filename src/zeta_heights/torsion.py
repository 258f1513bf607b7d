"""Heights of the intersection of the line x0+x1+x2 = 0 with its torsion translates.

A d-torsion point of the 2-torus is encoded by residues (c1, c2) mod d,
standing for omega = (zeta^c1, zeta^c2) for a primitive d-th root of unity
zeta.  For nontrivial omega, the line C = Z(x0+x1+x2) meets its translate
omega*C in the single projective point

    P(omega) = [omega2^-1 - omega1^-1 : 1 - omega2^-1 : omega1^-1 - 1],

whose canonical height splits into an Archimedean Galois-orbit average and
an exact non-Archimedean term -Lambda(e)/phi(e), where e is the order of
omega, Lambda the von Mangoldt function and phi the Euler totient.

The Archimedean sum is evaluated at the level of the order e (reducing the
residues by g = gcd(c1, c2, d) cuts the orbit from phi(d) to phi(e) terms)
and every distance |exp(i*theta) - 1| is computed as 2*sin(pi*m/e) from a
residue m folded into [0, e/2], which avoids cancellation near the
singularity and makes the result bit-identical across the symmetry orbit
of (c1, c2).  The units of e are sieved by the primes of e, and the folding
makes the units k and e - k give the same summand bit for bit, so only the
units k <= e/2 are summed; with an exactly rounded sum this half-orbit mean
is the full Galois average to the last bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith
from .errors import NontrivialityError

LOG2 = math.log(2.0)

# Largest order whose Galois orbit is summed.  One total_height at
# e = 9999991 from empty caches peaks at 381.5 MiB under tracemalloc (about
# 40 bytes per residue of the order), so one height stays under 1 GB.
MAX_ORDER = 10**7


@dataclass(frozen=True)
class TorsionPoint:
    """Residue pair (c1, c2) mod d encoding (zeta^c1, zeta^c2)."""

    d: int
    c1: int
    c2: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"modulus must be >= 1, got {self.d}")
        object.__setattr__(self, "c1", self.c1 % self.d)
        object.__setattr__(self, "c2", self.c2 % self.d)

    @property
    def is_trivial(self) -> bool:
        return self.c1 == 0 and self.c2 == 0


@dataclass(frozen=True)
class HeightBreakdown:
    """Local decomposition of a height: total = archimedean + nonarchimedean."""

    archimedean: float
    nonarchimedean: float
    total: float
    orbit_size: int


@dataclass(frozen=True)
class ProjectivePointC:
    """A point of C in homogeneous coordinates; the coordinates sum to zero."""

    coords: tuple[complex, complex, complex]

    def normalized(self) -> tuple[complex, complex, complex]:
        """Coordinates scaled by the first one of nonnegligible modulus."""
        scale = max(abs(z) for z in self.coords)
        if scale == 0.0:
            raise ValueError("all coordinates vanish")
        pivot = next(z for z in self.coords if abs(z) > 1e-14 * scale)
        return tuple(z / pivot for z in self.coords)


class Extremality(enum.Enum):
    MIN = "min"
    MAX = "max"
    INTERIOR = "interior"


def _require_nontrivial(pt: TorsionPoint) -> None:
    if pt.is_trivial:
        raise NontrivialityError("the trivial torsion point (1,1) is excluded")


def order(pt: TorsionPoint) -> int:
    """Multiplicative order of the encoded point: d / gcd(c1, c2, d)."""
    return pt.d // math.gcd(math.gcd(pt.c1, pt.c2), pt.d)


def _reduced(pt: TorsionPoint) -> tuple[int, int, int]:
    """Order e and residues of (c1, c2)/g mod e, with g = gcd(c1, c2, d)."""
    g = math.gcd(math.gcd(pt.c1, pt.c2), pt.d)
    e = pt.d // g
    return e, (pt.c1 // g) % e, (pt.c2 // g) % e


@lru_cache(maxsize=512)
def _units_array(e: int) -> np.ndarray:
    """Ascending units of e in [1, e], sieved by the primes of e."""
    if e > MAX_ORDER:
        raise ValueError(f"order {e} exceeds the Galois-orbit limit {MAX_ORDER}")
    coprime = np.ones(e + 1, dtype=bool)
    coprime[0] = False
    for p, _ in arith._factorize(e):
        coprime[::p] = False
    return np.flatnonzero(coprime)


def _half_units(e: int) -> np.ndarray:
    """The units k <= e/2 of e: half of them for e > 2, the one unit 1 for e = 2.

    Every residue is folded to min(m, e - m), so the units k and e - k give
    bit-identical summands and the orbit sum over all units is twice the sum
    over these.  math.fsum is correctly rounded and doubling is exact, so
    fsum(all) == 2.0 * fsum(half); dividing by phi(e) gives the same
    correctly rounded quotient as dividing fsum(half) by len(half) = phi(e)/2.
    The mean over the half orbit is therefore the Galois average, bit for bit.
    """
    k = _units_array(e)
    return k[: (len(k) + 1) // 2]


def intersection_point(pt: TorsionPoint) -> ProjectivePointC:
    """The intersection C with its translate, with omega_j = exp(2*pi*i*c_j/d)."""
    _require_nontrivial(pt)
    w1inv = complex(math.cos(2 * math.pi * pt.c1 / pt.d), -math.sin(2 * math.pi * pt.c1 / pt.d))
    w2inv = complex(math.cos(2 * math.pi * pt.c2 / pt.d), -math.sin(2 * math.pi * pt.c2 / pt.d))
    return ProjectivePointC((w2inv - w1inv, 1.0 - w2inv, w1inv - 1.0))


def _root_distances(residues: np.ndarray, e: int) -> np.ndarray:
    """|exp(2*pi*i*m/e) - 1| as 2*sin(pi*mhat/e) with mhat folded into [0, e/2].

    Folding makes the value a function of the residue's orbit under m -> -m,
    which is what keeps orbit-equivalent points bit-identical.
    """
    mhat = np.minimum(residues, e - residues)
    return 2.0 * np.sin(np.pi * mhat / e)


def archimedean_height(pt: TorsionPoint) -> float:
    """Galois-orbit average of log max of the three coordinate distances.

    Evaluates (1/phi(e)) * sum over units k of e of
    log max(|w2^k - w1^k|, |w2^k - 1|, |w1^k - 1|), with the orbit
    parameterized at the level of the order e of the point.  The units k
    and e - k give the same summand, so the sum runs over the units
    k <= e/2 only (see ``_half_units``); the result is bit-identical to the
    fsum over all phi(e) units.
    """
    _require_nontrivial(pt)
    e, c1, c2 = _reduced(pt)
    k = _half_units(e)
    t1 = _root_distances((c1 * k) % e, e)
    t2 = _root_distances((c2 * k) % e, e)
    td = _root_distances(((c2 - c1) * k) % e, e)
    summands = np.log(np.maximum(np.maximum(td, t2), t1))
    return math.fsum(summands.tolist()) / len(k)


@lru_cache(maxsize=512)
def _inverses(e: int) -> np.ndarray:
    """m^-1 mod e at every unit m of e, 0 at the non-units."""
    inv = np.zeros(e, dtype=np.int64)
    units = _units_array(e)
    inv[units] = [pow(u, -1, e) for u in units.tolist()]
    return inv


@lru_cache(maxsize=512)
def _log_distances(e: int) -> np.ndarray:
    """log |exp(2*pi*i*m/e) - 1| for m in [0, e), -inf at m = 0."""
    with np.errstate(divide="ignore"):
        return np.log(_root_distances(np.arange(e, dtype=np.int64), e))


# Elements of one (pairs x units) block of the batched orbit sum.
_BLOCK = 1 << 20


def total_heights(e: int, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Total heights of the order-e points with primitive residue pairs (c1, c2) mod e.

    Bit-identical to ``total_height(TorsionPoint(e, c1, c2)).total`` and so
    to the height of the same point at any level d divisible by e.  The
    Galois-orbit sum is exactly rounded, hence invariant under
    (c1, c2) -> (k*c1, k*c2) for units k and under the symmetries that
    permute the three distances.  Each pair is brought to (1, x) by
    (a, b) -> (a, b), (b, a) or (b - a, b), whichever puts a unit first,
    times that unit's inverse; a pair with no unit among a, b, b - a (only
    possible for e with three distinct primes) is kept as it is.  Each
    distinct pair is then summed once, as a gather from a per-order table
    of log distances; log is monotone, so the max of the three logs is the
    log of the max that ``archimedean_height`` takes.  As there, each row
    runs over the units k <= e/2 only, since k and e - k give the same
    summand (see ``_half_units``).
    """
    if e < 2:
        raise ValueError(f"nontrivial points need order e >= 2, got {e}")
    a = np.asarray(c1, dtype=np.int64) % e
    b = np.asarray(c2, dtype=np.int64) % e
    if np.any(np.gcd(np.gcd(a, b), e) != 1):
        raise ValueError(f"residue pairs must be primitive mod {e}")
    inv = _inverses(e)
    diff = (b - a) % e
    cases = [inv[a] != 0, inv[b] != 0, inv[diff] != 0]
    scale = np.select(cases, [inv[a], inv[b], inv[diff]], default=1)
    first = np.select(cases, [a, b, diff], default=a) * scale % e
    second = np.select(cases, [b, a, b], default=b) * scale % e
    keys, back = np.unique(first * e + second, return_inverse=True)

    k = _half_units(e)
    table = _log_distances(e)
    nonarch = nonarchimedean_height(TorsionPoint(e, 1, 0))
    p, q = np.divmod(keys, e)
    totals = []
    step = max(1, _BLOCK // len(k))
    for lo in range(0, len(keys), step):
        pk = p[lo : lo + step, None] * k
        qk = q[lo : lo + step, None] * k
        logs = np.maximum(np.maximum(table[(qk - pk) % e], table[qk % e]), table[pk % e])
        totals += [math.fsum(row) / len(k) + nonarch for row in logs.tolist()]
    return np.array(totals)[back]


def nonarchimedean_height(pt: TorsionPoint) -> float:
    """Total over all finite places: -Lambda(e)/phi(e) for e the order."""
    _require_nontrivial(pt)
    e = order(pt)
    lam = arith.von_mangoldt(e)
    if lam.is_zero:
        return 0.0
    return -lam.value / arith.euler_phi(e)


def total_height(pt: TorsionPoint) -> HeightBreakdown:
    """Full height with its Archimedean / non-Archimedean split.

    The split refers to the specific coordinate vector
    (omega2^-1 - omega1^-1, 1 - omega2^-1, omega1^-1 - 1): rescaling the
    coordinates moves mass between the local parts (by the product formula)
    while the total is invariant.  For the height-zero points both parts
    can be individually nonzero, e.g. +-log 2 at omega = (-1, 1).

    The reported values are the raw sums; clamping into [0, log 2] happens
    only inside classification, never here.
    """
    _require_nontrivial(pt)
    arch = archimedean_height(pt)
    nonarch = nonarchimedean_height(pt)
    return HeightBreakdown(
        archimedean=arch,
        nonarchimedean=nonarch,
        total=arch + nonarch,
        orbit_size=arith.euler_phi(order(pt)),
    )


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def classify_extremal(pt: TorsionPoint) -> Extremality:
    """Exact residue-arithmetic test for height 0 or log 2.

    Height 0 holds exactly for omega in {(1,z), (z,1), (z,z)} with z != 1,
    together with (z, z^2) for z of order 3.  Height log 2 holds exactly for
    omega in {(-1,z), (z,-1), (z,-z)} with the order of z not a power of 2.
    """
    _require_nontrivial(pt)
    d, c1, c2 = pt.d, pt.c1, pt.c2
    if c1 == 0 or c2 == 0 or c1 == c2:
        return Extremality.MIN
    if (3 * c1) % d == 0 and (2 * c1) % d == c2:
        return Extremality.MIN
    if d % 2 == 0:
        half = d // 2
        if c1 == half and not _is_power_of_two(d // math.gcd(c2, d)):
            return Extremality.MAX
        if c2 == half and not _is_power_of_two(d // math.gcd(c1, d)):
            return Extremality.MAX
        if (c2 - c1) % d == half and not _is_power_of_two(d // math.gcd(c1, d)):
            return Extremality.MAX
    return Extremality.INTERIOR
