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
and every log |exp(i*theta) - 1| is log(2*sin(pi*m/e)) of a residue m folded
into [0, e/2] (``_log_chord``, for single heights and class tables alike),
which avoids cancellation near the singularity and makes the result
bit-identical across the symmetry orbit of (c1, c2).  That distance grows
with m, so the largest of the three distances of a unit is the one of its
largest folded residue: one sine and one log per unit.  The units of e are
sieved by the primes of e, and the folding makes the units k and e - k give
the same summand bit for bit, so only the units k <= e/2 are summed; with a
correctly rounded sum (one chunk level and a bounded remainder, deeper only
if in doubt: ``_row_sums``) this half-orbit mean is the full Galois average
to the last bit.  A single height streams its sieve of [0, e/2] in slices,
keeping no array of the order; a class table is a read-only array of the
heights of one order's classes.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import arith, symmetry
from .errors import NontrivialityError

LOG2 = math.log(2.0)

# Largest order whose Galois orbit is summed.  One total_height at
# e = 9999991 from empty caches peaks at 6.0 MiB under tracemalloc (the
# e/2-byte sieve and one slice of temporaries) and raises a fresh CLI
# process's ru_maxrss from 29 to 36 MB.
MAX_ORDER = 10**7

# The per-order caches share one LRU dict, (function, e) -> read-only array,
# whose arrays hold at most CACHE_BYTES together.  Single heights cache
# nothing; the dict holds class tables (8 bytes per class, 49 KB at
# e = 4096), inverse tables of prime powers and the unit arrays of curves.
CACHE_BYTES = 64 << 20
_cache: OrderedDict = OrderedDict()
_cache_bytes = 0
_cache_lock = threading.Lock()


def _per_order(fn):
    """Cache fn(e) by the bytes of its arrays, handed out read-only; ``cache_clear`` drops fn's entries."""

    @functools.wraps(fn)
    def cached(e: int):
        global _cache_bytes
        value = _cache.get((cached, e))
        if value is None:
            value = fn(e)
            value.flags.writeable = False  # a cached array is shared by every caller
            if value.nbytes > CACHE_BYTES:  # would evict every table, itself included
                return value
        with _cache_lock:
            if (cached, e) not in _cache:
                _cache[cached, e] = value
                _cache_bytes += value.nbytes
            _cache.move_to_end((cached, e))
            while _cache_bytes > CACHE_BYTES:
                _cache_bytes -= _cache.popitem(last=False)[1].nbytes
        return value

    def cache_clear() -> None:
        global _cache_bytes
        with _cache_lock:
            for key in [key for key in _cache if key[0] is cached]:
                _cache_bytes -= _cache.pop(key).nbytes

    cached.cache_clear = cache_clear
    return cached


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


def _coprime(e: int, n: int) -> np.ndarray:
    """Bool mask over [0, n], True at the k coprime to e except k = 0, sieved by the primes of e."""
    if e > MAX_ORDER:
        raise ValueError(f"order {e} exceeds the Galois-orbit limit {MAX_ORDER}")
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    for p, _ in arith._factorize(e):
        mask[::p] = False
    return mask


@_per_order
def _units_array(e: int) -> np.ndarray:
    """Ascending units of e in [1, e]."""
    return np.flatnonzero(_coprime(e, e))


def intersection_point(pt: TorsionPoint) -> ProjectivePointC:
    """The intersection C with its translate, with omega_j = exp(2*pi*i*c_j/d)."""
    _require_nontrivial(pt)
    w1inv = complex(math.cos(2 * math.pi * pt.c1 / pt.d), -math.sin(2 * math.pi * pt.c1 / pt.d))
    w2inv = complex(math.cos(2 * math.pi * pt.c2 / pt.d), -math.sin(2 * math.pi * pt.c2 / pt.d))
    return ProjectivePointC((w2inv - w1inv, 1.0 - w2inv, w1inv - 1.0))


# Elements of one block of an orbit sum: units of one height, or pairs x
# units of a table.  On a 2-core Xeon, blocks of 2**16 took 4400 page
# faults and 1.5x the time of 2**14 (none) per height at e = 999983, and
# blocks of 2**18 took 15104 faults (2**14: about 1000) and 1.4x the time
# for class_table(4096): glibc malloc hands the freed temporaries back to
# the system at every block.
_BLOCK = 1 << 14
_FSUM_TERMS = 256  # largest block whose rows math.fsum sums faster than one chunk split does


def _log_chord(m: np.ndarray, e: int) -> np.ndarray:
    """log |exp(2*pi*i*m/e) - 1| as log(2*sin(pi*m/e)) at integer residues m in [0, e/2]: every orbit summand."""
    x = m * np.pi
    x /= e
    return np.log(np.multiply(np.sin(x, out=x), 2.0, out=x), out=x)


def _fold(r: np.ndarray, e: int, buf: np.ndarray) -> np.ndarray:
    """r folded into [0, e/2] as min(r, e - r), in place; r must lie in [0, e]."""
    return np.minimum(r, np.subtract(e, r, out=buf), out=r)


def _folded_max(e: int, c1, c2, k: np.ndarray) -> np.ndarray:
    """The largest of c1*k, c2*k and (c2 - c1)*k mod e, each folded into [0, e/2].

    2*sin(pi*m/e) increases with m on [0, e/2], so this residue has the
    largest of the three distances.  (c2 - c1)*k folds as |c2*k - c1*k|.
    """
    r1, r2 = c1 * k, c2 * k
    buf = np.empty_like(r1)
    for r in (r1, r2):  # % e: numpy divides by a scalar several times faster than it takes %
        r -= np.multiply(np.floor_divide(r, e, out=buf), e, out=buf)
    r3 = np.abs(r2 - r1)
    return np.maximum(np.maximum(_fold(r1, e, buf), _fold(r2, e, buf), out=r1), _fold(r3, e, buf), out=r1)


def _row_sums(blocks) -> list[float]:
    """Correctly rounded sum of each row of the finite float64 2-D blocks, all of the same rows, that ``blocks()`` makes.

    Row i is math.fsum over row i of every block, bit for bit; the blocks
    are overwritten.  The first pass hands blocks of at most _FSUM_TERMS values
    to fsum whole and splits each other one, n <= 2**26 columns below 2**E, once
    at s = E - b, b = 53 - bit_length(n - 1), into chunks trunc(x / 2**s), whose
    rows sum exactly in float, and remainders below 2**s, whose float row sums
    err by at most gamma(n - 1)*n*2**s <= n*n*2**(s - 53) (Higham, Accuracy and
    Stability of Numerical Algorithms, 4.2).  Where fsum rounds each row's terms
    plus and minus these bounds to the same double, that is the sum.  Otherwise
    ``blocks()`` is called again and its rows in doubt (all of them after an
    overflow) are split at s = E - b, E - 2*b, ... until no remainder is left;
    the chunk sums add up as Python ints and round once.
    """
    def pow2(x: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:  # x * 2**s, a multiply where 2**+-s are normal
        return np.multiply(x, 2.0**s, out=out) if abs(s) < 1022 else np.ldexp(x, s, out=out)

    doubt = None  # the rows to split to the end, all of them after an overflow
    with contextlib.suppress(OverflowError):  # a chunk sum or an end past the largest double
        terms, up = [], []
        for block in blocks():
            if block.size <= _FSUM_TERMS:  # fsum takes a few short rows whole
                terms.append(block.tolist())
                continue
            n, buf = block.shape[1], np.abs(block)
            s = math.frexp(buf.max(initial=0.0))[1] + (n - 1).bit_length() - 53
            chunks = np.trunc(pow2(block, -s, buf), out=buf).sum(axis=1).tolist()
            block -= pow2(buf, s, buf)  # the remainders, whose row sums are within n*n*2**(s - 53)
            terms.append([[math.ldexp(c, s), f] for c, f in zip(chunks, block.sum(axis=1).tolist())])
            up.append(math.ldexp(n * n, max(s - 53, -1074)))
        rows, down = terms[0] if len(terms) == 1 else [sum(row, []) for row in zip(*terms)], [-b for b in up]
        sums = [math.fsum(row + up) for row in rows]
        doubt = [i for i, row in enumerate(rows) if sums[i] != math.fsum(row + down)] if up else []
        if not doubt:
            return sums
    parts, rows = [], 0
    for block in blocks():
        if doubt is None:
            doubt, sums = range(len(block)), [0.0] * len(block)
        block = block[doubt]
        (rows, n), buf = block.shape, np.abs(block)
        bits, s, left = 53 - (n - 1).bit_length(), math.frexp(buf.max(initial=0.0))[1], True
        while left:
            s -= bits
            parts.append((np.trunc(pow2(block, -s, buf), out=buf).sum(axis=1).tolist(), s))
            block -= pow2(buf, s, buf)
            left = block.any()
    low = min((s for _, s in parts), default=0)
    totals = [0] * rows
    for chunks, s in parts:
        totals = [t + (int(c) << (s - low)) for t, c in zip(totals, chunks)]
    for i, t in zip(doubt, totals):  # each row's exact sum does not depend on the others
        sums[i] = t / (1 << -low) if low < 0 else float(t << low)
    return sums


def _unit_ratio(e: int, c1: int, c2: int) -> int | None:
    """c such that (1, c) has the summands of (c1, c2) mod e, up to their order; None if there is none.

    The first unit a of c1, c2 and c1 - c2 gives the pair (a, b) = (c1, c2),
    (c2, c1) or (c1 - c2, c1), whose three residues at every unit k are
    those of (c1, c2) up to order and sign.  With c = b/a mod e, (1, c) at
    the unit a*k has them too, and the summands are even in k.
    """
    for a, b in ((c1, c2), (c2, c1), (c1 - c2, c1)):
        if math.gcd(a, e) == 1:
            return b * pow(a, -1, e) % e
    return None


def archimedean_height(pt: TorsionPoint) -> float:
    """Galois-orbit average of log max of the three coordinate distances.

    Evaluates (1/phi(e)) * sum over units k of e of
    log max(|w2^k - w1^k|, |w2^k - 1|, |w1^k - 1|) at the level of the
    order e, over the units k <= e/2 only, whose exactly rounded mean is the
    Galois average bit for bit (k and e - k give the same summand, and
    doubling is exact).  The units are sieved on [0, e/2] and summed one
    slice of about _BLOCK units (_BLOCK times e/phi(e) rounded down
    residues) at a time; where ``_unit_ratio`` gives c, over the pair
    (1, c), whose first residue k is folded already.
    """
    _require_nontrivial(pt)
    e, c1, c2 = _reduced(pt)
    half = _coprime(e, e // 2)
    n = np.count_nonzero(half)
    step = _BLOCK * (len(half) // n)
    c = _unit_ratio(e, c1, c2)

    def logs(lo: int) -> np.ndarray:
        k = np.flatnonzero(half[lo : lo + step])
        k += lo
        if c is None:
            m = _folded_max(e, c1, c2, k)
        else:
            m, buf = c * k, np.empty_like(k)
            m -= np.multiply(np.floor_divide(m, e, out=buf), e, out=buf)
            r = np.abs(m - k)
            m = np.maximum(np.maximum(_fold(m, e, buf), k, out=m), _fold(r, e, buf), out=m)
        return _log_chord(m, e)[None]

    return _row_sums(lambda: map(logs, range(0, len(half), step)))[0] / n


@_per_order
def _inverses(e: int) -> np.ndarray:
    """m^-1 mod e at every unit m of e, 0 at the non-units."""
    inv = np.zeros(e, dtype=np.int64)
    units = _units_array(e)
    inv[units] = [pow(u, -1, e) for u in units.tolist()]
    return inv


def total_heights(e: int, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Total heights of the order-e points with primitive residue pairs (c1, c2) mod e.

    Bit-identical to ``total_height(TorsionPoint(e, c1, c2)).total``: each
    orbit sum over the units k <= e/2 gathers the log distance of the
    largest folded residue (``_folded_max``) from a table over [0, e/2],
    the summands of ``archimedean_height``, and sums each row with
    ``_row_sums``.
    """
    if e < 2:
        raise ValueError(f"nontrivial points need order e >= 2, got {e}")
    a, b = np.asarray(c1, dtype=np.int64) % e, np.asarray(c2, dtype=np.int64) % e
    if np.any(np.gcd(np.gcd(a, b), e) != 1):
        raise ValueError(f"residue pairs must be primitive mod {e}")
    k = np.flatnonzero(_coprime(e, e // 2))
    with np.errstate(divide="ignore"):  # -inf at m = 0
        table = _log_chord(np.arange(e // 2 + 1, dtype=np.int64), e)
    nonarch = nonarchimedean_height(TorsionPoint(e, 1, 0))
    step = max(1, _BLOCK // len(k))
    sums = []
    for lo in range(0, len(a), step):
        sums += _row_sums(lambda: [table[_folded_max(e, a[lo : lo + step, None], b[lo : lo + step, None], k)]])
    return np.array(sums) / len(k) + nonarch


@_per_order
def class_table(e: int) -> np.ndarray:
    """Heights of the psi(e) points of P^1(Z/e), unit classes of primitive pairs mod e, in ``class_index`` order.

    Entry i is the total height that the phi(e) unit multiples of class i
    share bit for bit: the orbit sum runs over all units and is exactly
    rounded.  Mod each prime power q = p^r of e the classes are (1 : x) for
    x in [0, q), then (p*y : 1) for y in [0, q/p), combined by the Chinese
    remainder theorem, first prime most significant.
    """
    first = second = np.zeros((), dtype=np.int64)
    for p, r in arith._factorize(e):
        q = p**r
        lift = (e // q) * pow(e // q, -1, q)  # 1 mod q, 0 mod e/q
        units, multiples = np.ones(q, dtype=np.int64), np.arange(0, q, p)
        first = (first[..., None] + lift * np.concatenate([units, multiples])) % e
        second = (second[..., None] + lift * np.concatenate([np.arange(q), units[: q // p]])) % e
    first, second = first.ravel(), second.ravel()
    # The symmetries permute the classes and keep their heights bit for bit,
    # so only the class of least index in each orbit is summed.
    images = np.array(list(symmetry.images(first, second, e)))
    least = class_index(e, images[:, 0], images[:, 1]).min(axis=0)
    summed = np.flatnonzero(least == np.arange(len(first)))
    return total_heights(e, first[summed], second[summed])[np.searchsorted(summed, least)]


def class_index(e: int, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Index into ``class_table(e)`` of the class of each pair (c1, c2) mod e (they broadcast), -1 if not primitive.

    Mod q = p^r, (c1, c2) with c1 a unit is (1 : c2/c1), index c2/c1; with
    c2 the only unit it is (c1/c2 : 1), index q + (c1/c2)/p.  The indices
    mod the prime powers of e, tabulated on the q x q residues when that is
    smaller than the result, combine in mixed radix (Cremona, Algorithms
    for Modular Elliptic Curves, 2.2).
    """
    a, b = np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64)
    index = 0
    for p, r in arith._factorize(e):
        q = p**r
        inv = _inverses(q)

        def local(u: np.ndarray, v: np.ndarray) -> np.ndarray:
            unit = u % p != 0
            out = np.where(unit, v * inv[u] % q, q + u * inv[v] % q // p)
            return np.where(unit | (v % p != 0), out, -1)

        x = np.arange(q)
        part = local(x[:, None], x)[a % q, b % q] if q * q < np.broadcast(a, b).size else local(a % q, b % q)
        index = np.where((index < 0) | (part < 0), -1, index * (q + q // p) + part)
    return index


def nonarchimedean_height(pt: TorsionPoint) -> float:
    """Total over all finite places: -Lambda(e)/phi(e) for e the order."""
    _require_nontrivial(pt)
    e = order(pt)
    lam = arith.von_mangoldt(e)
    return -lam / arith.euler_phi(e) if lam else 0.0


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
        for minus_one, z in ((c1, c2), (c2, c1), ((c2 - c1) % d, c1)):
            n = d // math.gcd(z, d)  # the order of z, which must not be a power of 2
            if minus_one == d // 2 and n & (n - 1):
                return Extremality.MAX
    return Extremality.INTERIOR
