"""Integer arithmetic underpinning the height formulas.

Factorization is deterministic trial division (inputs are bounded by grid
sizes, so no probabilistic tests are needed); the arithmetic functions
read it, and only von Mangoldt's returns a float.
"""

from __future__ import annotations

import math
from functools import lru_cache

_TRIAL_LIMIT = 10**6


@lru_cache(maxsize=4096)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...), ascending p."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    m = n
    p = 2
    while p * p <= m and p <= _TRIAL_LIMIT:
        if m % p == 0:
            r = 0
            while m % p == 0:
                m //= p
                r += 1
            out.append((p, r))
        p += 1 if p == 2 else 2
    if m > 1:
        if m > _TRIAL_LIMIT * _TRIAL_LIMIT:
            raise ValueError(f"{n} exceeds the trial-division range")
        out.append((m, 1))
    return tuple(out)


def euler_phi(n: int) -> int:
    """Euler totient: the number of k in [1, n] coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    out = n
    for p, _ in _factorize(n):
        out -= out // p
    return out


def dedekind_psi(n: int) -> int:
    """Dedekind psi, n times the product of (1 + 1/p): the number of points of P^1(Z/n)."""
    out = n
    for p, _ in _factorize(n):
        out += out // p
    return out


def divisors(n: int) -> list[int]:
    """Ascending divisors of n >= 1."""
    out = [1]
    for p, r in _factorize(n):
        out = [m * p**i for m in out for i in range(r + 1)]
    return sorted(out)


def von_mangoldt(n: int) -> float:
    """log(p) if n is a power of the prime p, 0.0 otherwise."""
    if n < 1:
        raise ValueError(f"von_mangoldt needs n >= 1, got {n}")
    facts = _factorize(n)
    return math.log(facts[0][0]) if len(facts) == 1 else 0.0
