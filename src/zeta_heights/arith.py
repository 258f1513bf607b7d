"""Exact integer arithmetic underpinning the height formulas.

Everything here is exact: factorization is deterministic trial division
(inputs are bounded by grid sizes, so no probabilistic tests are needed),
a prime is a number whose factorization is itself, and logarithms are
kept symbolic until a caller asks for a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class PrimePower:
    """A number of the form p**r with p prime and r >= 1."""

    p: int
    r: int

    def __post_init__(self) -> None:
        if _factorize(self.p) != ((self.p, 1),):
            raise ValueError(f"{self.p} is not prime")
        if self.r < 1:
            raise ValueError(f"exponent must be >= 1, got {self.r}")


@dataclass(frozen=True)
class ExactLog:
    """An exact value of the form log(base); base None encodes exact zero."""

    base: int | None

    @property
    def is_zero(self) -> bool:
        return self.base is None

    @property
    def value(self) -> float:
        return 0.0 if self.base is None else math.log(self.base)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ExactPower:
    """An exact value base**exponent with rational exponent."""

    base: int
    exponent: Fraction

    @property
    def value(self) -> float:
        return float(self.base) ** float(self.exponent)

    def __float__(self) -> float:
        return self.value


_ONE = ExactPower(1, Fraction(0))


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


def von_mangoldt(n: int) -> ExactLog:
    """log(p) if n is a power of the prime p, exact zero otherwise."""
    if n < 1:
        raise ValueError(f"von_mangoldt needs n >= 1, got {n}")
    if n == 1:
        return ExactLog(None)
    pp = prime_power_decompose(n)
    return ExactLog(pp.p) if pp is not None else ExactLog(None)


def cyclotomic_at_one(d: int) -> int:
    """Value at 1 of the d-th cyclotomic polynomial: p if d = p**r, else 1.

    Computed from the factorization of d; the polynomial itself is never
    constructed.
    """
    if d < 2:
        raise ValueError(f"cyclotomic_at_one needs d >= 2, got {d}")
    pp = prime_power_decompose(d)
    return pp.p if pp is not None else 1


def prime_power_decompose(n: int) -> PrimePower | None:
    """Write n as p**r if possible, else None. Requires n >= 2."""
    if n < 2:
        raise ValueError(f"prime_power_decompose needs n >= 2, got {n}")
    facts = _factorize(n)
    if len(facts) == 1:
        p, r = facts[0]
        return PrimePower(p, r)
    return None


def modular_units(d: int) -> list[int]:
    """Ascending list of k in [1, d] with gcd(k, d) = 1; [1] for d = 1."""
    if d < 1:
        raise ValueError(f"modular_units needs d >= 1, got {d}")
    return [k for k in range(1, d + 1) if math.gcd(k, d) == 1]


def padic_distance_to_one(p: int, d: int) -> ExactPower:
    """p-adic distance from a primitive d-th root of unity to 1.

    Equals p**(-1/phi(d)) when d is a power of p, and 1 otherwise.
    The result is returned symbolically as a base with rational exponent.
    """
    if _factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not prime")
    if d < 2:
        raise ValueError(f"padic_distance_to_one needs d >= 2, got {d}")
    pp = prime_power_decompose(d)
    if pp is not None and pp.p == p:
        return ExactPower(p, Fraction(-1, euler_phi(d)))
    return _ONE
