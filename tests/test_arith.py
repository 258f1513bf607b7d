import math
import random

import pytest

from zeta_heights import arith, torsion


def brute_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def phi_sieve(limit: int) -> list[int]:
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        assert r == 0
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert all(c == 0 for c in num)
    return out


def cyclotomic_poly(d: int, cache={}) -> list[int]:
    """d-th cyclotomic polynomial via x^d - 1 = prod over e | d."""
    if d in cache:
        return cache[d]
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = poly_div_exact(num, cyclotomic_poly(e))
    cache[d] = num
    return num


class TestEulerPhi:
    def test_examples(self):
        assert arith.euler_phi(1) == 1
        assert arith.euler_phi(12) == brute_phi(12) == 4
        assert arith.euler_phi(5) == brute_phi(5) == 4

    def test_brute_small(self):
        for n in range(1, 1001):
            assert arith.euler_phi(n) == brute_phi(n)

    def test_sieve_to_1e4(self):
        phi = phi_sieve(10**4)
        for n in range(1, 10**4 + 1):
            assert arith.euler_phi(n) == phi[n]

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randrange(1, 400), rng.randrange(1, 400)
            if math.gcd(m, n) == 1:
                assert arith.euler_phi(m * n) == arith.euler_phi(m) * arith.euler_phi(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            arith.euler_phi(0)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, r) with p**r = n by trial division, None if n >= 2 is not a prime power."""
    p = next(q for q in range(2, n + 1) if n % q == 0)
    r = 0
    while n % p == 0:
        n //= p
        r += 1
    return (p, r) if n == 1 else None


def padic_distance_to_one(p: int, d: int) -> float:
    """|zeta_d - 1|_p for a primitive d-th root of unity: p**(-1/phi(d)) if d is a power of p, else 1."""
    pp = prime_power(d)
    return p ** (-1.0 / brute_phi(d)) if pp is not None and pp[0] == p else 1.0


class TestVonMangoldt:
    def test_examples(self):
        assert arith.von_mangoldt(1) == 0.0
        assert arith.von_mangoldt(8) == math.log(2)
        assert arith.von_mangoldt(6) == 0.0

    def test_matches_prime_power_decomposition(self):
        for n in range(2, 10**4 + 1):
            pp = prime_power(n)
            lam = arith.von_mangoldt(n)
            assert (pp is not None) == (lam != 0.0)
            if pp is not None:
                assert lam == math.log(pp[0])

    def test_domain(self):
        with pytest.raises(ValueError):
            arith.von_mangoldt(0)


class TestCyclotomicAtOne:
    def test_examples(self):
        # Lambda(d) = log Phi_d(1): Phi_d(1) is p for d = p**r and 1 otherwise
        assert arith.von_mangoldt(5) == math.log(5)
        assert arith.von_mangoldt(9) == math.log(3)
        assert arith.von_mangoldt(6) == 0.0

    def test_against_polynomial_recursion(self):
        for d in range(2, 201):
            assert arith.von_mangoldt(d) == math.log(sum(cyclotomic_poly(d)))


class TestPrimePowerDecompose:
    def test_examples(self):
        assert arith._factorize(16) == ((2, 4),)
        assert arith._factorize(7) == ((7, 1),)
        assert len(arith._factorize(12)) == 2

    def test_reconstructs(self):
        for n in range(2, 2000):
            facts = arith._factorize(n)
            assert (len(facts) == 1) == (prime_power(n) is not None)
            if len(facts) == 1:
                (p, r), = facts
                assert p**r == n
                assert arith.von_mangoldt(n) == math.log(p)

    def test_domain(self):
        with pytest.raises(ValueError):
            arith._factorize(0)


class TestModularUnits:
    def test_examples(self):
        assert torsion._units_array(6).tolist() == [1, 5]
        assert torsion._units_array(1).tolist() == [1]
        assert torsion._units_array(10).tolist() == [1, 3, 7, 9]

    def test_length_is_phi(self):
        for d in range(1, 300):
            assert len(torsion._units_array(d)) == arith.euler_phi(d)

    def test_domain(self):
        with pytest.raises(ValueError):
            torsion._units_array(0)


class TestPadicDistanceToOne:
    def test_power_of_p(self):
        assert padic_distance_to_one(3, 9) == 3.0 ** (-1.0 / 6.0)
        assert padic_distance_to_one(2, 2) == 0.5
        # log |zeta_e - 1|_p is -Lambda(e)/phi(e) when e is a power of p
        assert math.log(padic_distance_to_one(3, 9)) == pytest.approx(-arith.von_mangoldt(9) / arith.euler_phi(9), abs=1e-16)

    def test_otherwise_one(self):
        assert padic_distance_to_one(5, 3) == 1.0
        assert padic_distance_to_one(3, 15) == 1.0
        assert arith.von_mangoldt(15) == 0.0


class TestExactValueHelpers:
    def test_float_conversion(self):
        # von Mangoldt values are plain floats, exact zero included
        assert type(arith.von_mangoldt(9)) is float and arith.von_mangoldt(9) == math.log(3)
        assert type(arith.von_mangoldt(1)) is float and arith.von_mangoldt(1) == 0.0

    def test_trial_division_range_guard(self):
        with pytest.raises(ValueError):
            arith.euler_phi(10**12 + 39)  # prime beyond the trial-division range
