import pytest

from helpers import canonical_representative, orbit
from zeta_heights import symmetry
from zeta_heights.errors import NontrivialityError
from zeta_heights.torsion import TorsionPoint, total_height

# Indices 6*e1 + 2*e2 + e3 of the generators in the table of alpha^e1 * beta^e2 * gamma^e3.
ALPHA, BETA, GAMMA = 6, 2, 1


def apply(index, c, d):
    """The image of c under the table's element at index, through images()."""
    return list(symmetry.images(c[0], c[1], d))[index]


def bfs_orbit(c, d):
    """Closure of c under the three generator maps; independent of the table."""
    gens = [
        lambda p: (p[1] % d, p[0] % d),
        lambda p: ((-p[1]) % d, (p[0] - p[1]) % d),
        lambda p: ((-p[0]) % d, (-p[1]) % d),
    ]
    seen = {(c[0] % d, c[1] % d)}
    frontier = list(seen)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = g(p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def matpow(m, k):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = matmul(m, out)
    return out


class TestGroup:
    def test_twelve_distinct_elements(self):
        mats = symmetry._MATRICES
        assert len(mats) == 12
        assert len(set(mats)) == 12

    def test_table_matches_generator_words(self):
        alpha, beta, gamma = ((0, 1), (1, 0)), ((0, -1), (1, -1)), ((-1, 0), (0, -1))
        exponents = [(e1, e2, e3) for e1 in (0, 1) for e2 in (0, 1, 2) for e3 in (0, 1)]
        for e1, e2, e3 in exponents:
            word = matmul(matpow(alpha, e1), matmul(matpow(beta, e2), matpow(gamma, e3)))
            assert symmetry._MATRICES[6 * e1 + 2 * e2 + e3] == word

    def test_closure_and_inverses(self):
        mats = set(symmetry._MATRICES)
        ident = ((1, 0), (0, 1))
        for a in mats:
            for b in mats:
                assert matmul(a, b) in mats
            assert any(matmul(a, b) == ident for b in mats)

    def test_generator_relations(self):
        for d in (5, 8, 13):
            for c in ((1, 0), (2, 3), (4, 4)):
                p = c
                for _ in range(3):
                    p = apply(BETA, p, d)
                assert p == (c[0] % d, c[1] % d)
                assert apply(ALPHA, apply(ALPHA, c, d), d) == (c[0] % d, c[1] % d)
                assert apply(GAMMA, apply(GAMMA, c, d), d) == (c[0] % d, c[1] % d)


class TestApply:
    def test_examples(self):
        assert apply(BETA, (1, 0), 5) == (0, 1)
        assert apply(GAMMA, (1, 3), 5) == (4, 2)


class TestOrbit:
    def test_example_mod3(self):
        assert orbit((1, 1), 3) == {(1, 1), (2, 2), (2, 0), (0, 2), (1, 0), (0, 1)}

    def test_generic_size_twelve(self):
        assert len(orbit((1, 3), 8)) == 12

    def test_trivial_rejected(self):
        with pytest.raises(NontrivialityError):
            orbit((0, 0), 5)

    def test_matches_bfs_closure(self):
        import random

        rng = random.Random(11)
        for _ in range(100):
            d = rng.randrange(2, 40)
            c = (rng.randrange(d), rng.randrange(d))
            if c == (0, 0):
                continue
            assert orbit(c, d) == bfs_orbit(c, d)


class TestCanonicalRepresentative:
    def test_examples(self):
        assert canonical_representative((2, 2), 3) == (0, 1)
        assert canonical_representative((0, 1), 3) == (0, 1)
        rep = canonical_representative((7, 7), 8)
        assert rep == min(orbit((7, 7), 8))

    def test_idempotent(self):
        for d in range(2, 20):
            for c1 in range(d):
                for c2 in range(d):
                    if (c1, c2) == (0, 0):
                        continue
                    rep = canonical_representative((c1, c2), d)
                    assert canonical_representative(rep, d) == rep

    def test_partition(self):
        for d in range(2, 25):
            reps = {}
            for c1 in range(d):
                for c2 in range(d):
                    if (c1, c2) == (0, 0):
                        continue
                    rep = canonical_representative((c1, c2), d)
                    reps.setdefault(rep, set()).add((c1, c2))
            total = 0
            for rep, members in reps.items():
                orb = orbit(rep, d)
                assert members == orb
                total += len(orb)
            assert total == d * d - 1

    def test_trivial_rejected(self):
        with pytest.raises(NontrivialityError):
            canonical_representative((0, 0), 7)


class TestHeightInvariance:
    def test_heights_constant_on_orbits(self):
        for d in range(2, 49):
            seen: dict[tuple[int, int], float] = {}
            for c1 in range(d):
                for c2 in range(d):
                    if (c1, c2) == (0, 0):
                        continue
                    h = total_height(TorsionPoint(d, c1, c2)).total
                    rep = canonical_representative((c1, c2), d)
                    if rep in seen:
                        assert abs(h - seen[rep]) <= 1e-12
                    else:
                        seen[rep] = h
