"""Helpers that only the tests use: grid cells by residue, the two weighted pieces of the
limit integral, units by gcd, and symmetry orbits with their canonical representatives."""

from __future__ import annotations

import math

import numpy as np

from zeta_heights import constants, grid, quad, symmetry
from zeta_heights.errors import NontrivialityError


def height(g: grid.HeightGrid, c1: int, c2: int) -> float:
    """The height of cell (c1, c2) mod d; the sentinel cell (0, 0) carries none."""
    if (c1 % g.d, c2 % g.d) == (0, 0):
        raise ValueError("the sentinel cell (0,0) carries no height")
    return float(g.values[c1 % g.d, c2 % g.d])


def nontrivial_values(g: grid.HeightGrid) -> np.ndarray:
    """The d*d - 1 heights in row-major cell order, sentinel skipped by index."""
    return g.values.ravel()[1:]


def limit_integral_pieces(tol: float = 1e-10) -> tuple[float, float]:
    """The two weighted pieces of the reduced limit integral, by direct quadrature.

    Closed forms: the first equals (7/4) zeta(3), the second (11/12) zeta(3).
    """
    first = quad.integrate(lambda s: s * np.log(constants.chord(s)), 0.0, math.pi, tol)
    second = quad.integrate(lambda s: (4.0 * math.pi - 3.0 * s) * np.log(constants.chord(s)),
                            math.pi, 4.0 * math.pi / 3.0, tol)
    return first.value, second.value


def units(d: int) -> list[int]:
    """Ascending list of k in [1, d] with gcd(k, d) = 1; [1] for d = 1."""
    return [k for k in range(1, d + 1) if math.gcd(k, d) == 1]


def _check_nontrivial(c: tuple[int, int], d: int) -> None:
    if (c[0] % d, c[1] % d) == (0, 0):
        raise NontrivialityError("the trivial pair (0,0) is a fixed point of the whole group")


def orbit(c: tuple[int, int], d: int) -> set[tuple[int, int]]:
    """The set {g.c : g in the symmetry group}; its size divides 12."""
    _check_nontrivial(c, d)
    return set(symmetry.images(c[0] % d, c[1] % d, d))


def canonical_representative(c: tuple[int, int], d: int) -> tuple[int, int]:
    """Lexicographically smallest member of the orbit of c; idempotent."""
    _check_nontrivial(c, d)
    return min(orbit(c, d))
