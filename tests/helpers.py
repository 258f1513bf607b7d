"""Accessors that only the tests use: grid cells by residue and the two weighted pieces of the limit integral."""

from __future__ import annotations

import math

import numpy as np

from zeta_heights import constants, grid, quad


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
    first = quad.integrate(lambda s: s * constants._log_dist(s), 0.0, math.pi, tol)
    second = quad.integrate(lambda s: (4.0 * math.pi - 3.0 * s) * constants._log_dist(s),
                            math.pi, 4.0 * math.pi / 3.0, tol)
    return first.value, second.value
