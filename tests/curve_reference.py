"""The segment quadrature that ``curves.limit_height``'s Clausen sum replaced, kept as a numerical reference.

Each segment w -> 2*pi*(w*p + n1/e, w*q + n2/e) of a torsion curve is
integrated by ``quad.integrate`` over [0, 1], with break points at
every lattice hit of the six multipliers p, q, p - q (the zeros of the
three chords) and p + q, 2p - q, 2q - p (the kinks where the largest chord
changes: |sin pi x| = |sin pi y| exactly when x = +-y mod 1).  It shares
the basis and the segment offsets with the library, nothing else.  Its
earlier form declared only the first three families, and a G7/K15 pair
straddling a kink could agree by accident: (3, 5, 15) came out 5.9e-8 low.
"""

from __future__ import annotations

import math

import numpy as np

from zeta_heights import constants, quad
from zeta_heights.curves import TorsionCurve, _basis, segment_offsets


def _lattice_hits(m: int, n: int, e: int) -> list[float]:
    """Solutions w in (0, 1) of w*m + n/e in Z: the correctly rounded (k*e - n)/(m*e)."""
    lo, hi = sorted((n, n + m * e))
    return [(k * e - n) / (m * e) for k in range(lo // e + 1, (hi - 1) // e + 1)]


def _segment_breaks(p: int, q: int, n1: int, n2: int, e: int) -> list[float]:
    """Parameters where a chord vanishes or the largest chord changes."""
    families = [(p, n1), (q, n2), (p - q, n1 - n2), (p + q, n1 + n2), (2 * p - q, 2 * n1 - n2), (2 * q - p, 2 * n2 - n1)]
    return sorted({w for m, n in families for w in _lattice_hits(m, n, e)})


def limit_height(curve: TorsionCurve, tol: float = 1e-13) -> float:
    (p, q), _ = _basis(curve)
    e = curve.e
    tau = 2.0 * math.pi

    def segment(n1: int, n2: int) -> float:
        o1, o2 = n1 / e, n2 / e

        def integrand(w: np.ndarray) -> np.ndarray:
            u1, u2 = tau * (w * p + o1), tau * (w * q + o2)
            return np.log(np.maximum(np.maximum(constants.chord(u2 - u1), constants.chord(u2)), constants.chord(u1)))

        return quad.integrate(integrand, 0.0, 1.0, tol, break_points=_segment_breaks(p, q, n1, n2, e)).value

    offsets = segment_offsets(curve)
    return math.fsum(segment(n1, n2) for n1, n2 in offsets) / len(offsets)
