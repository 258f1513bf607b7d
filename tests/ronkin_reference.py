"""The adaptive quadrature that ``amoeba.ronkin_batch``'s closed form replaced, kept as a numerical reference.

The inner Jensen identity avg_z log|a + b z| = log max(|a|, |b|) collapses
the double average over the torus to a single integral,

    rho(u) = -integral(0,1) log max(|1 + e^{-u1} e^{2 pi i s}|, e^{-u2}) ds,

which ``quad.integrate`` evaluates once per point, with the kinks where
the modulus crosses the floor declared as break points.
It shares no code with the closed form: no angles, no Clausen function.
"""

from __future__ import annotations

import math

import numpy as np

from zeta_heights import quad
from zeta_heights.amoeba import COORD_LIMIT, AmoebaPoint


def _switch_breaks(rr: float, floor_log: float) -> tuple[float, ...]:
    """Parameters s where the scaled modulus crosses the scaled floor.

    Works on |1 + rr e^{2 pi i s}|^2 = (1-rr)^2 + 4 rr cos(pi s)^2 with
    rr <= 1, whose two nonnegative terms keep the crossing location
    accurate even when the modulus nearly vanishes.
    """
    if floor_log > 1.0:  # floor above the largest possible modulus 1 + rr
        return ()
    floor = math.exp(floor_log)
    q = (floor * floor - (1.0 - rr) * (1.0 - rr)) / (4.0 * rr)
    if not (0.0 < q < 1.0):
        return ()
    s_lo = math.acos(math.sqrt(q)) / math.pi
    return (s_lo, 1.0 - s_lo)


def ronkin_batch(points: list[AmoebaPoint], tol: float = 1e-9) -> list[float]:
    """The Ronkin function at each point, by one adaptive quadrature per point.

    The larger of the moduli 1 and e^{-u1} is factored out first, so the
    evaluation never overflows on the supported coordinate range.
    """
    if any(max(abs(u.u1), abs(u.u2)) > COORD_LIMIT for u in points):
        raise ValueError(f"coordinates exceed the supported range +-{COORD_LIMIT}")
    return [_ronkin(u, tol) for u in points]


def _ronkin(u: AmoebaPoint, tol: float) -> float:
    # |1 + r z| = max(1, r) * |1 + rr z'| with rr = min(r, 1/r) <= 1
    scale = max(0.0, -u.u1)
    rr = math.exp(-abs(u.u1))
    floor_log = -u.u2 - scale
    sq_dist, four_rr = (1.0 - rr) * (1.0 - rr), 4.0 * rr

    def integrand(s: np.ndarray) -> np.ndarray:
        m2 = sq_dist + four_rr * np.cos(math.pi * s) ** 2
        return np.maximum(0.5 * np.log(m2), floor_log)

    return -(scale + quad.integrate(integrand, 0.0, 1.0, tol, break_points=_switch_breaks(rr, floor_log)).value)
