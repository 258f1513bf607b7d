"""The pattern search that ``amoeba.legendre_dual`` replaced, kept as a numerical reference.

It minimises u -> <x, u> - rho(u) over quadrature values of the Ronkin
function, those of ``ronkin_reference.ronkin_batch`` bit for bit,
independently of the Lobachevsky closed form: from the origin, eight
probes per step integrated together (the first improving one in order
wins), the step halving from 1 down to 1e-4, probes clamped to the box
|u| <= SEARCH_RADIUS.  The objective is convex, so descent from any start is
safe.  On the simplex boundary the infimum is approached along a tentacle
and the search stops at the box, well below 1e-3 from 0; at interior
points 0.05 from every edge it agrees with the closed form to about 3e-9.
"""

from __future__ import annotations

import math

import numpy as np
from ronkin_reference import _switch_breaks

from zeta_heights import quad

# The objective is linear outside a compact neighborhood of the amoeba, so
# minima for interior simplex points fall well inside this box.
SEARCH_RADIUS = 25.0

_PATTERN_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def ronkin_batch(points: list[tuple[float, float]], tol: float) -> list[float]:
    """The Ronkin function at each point (u1, u2), as ``ronkin_reference.ronkin_batch`` gives it, bit for bit.

    One vectorised closure evaluates the open panels of every point in each
    round, with the point's parameters gathered per panel.  A panel is
    accepted by ``quad.integrate``'s rule, and each point's accepted panels
    are summed exactly, so each value is that of the point's own
    ``quad.integrate`` call over [0, 1] (away from budget exhaustion, which
    this reference does not count).
    """
    scale, sq_dist, four_rr, floor_log, owner, lo, hi = [], [], [], [], [], [], []
    for i, (u1, u2) in enumerate(points):  # the scalars and intervals of ronkin_reference._ronkin
        rr = math.exp(-abs(u1))
        scale.append(max(0.0, -u1))
        sq_dist.append((1.0 - rr) * (1.0 - rr))
        four_rr.append(4.0 * rr)
        floor_log.append(-u2 - scale[-1])
        edges = [0.0, *sorted(p for p in set(_switch_breaks(rr, floor_log[-1])) if 0.0 < p < 1.0), 1.0]
        owner += [i] * (len(edges) - 1)
        lo += edges[:-1]
        hi += edges[1:]
    sq_dist, four_rr, floor_log = (np.array(column)[:, None] for column in (sq_dist, four_rr, floor_log))
    owner, lo, hi = np.array(owner), np.array(lo), np.array(hi)
    vals = [[] for _ in points]
    while owner.size:
        sq, four, floor = sq_dist[owner], four_rr[owner], floor_log[owner]
        ik, err = quad._panels(lambda s: np.maximum(0.5 * np.log(sq + four * np.cos(math.pi * s) ** 2), floor), lo, hi)
        width = hi - lo  # over [0, 1], the share width / (b - a) is width itself
        narrow = width <= quad._WIDTH_FLOOR * np.maximum(np.abs(lo), np.abs(hi))
        accept = narrow | (err <= tol * (width + quad._SHARE_FLOOR))
        for i, v in zip(owner[accept].tolist(), ik[accept].tolist()):
            vals[i].append(v)
        owner, lo, hi = owner[~accept], lo[~accept], hi[~accept]
        mid = 0.5 * (lo + hi)
        owner, lo, hi = np.concatenate([owner, owner]), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    return [-(s + math.fsum(v)) for s, v in zip(scale, vals)]


def legendre_dual(x: tuple[float, float], tol: float = 1e-9) -> float:
    x1, x2 = float(x[0]), float(x[1])
    r_box = SEARCH_RADIUS
    u1, u2 = 0.0, 0.0

    def f(probes: list[tuple[float, float]]) -> list[float]:
        values = ronkin_batch(probes, tol)
        return [x1 * a + x2 * b - rho for (a, b), rho in zip(probes, values)]

    best = f([(u1, u2)])[0]
    step = 1.0
    while step > 1e-4:
        probes = [(min(max(u1 + step * d1, -r_box), r_box), min(max(u2 + step * d2, -r_box), r_box))
                  for d1, d2 in _PATTERN_STEPS]
        for (a, b), val in zip(probes, f(probes)):
            if val < best - 1e-15:
                best, u1, u2 = val, a, b
                break
        else:
            step *= 0.5
    return best
