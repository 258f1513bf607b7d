"""The pattern search that ``amoeba.legendre_dual`` replaced, kept as a numerical reference.

It minimises u -> <x, u> - rho(u) over quadrature values of the Ronkin
function from ``ronkin_reference``, independently of the Lobachevsky
closed form: from the origin, eight probes per step in one
``ronkin_batch`` (the first improving one in order wins), the step
halving from 1 down to 1e-4, probes clamped to the box |u| <=
SEARCH_RADIUS.  The objective is convex, so descent from any start is
safe.  On the simplex boundary the infimum is approached along a tentacle
and the search stops at the box, well below 1e-3 from 0; at interior
points 0.05 from every edge it agrees with the closed form to about 3e-9.
"""

from __future__ import annotations

from ronkin_reference import ronkin_batch

from zeta_heights.amoeba import AmoebaPoint

# The objective is linear outside a compact neighborhood of the amoeba, so
# minima for interior simplex points fall well inside this box.
SEARCH_RADIUS = 25.0

_PATTERN_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def legendre_dual(x: tuple[float, float], tol: float = 1e-9) -> float:
    x1, x2 = float(x[0]), float(x[1])
    r_box = SEARCH_RADIUS
    u1, u2 = 0.0, 0.0

    def f(probes: list[tuple[float, float]]) -> list[float]:
        values = ronkin_batch([AmoebaPoint(a, b) for a, b in probes], tol)
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
