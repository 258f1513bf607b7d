"""The amoeba of 1 + z1 + z2: membership, moments, Ronkin function, and duals.

Points live in tropicalization coordinates u = (-log|z1|, -log|z2|).  A
point u belongs to the amoeba exactly when the moduli (1, e^{-u1}, e^{-u2})
can close a (possibly degenerate) triangle, which turns membership into
three inequalities evaluated overflow-free in the log domain.

The Ronkin function

    rho(u) = -avg over the unit torus of log|1 + z1 e^{-u1} + z2 e^{-u2}|

is evaluated through the inner Jensen identity
avg_z log|a + b z| = log max(|a|, |b|), which collapses the double average
to a single integral

    rho(u) = -integral(0,1) log max(|1 + e^{-u1} e^{2 pi i s}|, e^{-u2}) ds.

rho is concave, coincides with Psi(u) = min(0, u1, u2) off the amoeba, and
the determinant of its Hessian equals 1/pi^2 on the amoeba's interior.
The average of -Psi over the amoeba is the limit height eta, giving a
route to that constant independent of both the zeta series and the torus
quadrature.

The Legendre dual of rho is closed-form in the Lobachevsky function
Л(t) = Cl_2(2t)/2 (Passare and Rullgard, Duke Math. J. 121, 2004).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import constants, quad
from .errors import IllConditioned

# 171! exceeds the largest double.
MAX_MOMENT = 170

COORD_LIMIT = 700.0  # exp(|u|) must stay inside double range

_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class AmoebaPoint:
    u1: float
    u2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u1) and math.isfinite(self.u2)):
            raise ValueError("coordinates must be finite")


class RegionTag(enum.Enum):
    EAST = "east"
    WEST = "west"
    SOUTH = "south"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


def psi(u: AmoebaPoint) -> float:
    """Support function of the standard simplex: min(0, u1, u2)."""
    return min(0.0, u.u1, u.u2)


def _triangle_slacks(u: AmoebaPoint) -> tuple[float, float, float]:
    # log((r1+r2)/1), log((1+r2)/r1), log((1+r1)/r2); all >= 0 iff u is in
    # the amoeba.
    return (
        float(np.logaddexp(-u.u1, -u.u2)),
        float(np.logaddexp(0.0, -u.u2)) + u.u1,
        float(np.logaddexp(0.0, -u.u1)) + u.u2,
    )


def contains(u: AmoebaPoint) -> bool:
    """True iff each of 1, e^{-u1}, e^{-u2} is at most the sum of the others."""
    return min(_triangle_slacks(u)) >= 0.0


def region(u: AmoebaPoint, boundary_tol: float = 1e-12) -> RegionTag:
    """Locate u among the three tentacle regions of the amoeba."""
    slack = min(_triangle_slacks(u))
    if slack < 0.0:
        return RegionTag.OUTSIDE
    if slack <= boundary_tol:
        return RegionTag.BOUNDARY
    if min(0.0, u.u1) >= u.u2:
        return RegionTag.SOUTH
    if min(0.0, u.u2) >= u.u1:
        return RegionTag.WEST
    return RegionTag.EAST


def south_moment(m: int, tol: float = 1e-10) -> quad.QuadResult:
    """integral of u2^m over the south region {u in amoeba : min(0,u1) >= u2}.

    Integrating out u1 leaves integral(-inf, 0) -u2^m log(1 - e^{u2}) du2;
    the closed form is (-1)^m m! zeta(m+2), which overflows a double for
    m > MAX_MOMENT; such orders are refused before any evaluation.
    """
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    if m > MAX_MOMENT:
        raise ValueError(f"moment order must be <= {MAX_MOMENT} (m! zeta(m+2) overflows a double above), "
                         f"got {m}")

    def integrand(u: np.ndarray) -> np.ndarray:
        # log1p/expm1 keep the u -> 0 tail finite until the last ulp
        return -(u**m) * np.log(-np.expm1(u))

    return quad.integrate_semiinfinite(integrand, tol)


def volume(tol: float = 1e-10) -> float:
    """Area of the amoeba: 3 * vol(south) = 3*zeta(2) = pi^2/2.

    The south region maps onto the other two thirds by (u1,u2) -> (-u2,u1-u2)
    and by the diagonal swap, both measure-preserving.
    """
    return 3.0 * south_moment(0, tol).value


def psi_average(tol: float = 1e-10) -> float:
    """-(1/vol) * integral of Psi over the amoeba; equals eta.

    Psi vanishes on the east region and contributes the same integral on
    the west and south ones, so the integral is 2 * south_moment(1).
    """
    psi_integral = 2.0 * south_moment(1, tol).value
    return -psi_integral / volume(tol)


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
    """The Ronkin function of 1 + z1 + z2 at each point, by one adaptive quadrature batch.

    The integrand log max(|1 + e^{-u1} e^{2 pi i s}|, e^{-u2}) is bounded
    (the floor is positive) with kinks at the crossing parameters, which
    are declared as break points.  The larger of the moduli 1 and e^{-u1}
    is factored out first, so the evaluation never overflows on the
    supported coordinate range.
    """
    if any(max(abs(u.u1), abs(u.u2)) > COORD_LIMIT for u in points):
        raise ValueError(f"coordinates exceed the supported range +-{COORD_LIMIT}")
    # |1 + r z| = max(1, r) * |1 + rr z'| with rr = min(r, 1/r) <= 1
    scale = [max(0.0, -u.u1) for u in points]
    rr = [math.exp(-abs(u.u1)) for u in points]
    floor_log = [-u.u2 - sc for u, sc in zip(points, scale)]
    rr_col, floor_col = np.array(rr)[:, None], np.array(floor_log)[:, None]
    sq_dist, four_rr = (1.0 - rr_col) * (1.0 - rr_col), 4.0 * rr_col

    def integrand(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        m2 = sq_dist[rows] + four_rr[rows] * np.cos(math.pi * s) ** 2
        return np.maximum(0.5 * np.log(m2), floor_col[rows])

    parts = [[0.0, *_switch_breaks(r, fl), 1.0] for r, fl in zip(rr, floor_log)]
    return [-(sc + res.value) for sc, res in zip(scale, quad.integrate_batch(integrand, parts, tol))]


def ronkin(u: AmoebaPoint, tol: float = 1e-9) -> float:
    """The Ronkin function of 1 + z1 + z2 at u: ``ronkin_batch`` on one point."""
    return ronkin_batch([u], tol)[0]


def legendre_dual(x: tuple[float, float]) -> float:
    """Concave conjugate of the Ronkin function at x in the standard simplex.

    (Л(pi x0) + Л(pi x1) + Л(pi x2))/pi with x0 = 1 - x1 - x2.  Л is odd and
    pi-periodic, so for a <= b the two smallest x_i (negative ones count as
    0) this is (Л(pi a) + Л(pi b) - Л(pi (a + b)))/pi, exactly 0 on the edges.
    """
    x1, x2 = float(x[0]), float(x[1])
    if not (x1 >= -1e-12 and x2 >= -1e-12 and x1 + x2 <= 1.0 + 1e-12):  # NaN fails every comparison
        raise ValueError(f"({x1}, {x2}) lies outside the standard simplex")
    a, b, _ = sorted(max(0.0, c) for c in (1.0 - x1 - x2, x1, x2))
    cl = constants.clausen2(_TAU * np.array([a, b, a + b]))  # Cl_2(2 pi t) = 2 Л(pi t)
    return float(cl[0] + cl[1] - cl[2]) / _TAU


def monge_ampere_density(u: AmoebaPoint, h: float = 1e-2, tol: float = 1e-10) -> float:
    """Determinant of the Hessian of -rho at u, expected 1/pi^2 inside.

    Central second differences with step h, Richardson-extrapolated with
    h/2.  In two dimensions det Hess(-rho) = det Hess(rho), so the stencil
    is applied to rho directly.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    for k in range(16):
        phi = _TAU * k / 16.0
        probe = AmoebaPoint(u.u1 + 3.0 * h * math.cos(phi), u.u2 + 3.0 * h * math.sin(phi))
        if not contains(probe):
            raise IllConditioned(
                f"({u.u1}, {u.u2}) is within 3h of the amoeba boundary; the stencil would leave it"
            )

    # the 3x3 stencils at steps h and h/2, one batch
    keys = [(step, i, j) for step in (h, 0.5 * h) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    rho = dict(zip(keys, ronkin_batch([AmoebaPoint(u.u1 + i * step, u.u2 + j * step) for step, i, j in keys], tol)))

    def det_at(step: float) -> float:
        center = rho[step, 0, 0]
        fxx = (rho[step, 1, 0] - 2.0 * center + rho[step, -1, 0]) / step**2
        fyy = (rho[step, 0, 1] - 2.0 * center + rho[step, 0, -1]) / step**2
        fxy = (rho[step, 1, 1] - rho[step, 1, -1] - rho[step, -1, 1] + rho[step, -1, -1]) / (4.0 * step**2)
        return fxx * fyy - fxy * fxy

    return (4.0 * det_at(0.5 * h) - det_at(h)) / 3.0
