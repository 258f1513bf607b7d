"""The amoeba of 1 + z1 + z2: membership, moments, Ronkin function, and duals.

Points live in tropicalization coordinates u = (-log|z1|, -log|z2|).  A
point u belongs to the amoeba exactly when the moduli (1, e^{-u1}, e^{-u2})
can close a (possibly degenerate) triangle, which turns membership into
three inequalities evaluated overflow-free in the log domain.

The Ronkin function

    rho(u) = -avg over the unit torus of log|1 + z1 e^{-u1} + z2 e^{-u2}|

is closed-form in the Lobachevsky function Л(t) = Cl_2(2t)/2 (Passare and
Rullgard, Duke Math. J. 121, 2004; Maillot, Mem. SMF 80, 2000): on the
amoeba rho(u) = (a1 u1 + a2 u2 - Л(a0) - Л(a1) - Л(a2))/pi, with a_i the
angle opposite the side r_i of the triangle (1, e^{-u1}, e^{-u2}), and off
it rho = Psi(u) = min(0, u1, u2).  The angles come from Kahan's half-angle
formula, accurate for needle-like triangles (W. Kahan, Miscalculating Area
and Angles of a Needle-like Triangle, 2014), which the tentacles are.

rho is concave and the determinant of its Hessian equals 1/pi^2 on the
amoeba's interior.  The average of -Psi over the amoeba is the limit
height eta, giving a route to that constant independent of both the zeta
series and the torus quadrature.

The Legendre dual of rho is closed-form in Л as well.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import constants, quad
from .errors import IllConditioned

# 171! exceeds the largest double.
MAX_MOMENT = 170

COORD_LIMIT = 700.0  # exp(|u|) must stay inside double range

_TAU = 2.0 * math.pi
_LOG2 = math.log(2.0)


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


def _triangle_slacks(u1, u2) -> tuple:
    # log((r1+r2)/1), log((1+r2)/r1), log((1+r1)/r2); all >= 0 iff u is in
    # the amoeba.  Elementwise on arrays.
    return np.logaddexp(-u1, -u2), np.logaddexp(0.0, -u2) + u1, np.logaddexp(0.0, -u1) + u2


def contains(u: AmoebaPoint) -> bool:
    """True iff each of 1, e^{-u1}, e^{-u2} is at most the sum of the others."""
    return bool(min(_triangle_slacks(u.u1, u.u2)) >= 0.0)


def region(u: AmoebaPoint, boundary_tol: float = 1e-12) -> RegionTag:
    """Locate u among the three tentacle regions of the amoeba."""
    slack = min(_triangle_slacks(u.u1, u.u2))
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
    """integral of u2^m over the south region {u in amoeba : min(0,u1) >= u2}, to tol * m!.

    Over x = -u2 > 0 it integrates (-1)^m x^m L(x), L(x) = -log(1 - e^{-x}), to (-1)^m m! zeta(m+2),
    between m! and 1.65 m! in size: hence the target tol * m!, and orders above MAX_MOMENT, which
    overflow a double, are refused up front.  On s = log x the integrand (-1)^m exp((m+1) s + log L(e^s))
    is smooth and never overflows; L takes expm1 up to x = log 2 and log1p above (Maechler 2012).
    The ends eps < m + 1 < X, the first of (m + 1) 2^-k and (m + 1) 2^k that do, cut tails of at most
    min(tol, 2^-53) m!/4 each: L(x) <= -log x + x/2 bounds the one below eps by
    eps^(m+1) ((1 - (m+1) log eps)/(m+1)^2 + eps/(2(m+2))), and L(x) <= e^{-x}/(1 - e^{-x}) the one
    above X by Gamma(m+1, X)/(1 - e^{-X}), where Gamma(m+1, X) <= X^(m+1) e^{-X}/(X - m).  The
    quadrature gets the rest of tol * m!; the error estimate includes the tails.

    Rounding sets a floor under tol: near the peak s = log(m + 1) the exponent (m + 1) s rounds by up to
    (m + 1) log(m + 1) 2^-53, a relative error of the integrand, and the result itself rounds by 2^-53.  A tol
    below 2^-52 (1 + (m + 1) log(m + 1)), 2.2e-16 at m = 0 and 2.0e-13 at m = 170, is refused before any
    evaluation: the quadrature would spend its whole budget chasing rounding noise.
    """
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    if m > MAX_MOMENT:
        raise ValueError(f"moment order must be <= {MAX_MOMENT} (m! zeta(m+2) overflows a double above), "
                         f"got {m}")
    if not 0.0 < tol < 1.0:  # NaN fails too; |moment| >= m!, so tol * m! >= m! would accept 0
        raise ValueError(f"tolerance must lie in (0, 1), a fraction of m!, got {tol}")
    floor = 2.0**-52 * (1.0 + (m + 1) * math.log(m + 1))
    if tol < floor:
        raise ValueError(f"tolerance {tol} is below {floor:.2g}, what rounding allows at moment order {m}")
    n, sign, peak = m + 1, (-1.0) ** m, math.log(m + 1)  # x^(m+1) e^{-x} peaks at x = m + 1
    log_cut = math.log(min(tol, 2.0**-53)) - math.log(4.0) + math.lgamma(n)  # the cut itself may underflow
    lo = next(s for s in itertools.count(peak - _LOG2, -_LOG2)
              if n * s + math.log((1.0 - n * s) / n**2 + math.exp(s) / (2 * n + 2)) <= log_cut)
    hi = next(s for s in itertools.count(peak + _LOG2, _LOG2)
              if n * s - math.exp(s) - math.log((math.exp(s) - m) * -math.expm1(-math.exp(s))) <= log_cut)

    def integrand(s: np.ndarray) -> np.ndarray:
        x = np.exp(s)
        return sign * np.exp(n * s + np.log(-np.where(x <= _LOG2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))))

    tails = 2.0 * math.exp(log_cut)
    res = quad.integrate(integrand, lo, hi, tol * math.factorial(m) - tails)
    return replace(res, err_estimate=res.err_estimate + tails)


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
    return -2.0 * south_moment(1, tol).value / volume(tol)


def ronkin_batch(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The Ronkin function of 1 + z1 + z2 at the points (u1[i], u2[i]) of two 1-D arrays, in closed form.

    On the amoeba rho = (a1 u1 + a2 u2 - Л(a0) - Л(a1) - Л(a2))/pi, with a_i
    the angle opposite the side r_i of the triangle (r0, r1, r2) = (1, e^{-u1},
    e^{-u2}); off it rho = Psi.  The sides are scaled so that the largest is
    1, which keeps every exponential in range, and sorted for Kahan's
    half-angle formula.  Coordinates outside +-COORD_LIMIT, NaN included,
    raise ValueError.
    """
    u1, u2 = np.asarray(u1, dtype=float), np.asarray(u2, dtype=float)
    if not ((np.abs(u1) <= COORD_LIMIT).all() and (np.abs(u2) <= COORD_LIMIT).all()):  # NaN fails too
        raise ValueError(f"coordinates exceed the supported range +-{COORD_LIMIT}")
    scale = np.maximum(0.0, np.maximum(-u1, -u2))
    sides = np.exp(-np.array([scale, u1 + scale, u2 + scale]))
    order, cols = np.argsort(-sides, axis=0), np.arange(sides.shape[1])
    a, b, c = sides[order, cols]  # a >= b >= c
    # square roots of the four factors of Kahan's area formula; c - (a - b) < 0 off the amoeba
    x, y, z, w = np.sqrt([a + (b + c), np.maximum(c - (a - b), 0.0), c + (a - b), a + (b - c)])
    angles = np.empty_like(sides)
    angles[order, cols] = 2.0 * np.arctan2([z * w, y * w, y * z], [x * y, x * z, x * w])
    cl = constants.clausen2(2.0 * angles)  # Cl_2(2t) = 2 Л(t)
    rho = (angles[1] * u1 + angles[2] * u2 - 0.5 * (cl[0] + cl[1] + cl[2])) / math.pi
    inside = np.minimum.reduce(_triangle_slacks(u1, u2)) >= 0.0
    return np.where(inside, rho, np.minimum(0.0, np.minimum(u1, u2)))


def ronkin(u: AmoebaPoint) -> float:
    """The Ronkin function of 1 + z1 + z2 at u: ``ronkin_batch`` on one point."""
    return float(ronkin_batch([u.u1], [u.u2])[0])


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


def monge_ampere_density(u: AmoebaPoint, h: float = 1e-2) -> float:
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
    values = ronkin_batch([u.u1 + i * step for step, i, _ in keys], [u.u2 + j * step for step, _, j in keys])
    rho = dict(zip(keys, values.tolist()))

    def det_at(step: float) -> float:
        center = rho[step, 0, 0]
        fxx = (rho[step, 1, 0] - 2.0 * center + rho[step, -1, 0]) / step**2
        fyy = (rho[step, 0, 1] - 2.0 * center + rho[step, 0, -1]) / step**2
        fxy = (rho[step, 1, 1] - rho[step, 1, -1] - rho[step, -1, 1] + rho[step, -1, -1]) / (4.0 * step**2)
        return fxx * fyy - fxy * fxy

    return (4.0 * det_at(0.5 * h) - det_at(h)) / 3.0
