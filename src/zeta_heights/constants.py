"""Special values and the quadrature route to the limit height.

The two landmark constants of the library are

    eta   = 2*zeta(3) / (3*zeta(2)) = 4*zeta(3)/pi^2 = 0.487175...
    theta = (3*sqrt(3)/(4*pi)) * L(chi_-3, 2)        = 0.323065...

eta is the limit of the heights along strict sequences of torsion points
and equals the normalized integral of
log max(|e^{i u2}-e^{i u1}|, |e^{i u2}-1|, |e^{i u1}-1|) over the 2-torus;
theta is the Mahler measure of x0+x1+x2.  ``limit_integral`` recomputes
eta by quadrature of the 1-D reduction of that torus integral, providing a
route to the constant that is independent of the zeta series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import quad

_SERIES_CUTOFF = 100_000
_L_PAIR_CUTOFF = 10_000


@dataclass(frozen=True)
class SpecialValues:
    zeta2: float
    zeta3: float
    zeta4: float
    L_chi3_2: float
    eta: float
    theta: float


@lru_cache(maxsize=None)
def zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2, accurate to well below 1e-13.

    Plain series truncated at K, plus the midpoint-rule tail
    integral(K+1/2, inf) x^-s dx = (K+1/2)^(1-s)/(s-1); the midpoint
    placement leaves a remainder below s/24 * K^-(s+1).
    """
    if s < 2:
        raise ValueError(f"zeta(s) needs integer s >= 2, got {s}")
    k = _SERIES_CUTOFF
    head = math.fsum(n ** -float(s) for n in range(1, k + 1))
    return head + (k + 0.5) ** (1 - s) / (s - 1)


def _hurwitz2_tail(a: float) -> float:
    # Euler-Maclaurin expansion of sum_{k>=0} (k+a)^-2, for large a.
    return 1.0 / a + 1.0 / (2 * a * a) + 1.0 / (6 * a**3) - 1.0 / (30 * a**5) + 1.0 / (42 * a**7)


@lru_cache(maxsize=None)
def l_chi3(s: int = 2) -> float:
    """L(chi_-3, s) for the odd character mod 3; only s = 2 is supported.

    The series sum chi(n)/n^2 is summed in blocks 1/(3m+1)^2 - 1/(3m+2)^2
    and the remaining blocks are bounded by a Hurwitz-type tail expansion,
    leaving an error far below 1e-13.
    """
    if s != 2:
        raise ValueError(f"only s = 2 is supported, got {s}")
    m = np.arange(_L_PAIR_CUTOFF, dtype=float)
    blocks = 1.0 / (3 * m + 1) ** 2 - 1.0 / (3 * m + 2) ** 2
    head = math.fsum(blocks.tolist())
    k = _L_PAIR_CUTOFF
    return head + (_hurwitz2_tail(k + 1.0 / 3.0) - _hurwitz2_tail(k + 2.0 / 3.0)) / 9.0


def eta() -> float:
    """The limit height 2*zeta(3)/(3*zeta(2)) = 0.487175..."""
    return 2.0 * zeta(3) / (3.0 * zeta(2))


def theta() -> float:
    """The Mahler measure of x0+x1+x2: (3*sqrt(3)/(4*pi)) * L(chi_-3, 2)."""
    return 3.0 * math.sqrt(3.0) / (4.0 * math.pi) * l_chi3(2)


@lru_cache(maxsize=1)
def special_values() -> SpecialValues:
    """All memoized constants, computed once at first use."""
    return SpecialValues(
        zeta2=zeta(2),
        zeta3=zeta(3),
        zeta4=zeta(4),
        L_chi3_2=l_chi3(2),
        eta=eta(),
        theta=theta(),
    )


def chord(u: np.ndarray) -> np.ndarray:
    """The chord length |e^{iu} - 1| = |2 sin(u/2)|."""
    return np.abs(2.0 * np.sin(0.5 * u))


def _log_dist(u: np.ndarray) -> np.ndarray:
    return np.log(chord(u))


def limit_integral(tol: float = 1e-10) -> quad.QuadResult:
    """Quadrature of the reduced torus integral; the value equals eta.

    The 12-fold symmetry of the integrand collapses the 2-D average over
    the torus onto the fundamental triangle with vertices (0,0), (pi,0)
    and (4pi/3, 2pi/3), where the integrand is log|e^{i u1}-1|.  Averaging
    out u2 leaves the vertical extent min(u/2, 2pi - 3u/2) as a weight:

        (12/(2 pi)^2) * integral(0, 4pi/3) min(u/2, 2pi-3u/2) log|e^{iu}-1| du.

    Declared break points: the log singularity at u = 0 and the weight kink
    at u = pi.
    """

    def integrand(u: np.ndarray) -> np.ndarray:
        return np.minimum(0.5 * u, 2.0 * math.pi - 1.5 * u) * _log_dist(u)

    raw = quad.integrate(integrand, 0.0, 4.0 * math.pi / 3.0, tol, break_points=(math.pi,))
    scale = 3.0 / math.pi**2
    return quad.QuadResult(raw.value * scale, raw.err_estimate * scale, raw.evaluations)


def limit_integral_pieces(tol: float = 1e-10) -> tuple[float, float]:
    """The two weighted pieces of the reduced integral, by direct quadrature.

    Closed forms: the first equals (7/4) zeta(3), the second (11/12) zeta(3).
    """
    first = quad.integrate(lambda s: s * _log_dist(s), 0.0, math.pi, tol)
    second = quad.integrate(lambda s: (4.0 * math.pi - 3.0 * s) * _log_dist(s),
                            math.pi, 4.0 * math.pi / 3.0, tol)
    return first.value, second.value
