"""Special values and the quadrature route to the limit height.

The two landmark constants of the library are

    eta   = 2*zeta(3) / (3*zeta(2)) = 4*zeta(3)/pi^2 = 0.487175...
    theta = (3*sqrt(3)/(4*pi)) * L(chi_-3, 2)        = 0.323065...

eta is the limit of the heights along strict sequences of torsion points
and equals the normalized integral of
log max(|e^{i u2}-e^{i u1}|, |e^{i u2}-1|, |e^{i u1}-1|) over the 2-torus;
theta is the Mahler measure of x0+x1+x2, and L(chi_-3, 2) =
(2/sqrt 3) Cl_2(2 pi/3) with the Clausen function ``clausen2``.
``limit_integral`` recomputes eta by quadrature of the 1-D reduction of
that torus integral, providing a route to the constant that is
independent of the zeta series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import quad

# The Clausen series at t = pi drops below 1e-17 after 25 terms; zeta's
# Euler-Maclaurin tail at N = 10 converges well before.
_BERNOULLI_TERMS = 25

_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class SpecialValues:
    zeta2: float
    zeta3: float
    zeta4: float
    L_chi3_2: float
    eta: float
    theta: float


@lru_cache(maxsize=1)
def _bernoulli() -> tuple[float, ...]:
    """B_2k/(2k)! for k = 1.._BERNOULLI_TERMS, from the exact recurrence sum_{j<=n} (B_j/j!)/(n+1-j)! = 0."""
    a = {0: Fraction(1), 1: Fraction(-1, 2)}  # B_j/j!, which vanishes for odd j >= 3
    for n in range(2, 2 * _BERNOULLI_TERMS + 1, 2):
        a[n] = -sum(a_j / math.factorial(n + 1 - j) for j, a_j in a.items())
    return tuple(float(a[2 * k]) for k in range(1, _BERNOULLI_TERMS + 1))


@lru_cache(maxsize=None)
def zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2 by Euler-Maclaurin at N = 10.

    The terms n < N, N^(1-s)/(s-1) + N^-s/2, and the Bernoulli tail
    sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1).
    """
    if s < 2:
        raise ValueError(f"zeta(s) needs integer s >= 2, got {s}")
    n = 10
    terms = [k ** -float(s) for k in range(1, n)] + [n ** (1.0 - s) / (s - 1), 0.5 * n ** -float(s)]
    deriv = s * n ** -(s + 1.0)  # s(s+1)...(s+2k-2) N^(-s-2k+1), 0 once it underflows
    for k, b in enumerate(_bernoulli(), 1):
        terms.append(b * deriv)
        deriv *= (s + 2 * k - 1) * (s + 2 * k) / (n * n)
    return math.fsum(terms)


def clausen2(t: np.ndarray | float) -> np.ndarray:
    """Cl_2(t) = sum sin(k t)/k^2 = -integral(0, t) log|2 sin(x/2)| dx; Л(t) = Cl_2(2t)/2 is Lobachevsky's.

    The Bernoulli series t - t log t + sum_k |B_2k|/(2k (2k+1)!) t^(2k+1)
    on [0, pi] (Lewin, Polylogarithms and Associated Functions, 1981, ch. 4),
    extended by oddness and by periodicity modulo the double 2 pi, so that
    clausen2(2 pi x) is 0 at integer x.  Absolute error below 2e-15.
    """
    t = np.remainder(np.asarray(t, dtype=float), _TAU)
    upper = t > math.pi
    t = np.where(upper, _TAU - t, t)
    t2 = t * t
    # Horner in place: the two roundings per step of np.polyval, without its temporaries
    coefficients = _clausen_coefficients()
    poly = np.full_like(t, coefficients[0])
    for c in coefficients[1:]:
        poly *= t2
        poly += c
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(t > 0.0, t - t * np.log(t), 0.0) + t**3 * poly
    return np.where(upper, -value, value)


@lru_cache(maxsize=1)
def _clausen_coefficients() -> tuple[float, ...]:
    """|B_2k|/(2k (2k+1)!) for k = _BERNOULLI_TERMS down to 1, highest order first."""
    return tuple(abs(b) / (2 * k * (2 * k + 1)) for k, b in reversed(list(enumerate(_bernoulli(), 1))))


@lru_cache(maxsize=1)
def l_chi3() -> float:
    """L(chi_-3, 2) for the odd character mod 3: (2/sqrt 3) Cl_2(2 pi/3)."""
    return 2.0 / math.sqrt(3.0) * float(clausen2(_TAU / 3.0))


def eta() -> float:
    """The limit height 2*zeta(3)/(3*zeta(2)) = 0.487175..."""
    return 2.0 * zeta(3) / (3.0 * zeta(2))


def theta() -> float:
    """The Mahler measure of x0+x1+x2: (3*sqrt(3)/(4*pi)) * L(chi_-3, 2)."""
    return 3.0 * math.sqrt(3.0) / (4.0 * math.pi) * l_chi3()


@lru_cache(maxsize=1)
def special_values() -> SpecialValues:
    """All memoized constants, computed once at first use."""
    return SpecialValues(
        zeta2=zeta(2),
        zeta3=zeta(3),
        zeta4=zeta(4),
        L_chi3_2=l_chi3(),
        eta=eta(),
        theta=theta(),
    )


def chord(u: np.ndarray) -> np.ndarray:
    """The chord length |e^{iu} - 1| = |2 sin(u/2)|."""
    return np.abs(2.0 * np.sin(0.5 * u))


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
        return np.minimum(0.5 * u, 2.0 * math.pi - 1.5 * u) * np.log(chord(u))

    raw = quad.integrate(integrand, 0.0, 4.0 * math.pi / 3.0, tol, break_points=(math.pi,))
    scale = 3.0 / math.pi**2
    return quad.QuadResult(raw.value * scale, raw.err_estimate * scale, raw.evaluations)
