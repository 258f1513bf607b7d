"""Adaptive one-dimensional quadrature tolerant of endpoint log singularities.

The engine pairs a 7-point Gauss rule with its 15-point Kronrod extension
on each panel and bisects panels until the estimated error fits within the
panel's share of the requested tolerance.  All nodes are interior, so
integrands may blow up logarithmically at panel endpoints: a panel whose
endpoints pinch a singularity keeps shrinking geometrically and its
contribution vanishes with its width.

The engine is level-synchronous: each round evaluates all open panels of
the integral in one integrand call, accepts panels elementwise and bisects
the rest.  The bits equal those of one panel at a time in any order: each
panel's test reads only its own ends, error and tolerance share, its sums
are row-wise BLAS ddot, and the accepted panels are added with
exactly-rounded summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# 7-point Gauss / 15-point Kronrod pair on [-1, 1] (interior nodes only).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1::2] = np.concatenate([_WG, _WG[2::-1]])

DEFAULT_BUDGET = 10**6

# Most panels one round may evaluate; each (panels, 15) array of the round
# then takes 16 MiB.  An integral that would bisect past it stops: np.log on
# [0, 1] at tol 1e-300 with a budget of 10**8 does so after a round of
# 122,946 panels.  It also bounds the number of intervals.
MAX_ROUND_PANELS = 2**17

# Panels may claim this much of the tolerance on top of their length share;
# with at most budget/15 panels the floor contributes < 0.1 * tol in total.
# Without it, panels pinching an integrable singularity can never satisfy a
# purely proportional target (their error and their share shrink together).
_SHARE_FLOOR = 1e-6

# Panels narrower than this (relative to their position) are accepted as-is;
# bisection below 1 ulp cannot separate nodes from a singular endpoint.
_WIDTH_FLOOR = 1e-14


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int


class BudgetExceeded(RuntimeError):
    """Tolerance unreachable within the evaluation budget.

    Carries the best available estimate in ``result``.
    """

    def __init__(self, result: QuadResult):
        super().__init__(
            f"evaluation budget exhausted after {result.evaluations} calls "
            f"(best value {result.value!r}, err estimate {result.err_estimate!r})"
        )
        self.result = result


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates of the panels [lo, hi]."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    with np.errstate(all="ignore"):
        y = np.asarray(f(c[:, None] + h[:, None] * NODES), dtype=float)
        # Non-finite values arise only where node arithmetic rounds onto a
        # singular abscissa, on panels about one ulp wide: count them as 0.
        y = np.where(np.isfinite(y), y, 0.0)
        # vecdot is one BLAS ddot per row, the same bits as np.dot on the row
        ik = h * np.vecdot(y, KRONROD_WEIGHTS)
        diff = np.abs(ik - h * np.vecdot(y, GAUSS_WEIGHTS))
        mean = np.where(h > 0.0, ik / (2.0 * h), 0.0)
        resasc = h * np.vecdot(np.abs(y - mean[:, None]), KRONROD_WEIGHTS)
        ratio = 200.0 * diff / resasc
    # QUADPACK's err = resasc * min(1, ratio**1.5) keeps the estimate honest
    # where the pair agrees by accident.  The power is libm's, as float **
    # takes it: np.power rounds some values differently.
    err = np.where((resasc > 0.0) & (diff > 0.0), resasc, diff)
    small = (diff > 0.0) & (ratio < 1.0)
    err[small] = resasc[small] * np.array([t**1.5 for t in ratio[small].tolist()])
    return ik, err


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    break_points: Iterable[float] = (),
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    Args:
        f: elementwise integrand; it gets an (n, 15) array of nodes.  It must
           be finite inside each interval between break points and may
           diverge logarithmically at their ends.
        a, b: finite limits, a < b.
        tol: absolute tolerance target, finite and positive.
        break_points: abscissae where f is singular or kinked; those strictly
           inside (a, b) split it into intervals, and no panel evaluates them.
        budget: integrand evaluations per interval.

    Raises:
        BudgetExceeded: the budget ran out before every panel met its
           tolerance share, or the next round would hold more than
           MAX_ROUND_PANELS panels; carries the best estimate.
        ValueError: bad limits or tolerance, or more than MAX_ROUND_PANELS
           intervals.
    """
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    a, b = float(a), float(b)
    if not math.isfinite(b - a):
        raise ValueError(f"need finite limits, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    edges = [a, *sorted(float(p) for p in set(break_points) if a < p < b), b]
    intervals = len(edges) - 1
    if intervals > MAX_ROUND_PANELS:
        raise ValueError(f"{intervals} intervals, above the limit {MAX_ROUND_PANELS}")
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    neval, vals, errs = 0, [], []
    while True:
        ik, err = _panels(f, lo, hi)
        neval += 15 * len(lo)
        width = hi - lo
        narrow = width <= _WIDTH_FLOOR * np.maximum(np.abs(lo), np.abs(hi))
        accept = narrow | (err <= tol * (width / (b - a) + _SHARE_FLOOR))
        exhausted = neval >= budget * intervals or 2 * np.count_nonzero(~accept) > MAX_ROUND_PANELS
        if exhausted:
            accept[:] = True
        vals.append(ik[accept])
        errs.append(err[accept])
        if accept.all():
            break
        lo, hi = lo[~accept], hi[~accept]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    result = QuadResult(math.fsum(np.concatenate(vals).tolist()), math.fsum(np.concatenate(errs).tolist()), neval)
    if exhausted:
        raise BudgetExceeded(result)
    return result
