"""Adaptive one-dimensional quadrature tolerant of endpoint log singularities.

The engine pairs a 7-point Gauss rule with its 15-point Kronrod extension
on each panel and bisects panels until the estimated error fits within the
panel's share of the requested tolerance.  All nodes are interior, so
integrands may blow up logarithmically at panel endpoints: a panel whose
endpoints pinch a singularity keeps shrinking geometrically and its
contribution vanishes with its width.

The engine is level-synchronous (``integrate_batch``): each round
evaluates every open panel of every problem of a batch in one integrand
call, accepts panels elementwise and bisects the rest.  The bits equal
those of one panel at a time in any order: each panel's test reads only
its own ends, error and tolerance share, its sums are row-wise BLAS ddot,
and each problem's accepted panels are added with exactly-rounded summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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

# Most panels one round of a batch may evaluate; each (panels, 15) array of
# the round then takes 16 MiB.  A batch that would bisect past it stops:
# the Ronkin quadrature of tests/ronkin_reference.py on 303 points at tol
# 1e-300 does so after a round of 79,814.
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


def _edges(part: Sequence[float]) -> list[float]:
    """The panel edges of part = [a, *break points, b]: a, the distinct breaks inside (a, b) in order, b."""
    a, b = float(part[0]), float(part[-1])
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    return [a, *sorted(float(p) for p in set(part[1:-1]) if a < p < b), b]


def _panels(f: Callable, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates of the panels [lo, hi] of problems rows."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    with np.errstate(all="ignore"):
        y = np.asarray(f(rows, c[:, None] + h[:, None] * NODES), dtype=float)
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


def integrate_batch(f: Callable, partitions: Sequence[Sequence[float]], tol: float, *,
                    budget: int = DEFAULT_BUDGET) -> list[QuadResult]:
    """Integrate problem i over partitions[i] to absolute tolerance tol, for every i.

    Args:
        f: batched integrand; f(rows, x) gets an (n, 15) array of nodes and
           the problem index of each row, and returns values of x's shape.
           It must be finite inside each interval of the partition and may
           diverge logarithmically at its ends.
        partitions: [a, *break points, b] per problem, a < b; the distinct
           break points strictly inside (a, b) are where the integrand is
           singular or kinked, and no panel evaluates them.
        tol: absolute tolerance target of each problem.
        budget: integrand evaluations per interval of a partition.

    Raises:
        BudgetExceeded: a problem spent its budget before every panel met
           its tolerance share, or the next round would hold more than
           MAX_ROUND_PANELS panels; carries the best estimate of the first
           such problem (the batch stops in that round).
        ValueError: the partitions have more than MAX_ROUND_PANELS intervals.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    parts = [_edges(p) for p in partitions]
    if not parts:
        return []
    n = len(parts)
    intervals = np.array([len(p) - 1 for p in parts])
    total_len = np.array([p[-1] - p[0] for p in parts])
    if intervals.sum() > MAX_ROUND_PANELS:
        raise ValueError(f"{intervals.sum()} intervals in one batch, above the limit {MAX_ROUND_PANELS}")
    rows = np.repeat(np.arange(n), intervals)
    lo, hi = np.array([x for p in parts for x in p[:-1]]), np.array([x for p in parts for x in p[1:]])
    neval = np.zeros(n, dtype=np.int64)
    done = []
    while True:
        ik, err = _panels(f, rows, lo, hi)
        neval += 15 * np.bincount(rows, minlength=n)
        exhausted = neval >= budget * intervals
        width = hi - lo
        narrow = width <= _WIDTH_FLOOR * np.maximum(np.abs(lo), np.abs(hi))
        accept = exhausted[rows] | narrow | (err <= tol * (width / total_len[rows] + _SHARE_FLOOR))
        if 2 * np.count_nonzero(~accept) > MAX_ROUND_PANELS:
            exhausted[rows[~accept]] = True
            accept[:] = True
        done.append((rows[accept], ik[accept], err[accept]))
        if accept.all() or exhausted.any():
            break
        rows, lo, hi = rows[~accept], lo[~accept], hi[~accept]
        mid = 0.5 * (lo + hi)
        rows, lo, hi = np.concatenate([rows, rows]), np.concatenate([lo, mid]), np.concatenate([mid, hi])
    owner, vals, errs = (np.concatenate(z) for z in zip(*done))
    order = np.argsort(owner, kind="stable")
    vals, errs, ends = vals[order].tolist(), errs[order].tolist(), np.cumsum(np.bincount(owner, minlength=n)).tolist()
    results = [QuadResult(math.fsum(vals[i:j]), math.fsum(errs[i:j]), k)
               for i, j, k in zip([0, *ends], ends, neval.tolist())]
    if exhausted.any():
        raise BudgetExceeded(results[int(np.argmax(exhausted))])
    return results


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    break_points: Iterable[float] = (),
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate f over [a, b] to absolute tolerance tol: ``integrate_batch`` on one problem.

    f is elementwise (it gets 2-D node arrays); break_points are interior
    abscissae where it is singular or kinked (others are ignored), and the
    budget counts integrand evaluations per interval between them.
    """
    return integrate_batch(lambda rows, x: f(x), [[a, *break_points, b]], tol, budget=budget)[0]


def integrate_semiinfinite(
    f: Callable,
    tol: float,
    *,
    budget: int = DEFAULT_BUDGET,
) -> QuadResult:
    """Integrate f over (-inf, 0] to absolute tolerance tol.

    Substitutes u = log t, mapping the half-line onto (0, 1]; f must decay
    at least exponentially for the transformed integrand to stay integrable.
    """

    def transformed(t: np.ndarray) -> np.ndarray:
        return f(np.log(t)) / t

    return integrate(transformed, 0.0, 1.0, tol, budget=budget)
