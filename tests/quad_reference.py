"""The depth-first panel stack that ``quad.integrate``'s level-synchronous rounds replaced, kept as a reference.

``integrate`` walks one integral's panels leftmost-first, one 15-node
panel per iteration, and counts its budget over the whole integral rather
than per interval.  Away from budget exhaustion ``quad.integrate`` must
reproduce its value, error estimate and evaluation count bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from zeta_heights.quad import (
    _SHARE_FLOOR, _WIDTH_FLOOR, DEFAULT_BUDGET, GAUSS_WEIGHTS, KRONROD_WEIGHTS, NODES, BudgetExceeded, QuadResult,
)


def _eval_panel(f, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    with np.errstate(all="ignore"):
        y = np.asarray(f(c + h * NODES), dtype=float)
    bad = ~np.isfinite(y)
    if bad.any():
        y = np.where(bad, 0.0, y)
    ik = h * float(np.dot(KRONROD_WEIGHTS, y))
    diff = abs(ik - h * float(np.dot(GAUSS_WEIGHTS, y)))
    mean = ik / (2.0 * h) if h > 0.0 else 0.0
    resasc = h * float(np.dot(KRONROD_WEIGHTS, np.abs(y - mean)))
    if resasc > 0.0 and diff > 0.0:
        err = resasc * min(1.0, (200.0 * diff / resasc) ** 1.5)
    else:
        err = diff
    return ik, err


def integrate(f, a, b, tol, *, break_points=(), budget=DEFAULT_BUDGET):
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    total_len = b - a
    pts = [a] + sorted(p for p in set(break_points) if a < p < b) + [b]
    stack = [(pts[i], pts[i + 1]) for i in range(len(pts) - 2, -1, -1)]
    vals, errs = [], []
    neval = 0
    exhausted = False
    while stack:
        lo, hi = stack.pop()
        ik, err = _eval_panel(f, lo, hi)
        neval += 15
        if neval >= budget:
            exhausted = True
        share = (hi - lo) / total_len
        narrow = (hi - lo) <= _WIDTH_FLOOR * max(abs(lo), abs(hi))
        if exhausted or narrow or err <= tol * (share + _SHARE_FLOOR):
            vals.append(ik)
            errs.append(err)
        else:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
    result = QuadResult(math.fsum(vals), math.fsum(errs), neval)
    if exhausted:
        raise BudgetExceeded(result)
    return result

