"""Height grids and height statistics over all nontrivial d-torsion points.

A cell (c1, c2) of order e = d / gcd(c1, c2, d) reduces to a primitive
pair mod e, and those fall into the psi(e) unit classes of P^1(Z/e), each
of phi(e) pairs of one height (``torsion.class_table``).  A grid is one
gather per order from that table; the statistics weight each class by
phi(e) and form no d x d array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arith, constants, torsion
# total_height is re-exported: bench/tests checks that the tracer rebinds
# it in this module.
from .torsion import LOG2, total_height  # noqa: F401

HISTOGRAM_BINS = 256

# Largest grid modulus: the d x d arrays and their transients stay near 1 GB.
MAX_D = 4096

# Largest psi(e)*phi(e)/2 summed over the distinct orders e of all moduli
# of a stats call: about d*d/2 for one d, so d near 20000.  The symmetries
# cut the summands computed about 6x: d = 10^4 takes 1.1 s on a 2-core Xeon.
MAX_STATS_SUMMANDS = 2 * 10**8

# |h| below this counts as an exact height zero; the computed minima are
# cancellation residues of order 1e-16.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class HeightGrid:
    """d x d array of heights with NaN sentinel at the trivial cell (0,0)."""

    d: int
    values: np.ndarray


@dataclass(frozen=True)
class DistStats:
    d: int
    eps: float
    mean: float
    min: float
    max: float
    count_near_eta: int
    count_near_theta: int
    count_zero: int
    histogram: tuple[int, ...]


def compute_grid(d: int) -> HeightGrid:
    """Heights of all nontrivial d-torsion points.

    The cells of order e are the primitive pairs of the e x e sub-grid of
    step d/e, and each takes its height from ``torsion.class_table(e)``.
    """
    if d < 2:
        raise ValueError(f"grid needs d >= 2, got {d}")
    if d > MAX_D:
        raise ValueError(f"grid needs d <= {MAX_D}, got {d}")
    values = np.full((d, d), np.nan)
    for e in arith.divisors(d)[1:]:
        index = torsion.class_index(e, np.arange(e)[:, None], np.arange(e))
        primitive = index >= 0
        values[:: d // e, :: d // e][primitive] = torsion.class_table(e)["height"][index[primitive]]
    values.flags.writeable = False
    return HeightGrid(d=d, values=values)


def check_stats_cost(ds) -> None:
    """Refuse moduli whose stats cost more than MAX_STATS_SUMMANDS, before any height is summed."""
    seen, cost = {1}, 0
    for d in ds:
        if d < 2:
            raise ValueError(f"stats needs d >= 2, got {d}")
        for e in set(arith.divisors(d)) - seen:
            seen.add(e)
            cost += arith.dedekind_psi(e) * arith.euler_phi(e) // 2
        if cost > MAX_STATS_SUMMANDS:
            raise ValueError(f"stats up to d = {d} sums over {cost} terms, above the limit {MAX_STATS_SUMMANDS}")


def stats(d: int, eps: float) -> DistStats:
    """Distribution of the d*d - 1 nontrivial heights; comparisons against eta/theta are strict.

    The classes of each order e | d enter with weight phi(e).  The mean is
    the sum that ``math.fsum`` over the grid gives, correctly rounded: each
    height splits exactly into two 26-bit halves (Veltkamp), whose products
    with weights below 2^26 are exact, and fsum rounds their exact total.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"stats needs a finite epsilon > 0, got {eps}")
    check_stats_cost([d])
    orders = arith.divisors(d)[1:]
    h = np.concatenate([torsion.class_table(e)["height"] for e in orders])
    w = np.repeat([arith.euler_phi(e) for e in orders], [arith.dedekind_psi(e) for e in orders])
    split = h * 134217729.0  # 2^27 + 1
    hi = split - (split - h)
    bins = np.clip((h * (HISTOGRAM_BINS / LOG2)).astype(np.int64), 0, HISTOGRAM_BINS - 1)
    return DistStats(
        d=d,
        eps=eps,
        mean=math.fsum([*(hi * w).tolist(), *((h - hi) * w).tolist()]) / (d * d - 1),
        min=float(h.min()),
        max=float(h.max()),
        count_near_eta=int(w[np.abs(h - constants.eta()) < eps].sum()),
        count_near_theta=int(w[np.abs(h - constants.theta()) < eps].sum()),
        count_zero=int(w[np.abs(h) <= ZERO_TOL].sum()),
        histogram=tuple(np.bincount(bins, weights=w, minlength=HISTOGRAM_BINS).astype(np.int64).tolist()),
    )
