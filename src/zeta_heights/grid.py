"""Height grids over all nontrivial d-torsion points, with orbit sharing.

The height is invariant under the order-12 residue symmetry group, so each
cell is filled from the canonical representative of its symmetry orbit.
The representatives are reduced to their order e and a primitive pair
mod e, and ``torsion.total_heights`` evaluates all of one order in one
batch: one Galois-orbit sum per unit-normalised pair, gathered from a
per-order table.  Values are bit-identical to a cell-by-cell
recomputation because the orbit sum is exactly rounded and invariant
under the symmetries and under multiplication by units.  The grid is
computed in the calling thread; the ``threads`` arguments and the
ZETA_HEIGHTS_THREADS variable are accepted and have no effect.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import constants, symmetry
# total_height is re-exported: bench/tests checks that the tracer rebinds
# it in this module.
from .torsion import LOG2, TorsionPoint, total_height, total_heights  # noqa: F401

THREADS_ENV_VAR = "ZETA_HEIGHTS_THREADS"
HISTOGRAM_BINS = 256

# Largest grid modulus: the d x d arrays and their transients stay near 1 GB.
MAX_D = 4096

# |h| below this counts as an exact height zero; the computed minima are
# cancellation residues of order 1e-16.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class HeightGrid:
    """d x d array of heights with NaN sentinel at the trivial cell (0,0).

    ``rep_codes[c1, c2]`` holds r1*d + r2 for the canonical representative
    (r1, r2) of the cell's symmetry orbit.
    """

    d: int
    values: np.ndarray
    rep_codes: np.ndarray

    def height(self, c1: int, c2: int) -> float:
        if (c1 % self.d, c2 % self.d) == (0, 0):
            raise ValueError("the sentinel cell (0,0) carries no height")
        return float(self.values[c1 % self.d, c2 % self.d])

    def representative(self, c1: int, c2: int) -> tuple[int, int]:
        code = int(self.rep_codes[c1 % self.d, c2 % self.d])
        return divmod(code, self.d)

    def nontrivial_values(self) -> np.ndarray:
        """The d*d - 1 heights in row-major cell order, sentinel skipped by index."""
        return self.values.ravel()[1:]


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


def _rep_codes(d: int) -> np.ndarray:
    """Canonical representative code (r1*d + r2) for every cell, vectorized."""
    c1g, c2g = np.meshgrid(np.arange(d, dtype=np.int64), np.arange(d, dtype=np.int64), indexing="ij")
    # A running minimum, updated in place, over codes that starmap holds no
    # reference to: a few d x d arrays are alive at once, never all twelve
    # (1.6 GB at MAX_D).
    codes = itertools.starmap(lambda i1, i2: i1 * d + i2, symmetry.images(c1g, c2g, d))
    return functools.reduce(lambda best, code: np.minimum(best, code, out=best), codes)


def compute_grid(d: int, threads: int | None = None) -> HeightGrid:
    """Heights of all nontrivial d-torsion points.

    One batched evaluation per order e dividing d, broadcast to the cells
    of each symmetry orbit.  ``threads`` is accepted and ignored.
    """
    if d < 2:
        raise ValueError(f"grid needs d >= 2, got {d}")
    if d > MAX_D:
        raise ValueError(f"grid needs d <= {MAX_D}, got {d}")
    codes = _rep_codes(d)
    reps = np.unique(codes.ravel())
    reps = reps[reps != 0]
    r1, r2 = np.divmod(reps, d)
    g = np.gcd(np.gcd(r1, r2), d)
    orders = d // g

    value_by_code = np.full(d * d, np.nan)
    for e in np.unique(orders).tolist():
        sel = orders == e
        value_by_code[reps[sel]] = total_heights(e, r1[sel] // g[sel], r2[sel] // g[sel])

    values = value_by_code[codes]
    values.flags.writeable = False
    codes.flags.writeable = False
    return HeightGrid(d=d, values=values, rep_codes=codes)


def stats(grid: HeightGrid, eps: float) -> DistStats:
    """Distribution summary; comparisons against eta/theta are strict."""
    vals = grid.nontrivial_values()
    eta = constants.eta()
    theta = constants.theta()
    mean = math.fsum(vals.tolist()) / vals.size
    bins = np.clip((vals * (HISTOGRAM_BINS / LOG2)).astype(np.int64), 0, HISTOGRAM_BINS - 1)
    hist = np.bincount(bins, minlength=HISTOGRAM_BINS)
    return DistStats(
        d=grid.d,
        eps=eps,
        mean=mean,
        min=float(vals.min()),
        max=float(vals.max()),
        count_near_eta=int(np.count_nonzero(np.abs(vals - eta) < eps)),
        count_near_theta=int(np.count_nonzero(np.abs(vals - theta) < eps)),
        count_zero=int(np.count_nonzero(np.abs(vals) <= ZERO_TOL)),
        histogram=tuple(int(n) for n in hist),
    )


def mean_below_eta_scan(d_range: list[int], threads: int | None = None) -> list[tuple[int, float, bool]]:
    """Rows (d, mean height, mean < eta?) over the given moduli."""
    eta = constants.eta()
    out = []
    for d in d_range:
        grid = compute_grid(d, threads)
        vals = grid.nontrivial_values()
        mean = math.fsum(vals.tolist()) / vals.size
        out.append((d, mean, mean < eta))
    return out


def small_height_census(d: int, eps: float, threads: int | None = None) -> list[TorsionPoint]:
    """Nontrivial d-torsion points with 0 < height < theta - eps.

    Probes whether any heights fall strictly between the exact zeros and
    the first conjectured accumulation value theta.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    grid = compute_grid(d, threads)
    cutoff = constants.theta() - eps
    out = []
    for c1 in range(d):
        for c2 in range(d):
            if (c1, c2) == (0, 0):
                continue
            h = float(grid.values[c1, c2])
            if ZERO_TOL < h < cutoff:
                out.append(TorsionPoint(d, c1, c2))
    return out
