"""Independent checks of every benchmark output.

Nothing here calls ``zeta_heights``.  Closed forms (zeta values, eta,
theta, log 2, pi^2/2, 1/pi^2, the Ronkin function) come from mpmath;
heights are recomputed from complex exponentials over the Galois orbit
at level d, not from the library's folded sines; the extremal sets follow
the residue rules of the paper.

An output with an *exact* oracle contributes |output - oracle| to
``max_abs_err``.  Outputs that approximate by design (the Legendre dual's
pattern search, the Monge-Ampere finite differences) and the float
recomputations are checked against a tolerance only.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np

# Tolerances for the fail/pass decision, not for max_abs_err.
CELL_TOL = 1e-12  # grid cells against 0 / log 2 and the [0, log 2] range
QUAD_TOL = 1e-8  # quadrature outputs run at tol 1e-9 .. 1e-10
RECOMPUTE_TOL = 1e-11  # library height against the complex-exponential recomputation


@dataclass(frozen=True)
class ClosedForms:
    log2: float
    eta: float
    theta: float
    volume: float
    inv_pi2: float


@lru_cache(maxsize=1)
def closed_forms() -> ClosedForms:
    with mp.workdps(40):
        l_chi3 = (mp.zeta(2, mp.mpf(1) / 3) - mp.zeta(2, mp.mpf(2) / 3)) / 9
        return ClosedForms(
            log2=float(mp.log(2)),
            eta=float(4 * mp.zeta(3) / mp.pi**2),
            theta=float(3 * mp.sqrt(3) / (4 * mp.pi) * l_chi3),
            volume=float(mp.pi**2 / 2),
            inv_pi2=float(1 / mp.pi**2),
        )


@lru_cache(maxsize=None)
def south_moment(m: int) -> float:
    """(-1)^m m! zeta(m+2)."""
    with mp.workdps(40):
        return float((-1) ** m * mp.factorial(m) * mp.zeta(m + 2))


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            out.append((p, r))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def nonarchimedean(e: int) -> float:
    """-Lambda(e)/phi(e): -log(p)/phi(e) when e is a power of p, else 0."""
    facts = factorize(e)
    if e < 2 or len(facts) != 1:
        return 0.0
    with mp.workdps(30):
        return float(-mp.log(facts[0][0]) / phi(e))


def _is_pow2(n: np.ndarray) -> np.ndarray:
    return (n & (n - 1)) == 0


def extremal_masks(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Cells (c1, c2) of height exactly 0 and exactly log 2, (0,0) excluded.

    Height 0: (1,z), (z,1), (z,z), and (z,z^2) for z of order 3.  Height
    log 2: (-1,z), (z,-1), (z,-z) for z whose order is not a power of 2.
    """
    c1, c2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    low = (c1 == 0) | (c2 == 0) | (c1 == c2) | (((3 * c1) % d == 0) & ((2 * c1) % d == c2))
    high = np.zeros_like(low)
    if d % 2 == 0:
        half = d // 2
        ord1 = d // np.gcd(c1, d)
        ord2 = d // np.gcd(c2, d)
        high = (
            ((c1 == half) & ~_is_pow2(ord2))
            | ((c2 == half) & ~_is_pow2(ord1))
            | (((c2 - c1) % d == half) & ~_is_pow2(ord1))
        )
    low[0, 0] = high[0, 0] = False
    return low, high & ~low


def extremal_masks_point(d: int, c1: int, c2: int) -> tuple[bool, bool]:
    """The rules of ``extremal_masks`` for a single cell."""

    def pow2(n: int) -> bool:
        return n & (n - 1) == 0

    low = c1 == 0 or c2 == 0 or c1 == c2 or ((3 * c1) % d == 0 and (2 * c1) % d == c2)
    high = False
    if d % 2 == 0 and not low:
        half = d // 2
        high = (
            (c1 == half and not pow2(d // math.gcd(c2, d)))
            or (c2 == half and not pow2(d // math.gcd(c1, d)))
            or ((c2 - c1) % d == half and not pow2(d // math.gcd(c1, d)))
        )
    return low, high


def _log_max_dist(k1: np.ndarray, k2: np.ndarray, n: int) -> np.ndarray:
    """log max(|w2 - w1|, |w2 - 1|, |w1 - 1|) with w_j = exp(2 pi i k_j / n)."""
    w1 = np.exp(2j * np.pi * (k1 % n) / n)
    w2 = np.exp(2j * np.pi * (k2 % n) / n)
    return np.log(np.maximum(np.maximum(np.abs(w2 - w1), np.abs(w2 - 1.0)), np.abs(w1 - 1.0)))


def archimedean_direct(d: int, c1: int, c2: int, chunk: int = 1 << 16) -> float:
    """Mean over the units k of d of the log-max distance of (k c1, k c2)."""
    total, count = 0.0, 0
    for start in range(1, d + 1, chunk):
        k = np.arange(start, min(d + 1, start + chunk), dtype=np.int64)
        k = k[np.gcd(k, d) == 1]
        total += float(np.sum(_log_max_dist(k * c1, k * c2, d)))
        count += k.size
    return total / count


def grid_direct(d: int) -> np.ndarray:
    """All d x d heights by the level-d orbit average; NaN at (0,0)."""
    k = np.arange(1, d + 1, dtype=np.int64)
    k = k[np.gcd(k, d) == 1]
    c1, c2 = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    with np.errstate(divide="ignore"):  # the trivial cell (0,0) has log 0
        arch = _log_max_dist(c1.ravel()[:, None] * k, c2.ravel()[:, None] * k, d).mean(axis=1)
    orders = d // np.gcd(np.gcd(c1.ravel(), c2.ravel()), d)
    nonarch = np.array([nonarchimedean(int(e)) for e in orders])
    out = (arch + nonarch).reshape(d, d)
    out[0, 0] = np.nan
    return out


def ronkin_exact(u1: float, u2: float) -> float:
    """-integral(0,1) log max(|1 + e^{-u1} e^{2 pi i s}|, e^{-u2}) ds in mpmath."""
    with mp.workdps(20):
        r1, r2 = mp.exp(-mp.mpf(u1)), mp.exp(-mp.mpf(u2))
        breaks = {mp.mpf(0), mp.mpf(0.5), mp.mpf(1)}
        c = (r2 * r2 - 1 - r1 * r1) / (2 * r1)
        if -1 < c < 1:
            s = mp.acos(c) / (2 * mp.pi)
            breaks.update((s, 1 - s))
        return float(-mp.quad(lambda s: mp.log(max(abs(1 + r1 * mp.expjpi(2 * s)), r2)), sorted(breaks)))


def in_amoeba(u1, u2):
    """Whether 1, e^{-u1}, e^{-u2} can close a triangle; works on arrays."""
    r = np.sort(np.stack(np.broadcast_arrays(1.0, np.exp(-np.asarray(u1, float)), np.exp(-np.asarray(u2, float)))),
                axis=0)
    return r[2] <= r[0] + r[1]


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    abs_errs: list[float] = field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    def exact(self, err: float, tol: float, what: str) -> None:
        """Record |output - exact oracle| and fail when it exceeds tol."""
        self.abs_errs.append(err)
        if not err <= tol:
            self.fail(f"{what}: |error| {err:.3e} > {tol:.0e}")

    def within(self, err: float, tol: float, what: str) -> None:
        if not err <= tol:
            self.fail(f"{what}: |error| {err:.3e} > {tol:.0e}")


class Checker:
    """Checks one operation's output against its oracle."""

    def __init__(self) -> None:
        self.cf = closed_forms()
        self._grids: dict[int, np.ndarray] = {}  # csv heights, for the pgm and json checks

    def check(self, op, stdout: str, path: Path | None) -> Verdict:
        v = Verdict()
        try:
            getattr(self, "_" + op.oracle)(op.params, stdout, path, v)
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            v.fail(f"malformed output: {type(exc).__name__}: {exc}")
        return v

    # -- grids ------------------------------------------------------------

    def _cells(self, g: np.ndarray, d: int, v: Verdict) -> None:
        low, high = extremal_masks(d)
        vals = g.ravel()[1:]
        if not (vals.min() >= -CELL_TOL and vals.max() <= self.cf.log2 + CELL_TOL):
            v.fail(f"d={d}: cell outside [0, log 2]: [{vals.min()!r}, {vals.max()!r}]")
        v.exact(float(np.abs(g[low]).max()), CELL_TOL, f"d={d}: height-0 cells")
        if high.any():
            v.exact(float(np.abs(g[high] - self.cf.log2).max()), CELL_TOL, f"d={d}: height-log2 cells")

    def _grid_csv(self, p, stdout, path, v):
        d = p["d"]
        vals = array("d", [math.nan])
        with open(path, encoding="ascii") as fh:
            if fh.readline() != "c1,c2,height\n":
                return v.fail("bad csv header")
            for i, line in enumerate(fh, start=1):
                c1, c2, h = line.split(",")
                if int(c1) * d + int(c2) != i:
                    return v.fail(f"csv row {i} is cell ({c1},{c2})")
                vals.append(float(h))
        if len(vals) != d * d:
            return v.fail(f"csv has {len(vals) - 1} cells, want {d * d - 1}")
        g = np.frombuffer(vals, dtype=float).reshape(d, d)
        self._grids[d] = g
        self._cells(g, d, v)

    def _grid_pgm(self, p, stdout, path, v):
        d = p["d"]
        with open(path, encoding="ascii") as fh:
            if [fh.readline(), fh.readline(), fh.readline()] != ["P2\n", f"{d} {d}\n", "255\n"]:
                return v.fail("bad pgm header")
            pix = np.array([[int(t) for t in fh.readline().split()] for _ in range(d)])
            if fh.read():
                return v.fail("trailing pgm data")
        if pix.shape != (d, d) or pix.min() < 0 or pix.max() > 255:
            return v.fail(f"pgm pixels: shape {pix.shape}, range [{pix.min()}, {pix.max()}]")
        g = self._grids.get(d)
        if g is not None:  # rows are c2, columns c1; log 2 maps to 255
            want = np.clip(np.floor(255.0 * g.T / self.cf.log2 + 0.5), 0, 255)
            want[0, 0] = 0
            bad = int(np.count_nonzero(pix != want))
            if bad:
                v.fail(f"{bad} pgm pixels differ from round(255 h / log 2) of the csv heights")

    def _stats(self, st: dict, d: int, eps: float, v: Verdict) -> None:
        cells = d * d - 1
        low, high = extremal_masks(d)
        if (st["d"], st["eps"]) != (d, eps):
            v.fail(f"stats echo d={st['d']} eps={st['eps']}, want d={d} eps={eps}")
        if len(st["histogram"]) != 256 or sum(st["histogram"]) != cells:
            v.fail(f"d={d}: histogram does not hold {cells} cells")
        if st["count_zero"] != int(low.sum()):
            v.fail(f"d={d}: count_zero {st['count_zero']}, want {int(low.sum())}")
        if not (0 <= st["count_near_eta"] <= cells and 0 <= st["count_near_theta"] <= cells):
            v.fail(f"d={d}: near-constant counts out of range")
        if not -CELL_TOL <= st["mean"] <= self.cf.log2:
            v.fail(f"d={d}: mean {st['mean']!r} outside [0, log 2]")
        v.exact(abs(st["min"]), CELL_TOL, f"d={d}: min")
        if high.any():
            v.exact(abs(st["max"] - self.cf.log2), CELL_TOL, f"d={d}: max")
        elif not st["max"] <= self.cf.log2 + CELL_TOL:
            v.fail(f"d={d}: max {st['max']!r} above log 2")

    def _grid_json(self, p, stdout, path, v):
        d, eps = p["d"], p["eps"]
        obj = json.loads(Path(path).read_text(encoding="ascii"))
        st = obj["stats"]
        self._stats(st, d, eps, v)
        g = self._grids.get(d)
        if g is None:
            return
        vals = g.ravel()[1:]
        hist = np.bincount(np.clip((vals * (256 / self.cf.log2)).astype(np.int64), 0, 255), minlength=256)
        want = {
            "mean": math.fsum(vals.tolist()) / vals.size,
            "min": float(vals.min()),
            "max": float(vals.max()),
            "count_near_eta": int(np.count_nonzero(np.abs(vals - self.cf.eta) < eps)),
            "count_near_theta": int(np.count_nonzero(np.abs(vals - self.cf.theta) < eps)),
            "histogram": hist.tolist(),
        }
        for key, value in want.items():
            if st[key] != value:
                v.fail(f"d={d}: stats {key} disagrees with the csv heights")

    def _stats_json(self, p, stdout, path, v):
        d, eps = p["d"], p["eps"]
        obj = json.loads(stdout)
        if obj["epsilon"] != eps or len(obj["rows"]) != 1:
            return v.fail("stats payload: wrong epsilon or row count")
        st = obj["rows"][0]
        self._stats(st, d, eps, v)
        if d <= 48:
            vals = grid_direct(d).ravel()[1:]
            v.within(abs(st["mean"] - float(vals.mean())), RECOMPUTE_TOL, f"d={d}: mean vs recomputation")
            v.within(abs(st["max"] - float(vals.max())), RECOMPUTE_TOL, f"d={d}: max vs recomputation")

    # -- point queries -----------------------------------------------------

    def _classify(self, d: int, c1: int, c2: int) -> str:
        low, high = extremal_masks_point(d, c1, c2)
        return "min" if low else "max" if high else "interior"

    def _height(self, p, stdout, path, v):
        d, (c1, c2) = p["d"], p["c"]
        obj = json.loads(stdout)
        c1, c2 = c1 % d, c2 % d
        e = d // math.gcd(math.gcd(c1, c2), d)
        if (obj["d"], obj["c1"], obj["c2"], obj["order"]) != (d, c1, c2, e):
            v.fail(f"height echo {obj['d']},{obj['c1']},{obj['c2']} order {obj['order']}, want order {e}")
        v.exact(abs(obj["nonarchimedean"] - nonarchimedean(e)), 1e-14, f"D={d}: -Lambda(e)/phi(e)")
        if obj["total"] != obj["archimedean"] + obj["nonarchimedean"]:
            v.fail(f"D={d}: total is not archimedean + nonarchimedean")
        total = obj["total"]
        if not -CELL_TOL <= total <= self.cf.log2 + CELL_TOL:
            v.fail(f"D={d}: height {total!r} outside [0, log 2]")
        cls = self._classify(d, c1, c2)
        if obj["classification"] != cls:
            v.fail(f"D={d}: classification {obj['classification']}, want {cls}")
        if cls == "min":
            v.exact(abs(total), CELL_TOL, f"D={d}: height-0 point")
        elif cls == "max":
            v.exact(abs(total - self.cf.log2), CELL_TOL, f"D={d}: height-log2 point")
        if p.get("direct"):
            v.within(abs(obj["archimedean"] - archimedean_direct(d, c1, c2)), RECOMPUTE_TOL,
                     f"D={d}: archimedean vs recomputation")

    def _limits_primes(self, p, stdout, path, v):
        lo, hi = p["lo"], p["hi"]
        lines = stdout.splitlines()
        if not lines or lines[0] != "d,c1,c2,order,height,gap,limit":
            return v.fail("bad limits header")
        primes = [n for n in range(lo, hi + 1) if is_prime(n)]
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != primes:
            return v.fail("limits rows are not the primes of the window")
        limit = float(rows[0][6]) if rows else self.cf.eta
        v.exact(abs(limit - self.cf.eta), 1e-15, "limits: limit vs eta")
        worst = 0.0
        for d, c1, c2, order, h, gap, lim in rows:
            d, h = int(d), float(h)
            if (int(c1), int(c2), int(order), float(lim)) != (1, math.isqrt(d), d, limit):
                v.fail(f"limits row d={d}: witness or order or limit column wrong")
            if float(gap) != abs(h - limit):
                v.fail(f"limits row d={d}: gap is not |height - limit|")
            want = archimedean_direct(d, 1, math.isqrt(d)) + nonarchimedean(d)
            worst = max(worst, abs(h - want))
        v.within(worst, RECOMPUTE_TOL, "limits: heights vs recomputation")

    # -- quadrature and amoeba --------------------------------------------

    def _ronkin_lattice(self, p, stdout, path, v):
        (lo1, hi1, n1), (lo2, hi2, n2) = p["axes"]
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        with open(path, encoding="ascii") as fh:
            header = fh.readline()
        if header != "u1,u2,ronkin\n" or data.shape != (n1 * n2, 3):
            return v.fail(f"lattice: header {header!r}, shape {data.shape}")
        i, j = np.divmod(np.arange(n1 * n2), n2)
        want1 = lo1 + (hi1 - lo1) * i / max(1, n1 - 1)
        want2 = lo2 + (hi2 - lo2) * j / max(1, n2 - 1)
        u1, u2, rho = data.T
        if np.abs(u1 - want1).max() > 1e-12 or np.abs(u2 - want2).max() > 1e-12:
            return v.fail("lattice coordinates out of order")
        psi = np.minimum(0.0, np.minimum(u1, u2))
        inside = in_amoeba(u1, u2)
        if (~inside).any():
            v.exact(float(np.abs(rho - psi)[~inside].max()), QUAD_TOL, "lattice: ronkin = Psi off the amoeba")
        if (rho > psi + QUAD_TOL).any():
            v.fail("lattice: ronkin above Psi")

    def _ronkin(self, p, stdout, path, v):
        u1, u2 = p["u"]
        obj = json.loads(stdout)
        if (obj["u1"], obj["u2"]) != (u1, u2):
            v.fail("ronkin echo")
        rho = obj["ronkin"]
        if (u1, u2) == (0.0, 0.0):
            v.exact(abs(rho + self.cf.theta), QUAD_TOL, "ronkin(0,0) vs -theta")
        elif not in_amoeba(u1, u2):
            v.exact(abs(rho - min(0.0, u1, u2)), QUAD_TOL, f"ronkin{(u1, u2)} vs Psi off the amoeba")
        else:
            v.exact(abs(rho - ronkin_exact(u1, u2)), QUAD_TOL, f"ronkin{(u1, u2)} vs mpmath")

    def _dual(self, p, stdout, path, v):
        x1, x2 = p["x"]
        obj = json.loads(stdout)
        val = obj["value"]
        if (obj["x1"], obj["x2"]) != (x1, x2):
            v.fail("dual echo")
        if not -1e-8 <= val <= self.cf.theta + 1e-8:
            v.fail(f"dual{(x1, x2)} = {val!r} outside [0, theta]")
        if x1 == x2 == 1.0 / 3.0:
            v.within(abs(val - self.cf.theta), 1e-6, "dual at the centroid vs theta")
        elif x1 == 0.0 or x2 == 0.0 or x1 + x2 >= 1.0 - 1e-12:
            v.within(abs(val), 1e-3, f"dual{(x1, x2)} on the simplex boundary")

    def _moment(self, p, stdout, path, v):
        obj = json.loads(stdout)
        if obj["m"] != p["m"] or not obj["evaluations"] > 0:
            v.fail("moment echo or evaluation count")
        v.exact(abs(obj["value"] - south_moment(p["m"])), QUAD_TOL, f"moment {p['m']}")

    def _volume(self, p, stdout, path, v):
        v.exact(abs(json.loads(stdout)["volume"] - self.cf.volume), QUAD_TOL, "volume vs pi^2/2")

    def _psi_average(self, p, stdout, path, v):
        v.exact(abs(json.loads(stdout)["psi_average"] - self.cf.eta), QUAD_TOL, "psi-average vs eta")

    def _curve(self, p, stdout, path, v):
        val = json.loads(stdout)["value"]
        exact = {"theta": self.cf.theta, "zero": 0.0, "log2": self.cf.log2}.get(p["exact"])
        if exact is not None:
            v.exact(abs(val - exact), QUAD_TOL, f"curve limit vs {p['exact']}")
        elif not -QUAD_TOL <= val <= self.cf.log2 + QUAD_TOL:
            v.fail(f"curve limit {val!r} outside [0, log 2]")

    def _monge(self, p, stdout, path, v):
        val = float(stdout)
        v.within(abs(val - self.cf.inv_pi2), 0.05 * self.cf.inv_pi2, "Monge-Ampere density vs 1/pi^2")
