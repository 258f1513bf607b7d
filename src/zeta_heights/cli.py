"""Command-line surface: heights, grids, statistics, constants, and amoeba queries.

Exit codes: 0 on success, 2 on usage or domain errors, 3 on I/O errors.
All file formats are deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import amoeba, arith, constants, curves, grid
from .quad import BudgetExceeded
from .torsion import LOG2, MAX_ORDER, TorsionPoint, classify_extremal, order, total_height

FORMATS = ("csv", "pgm", "json")

# Largest --ronkin-samples lattice, checked before any evaluation: 10^5
# points take 0.14-0.25 s and peak at 23 MiB, mostly the output text, on a
# shared 2-core Xeon.
MAX_RONKIN_SAMPLES = 10**5

# Points per ronkin_batch call, so that its temporaries do not grow with the
# lattice; 4096 was the fastest of 101 to 20000 on a 101 x 101 lattice.
RONKIN_BATCH = 4096


def _parse_pair(text: str, kind: type = int) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return kind(parts[0]), kind(parts[1])


def _parse_range(text: str) -> range:
    parts = [int(p) for p in text.split(":")]
    if len(parts) not in (2, 3):
        raise ValueError(f"expected LO:HI or LO:HI:STEP, got {text!r}")
    lo, hi, step = (parts + [1])[:3]
    if step < 1:
        raise ValueError("step must be >= 1")
    out = range(lo, hi + 1, step)
    if not out:
        raise ValueError(f"range {text!r} is empty")
    return out


def _primes_in(lo: int, hi: int) -> list[int]:
    if hi > MAX_ORDER:
        raise ValueError(f"--primes: HI {hi} exceeds the largest order with a height, {MAX_ORDER}")
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    lo = max(2, lo)
    return (np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8)[lo:]) + lo).tolist()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # A regular file is written beside itself and renamed over, so a failed
    # write leaves it as it was; a device or a pipe is written in place.
    regular = os.path.isfile(out) or not os.path.exists(out)
    target = os.path.realpath(out) if regular else out
    tmp = f"{target}.{os.getpid()}.tmp" if regular else out
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        if regular:
            os.replace(tmp, target)
    finally:
        if regular and os.path.exists(tmp):
            os.unlink(tmp)


def _json_line(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def cmd_height(args: argparse.Namespace) -> str:
    pt = TorsionPoint(args.d, *_parse_pair(args.c))
    parts = total_height(pt)
    return _json_line({**vars(pt), "order": order(pt), "archimedean": parts.archimedean,
                       "nonarchimedean": parts.nonarchimedean, "total": parts.total,
                       "classification": classify_extremal(pt).value})


def grid_csv(g: grid.HeightGrid) -> str:
    cells = [f"{c1},{c2},{h:.17g}" for c1, row in enumerate(g.values.tolist()) for c2, h in enumerate(row)]
    return "\n".join(["c1,c2,height", *cells[1:]]) + "\n"  # cells[0] is the sentinel (0,0)


def grid_pgm(g: grid.HeightGrid) -> str:
    # rows top to bottom are c2 = 0 .. d-1; pixel scale maps log 2 to 255
    levels = np.floor(255.0 * g.values.T / LOG2 + 0.5)
    levels[0, 0] = 0
    rows = np.clip(levels, 0, 255).astype(np.int64).tolist()
    return "\n".join(["P2", f"{g.d} {g.d}", "255", *(" ".join(map(str, row)) for row in rows)]) + "\n"


def cmd_grid(args: argparse.Namespace) -> str:
    if args.format == "json":
        if args.d > grid.MAX_D:  # the grid limit holds for every format
            raise ValueError(f"grid needs d <= {grid.MAX_D}, got {args.d}")
        return _json_line({"d": args.d, "stats": vars(grid.stats(args.d, args.epsilon))})
    g = grid.compute_grid(args.d)
    return grid_csv(g) if args.format == "csv" else grid_pgm(g)


def cmd_stats(args: argparse.Namespace) -> str:
    ds = _parse_range(args.d_range)
    grid.check_stats_cost(ds)
    rows = [grid.stats(d, args.epsilon) for d in ds]
    if args.format == "json":
        return _json_line({"epsilon": args.epsilon, "rows": [vars(st) for st in rows]})
    lines = [f"{st.d},{st.mean:.17g},{st.count_near_eta / (st.d * st.d - 1):.17g},{st.min:.17g},{st.max:.17g},"
             f"{st.count_zero}" for st in rows]
    return "\n".join(["d,mean,ratio_near_eta,min,max,count_zero", *lines]) + "\n"


def cmd_constants(args: argparse.Namespace) -> str:
    return _json_line(vars(constants.special_values()))


def cmd_limits(args: argparse.Namespace) -> str:
    if (args.d_list is None) == (args.primes is None):
        raise ValueError("limits: give exactly one of --d-list or --primes")
    if args.d_list is not None:
        d_range = [int(v) for v in args.d_list.split(",")]
        if max(d_range) > MAX_ORDER:
            raise ValueError(f"--d-list: {max(d_range)} exceeds the largest order with a height, {MAX_ORDER}")
        terms = sum(arith.euler_phi(d) // 2 for d in d_range if d >= 1)
    else:
        bounds = args.primes.split(":")
        if len(bounds) != 2:
            raise ValueError(f"--primes: expected LO:HI, got {args.primes!r}")
        lo, hi = (int(v) for v in bounds)
        d_range = _primes_in(lo, hi)
        if not d_range:
            raise ValueError(f"no primes in [{lo}, {hi}]")
        terms = sum((p - 1) // 2 for p in d_range)  # phi(p) = p - 1
    # every witness has order d, and its height sums phi(d)/2 terms
    if terms > grid.MAX_STATS_SUMMANDS:
        raise ValueError(f"limits: the witness heights sum over {terms} terms, above the limit "
                         f"{grid.MAX_STATS_SUMMANDS}")
    curve = None
    if args.a is not None:
        curve = curves.TorsionCurve(*_parse_pair(args.a), 1 if args.e is None else args.e)
    elif args.e is not None:
        raise ValueError("limits: --e needs --a")
    exp = curves.limit_experiment(curve, d_range, random_witness=args.random_witness, seed=args.seed)
    if args.format == "json":
        return _json_line({"limit": exp.limit, "rows": [vars(r) for r in exp.rows]})
    lines = [f"{r.d},{r.c1},{r.c2},{r.order},{r.height:.17g},{r.gap:.17g},{exp.limit:.17g}" for r in exp.rows]
    return "\n".join(["d,c1,c2,order,height,gap,limit", *lines]) + "\n"


def cmd_curve(args: argparse.Namespace) -> str:
    curve = curves.TorsionCurve(*_parse_pair(args.a), args.e)
    return _json_line({**vars(curve), "value": curves.limit_height(curve)})


def _sample_axes(spec: str) -> list[list[float]]:
    """The two axes of a LO:HI:N,LO:HI:N lattice; its size and range are checked before any evaluation."""
    try:
        axes = [(float(lo), float(hi), int(n)) for lo, hi, n in (axis.split(":") for axis in spec.split(","))]
        (_, _, n1), (_, _, n2) = axes
    except ValueError:  # a wrong number of axes or fields, or a field that is not a number
        raise ValueError(f"amoeba: expected LO:HI:N,LO:HI:N, got {spec!r}") from None
    if min(n1, n2) < 1:
        raise ValueError(f"amoeba: sample counts must be >= 1, got {spec!r}")
    if n1 * n2 > MAX_RONKIN_SAMPLES:
        raise ValueError(f"amoeba: the lattice has {n1 * n2} points, above the limit {MAX_RONKIN_SAMPLES}")
    # the last value is hi itself: lo + (hi - lo) * (n-1)/(n-1) can round above it
    values = [[hi if 0 < i == n - 1 else lo + (hi - lo) * i / max(1, n - 1) for i in range(n)]
              for lo, hi, n in axes]
    if not all(abs(v) <= amoeba.COORD_LIMIT for axis in values for v in axis):  # NaN fails too
        raise ValueError(f"amoeba: coordinates exceed the supported range +-{amoeba.COORD_LIMIT}")
    return values


# an absent query reads None: --volume and --psi-average default to None, not False
_AMOEBA_QUERIES = ("contains", "moment", "volume", "psi_average", "ronkin", "dual", "ronkin_samples")


def cmd_amoeba(args: argparse.Namespace) -> str:
    if sum(getattr(args, q) is not None for q in _AMOEBA_QUERIES) != 1:
        raise ValueError("amoeba: choose exactly one of "
                         "--contains/--moment/--volume/--psi-average/--ronkin/--dual/--ronkin-samples")
    tol = {} if args.tol is None else {"tol": args.tol}
    if args.contains is not None:
        u = amoeba.AmoebaPoint(*_parse_pair(args.contains, float))
        return _json_line({**vars(u), "contains": amoeba.contains(u), "region": amoeba.region(u).value})
    if args.moment is not None:
        return _json_line({"m": args.moment, **vars(amoeba.south_moment(args.moment, **tol))})
    if args.volume:
        return _json_line({"volume": amoeba.volume(**tol)})
    if args.psi_average:
        return _json_line({"psi_average": amoeba.psi_average(**tol)})
    if args.ronkin is not None:
        u = amoeba.AmoebaPoint(*_parse_pair(args.ronkin, float))
        return _json_line({**vars(u), "ronkin": amoeba.ronkin(u)})
    if args.dual is not None:
        x = _parse_pair(args.dual, float)
        return _json_line({"x1": x[0], "x2": x[1], "value": amoeba.legendre_dual(x)})
    axis1, axis2 = _sample_axes(args.ronkin_samples)
    u1, u2 = np.repeat(axis1, len(axis2)), np.tile(axis2, len(axis1))
    labels = itertools.product(*([f"{v:.17g}" for v in axis] for axis in (axis1, axis2)))
    lines = ["u1,u2,ronkin"]
    for lo in range(0, u1.size, RONKIN_BATCH):
        values = amoeba.ronkin_batch(u1[lo : lo + RONKIN_BATCH], u2[lo : lo + RONKIN_BATCH])
        # values first: zip stops on them without drawing a label of the next batch
        lines.extend(f"{s1},{s2},{value:.17g}" for value, (s1, s2) in zip(values.tolist(), labels))
    return "\n".join(lines) + "\n"


# Each subcommand's help line and arguments, (flag, add_argument keywords), in usage order.
_CSV_JSON = {"default": "csv", "choices": ("csv", "json")}
_THREADS = {"type": int, "help": "accepted and ignored: the program runs in one thread"}
SUBCOMMANDS = {
    "height": ("height of one torsion point", [
        ("--d", {"type": int, "required": True}), ("--c", {"required": True, "help": "c1,c2"})]),
    "grid": ("full d x d height grid", [
        ("--d", {"type": int, "required": True}), ("--format", {"default": "csv", "choices": FORMATS}),
        ("--out", {}), ("--threads", _THREADS), ("--epsilon", {"type": float, "default": 0.1})]),
    "stats": ("distribution statistics over a range of d", [
        ("--d-range", {"required": True, "help": "LO:HI or LO:HI:STEP"}),
        ("--epsilon", {"type": float, "default": 0.1}), ("--format", _CSV_JSON), ("--out", {}),
        ("--threads", _THREADS)]),
    "constants": ("special values as JSON", []),
    "limits": ("convergence of witness heights to the limit", [
        ("--d-list", {"help": "comma-separated moduli, strictly increasing"}),
        ("--primes", {"help": "LO:HI, take all primes in the range"}),
        ("--a", {"help": "a1,a2 (restrict to a torsion curve)"}), ("--e", {"type": int}),
        ("--tol", {"type": float, "help": "accepted and ignored: the curve limit is a finite Clausen sum"}),
        ("--random-witness", {"action": "store_true"}), ("--seed", {"type": int, "default": 0}),
        ("--format", _CSV_JSON), ("--out", {})]),
    "curve": ("segment-average limit height of a torsion curve", [
        ("--a", {"required": True, "help": "a1,a2 (primitive)"}), ("--e", {"type": int, "default": 1}),
        ("--tol", {"type": float, "help": "accepted and ignored: the limit is a finite Clausen sum"})]),
    "amoeba": ("amoeba membership, moments, Ronkin values", [
        ("--contains", {"help": "u1,u2"}), ("--moment", {"type": int}),
        ("--volume", {"action": "store_true", "default": None}),
        ("--psi-average", {"action": "store_true", "default": None}),
        ("--ronkin", {"help": "u1,u2"}), ("--dual", {"help": "x1,x2 in the standard simplex"}),
        ("--ronkin-samples", {"help": "LO:HI:N,LO:HI:N lattice, CSV output"}),
        ("--tol", {"type": float, "help": "default 1e-10, below 1; times M! for --moment M; closed forms ignore it"}),
        ("--out", {})]),
}


# Built once per process and subcommand.  Subcommands dispatch by name to the
# module-level cmd_* at call time, so a handler rebound after the first call
# is still used.
@functools.cache
def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``name`` alone, or of every subcommand for None.

    With one subparser the usage line still spells every subcommand out, so
    each usage and error text is that of the full parser; only help and a
    missing or bad subcommand, which main leaves to the full parser, show the rest.
    """
    parser = argparse.ArgumentParser(
        prog="zeta-heights",
        description="Heights of torsion translates of x0+x1+x2=0 and their limit constants",
    )
    parser.set_defaults(out=None)
    spelt = None if name is None else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=spelt)
    for command, (help_text, arguments) in SUBCOMMANDS.items():
        if name in (None, command):
            p = sub.add_parser(command, help=help_text)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv  # build only the parser of the subcommand run
    args = build_parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None).parse_args(argv)
    try:
        text = globals()[f"cmd_{args.subcommand}"](args)
    except (ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
