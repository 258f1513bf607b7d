"""The zeta-heights benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload grid-large --seed 1 --seconds 20 --trace 0

One run is one fresh interpreter.  It first times set-up (import plus the
first ``special_values()``) in fresh child interpreters, then replays the
workload's seeded script in whole passes until ``--seconds`` have gone:
one client, each operation starting after the previous one returned
(closed loop).  CLI operations call ``zeta_heights.cli.main`` in-process
with the generated argv.  Every output is hashed and checked by
``oracles``; a non-zero exit, an exception, a failed check or a digest
that differs from the previous pass's counts as a failed operation.

With ``--trace 1`` the first half of the time runs untraced and the
second half with ``spans.Tracer`` installed, and the per-layer metrics
are reported instead of the end-to-end ones.

The second-to-last stdout line is the full report (metadata, argv lists,
digests, every metric); the last line is the summary the harness reads:
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
check passed, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5

# Units of every metric the report carries.
UNITS = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "fail_ratio": "ratio", "max_abs_err": "abs",
    "setup.import_s": "s", "constants.cold_s": "s", "constants.busy_s": "s",
    "cli.self_s": "s", "cli.format_s": "s", "cli.bytes_out": "bytes",
    "grid.calls": "count", "grid.self_s": "s", "grid.stats_s": "s", "grid.cells": "count",
    "grid.cells_per_height": "ratio",
    "torsion.calls": "count", "torsion.busy_s": "s", "torsion.terms": "count", "torsion.ns_per_term": "ns",
    "arith.calls": "count", "arith.busy_s": "s", "symmetry.busy_s": "s",
    "quad.calls": "count", "quad.busy_s": "s", "quad.evals": "count", "quad.evals_per_call": "ratio",
    "quad.budget_exceeded": "count",
    "curves.calls": "count", "curves.self_s": "s", "curves.segments": "count",
    "amoeba.calls": "count", "amoeba.self_s": "s", "amoeba.ronkin_calls": "count", "amoeba.ronkin_per_op": "ratio",
    "trace.overhead": "ratio", "trace.wall_s": "s", "trace.untraced_wall_s": "s",
}
# The metrics of the summary line, as BENCHMARK.json lists them.
END_TO_END = ("setup_s", "wall_s", "items_per_s", "op_p50_ms", "peak_rss_mb")
# Times that some workload never spends (quad on the grid workloads, grid
# on quad-amoeba, ...) stay in the report only, so that no summary time
# reads a constant zero.
PER_LAYER = (
    "setup.import_s", "constants.cold_s", "cli.self_s", "cli.bytes_out",
    "grid.calls", "grid.cells", "grid.cells_per_height",
    "torsion.calls", "torsion.terms", "arith.calls",
    "quad.calls", "quad.evals", "quad.evals_per_call", "quad.budget_exceeded",
    "curves.calls", "curves.segments", "amoeba.calls", "amoeba.ronkin_calls", "amoeba.ronkin_per_op",
    "trace.overhead", "trace.wall_s", "trace.untraced_wall_s",
)

SYMMETRY_NOTE = (
    "symmetry.busy_s covers only the public orbit/canonical_representative/matrices; grid uses the "
    "private _rep_codes, whose time lands in grid.self_s"
)


class SetupError(RuntimeError):
    pass


def measure_setup(n: int) -> dict:
    """Median set-up times over n fresh interpreters, after one warm-up."""
    runs = []
    for k in range(n + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise SetupError(f"probe imported {rec['module']}, not the checkout's src/")
        if k:
            runs.append(rec)
    return {
        "setup_s": statistics.median(r["import_s"] + r["constants_s"] for r in runs),
        "setup.import_s": statistics.median(r["import_s"] for r in runs),
        "constants.cold_s": statistics.median(r["constants_s"] for r in runs),
        "probes": n,
    }


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return None
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        return sha.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _digest(stdout: str, path: Path | None) -> tuple[str, int]:
    h = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    if path is not None and path.exists():
        h.update(b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
                size += len(block)
    return h.hexdigest(), size


@dataclass
class Phase:
    """What one phase (untraced or traced) of a run observed."""

    latencies: list[list[float]]  # per script position
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    bytes_out: int = 0
    failures: list[str] = field(default_factory=list)
    abs_errs: list[float] = field(default_factory=list)
    profiles: list = field(default_factory=list)


class Runner:
    """Replays a workload script against the in-process library."""

    def __init__(self, workload, package, checker, outdir: Path) -> None:
        self.wl = workload
        self.pkg = package
        self.checker = checker
        self.outdir = outdir
        # Per script position: the output digest and the checker's verdict of
        # the first pass; later passes must reproduce the digest.
        self.digests: list[str | None] = [None] * len(workload.ops)
        self.verdicts: list = [None] * len(workload.ops)
        mods = [getattr(package, name) for name in spans.LAYERS]
        self.cache_clears = [
            obj.cache_clear for mod in mods for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", None) == mod.__name__
        ]

    def _call(self, op) -> int | None:
        if op.kind == "cli":
            return self.pkg.cli.main(list(op.argv))
        amoeba = self.pkg.amoeba
        name, *args = op.argv
        if name != "monge_ampere_density":
            raise ValueError(f"unknown library probe {name!r}")
        print(repr(amoeba.monge_ampere_density(amoeba.AmoebaPoint(*(float(a) for a in args)))))
        return 0

    def run_op(self, i: int, phase: Phase, tracer=None) -> None:
        op = self.wl.ops[i]
        if self.wl.fresh_caches:
            for clear in self.cache_clears:
                clear()
        path = self.outdir / op.out if op.out else None
        if path is not None:
            path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.take()
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self._call(op)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        except Exception as exc:  # the run continues; the operation counts as failed
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            phase.profiles.append((spans.analyse(tracer.take(), tracer.names, t0, t1, oracles.phi), t1 - t0))
        phase.latencies[i].append(t1 - t0)
        phase.attempted += 1
        digest, size = _digest(out.getvalue(), path)
        phase.bytes_out += size
        problems = []
        if error is not None or rc != 0:
            problems.append(f"exit {rc}: {error or err.getvalue().strip()[-300:]}")
        elif self.digests[i] is None:
            self.digests[i] = digest
            self.verdicts[i] = self.checker.check(op, out.getvalue(), path)
            phase.abs_errs.extend(self.verdicts[i].abs_errs)
            problems.extend(self.verdicts[i].errors)
        elif digest != self.digests[i]:
            problems.append("output differs from the previous pass")
        else:
            problems.extend(self.verdicts[i].errors)
        if problems:
            phase.failed += 1
            phase.failures.append(f"{' '.join(op.argv)}: {'; '.join(problems)}")
        else:
            phase.items += op.items

    def run_passes(self, deadline: float, tracer=None) -> Phase:
        """Whole passes until the deadline (at least one)."""
        phase = Phase(latencies=[[] for _ in self.wl.ops])
        while True:
            for i in range(len(self.wl.ops)):
                self.run_op(i, phase, tracer)
            phase.passes += 1
            if time.perf_counter() >= deadline:
                return phase


def latency_summary(phase: Phase) -> dict:
    lat = sorted(x for per_op in phase.latencies for x in per_op)
    n = len(lat)
    out = {"op_p50_ms": {"percentile": 50, "value": 1e3 * statistics.median(lat), "samples": n,
                         "beyond": n - math.ceil(0.5 * n)}}
    rank = math.ceil(0.9 * n)
    out["op_p90_ms"] = {"percentile": 90, "samples": n, "beyond": n - rank, "method": "nearest rank",
                        "value": 1e3 * lat[rank - 1] if n - rank >= 10 else None}
    return out


def end_to_end(phase: Phase, setup: dict) -> dict:
    lat = latency_summary(phase)
    return {
        "setup_s": setup["setup_s"],
        # One pass of the script: each operation at its median over the passes.
        "wall_s": sum(statistics.median(per_op) for per_op in phase.latencies),
        "items_per_s": phase.items / sum(x for per_op in phase.latencies for x in per_op),
        "op_p50_ms": lat["op_p50_ms"]["value"],
        "op_p90_ms": lat["op_p90_ms"]["value"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": phase.failed / phase.attempted,
        "max_abs_err": max(phase.abs_errs, default=0.0),
    }


def per_layer(untraced: Phase, traced: Phase, setup: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the self-time closure check."""
    p = traced.passes
    self_s, busy, calls, counts = {}, {}, {}, {}
    rest = total = 0.0
    for prof, elapsed in traced.profiles:
        for table, src in ((self_s, prof.self_s), (busy, prof.busy_s), (calls, prof.calls), (counts, prof.counts)):
            for k, v in src.items():
                table[k] = table.get(k, 0) + v
        rest += prof.remainder_s
        total += elapsed

    def per_pass(table, key):
        return table.get(key, 0) / p

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = end_to_end(traced, setup)["wall_s"]
    untraced_wall = end_to_end(untraced, setup)["wall_s"]
    m = {
        "setup.import_s": setup["setup.import_s"],
        "constants.cold_s": setup["constants.cold_s"],
        "constants.busy_s": per_pass(busy, "constants"),
        "cli.self_s": per_pass(self_s, "cli"),
        "cli.format_s": per_pass(self_s, "cli.format"),
        "cli.bytes_out": traced.bytes_out / p,
        "grid.calls": per_pass(calls, "grid"),
        "grid.self_s": per_pass(self_s, "grid"),
        "grid.stats_s": per_pass(self_s, "grid.stats"),
        "grid.cells": per_pass(counts, "grid.cells"),
        "grid.cells_per_height": ratio(counts.get("grid.cells", 0), counts.get("grid.heights", 0)),
        "torsion.calls": per_pass(calls, "torsion"),
        "torsion.busy_s": per_pass(busy, "torsion"),
        "torsion.terms": per_pass(counts, "torsion.terms"),
        "torsion.ns_per_term": 1e9 * ratio(busy.get("torsion", 0), counts.get("torsion.terms", 0)),
        "arith.calls": per_pass(calls, "arith"),
        "arith.busy_s": per_pass(busy, "arith"),
        "symmetry.busy_s": per_pass(busy, "symmetry"),
        "quad.calls": per_pass(calls, "quad"),
        "quad.busy_s": per_pass(busy, "quad"),
        "quad.evals": per_pass(counts, "quad.evals"),
        "quad.evals_per_call": ratio(counts.get("quad.evals", 0), calls.get("quad", 0)),
        "quad.budget_exceeded": per_pass(counts, "quad.budget_exceeded"),
        "curves.calls": per_pass(calls, "curves"),
        "curves.self_s": per_pass(self_s, "curves"),
        "curves.segments": per_pass(counts, "curves.segments"),
        "amoeba.calls": per_pass(calls, "amoeba"),
        "amoeba.self_s": per_pass(self_s, "amoeba"),
        "amoeba.ronkin_calls": per_pass(counts, "amoeba.ronkin_calls"),
        "amoeba.ronkin_per_op": ratio(counts.get("amoeba.ronkin_in_ops", 0), counts.get("amoeba.ops", 0)),
        "trace.overhead": traced_wall / untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
    }
    attributed = sum(self_s.values())
    closure = {
        "traced_op_time_s": total,
        "self_time_sum_s": attributed,
        "uncovered_s": rest,
        "self_by_layer_s": {k: v / p for k, v in sorted(self_s.items())},
        "closes": abs(attributed + rest - total) <= 1e-9 + 1e-9 * total,
        "note": "seconds over the traced operations: per-layer self times plus the time no span covers",
    }
    return m, closure


def _with_units(values: dict, names) -> dict:
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zeta_heights" / "__init__.py").is_file():
        print(f"error: no zeta_heights sources under {SRC}", file=sys.stderr)
        return 2
    # The program runs single-threaded unless an argv asks for threads.
    os.environ.pop("ZETA_HEIGHTS_THREADS", None)
    try:
        setup = measure_setup(SETUP_PROBES)
    except (SetupError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zeta_heights
    import zeta_heights.cli  # noqa: F401  (loads every module the CLI uses)

    nproc = os.cpu_count() or 1
    wl = workloads.build(args.workload, args.seed, threads=min(2, nproc))
    checker = oracles.Checker()
    outdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(wl, zeta_heights, checker, outdir)
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        start = time.perf_counter()
        if args.trace:
            untraced = runner.run_passes(start + 0.5 * args.seconds)
            tracer = spans.Tracer(zeta_heights)
            tracer.install()
            try:
                traced = runner.run_passes(start + args.seconds, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            untraced = runner.run_passes(start + args.seconds)
            phases = [untraced]
    finally:
        os.chdir(cwd)
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()

    e2e = end_to_end(untraced, setup)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": {
            "git_sha": git_sha(),
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": oracles.mp.__version__,
            "platform": platform.platform(),
            "load": "closed loop, one client; stats-sweep asks for --threads min(2, nproc)",
            "setup_probes": setup["probes"],
            "argv": [list(op.argv) if op.kind == "cli" else ["<library>", *op.argv] for op in wl.ops],
        },
        "passes": [ph.passes for ph in phases],
        "attempted": attempted,
        "failed": failed,
        "failures": [f for ph in phases for f in ph.failures][:20],
        "end_to_end": _with_units(e2e, e2e),
        "latency": latency_summary(untraced),
        "op_median_ms": [1e3 * statistics.median(per_op) for per_op in untraced.latencies],
        "digests": runner.digests,
    }
    correct = failed == 0
    if args.trace:
        layers, closure = per_layer(untraced, traced, setup)
        report["per_layer"] = _with_units(layers, layers)
        report["closure"] = closure
        report["notes"] = [SYMMETRY_NOTE, "per-layer values are per traced pass"]
        correct = correct and closure["closes"]
        summary = _with_units(layers, PER_LAYER)
    else:
        summary = _with_units(e2e, END_TO_END)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
