"""Tests of the benchmark itself: inputs, metric names, span arithmetic, failure counting.

Run from the repository root: python3 -m pytest bench/tests
"""

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import zeta_heights  # noqa: E402
import zeta_heights.cli  # noqa: E402
from zeta_heights import torsion  # noqa: E402
from zeta_heights.torsion import Extremality, TorsionPoint  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert [(op.argv, op.params) for op in a.ops] == [(op.argv, op.params) for op in b.ops]
    assert [op.argv for op in a.ops] != [op.argv for op in workloads.build(name, 8).ops]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GATED)
    assert set(workloads.GATED) <= set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.UNITS[m["name"]]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names_are_well_formed():
    for name in list(run.UNITS) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def _span(sid, t0, t1, fid, parent=-1, thread=1, payload=None):
    return (sid, t0, t1, thread, fid, parent, payload)


def test_self_times_of_a_nested_trace():
    # a[0,10] > b[1,4] > c[2,3]; a > d[5,6]; the operation runs over [-1, 11]
    trace = [_span(0, 0, 10, 0), _span(1, 1, 4, 1, 0), _span(2, 2, 3, 2, 1), _span(3, 5, 6, 3, 0)]
    own, rest = spans.self_times(trace, -1.0, 11.0)
    assert own == [6.0, 2.0, 1.0, 1.0]
    assert rest == 2.0


def test_self_times_share_parallel_workers():
    # g[0,10] in the client thread waits while its workers w1[1,5], w2[2,6] run
    trace = [_span(0, 0, 10, 0), _span(1, 1, 5, 1, 0, thread=2), _span(2, 2, 6, 1, 0, thread=3)]
    own, rest = spans.self_times(trace, 0.0, 10.0)
    assert own == [5.0, 2.5, 2.5]
    assert rest == 0.0


def test_analyse_splits_layers_buckets_and_counters():
    names = ["cli.main", "cli.grid_csv", "grid.compute_grid", "torsion.total_height", "torsion.archimedean_height"]
    pt = TorsionPoint(7, 1, 2)
    trace = [
        _span(0, 0, 10, 0),
        _span(1, 1, 6, 2, 0, payload=7),
        _span(2, 2, 4, 3, 1),
        _span(3, 2.5, 3.5, 4, 2, payload=pt),
        _span(4, 7, 9, 1, 0),
    ]
    prof = spans.analyse(trace, names, 0.0, 10.0, oracles.phi)
    assert prof.self_s == {"cli": 3.0, "cli.format": 2.0, "grid": 3.0, "torsion": 2.0}
    assert prof.busy_s["torsion"] == 2.0 and prof.busy_s["grid"] == 5.0
    assert prof.calls == {"cli": 1, "grid": 1, "torsion": 1}  # nested same-layer calls are not entries
    assert prof.counts["grid.cells"] == 48 and prof.counts["grid.heights"] == 1
    assert prof.counts["torsion.terms"] == 6
    assert sum(prof.self_s.values()) + prof.remainder_s == 10.0


def test_tracer_sees_every_binding_and_restores_them():
    original = torsion.total_height
    tracer = spans.Tracer(zeta_heights)
    tracer.install()
    try:
        assert zeta_heights.cli.total_height is zeta_heights.grid.total_height is torsion.total_height
        assert torsion.total_height is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert zeta_heights.cli.main(["height", "--d", "5", "--c", "1,2"]) == 0
        called = {tracer.names[s[4]] for s in tracer.take()}
    finally:
        tracer.uninstall()
    assert {"cli.main", "cli.cmd_height", "torsion.total_height", "arith.euler_phi"} <= called
    assert zeta_heights.cli.total_height is original and torsion.total_height is original


def test_extremal_rules_match_the_library():
    for d in range(2, 31):
        low, high = oracles.extremal_masks(d)
        for c1 in range(d):
            for c2 in range(d):
                if (c1, c2) == (0, 0):
                    continue
                cls = torsion.classify_extremal(TorsionPoint(d, c1, c2))
                assert (bool(low[c1, c2]), bool(high[c1, c2])) == (cls is Extremality.MIN, cls is Extremality.MAX)
                assert oracles.extremal_masks_point(d, c1, c2) == (low[c1, c2], high[c1, c2])


def test_closed_forms():
    cf = oracles.closed_forms()
    assert cf.log2 == math.log(2.0)
    assert abs(cf.theta - 0.3230659472194505) < 1e-15
    assert abs(cf.eta - 4 * 1.2020569031595942 / math.pi**2) < 1e-15
    assert abs(oracles.ronkin_exact(0.0, 0.0) + cf.theta) < 1e-14
    assert abs(oracles.grid_direct(5)[1, 2] - 0.25 * math.log((3 + math.sqrt(5)) / 2)) < 1e-14


def _runner(tmp_path, ops):
    wl = workloads.Workload("test", 0, tuple(ops))
    return run.Runner(wl, zeta_heights, oracles.Checker(), tmp_path)


def test_injected_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    ops = [workloads.Op("cli", ("amoeba", "--volume"), "volume"), workloads.Op("cli", ("amoeba", "--psi-average"),
                                                                                 "psi_average")]
    runner = _runner(tmp_path, ops)
    good = runner.run_passes(deadline=0.0)
    assert (good.attempted, good.failed) == (2, 0)

    def wrong(argv):
        print(json.dumps({"volume": 4.9}))
        return 0

    monkeypatch.setattr(zeta_heights.cli, "main", wrong)
    bad = _runner(tmp_path, ops[:1]).run_passes(deadline=0.0)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "volume vs pi^2/2" in bad.failures[0]


def test_same_seed_gives_the_same_digests(tmp_path):
    wl = workloads.build("stats-sweep", 3)
    wl = workloads.Workload(wl.name, wl.seed, wl.ops[:20])
    first, second = (run.Runner(wl, zeta_heights, oracles.Checker(), tmp_path) for _ in range(2))
    for runner in (first, second):
        assert runner.run_passes(deadline=0.0).failed == 0
    assert first.digests == second.digests and None not in first.digests


def test_nonzero_exit_and_changed_output_count_as_failed(tmp_path, monkeypatch):
    calls = []

    def flaky(argv):
        calls.append(argv)
        print(json.dumps({"volume": oracles.closed_forms().volume + 1e-12 * len(calls)}))
        return 0

    monkeypatch.setattr(zeta_heights.cli, "main", flaky)
    runner = _runner(tmp_path, [workloads.Op("cli", ("amoeba", "--volume"), "volume")])
    phase = runner.run_passes(deadline=0.0)
    phase2 = runner.run_passes(deadline=0.0)
    assert (phase.failed, phase2.failed) == (0, 1)
    assert "differs from the previous pass" in phase2.failures[0]

    monkeypatch.setattr(zeta_heights.cli, "main", lambda argv: 2)
    phase3 = runner.run_passes(deadline=0.0)
    assert phase3.failed == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-large", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
