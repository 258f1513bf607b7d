"""Each benchmark workload runs one short pass against this checkout with every output checked.

``bench/run.py`` drives the library as the benchmark does: the CLI argv of
each workload, and ``monge_ampere_density(AmoebaPoint(u1, u2))`` called
positionally.  Its oracles check every output, so a changed signature or
output format fails here rather than only in a benchmark run.  About 2 s
per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_second_run_is_correct(workload):
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.stdout, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"], proc.returncode) == (True, 0, 0), proc.stderr[-4000:]
    assert summary["attempted"] > 0
