"""The library imports without mpmath: mpmath is a test oracle only."""

import os
import pkgutil
import subprocess
import sys

import zeta_heights


def test_library_does_not_import_mpmath():
    modules = ["zeta_heights"] + [f"zeta_heights.{m.name}" for m in pkgutil.iter_modules(zeta_heights.__path__)]
    assert len(modules) >= 10
    code = "; ".join([*(f"import {m}" for m in modules), "import sys", "assert 'mpmath' not in sys.modules"])
    src = os.path.dirname(os.path.dirname(zeta_heights.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr


def test_cli_import_binds_every_layer():
    # the benchmark's tracer looks these modules up as attributes of the package
    import zeta_heights.cli  # noqa: F401

    for name in "cli grid torsion arith symmetry quad constants curves amoeba".split():
        assert hasattr(zeta_heights, name), name
    assert zeta_heights.grid.total_height is zeta_heights.torsion.total_height
