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
