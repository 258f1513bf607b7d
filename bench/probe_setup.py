"""Time a fresh interpreter's set-up: ``import zeta_heights.cli``, then the
first ``constants.special_values()``.  Every CLI call pays both.

Usage: python3 probe_setup.py SRC_DIR   (prints one JSON line)
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import zeta_heights.cli  # noqa: E402

t1 = time.perf_counter()
from zeta_heights import constants  # noqa: E402

constants.special_values()
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "constants_s": t2 - t1, "module": zeta_heights.cli.__file__}))
