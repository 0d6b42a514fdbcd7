"""The package's import graph: every command pays for it before any work, so
the heavy scipy subpackages stay out of it.  scipy.stats alone would drag in
optimize, spatial, ndimage and interpolate; integrate is imported at first
use by the one oracle that needs it.  Worker pools, with multiprocessing
behind them, are likewise made at first use."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """import sys
sys.path.insert(0, sys.argv[1])
import randstruct.cli, randstruct.verify, randstruct.experiments
print(" ".join(m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize",
                           "multiprocessing", "concurrent.futures.process")
               if m in sys.modules))
from randstruct import exact
print(repr(float(exact.pills_pmf(10).sum())))
"""


def test_import_leaves_out_scipy_stats_integrate_and_optimize():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded, total = proc.stdout.splitlines()
    assert loaded == ""
    # the deferred import of scipy.integrate still serves the pills oracle
    assert abs(float(total) - 1.0) < 1e-12
