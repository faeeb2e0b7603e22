"""No sum in a cold suite runs over more than 1 000 terms.

Every long series of the catalog is closed by a tail in zeta orders, or
summed as a short series in zeta orders over a stored table, so a sum of
many thousand terms is a route that lost its tail.  A fresh process wraps
``math.fsum``, through which every series' terms are added, before it
imports the package, and records how many inputs each call gets over one
``Registry().run_suite()``.
"""

import os
import subprocess
import sys
from pathlib import Path

MAX_TERMS = 1_000

_SCRIPT = """\
import math
fsum, sizes = math.fsum, []
def counted(xs):
    xs = list(xs)
    sizes.append(len(xs))
    return fsum(xs)
math.fsum = counted
from gammalab.registry import Registry
Registry().run_suite()
print(len(sizes), max(sizes))
"""


def test_no_long_sum_in_a_cold_suite():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    calls, longest = map(int, out.stdout.split())
    # the wrapper sees the suite's sums, and none is long
    assert calls > 100
    assert longest <= MAX_TERMS, longest
