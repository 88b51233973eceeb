"""Machine-speed reference: a fixed kernel that never touches the package.

The machine this benchmark was tuned on changes speed by up to half for
minutes at a time (other tenants on the host), which moves every timing of a
run together.  Each run times this kernel at intervals, in the same process
as the work it measures, and run.py scales the run's timings by
REFERENCE_S / (median kernel time of the run).  The kernel mixes the two
kinds of work the package does: interpreted code that builds small objects,
and numpy over small and over cache-exceeding arrays.  A change to the
package cannot move the kernel, so it cannot move the scale.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the reference machine in a fast phase; only fixes
# the unit of the scaled figures
REFERENCE_S = 0.007
_SMALL = np.linspace(0.0, 1.0, 20_000)
_LARGE = np.linspace(0.0, 1.0, 200_000)
_BUF = np.empty_like(_LARGE)


def kernel() -> float:
    acc = 0.0
    for i in range(2500):
        d = {"lhs": abs(i * 0.5 - 3.0), "rhs": 1.0 + (i % 7) * 0.25}
        t = (d["rhs"] - d["lhs"], d["lhs"] <= d["rhs"], f"c{i % 13}")
        acc += t[0] if t[1] else -t[0]
    for _ in range(10):
        acc += float(np.cos(_SMALL).sum())
    for _ in range(5):
        np.multiply(_LARGE, 0.5, out=_BUF)
        np.add(_BUF, _LARGE, out=_BUF)
        acc += float(_BUF.sum())
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
