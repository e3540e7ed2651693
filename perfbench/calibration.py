"""A fixed computation that measures how fast the machine runs during a run.

On a shared VM the same code runs up to 50% slower for seconds to minutes
at a time (see README.md, "Noise").  The runner times this computation
after every operation and scales each operation's time by

    REFERENCE_S / (the median time of this computation in the same round)

so that a round run while the machine is slow reports about what a round
run while it is fast does.  The computation uses numpy and the interpreter
only, never zflim, so a change to the program cannot change it.  It mixes
the two kinds of work the workloads do: rank-1 updates and an argmin on a
dense 639 x 799 array (4 MB), the tableau of a `certify-deep` LP, and an
interpreted loop over floats, as in the outer loops.  The array is as
large as that tableau because a smaller one, which stays in the core's own
cache, tracked the LP's slowdowns less well (README.md, "Noise").
"""

from __future__ import annotations

import time

import numpy as np

# about the median time of `work()` on the machine that defined the benchmark
# (2-vCPU KVM guest, Intel Xeon, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = 0.035

_TABLEAU = 0.1 + np.abs(np.sin(np.arange(639 * 799.0))).reshape(639, 799)


def work() -> float:
    t = _TABLEAU.copy()
    update = np.empty_like(t)
    for i in range(12):
        row = t[(7 * i) % 639]
        j = int(np.argmin(row))
        np.outer(1e-6 * t[:, j], row, out=update)
        t -= update
    acc = 0.0
    for i in range(100000):
        x = float(i % 97) * 0.5
        acc += x if x < 24.0 else -x
    return acc + float(t[0, 0])


def timed() -> float:
    """Seconds one `work()` takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
