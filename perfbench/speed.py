"""Machine-speed reference for the end-to-end times.

On a shared 2-vCPU VM the host's speed drifts by 1.4-2x for seconds to
minutes at a time. Measured: the benchmark ops and a fixed kernel slow down
together (over 150 s, 10-s medians of train-logreg op time varied 1.42x, of
op time / kernel time 1.06x). So the benchmark times this kernel next to its
ops and reports times at *nominal speed*, the speed at which one kernel call
takes ``NOMINAL_S``:

    time at nominal speed = wall time * NOMINAL_S / kernel time

The kernel touches no dpkf code, so a change to the program cannot move it;
it mixes the program's two kinds of work, interpreted loops and small numpy
array operations.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# One kernel call in the fastest state seen on a 2-vCPU Xeon VM (1.35-1.45 ms;
# 1.9-2.0 ms in its slow phases; Python 3.11, numpy 2.4), so nominal-speed
# times read as that VM's undisturbed wall times.
NOMINAL_S = 0.0014

_A = np.random.default_rng(0).standard_normal((1000, 20))


def kernel_s() -> float:
    """Wall seconds of one fixed reference computation."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(3000):
        acc += math.lgamma(k + 1.5)
    for _ in range(20):
        rows = _A * _A.sum(axis=1)[:, None]
        acc += float(rows[0, 0])
    return time.perf_counter() - t0


def kernel_median_s(reps: int = 5) -> float:
    return statistics.median(kernel_s() for _ in range(reps))
