"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of a core drifts with the load of
other guests: a fixed pure-Python loop takes from about 5 to about 9 ms
from one second to the next, and whole minutes run in a fast or a slow
state. Timing the program alone then measures the host's load as much as
the program. The benchmark therefore times a fixed calibration loop between
every two calls, on the same core, and reports each call's time scaled to
the reference speed: ``seconds * CAL_REF_S / local calibration time``.
A faster program lowers the scaled times just as it lowers the raw ones;
a busier host lowers neither. The raw wall-clock figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# The calibration loop's time on the reference machine (2-core Intel Xeon
# virtual machine, Python 3.11.7) in its fast state, so that scaled times read
# as wall-clock milliseconds there.
CAL_REF_S = 2.0e-3
CAL_ITERS = 8_000
WINDOW = 3  # a call is scaled by the median of the 2 * WINDOW calibrations around it

USABLE_CORES = len(os.sched_getaffinity(0))  # read at import, before any pinning
pinned_core = None  # the core pin_to_one_core chose

_VALUES = np.array([float((i * 7919) % 1013) / 101.3 for i in range(CAL_ITERS)])


def calibrate() -> float:
    """Seconds taken by a fixed alternating-extreme scan over a numpy array.

    The same kind of work as the Python fallback's scan kernels: a Python
    loop that indexes a float64 array and compares and adds the scalars. A
    loop over a Python list tracked the kernels' speed three times less
    closely, as the host's load slows the two differently. The loop is
    independent of the package, so no change to the program moves it.
    """
    values = _VALUES
    t0 = time.perf_counter()
    lo = hi = values[0]
    total = 0.0
    for j in range(values.shape[0]):
        v = values[j]
        if v < lo:
            lo = v
        if v > hi:
            hi = v
        if hi - v >= 5.0:
            total += hi - v
            hi = lo = v
    return time.perf_counter() - t0


def pin_to_one_core() -> int:
    """Pin this process (and children it starts) to one core; returns the core.

    The calibration then measures the core the calls run on, and the
    scheduler does not move the work between cores of different speed.
    """
    global pinned_core
    pinned_core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned_core})
    return pinned_core


def scale_factors(cals: list) -> list:
    """Per-call factors from ``cals``, the calibrations before and after each call.

    ``cals[i]`` ran just before call ``i`` and ``cals[i + 1]`` just after
    it. A call's factor is ``CAL_REF_S`` over the median of the calibrations
    within ``WINDOW`` of it on either side: one calibration is too short to
    read the speed alone, and a few seconds of them follow the drift.
    """
    factors = []
    for i in range(len(cals) - 1):
        near = cals[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        factors.append(CAL_REF_S / statistics.median(near))
    return factors


def scaled(seconds: float, before: list, after: list) -> float:
    """``seconds`` scaled by the calibrations taken just before and after them."""
    return seconds * CAL_REF_S / statistics.median(before + after)
