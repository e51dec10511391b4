"""One-pass alternating-extreme scan kernels.

The scan walks the samples once. It starts undecided, tracking both the
running minimum and the running maximum from the left end. The first time
the value sits at least ``c`` above the running minimum (an up trigger) or
at least ``c`` below the running maximum (a down trigger) fixes the
orientation; afterwards the scan alternates between a peak state tracking
the running maximum and a valley state tracking the running minimum,
switching whenever the path moves at least ``c`` away from the tracked
extreme. Threshold tests are exact floating-point ``>=`` comparisons, so
inputs straddling the level by one ulp behave deterministically.

The totals scan can also emit its level-c *skeleton*: the extreme anchored
at each trigger, in time order, then the extreme tracked when the samples
run out (the running minimum if nothing triggered). These are the regime
lows and highs of the per-sample scan, interleaved. For every level
``c' >= c`` the totals scan of the skeleton returns bit-identical
``(up, down, direction)`` to the scan of the samples: every sample left
out lies within ``c`` of the extremes around it, so at ``c'`` it never
becomes an anchored extreme, and a trigger it fires in the scan of the
samples fires at the next skeleton value instead, from the same anchor.
The scan of the skeleton thus adds the same anchor differences in the
same order. A skeleton
has at most n values and is itself a path, so the skeleton of a skeleton
at a still higher level is again exact for the samples.

Kernels are compiled with numba when it is importable; the plain-Python
definitions below are both the fallback and the reference semantics.
Accumulation is left to right, which keeps reruns bit-reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

try:
    import numba
except ImportError:  # pragma: no cover
    numba = None

# state / direction codes shared with the public modules
SEEK = 0
UP = 1
DOWN = 2

DIRECTION_LABELS = {SEEK: "none", UP: "up-first", DOWN: "down-first"}
KIND_LABELS = {SEEK: "seek", UP: "up", DOWN: "down"}


def _tv_scan_impl(values, c, skeleton):
    """Totals-only scan: returns (up_total, down_total, direction_code, k).

    O(1) working memory; this is the fast path for truncated-variation
    queries. A nonempty ``skeleton`` buffer (length at least n) receives the
    level-c skeleton in ``skeleton[:k]``; with an empty buffer ``k`` is 0.
    """
    n = values.shape[0]
    keep = skeleton.shape[0] > 0
    k = 0
    run_min = values[0]
    run_max = values[0]
    phase = 0
    direction = 0
    up_total = 0.0
    down_total = 0.0
    anchor_min = 0.0  # valley extreme the open peak regime started from
    anchor_max = 0.0  # peak extreme the open valley regime started from
    for j in range(n):
        v = values[j]
        if phase == 0:
            if v < run_min:
                run_min = v
            if v > run_max:
                run_max = v
            if v - run_min >= c:
                direction = 1
                phase = 1
                anchor_min = run_min
                if keep:
                    skeleton[k] = anchor_min
                    k += 1
                run_max = v
            elif run_max - v >= c:
                direction = 2
                phase = 2
                anchor_max = run_max
                if keep:
                    skeleton[k] = anchor_max
                    k += 1
                run_min = v
        elif phase == 1:
            if v > run_max:
                run_max = v
            if run_max - v >= c:
                up_total = up_total + ((run_max - anchor_min) - c)
                anchor_max = run_max
                if keep:
                    skeleton[k] = anchor_max
                    k += 1
                phase = 2
                run_min = v
        else:
            if v < run_min:
                run_min = v
            if v - run_min >= c:
                down_total = down_total + ((anchor_max - run_min) - c)
                anchor_min = run_min
                if keep:
                    skeleton[k] = anchor_min
                    k += 1
                phase = 1
                run_max = v
    if phase == 1:
        up_total = up_total + ((run_max - anchor_min) - c)
    elif phase == 2:
        down_total = down_total + ((anchor_max - run_min) - c)
    if keep:
        skeleton[k] = run_max if phase == 1 else run_min
        k += 1
    return up_total, down_total, direction, k


def _full_scan_impl(values, c, half):
    """Per-sample scan.

    Returns (approx, up, down, kind, extreme, up_times, down_times, lows,
    highs, direction). ``approx`` is the flattest in-band path (tracked
    extreme shifted by ``half`` toward the data), ``up``/``down`` are the
    cumulative nondecreasing components, ``kind``/``extreme`` tag each
    sample with its window state and running extreme.
    """
    n = values.shape[0]
    approx = np.empty(n, np.float64)
    up = np.empty(n, np.float64)
    down = np.empty(n, np.float64)
    kind = np.empty(n, np.int8)
    extreme = np.empty(n, np.float64)
    cap = n // 2 + 1
    up_idx = np.empty(cap, np.int64)
    dn_idx = np.empty(cap, np.int64)
    lows = np.empty(cap + 1, np.float64)
    highs = np.empty(cap + 1, np.float64)
    n_up = 0
    n_dn = 0
    n_lo = 0
    n_hi = 0
    direction = 0
    phase = 0
    run_min = values[0]
    run_max = values[0]
    up_sum = 0.0  # closed peak-regime contributions
    down_sum = 0.0  # closed valley-regime contributions
    anchor_min = 0.0
    anchor_max = 0.0

    for j in range(n):
        v = values[j]
        if phase == 0:
            if v < run_min:
                run_min = v
            if v > run_max:
                run_max = v
            if v - run_min >= c:
                direction = 1
                phase = 1
                anchor_min = run_min
                lows[n_lo] = run_min
                n_lo += 1
                up_idx[n_up] = j
                n_up += 1
                run_max = v
                # settle the undecided prefix: constant band at the window min
                m = values[0]
                fc0 = anchor_min + half
                for i in range(j):
                    if values[i] < m:
                        m = values[i]
                    extreme[i] = m
                    approx[i] = fc0
                    up[i] = 0.0
                    down[i] = 0.0
                    kind[i] = 0
                extreme[j] = v
                approx[j] = v - half
                up[j] = up_sum + ((v - anchor_min) - c)
                down[j] = down_sum
                kind[j] = 1
            elif run_max - v >= c:
                direction = 2
                phase = 2
                anchor_max = run_max
                highs[n_hi] = run_max
                n_hi += 1
                dn_idx[n_dn] = j
                n_dn += 1
                run_min = v
                m = values[0]
                fc0 = anchor_max - half
                for i in range(j):
                    if values[i] > m:
                        m = values[i]
                    extreme[i] = m
                    approx[i] = fc0
                    up[i] = 0.0
                    down[i] = 0.0
                    kind[i] = 0
                extreme[j] = v
                approx[j] = v + half
                down[j] = down_sum + ((anchor_max - v) - c)
                up[j] = up_sum
                kind[j] = 2
        elif phase == 1:
            if v > run_max:
                run_max = v
            if run_max - v >= c:
                up_sum = up_sum + ((run_max - anchor_min) - c)
                anchor_max = run_max
                highs[n_hi] = run_max
                n_hi += 1
                dn_idx[n_dn] = j
                n_dn += 1
                phase = 2
                run_min = v
                kind[j] = 2
                extreme[j] = v
                approx[j] = v + half
                up[j] = up_sum
                down[j] = down_sum + ((anchor_max - v) - c)
            else:
                kind[j] = 1
                extreme[j] = run_max
                approx[j] = run_max - half
                up[j] = up_sum + ((run_max - anchor_min) - c)
                down[j] = down_sum
        else:
            if v < run_min:
                run_min = v
            if v - run_min >= c:
                down_sum = down_sum + ((anchor_max - run_min) - c)
                anchor_min = run_min
                lows[n_lo] = run_min
                n_lo += 1
                up_idx[n_up] = j
                n_up += 1
                phase = 1
                run_max = v
                kind[j] = 1
                extreme[j] = v
                approx[j] = v - half
                down[j] = down_sum
                up[j] = up_sum + ((v - anchor_min) - c)
            else:
                kind[j] = 2
                extreme[j] = run_min
                approx[j] = run_min + half
                down[j] = down_sum + ((anchor_max - run_min) - c)
                up[j] = up_sum

    if phase == 0:
        # no trigger anywhere: one flat band through the global minimum
        m = values[0]
        fc0 = run_min + half
        for i in range(n):
            if values[i] < m:
                m = values[i]
            extreme[i] = m
            approx[i] = fc0
            up[i] = 0.0
            down[i] = 0.0
            kind[i] = 0
        lows[n_lo] = run_min
        n_lo += 1
    elif phase == 1:
        highs[n_hi] = run_max
        n_hi += 1
    else:
        lows[n_lo] = run_min
        n_lo += 1

    return (
        approx,
        up,
        down,
        kind,
        extreme,
        up_idx[:n_up].copy(),
        dn_idx[:n_dn].copy(),
        lows[:n_lo].copy(),
        highs[:n_hi].copy(),
        direction,
    )


if numba is not None:
    _tv_scan = numba.njit(cache=True)(_tv_scan_impl)
    _full_scan = numba.njit(cache=True)(_full_scan_impl)
    NUMBA_ENABLED = True
else:  # pragma: no cover
    _tv_scan = _tv_scan_impl
    _full_scan = _full_scan_impl
    NUMBA_ENABLED = False


class ScanResult(NamedTuple):
    approx: np.ndarray
    up: np.ndarray
    down: np.ndarray
    kind: np.ndarray
    extreme: np.ndarray
    up_times: np.ndarray
    down_times: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    direction: int


_NO_SKELETON = np.empty(0, np.float64)


def tv_scan(
    values: np.ndarray, c: float, keep_skeleton: bool = False
) -> tuple[float, float, int, np.ndarray | None]:
    """Totals ``(up, down, direction)`` at level c, plus the level-c skeleton.

    The skeleton is None unless ``keep_skeleton`` is set.
    """
    if not keep_skeleton:
        up_total, down_total, direction, _ = _tv_scan(values, c, _NO_SKELETON)
        return float(up_total), float(down_total), int(direction), None
    buf = np.empty(values.shape[0], np.float64)
    up_total, down_total, direction, k = _tv_scan(values, c, buf)
    return float(up_total), float(down_total), int(direction), buf[:k]


def full_scan(values: np.ndarray, c: float) -> ScanResult:
    out = _full_scan(values, c, c / 2.0)
    return ScanResult(*out[:9], int(out[9]))
