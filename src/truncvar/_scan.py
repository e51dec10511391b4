"""One-pass alternating-extreme scan: one trigger machine and what it records.

The scan walks the samples once. It starts undecided, tracking both the
running minimum and the running maximum from the left end. The first time
the value sits at least ``c`` above the running minimum (an up trigger) or
at least ``c`` below the running maximum (a down trigger) fixes the
orientation; afterwards the scan alternates between a peak state tracking
the running maximum and a valley state tracking the running minimum,
switching whenever the path moves at least ``c`` away from the tracked
extreme. Threshold tests are exact floating-point ``>=`` comparisons, so
inputs straddling the level by one ulp behave deterministically.

There is one state machine, ``_window_scan``, and ``window_scan`` in
``_native.cpp`` makes the same comparisons and additions step for step;
``_window_scan`` is its fallback and its reference. Both have one contract:
besides the totals, each writes by index only the buffers its caller hands
it, the window starts and the skeleton (below), and ``full_scan``'s arrays
from the state each sample leaves, so every scan is one walk of the
samples on either route. ``_machine`` runs the native one when the library
loads and ``_window_scan`` otherwise; the totals-only ``tv_scan``,
``regime_scan`` and ``full_scan`` go through it. Only the skeleton scan
``tv_scan(..., True)``, which ``truncated_variation.sweep`` runs, calls
``_window_scan`` on either route.

The *skeleton* at level c is the extreme anchored at each trigger, in time
order, then the extreme tracked when the samples run out (the running
minimum if nothing triggered), i.e. the regime lows and highs interleaved.
For every level ``c' >= c`` the totals scan of the skeleton returns
bit-identical ``(up, down, direction)`` to the scan of the samples: every
sample left out lies within ``c`` of the extremes around it, so at ``c'``
it never becomes an anchored extreme, and a trigger it fires in the scan
of the samples fires at the next skeleton value instead, from the same
anchor. The scan of the skeleton thus adds the same anchor differences in
the same order. A skeleton has at most n values and is itself a path, so
the skeleton of a skeleton at a still higher level is again exact for the
samples.

A skeleton needs no scan at all at a level no larger than its smallest gap.
Its values alternate strictly (each window's extreme lies on the far side
of the trigger that opened it), and every gap ``|s[k+1] - s[k]|`` is at
least c: the trigger value is at least c from the anchor, the window's
extreme is no nearer, and rounded subtraction is monotone. At any level
``c'`` with ``c <= c' <= min gap`` the scan of the skeleton therefore
triggers at every value (each test is an exact ``>=`` on that same rounded
gap), anchors each regime at the previous value and closes it at the next,
so ``up`` is the left-to-right sum of ``(s[k+1] - s[k]) - c'`` over the
rises and ``down`` that of ``(s[k] - s[k+1]) - c'`` over the falls, the
same operations on the same operands as the scan; negating a difference is
exact, so the falls are ``|s[k+1] - s[k]|`` too. A skeleton of one value
gives 0.0. ``truncated_variation.sweep`` prices levels this way.

The Python kernel works on the samples as Python floats, and the native
one on C doubles; on both a sum past float64 gives ``inf`` without a
warning. Every kernel call checks its totals once: if ``up + down``
overflows, ``PathError`` ``tv-overflow`` is raised instead of returning
``inf``. The totals bound every partial sum the per-sample arrays hold, so
those stay finite. The band ``extreme -+ c/2`` is not bounded by them:
``full_scan`` computes it without warnings, and ``lazy_approximation``
raises ``band-overflow`` when it is not finite. Accumulation is left to
right, which keeps reruns bit-reproducible.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _native
from .path_model import checked_total

# state / direction codes shared with the public modules
SEEK = 0
UP = 1
DOWN = 2

DIRECTION_LABELS = {SEEK: "none", UP: "up-first", DOWN: "down-first"}
KIND_LABELS = {SEEK: "seek", UP: "up", DOWN: "down"}


def _window_scan(values, c, starts=None, skeleton=None, out=None):
    """``(up, down, direction, k)``: the totals at level c and the window count.

    The one state machine, with the contract of ``window_scan`` in
    ``_native.cpp``. It walks the samples as Python floats, the same IEEE
    double operations as on numpy scalars, in O(1) working memory besides
    the buffers it is given, and writes them by index through memoryviews:
    the window starts ``[0, t0, t1, ...]`` into ``starts`` (int64) and the
    skeleton into ``skeleton`` (float64), which hold n + 1 entries of which
    the k first are written, and into ``out`` (n entries each) the
    ``approx``, ``up`` and ``down`` of ``full_scan`` from the state each
    sample leaves; the undecided window gets ``up = down = 0.0`` and the
    band of its final extreme. A buffer that is None is skipped. The
    totals are not checked here; its callers run ``checked_total``.
    """
    c = float(c)
    half = c / 2.0
    samples = memoryview(values)
    if starts is not None:
        starts = memoryview(starts)
        starts[0] = 0
    if skeleton is not None:
        skeleton = memoryview(skeleton)
    write = out is not None
    if write:
        approx, up, down = (memoryview(a) for a in out)
    run_min = run_max = samples[0]
    phase = direction = SEEK
    up_total = down_total = 0.0
    anchor_min = 0.0  # valley extreme the open peak regime started from
    anchor_max = 0.0  # peak extreme the open valley regime started from
    seek_end, w = len(samples), 0  # w: the index of the open window
    # the undecided phase is tested last: it is rarely live after the first trigger
    for j, v in enumerate(samples):
        if phase == UP:
            if v > run_max:
                run_max = v
            if not run_max - v >= c:
                if write:
                    approx[j] = run_max - half
                    up[j] = up_total + ((run_max - anchor_min) - c)
                    down[j] = down_total
                continue
            up_total = up_total + ((run_max - anchor_min) - c)
            anchor = anchor_max = run_max
            phase = DOWN
            run_min = v
        elif phase == DOWN:
            if v < run_min:
                run_min = v
            if not v - run_min >= c:
                if write:
                    approx[j] = run_min + half
                    up[j] = up_total
                    down[j] = down_total + ((anchor_max - run_min) - c)
                continue
            down_total = down_total + ((anchor_max - run_min) - c)
            anchor = anchor_min = run_min
            phase = UP
            run_max = v
        else:
            if v < run_min:
                run_min = v
            if v > run_max:
                run_max = v
            if v - run_min >= c:
                direction = phase = UP
                anchor = anchor_min = run_min
                seek_band = anchor + half
                run_max = v
            elif run_max - v >= c:
                direction = phase = DOWN
                anchor = anchor_max = run_max
                seek_band = anchor - half
                run_min = v
            else:
                continue  # up and down stay 0.0, set with the band below
            seek_end = j
        # sample j fired a trigger; anchor is the extreme of the window it closes
        if skeleton is not None:
            skeleton[w] = anchor
        w += 1
        if starts is not None:
            starts[w] = j
        if write:  # the new window's extreme is v
            if phase == UP:
                approx[j] = run_max - half
                up[j] = up_total + ((run_max - anchor_min) - c)
                down[j] = down_total
            else:
                approx[j] = run_min + half
                up[j] = up_total
                down[j] = down_total + ((anchor_max - run_min) - c)
    if phase == UP:
        up_total = up_total + ((run_max - anchor_min) - c)
    elif phase == DOWN:
        down_total = down_total + ((anchor_max - run_min) - c)
    if skeleton is not None:
        skeleton[w] = run_max if phase == UP else run_min
    if write:  # the undecided window holds the band of its final extreme
        if w == 0:
            seek_band = run_min + half
        for a, fill in zip(out, (seek_band, 0.0, 0.0)):
            a[:seek_end] = fill
    return up_total, down_total, direction, w + 1


class ScanResult(NamedTuple):
    approx: np.ndarray
    up: np.ndarray
    down: np.ndarray


class Regimes(NamedTuple):
    up_times: np.ndarray
    down_times: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    direction: int


def _machine(values, c, starts=None, skeleton=None, out=None):
    """``(up, down, direction, k)`` from the native trigger machine when the
    library loads, else from ``_window_scan``; both write the same buffers
    (see ``_window_scan``). Raises ``tv-overflow`` when ``up + down``
    overflows.
    """
    lib = _native.library()
    if lib is None:
        up_total, down_total, direction, k = _window_scan(values, c, starts, skeleton, out)
    else:
        values = np.ascontiguousarray(values, np.float64)
        buffers = (None if a is None else a.ctypes.data for a in (starts, skeleton))
        arrays = (None,) * 3 if out is None else (a.ctypes.data for a in out)
        totals = np.empty(3)
        k = lib.window_scan(
            values.ctypes.data, values.shape[0], c, *buffers, *arrays, totals.ctypes.data
        )
        up_total, down_total, direction = totals.tolist()
        direction = int(direction)
    checked_total(up_total + down_total)
    return up_total, down_total, direction, k


def tv_scan(
    values: np.ndarray, c: float, keep_skeleton: bool = False
) -> tuple[float, float, int, np.ndarray | None]:
    """Totals ``(up, down, direction)`` at level c, plus the level-c skeleton.

    The skeleton is None unless ``keep_skeleton`` is set; without it the
    machine records nothing per trigger.
    """
    if not keep_skeleton:
        return (*_machine(values, c)[:3], None)
    # The skeleton scan behind sweep's ladder stays on the Python machine
    # until the benchmark's per-call bookkeeping stops growing its peak
    # memory with the call count, which a faster ladder would read as a
    # regression (ROADMAP items 1 and 2).
    skeleton = np.empty(values.shape[0] + 1)
    up_total, down_total, direction, k = _window_scan(values, c, skeleton=skeleton)
    checked_total(up_total + down_total)
    return up_total, down_total, direction, skeleton[:k]


def _alternate(a, direction):
    """Split values listed per regime in time order by the regime's kind:
    (those of up triggers or lows, those of down triggers or highs)."""
    first = 1 if direction == DOWN else 0
    return a[first::2].copy(), a[1 - first :: 2].copy()


def regime_scan(values: np.ndarray, c: float) -> Regimes:
    """Trigger indices and window extremes, without the per-sample arrays."""
    # at most one trigger per sample; pages past the k entries written stay untouched
    n = values.shape[0]
    starts, skeleton = np.empty(n + 1, np.int64), np.empty(n + 1)
    _, _, direction, k = _machine(values, c, starts, skeleton)
    up_times, down_times = _alternate(starts[1:k], direction)
    return Regimes(up_times, down_times, *_alternate(skeleton[:k], direction), direction)


def full_scan(values: np.ndarray, c: float) -> ScanResult:
    """Per-sample band approximation and rise/fall pair.

    ``approx`` is the flattest in-band path (tracked extreme shifted by
    ``c/2`` toward the data), ``up``/``down`` are the cumulative
    nondecreasing components. The trigger machine writes them as it goes.
    """
    n = values.shape[0]
    out = ScanResult(np.empty(n), np.empty(n), np.empty(n))
    _machine(values, c, out=out)
    return out
