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
``_native`` lists which scans run the native one, and ``_window_scan`` is
its fallback and its reference. Where the library loads, only the
skeleton scan ``tv_scan(..., True)``, which ``truncated_variation.sweep``
runs, keeps the Python machine; the totals-only ``tv_scan``,
``regime_scan`` and ``full_scan`` run the native one. Both machines share
one output contract: besides the totals, each records only what its
caller asks for, the trigger indices and the skeleton (below), which it
appends as it fires. The native one also writes ``full_scan``'s arrays
from its state as it goes; on the Python route ``full_scan`` walks the
samples again with the trigger indices and the skeleton in hand and makes
the same operations on each sample.

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

from array import array
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


def _window_scan(values, c, starts=None, skeleton=None):
    """``(up, down, direction)``: the totals at level c.

    The one state machine. It walks the samples as Python floats, the same
    IEEE double operations as on numpy scalars, in O(1) working memory
    besides the buffers it is given: ``starts`` (an int64 ``array``) gets
    the sample index of every trigger appended, and ``skeleton`` (a float64
    ``array``) the anchor at every trigger and then the final tracked
    extreme. Where a buffer is None nothing is recorded for it.
    """
    c = float(c)
    samples = memoryview(values)
    add_start = None if starts is None else starts.append
    add_extreme = None if skeleton is None else skeleton.append
    run_min = run_max = samples[0]
    phase = direction = SEEK
    up_total = down_total = 0.0
    anchor_min = 0.0  # valley extreme the open peak regime started from
    anchor_max = 0.0  # peak extreme the open valley regime started from
    for j, v in enumerate(samples):
        if phase == SEEK:
            if v < run_min:
                run_min = v
            if v > run_max:
                run_max = v
            if v - run_min >= c:
                direction = phase = UP
                anchor = anchor_min = run_min
                run_max = v
            elif run_max - v >= c:
                direction = phase = DOWN
                anchor = anchor_max = run_max
                run_min = v
            else:
                continue
        elif phase == UP:
            if v > run_max:
                run_max = v
            if not run_max - v >= c:
                continue
            up_total = up_total + ((run_max - anchor_min) - c)
            anchor = anchor_max = run_max
            phase = DOWN
            run_min = v
        else:
            if v < run_min:
                run_min = v
            if not v - run_min >= c:
                continue
            down_total = down_total + ((anchor_max - run_min) - c)
            anchor = anchor_min = run_min
            phase = UP
            run_max = v
        # sample j fired a trigger; anchor is the extreme of the window it closes
        if add_start:
            add_start(j)
        if add_extreme:
            add_extreme(anchor)
    if phase == UP:
        up_total = up_total + ((run_max - anchor_min) - c)
    elif phase == DOWN:
        down_total = down_total + ((anchor_max - run_min) - c)
    if add_extreme:
        add_extreme(run_max if phase == UP else run_min)
    checked_total(up_total + down_total)
    return up_total, down_total, direction


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


def tv_scan(
    values: np.ndarray, c: float, keep_skeleton: bool = False
) -> tuple[float, float, int, np.ndarray | None]:
    """Totals ``(up, down, direction)`` at level c, plus the level-c skeleton.

    The skeleton is None unless ``keep_skeleton`` is set; without it the
    machine records nothing per trigger, and the totals come from the native
    machine when the library loads. The skeleton scan runs ``_window_scan``.
    """
    if not keep_skeleton:
        lib = _native.library()
        if lib is not None:
            return (*_native_window_scan(lib, values, c)[:3], None)
    skeleton = array("d") if keep_skeleton else None
    up_total, down_total, direction = _window_scan(values, c, skeleton=skeleton)
    if skeleton is not None:
        skeleton = np.frombuffer(skeleton)
    return up_total, down_total, direction, skeleton


def _alternate(a, direction):
    """Split values listed per regime in time order by the regime's kind:
    (those of up triggers or lows, those of down triggers or highs)."""
    first = 1 if direction == DOWN else 0
    return a[first::2].copy(), a[1 - first :: 2].copy()


def _native_window_scan(lib, values, c, starts=None, skeleton=None, out=None):
    """``(up, down, direction, k)`` from the library's trigger machine, which
    makes ``_window_scan``'s comparisons and additions step for step. Where
    they are given, it writes the window starts ``[0, t0, t1, ...]`` and the
    skeleton into the k first entries of ``starts`` and ``skeleton``, which
    hold n + 1, and ``full_scan``'s arrays into ``out``, a ``ScanResult`` of
    n-entry arrays. Raises ``tv-overflow`` as ``_window_scan`` does.
    """
    values = np.ascontiguousarray(values, np.float64)
    buffers = (None if a is None else a.ctypes.data for a in (starts, skeleton))
    arrays = (None,) * 3 if out is None else (a.ctypes.data for a in out)
    totals = np.empty(3)
    k = lib.window_scan(
        values.ctypes.data, values.shape[0], c, *buffers, *arrays, totals.ctypes.data
    )
    up_total, down_total, direction = totals.tolist()
    checked_total(up_total + down_total)
    return up_total, down_total, int(direction), k


def regime_scan(values: np.ndarray, c: float) -> Regimes:
    """Trigger indices and window extremes, without the per-sample arrays."""
    lib = _native.library()
    if lib is not None:
        # at most one trigger per sample; pages past the k entries written stay untouched
        n = values.shape[0]
        starts, skeleton = np.empty(n + 1, np.int64), np.empty(n + 1)
        _, _, direction, k = _native_window_scan(lib, values, c, starts, skeleton)
        starts, skeleton = starts[:k], skeleton[:k]
    else:
        starts, skeleton = array("q", [0]), array("d")
        _, _, direction = _window_scan(values, c, starts, skeleton)
        starts, skeleton = np.frombuffer(starts, np.int64), np.frombuffer(skeleton)
    up_times, down_times = _alternate(starts[1:], direction)
    return Regimes(up_times, down_times, *_alternate(skeleton, direction), direction)


def full_scan(values: np.ndarray, c: float) -> ScanResult:
    """Per-sample band approximation and rise/fall pair.

    ``approx`` is the flattest in-band path (tracked extreme shifted by
    ``c/2`` toward the data), ``up``/``down`` are the cumulative
    nondecreasing components. The native trigger machine writes them as it
    goes. On the Python route ``_window_scan`` records the triggers and the
    skeleton, and one more pass over the samples makes the native machine's
    operations on each one: a strict running extreme restarted at each
    trigger, ``extreme -+ c/2``, ``closed + ((extreme - anchor) - c)``, and
    the closed totals added left to right from the skeleton.
    """
    n = values.shape[0]
    out = ScanResult(np.empty(n), np.empty(n), np.empty(n))
    lib = _native.library()
    if lib is not None:
        _native_window_scan(lib, values, c, out=out)
        return out
    starts, skeleton = array("q"), array("d")
    _, _, direction = _window_scan(values, c, starts, skeleton)
    half = c / 2.0
    # the undecided window holds the band of its final extreme, skeleton[0]
    seek_end = starts[0] if starts else n
    out.approx[:seek_end] = skeleton[0] - half if direction == DOWN else skeleton[0] + half
    out.up[:seek_end] = out.down[:seek_end] = 0.0
    approx, up, down = (memoryview(a) for a in out)
    triggers, anchors = iter(starts), iter(skeleton)
    next_start = next(triggers, n)
    up_total = down_total = anchor = 0.0
    for j, v in enumerate(memoryview(values)[seek_end:], seek_end):
        if j == next_start:  # a trigger: the window before it ends on the next anchor
            next_start = next(triggers, n)
            closed, anchor = anchor, next(anchors)
            if j == seek_end:
                peak = direction == UP
            elif peak:
                up_total = up_total + ((anchor - closed) - c)
                peak = False
            else:
                down_total = down_total + ((closed - anchor) - c)
                peak = True
            moved = True
        else:
            moved = v > extreme if peak else v < extreme
        if moved:  # the three outputs change only with the tracked extreme
            extreme = v
            if peak:
                band, rise, fall = v - half, up_total + ((v - anchor) - c), down_total
            else:
                band, rise, fall = v + half, up_total, down_total + ((anchor - v) - c)
        approx[j], up[j], down[j] = band, rise, fall
    return out
