"""One-pass alternating-extreme scan: one trigger machine, numpy for the rest.

The scan walks the samples once. It starts undecided, tracking both the
running minimum and the running maximum from the left end. The first time
the value sits at least ``c`` above the running minimum (an up trigger) or
at least ``c`` below the running maximum (a down trigger) fixes the
orientation; afterwards the scan alternates between a peak state tracking
the running maximum and a valley state tracking the running minimum,
switching whenever the path moves at least ``c`` away from the tracked
extreme. Threshold tests are exact floating-point ``>=`` comparisons, so
inputs straddling the level by one ulp behave deterministically.

There is one state machine, ``_window_scan``. Besides the totals it
records the index of every trigger, one append per trigger to an int64
buffer. ``window_scan`` in ``_native.cpp`` makes the same comparisons and
additions step for step, and writes the skeleton (below) and
``full_scan``'s arrays from its state as it goes; ``_native`` lists which
scans run it. ``_window_scan`` is its fallback and its reference. On that
route the triggers cut the samples into windows
``[0, t0), [t0, t1), ..., [tk, n)``: the undecided window, then peak and
valley windows alternating, and every per-sample array is derived from
the trigger indices with whole-array numpy, bit-identical to stepping the
scan through the samples:

- The tracked extreme, the running max or min of the window so far, is one
  running maximum over ``window + 1j * (+-value)``: numpy orders complex
  numbers lexicographically, so the window number restarts it at each
  trigger; negating a minimum window's values is exact; and a tie keeps the
  earlier value, as the scan's strict ``<``/``>`` updates keep the first
  occurrence (this decides the sign of a ``+-0.0`` extreme).
- The skeleton (below), ``lows`` and ``highs`` are the windows' extremes:
  ``full_scan`` reads the anchors it needs off the running extreme,
  ``tv_scan`` and the Python route of ``regime_scan`` reduce each window
  with ``minimum/maximum.reduceat`` and, if the samples hold a ``-0.0``,
  give a zero extreme the sign of the window's first zero.
- ``approx``, ``up`` and ``down`` apply the scan's own floating-point
  operations element by element, ``extreme -+ c/2`` and
  ``closed + ((extreme - anchor) - c)``; ``closed``, the sum over the
  closed regimes, comes from ``np.cumsum``, which adds left to right as the
  scan does.

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


def _window_scan(values, c):
    """``(up, down, direction, starts)``: the totals at level c, and the
    start of every window, ``[0, t0, t1, ...]``, i.e. 0 then the sample
    index of every trigger, as an int64 ``array`` (8 bytes an index, read
    with ``np.frombuffer``).

    The one state machine. It walks the samples as Python floats, the same
    IEEE double operations as on numpy scalars, in O(1) working memory
    besides ``starts``.
    """
    c = float(c)
    samples = memoryview(values)
    starts = array("q", [0])
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
                anchor_min = run_min
                starts.append(j)
                run_max = v
            elif run_max - v >= c:
                direction = phase = DOWN
                anchor_max = run_max
                starts.append(j)
                run_min = v
        elif phase == UP:
            if v > run_max:
                run_max = v
            if run_max - v >= c:
                up_total = up_total + ((run_max - anchor_min) - c)
                anchor_max = run_max
                starts.append(j)
                phase = DOWN
                run_min = v
        else:
            if v < run_min:
                run_min = v
            if v - run_min >= c:
                down_total = down_total + ((anchor_max - run_min) - c)
                anchor_min = run_min
                starts.append(j)
                phase = UP
                run_max = v
    if phase == UP:
        up_total = up_total + ((run_max - anchor_min) - c)
    elif phase == DOWN:
        down_total = down_total + ((anchor_max - run_min) - c)
    checked_total(up_total + down_total)
    return up_total, down_total, direction, starts


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


_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)


def _window_extremes(values, starts, direction):
    """The extreme each window's scan ends on: its first max (or min).

    Windows alternate between tracking the minimum and the maximum; the
    undecided window tracks the maximum when the first trigger is a down
    trigger.
    """
    out = np.minimum.reduceat(values, starts)
    first_max = 0 if direction == DOWN else 1
    out[first_max::2] = np.maximum.reduceat(values, starts)[first_max::2]
    if not out.all() and (values.view(np.int64) == _NEGATIVE_ZERO).any():
        # a +-0.0 tie: the scan keeps the window's first zero
        zero = np.flatnonzero(out == 0.0)
        at = np.flatnonzero(values == 0.0)
        out[zero] = values[at[np.searchsorted(at, starts[zero])]]
    return out


def window_samples(values, starts, tracks):
    """Per sample: its window, the window's kind (SEEK, UP or DOWN) and the
    running extreme of the window so far, as the scan tracks it.

    ``starts`` are the window starts ``[0, t0, t1, ...]`` and ``tracks``
    says per window whether it tracks the maximum. See the module docstring
    for why the complex running maximum is exact.
    """
    win = np.zeros(values.shape[0], np.intp)
    win[starts[1:]] = 1
    np.cumsum(win, out=win)
    flip = np.take(~tracks, win)
    z = np.empty(values.shape[0], np.complex128)
    z.real = win
    z.imag = values
    np.negative(z.imag, out=z.imag, where=flip)
    np.maximum.accumulate(z, out=z)
    np.negative(z.imag, out=z.imag, where=flip)
    kind_of = np.where(tracks, UP, DOWN).astype(np.int8)
    kind_of[0] = SEEK
    return win, np.take(kind_of, win), z.imag.copy()


def tv_scan(
    values: np.ndarray, c: float, keep_skeleton: bool = False
) -> tuple[float, float, int, np.ndarray | None]:
    """Totals ``(up, down, direction)`` at level c, plus the level-c skeleton.

    The skeleton is None unless ``keep_skeleton`` is set.
    """
    up_total, down_total, direction, starts = _window_scan(values, c)
    skeleton = (
        _window_extremes(values, np.frombuffer(starts, np.int64), direction)
        if keep_skeleton
        else None
    )
    return up_total, down_total, direction, skeleton


def _alternate(a, direction):
    """Split values listed per regime in time order by the regime's kind:
    (those of up triggers or lows, those of down triggers or highs)."""
    first = 1 if direction == DOWN else 0
    return a[first::2].copy(), a[1 - first :: 2].copy()


def _native_window_scan(lib, values, c, keep_skeleton, out=None):
    """``(direction, starts, skeleton)`` from the library's trigger machine,
    which makes ``_window_scan``'s comparisons and additions step for step;
    the skeleton is None unless ``keep_skeleton`` is set. With ``out``, a
    ``ScanResult`` of n-entry arrays, it also writes ``full_scan``'s arrays
    into them. Raises ``tv-overflow`` as ``_window_scan`` does.
    """
    values = np.ascontiguousarray(values, np.float64)
    n = values.shape[0]
    # at most one trigger per sample; pages past the k entries written stay untouched
    starts = np.empty(n + 1, np.int64)
    skeleton = np.empty(n + 1) if keep_skeleton else None
    arrays = (None,) * 3 if out is None else (a.ctypes.data for a in out)
    totals = np.empty(3)
    k = lib.window_scan(
        values.ctypes.data, n, c, starts.ctypes.data,
        None if skeleton is None else skeleton.ctypes.data, *arrays, totals.ctypes.data,
    )
    up_total, down_total, direction = totals.tolist()
    checked_total(up_total + down_total)
    return int(direction), starts[:k], None if skeleton is None else skeleton[:k]


def regime_scan(values: np.ndarray, c: float) -> Regimes:
    """Trigger indices and window extremes, without the per-sample arrays."""
    lib = _native.library()
    if lib is not None:
        direction, starts, skeleton = _native_window_scan(lib, values, c, True)
    else:
        _, _, direction, starts = _window_scan(values, c)
        starts = np.frombuffer(starts, np.int64)
        skeleton = _window_extremes(values, starts, direction)
    up_times, down_times = _alternate(starts[1:], direction)
    return Regimes(up_times, down_times, *_alternate(skeleton, direction), direction)


def _closed_sums(later, earlier, closed, c):
    """Per window, the left-to-right sum of ``(later - earlier) - c`` over the
    regimes ``closed`` before it; entry i of the inputs is window i + 1."""
    sums = np.zeros(closed.shape[0] + 2)
    gain = sums[2:]
    np.subtract(later, earlier, out=gain, where=closed)
    np.subtract(gain, c, out=gain, where=closed)
    # the +0.0 of every other window leaves each partial sum unchanged
    return np.cumsum(sums, out=sums)


def full_scan(values: np.ndarray, c: float) -> ScanResult:
    """Per-sample band approximation and rise/fall pair.

    ``approx`` is the flattest in-band path (tracked extreme shifted by
    ``c/2`` toward the data), ``up``/``down`` are the cumulative
    nondecreasing components. The native trigger machine writes them as it
    goes; on the numpy route the window kind and running extreme of each
    sample are temporaries (``regime_detector`` exposes them), freed as soon
    as they are used, so the peak stays near the size of the outputs.
    """
    n = values.shape[0]
    half = c / 2.0
    lib = _native.library()
    if lib is not None:
        out = ScanResult(np.empty(n), np.empty(n), np.empty(n))
        _native_window_scan(lib, values, c, False, out)
        return out
    _, _, direction, starts = _window_scan(values, c)
    starts = np.frombuffer(starts, np.int64)
    m = starts.shape[0] - 1  # the number of triggers
    tracks = np.zeros(m + 1, bool)  # the windows that track the maximum
    tracks[0 if direction == DOWN else 1 :: 2] = True
    win, kind, extreme = window_samples(values, starts, tracks)
    triggers = starts[1:]
    # skel[1:] is the skeleton, and skel[w] the anchor of window w >= 1
    skel = np.empty(m + 2)
    skel[0] = 0.0
    skel[1:-1] = extreme[triggers - 1]
    skel[-1] = extreme[-1]
    seek_end = triggers[0] if m else n
    del starts, triggers

    peaks = tracks[1:m]
    up = np.take(_closed_sums(skel[2 : m + 1], skel[1:m], peaks, c), win)
    down = np.take(_closed_sums(skel[1:m], skel[2 : m + 1], ~peaks, c), win)
    diff = np.take(skel[: m + 1], win)
    del win
    peak = kind == UP
    valley = kind == DOWN
    del kind
    np.subtract(extreme, diff, out=diff, where=peak)
    np.subtract(diff, extreme, out=diff, where=valley)
    np.subtract(diff, c, out=diff)
    np.add(up, diff, out=up, where=peak)
    np.add(down, diff, out=down, where=valley)
    del diff
    # a band past float64 holds +-inf, and lazy_approximation reports it
    with np.errstate(over="ignore"):
        seek = skel[1] - half if direction == DOWN else skel[1] + half
        del skel
        approx = np.empty(n)
        np.subtract(extreme, half, out=approx, where=peak)
        np.add(extreme, half, out=approx, where=valley)
    approx[:seek_end] = seek
    return ScanResult(approx, up, down)
