"""Alternating rise/fall regime detection.

The scan splits a path into maximal windows separated by trigger indices:
an up trigger is the first sample sitting at least ``c`` above the running
minimum of its window, a down trigger the first sample at least ``c`` below
the running maximum. Valley windows track the running minimum, peak windows
the running maximum, and the two kinds strictly alternate. This index
skeleton is what the approximation and variation routines are built on.

Conventions, fixed here once for the whole package:

 - The window containing the left end is undecided ("seek") until the first
   trigger fires; the trigger's direction orients the whole decomposition.
 - If no trigger ever fires the direction is ``"none"`` and the path is
   treated like the up-first case with an empty trigger list (one valley
   window covering everything).
 - Windows are half open: a trigger index starts the next window and is
   excluded from the previous one. The extreme reported for a window is
   taken over its own indices only; the trailing partial window's extreme
   runs up to the last sample.
 - Threshold tests are exact floating-point ``>=`` comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from ._scan import DOWN, SEEK, UP, _machine
from .path_model import PathError, SampledPath, _frozen, level_value

# the labels of the scan's direction and state codes, indexed by code
_FIRST_DIRECTIONS = ("none", "up-first", "down-first")
_KINDS = ("seek", "up", "down")


@dataclass(frozen=True, eq=False)
class RegimeDecomposition:
    """Trigger indices plus the extreme reached in every window.

    ``up_times`` and ``down_times`` are sample indices of the up and down
    triggers, strictly interleaved (up first when ``first_direction`` is
    ``"up-first"``, down first when ``"down-first"``). ``lows`` holds the
    minimum of every valley window in scan order and ``highs`` the maximum
    of every peak window, trailing partial window included, so one of the
    two lists is usually one element longer than its trigger list.

    ``n`` and ``c`` record the source path length and level so consumers
    can detect a stale decomposition.
    """

    first_direction: str
    up_times: np.ndarray
    down_times: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    n: int
    c: float


def first_up_time(path: SampledPath, c) -> int | None:
    """Smallest index whose value sits >= c above the running minimum."""
    return _first_passage(path.values, level_value(c), up=True)


def first_down_time(path: SampledPath, c) -> int | None:
    """Smallest index whose value sits >= c below the running maximum."""
    return _first_passage(path.values, level_value(c), up=False)


_FIRST_BLOCK = 256


def _first_passage(values: np.ndarray, c: float, up: bool) -> int | None:
    """The first index at least c from the running extreme, or None.

    Scans blocks of ``_FIRST_BLOCK``, then twice as many samples each time,
    carrying the running extreme from block to block, and stops at the
    first block with a hit. Minimum and maximum are exact, so every
    comparison is the one a whole-path accumulate would make.
    """
    tracked = np.minimum if up else np.maximum
    run = values[0]
    lo, size = 0, _FIRST_BLOCK
    while lo < values.shape[0]:
        block = values[lo : lo + size]
        extreme = tracked(tracked.accumulate(block), run)
        hits = (block - extreme if up else extreme - block) >= c
        if hits.any():
            return lo + int(np.argmax(hits))
        run = extreme[-1]
        lo, size = lo + size, 2 * size
    return None


def detect_regimes(path: SampledPath, c) -> RegimeDecomposition:
    """Run the alternating scan and return the full index skeleton.

    The trigger machine writes the window starts ``[0, t0, t1, ...]`` and
    the skeleton, each window's extreme in time order. The windows alternate
    from the undecided one, so the odd entries of the starts and the even
    ones of the skeleton are the up triggers and the lows, unless the first
    trigger is down; ``_window_starts`` merges them back.
    """
    c = level_value(c)
    n = path.n
    # k <= n entries; pages past the k written stay untouched
    starts, skeleton = np.empty(n, np.int64), np.empty(n)
    _, _, direction, k = _machine(path.values, c, starts, skeleton)
    times = _frozen(starts[1:k:2].copy()), _frozen(starts[2:k:2].copy())
    extremes = _frozen(skeleton[0:k:2].copy()), _frozen(skeleton[1:k:2].copy())
    if direction == DOWN:
        times, extremes = times[::-1], extremes[::-1]
    return RegimeDecomposition(_FIRST_DIRECTIONS[direction], *times, *extremes, n, c)


def running_extremes(
    path: SampledPath, decomposition: RegimeDecomposition
) -> list[tuple[str, float]]:
    """Per-sample (kind, running extreme) pairs, read off the windows.

    ``kind`` is ``"seek"`` before the first trigger, then ``"up"`` inside
    peak windows and ``"down"`` inside valley windows. The extreme is the
    running maximum in peak windows (and in an undecided window of a
    down-first path) and the running minimum otherwise, restarted at each
    trigger. On ties the earlier sample's value is kept, as the scan keeps
    it, so the pairs equal the sample-by-sample scan's bit for bit, the sign
    of a zero extreme included.

    Both routes walk the samples once from the window starts: the native
    library (see ``_native``) builds the list, one tuple per run of equal
    pairs, and otherwise a plain loop does, with a new tuple where the
    extreme moves or a window starts. Either route first checks the
    decomposition against the path: ``PathError`` ``stale-decomposition``
    for another length, ``bad-decomposition`` for triggers that no scan
    gives (counts that do not alternate for ``first_direction``, times that
    do not strictly increase, or a time outside ``[1, n)``).
    """
    starts, direction = _window_starts(path, decomposition)
    lib = _native.library()
    if lib is not None:
        values = np.ascontiguousarray(path.values, np.float64)
        return lib.running_pairs(
            values.ctypes.data, values.shape[0], starts.ctypes.data, starts.shape[0],
            direction == DOWN, *_KINDS,
        )
    n = path.n
    up_label, down_label = _KINDS[UP], _KINDS[DOWN]
    samples = memoryview(path.values)
    starts = iter(memoryview(starts)[1:])
    next_start = next(starts, n)
    track_max = direction == DOWN  # in the undecided window; flips at each trigger
    label, extreme = _KINDS[SEEK], samples[0]
    pair = (label, extreme)
    out: list[tuple[str, float]] = []
    for j, v in enumerate(samples):
        if j == next_start:
            next_start = next(starts, n)
            track_max = not track_max
            label = up_label if track_max else down_label
            extreme, pair = v, (label, v)
        elif v > extreme if track_max else v < extreme:
            extreme, pair = v, (label, v)
        out.append(pair)
    return out


def _window_starts(path: SampledPath, decomposition: RegimeDecomposition):
    """The window starts ``[0, t0, t1, ...]`` of ``decomposition`` on
    ``path``, and the direction of its first trigger; ``PathError`` unless
    the triggers are ones a scan of ``path`` could give."""
    if decomposition.n != path.n:
        raise PathError(
            "stale-decomposition",
            f"decomposition built for n={decomposition.n}, path has n={path.n}",
        )
    ups = np.asarray(decomposition.up_times)
    downs = np.asarray(decomposition.down_times)
    label = decomposition.first_direction
    known = isinstance(label, str) and label in _FIRST_DIRECTIONS
    direction = _FIRST_DIRECTIONS.index(label) if known else None
    first, second = (downs, ups) if direction == DOWN else (ups, downs)
    if direction is None:
        problem = f"unknown first_direction {label!r}"
    elif any(t.ndim != 1 or (t.size and t.dtype.kind not in "iu") for t in (ups, downs)):
        problem = "trigger times must be one-dimensional integer arrays"
    elif direction == SEEK and first.size + second.size:
        problem = "a decomposition without a direction has no triggers"
    elif first.size - second.size not in (0, 1):
        problem = (
            f"{ups.size} up and {downs.size} down triggers do not alternate for "
            f"{decomposition.first_direction}"
        )
    else:
        starts = np.zeros(1 + ups.size + downs.size, np.int64)
        starts[1::2], starts[2::2] = first, second
        if np.all(starts[1:] > starts[:-1]) and starts[-1] < path.n:
            return starts, direction
        problem = f"triggers must strictly increase within [1, {path.n})"
    raise PathError("bad-decomposition", problem)
