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

from ._scan import DIRECTION_LABELS, DOWN, KIND_LABELS, SEEK, UP
from ._scan import regime_scan, window_samples
from .path_model import PathError, SampledPath, _frozen, level_value

DOWN_FIRST = DIRECTION_LABELS[DOWN]


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
    c = level_value(c)
    gain = path.values - np.minimum.accumulate(path.values)
    hits = gain >= c
    if not hits.any():
        return None
    return int(np.argmax(hits))


def first_down_time(path: SampledPath, c) -> int | None:
    """Smallest index whose value sits >= c below the running maximum."""
    c = level_value(c)
    drop = np.maximum.accumulate(path.values) - path.values
    hits = drop >= c
    if not hits.any():
        return None
    return int(np.argmax(hits))


def detect_regimes(path: SampledPath, c) -> RegimeDecomposition:
    """Run the alternating scan and return the full index skeleton."""
    c = level_value(c)
    scan = regime_scan(path.values, c)
    return RegimeDecomposition(
        first_direction=DIRECTION_LABELS[scan.direction],
        up_times=_frozen(scan.up_times),
        down_times=_frozen(scan.down_times),
        lows=_frozen(scan.lows),
        highs=_frozen(scan.highs),
        n=path.n,
        c=c,
    )


_WINDOW_LABELS = np.array([KIND_LABELS[SEEK], KIND_LABELS[UP], KIND_LABELS[DOWN]], object)
_CHUNK = 1 << 15


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
    of a zero extreme included. One numpy pass over the samples
    computes every window at once; see ``_scan``.
    """
    if decomposition.n != path.n:
        raise PathError(
            "stale-decomposition",
            f"decomposition built for n={decomposition.n}, path has n={path.n}",
        )
    ups, downs = decomposition.up_times, decomposition.down_times
    direction = DOWN if decomposition.first_direction == DOWN_FIRST else UP
    starts = np.zeros(1 + ups.size + downs.size, np.int64)  # the triggers alternate
    starts[1::2], starts[2::2] = (downs, ups) if direction == DOWN else (ups, downs)
    _, kinds, extreme, _ = window_samples(path.values, starts, direction)
    out: list[tuple[str, float]] = []
    for lo in range(0, path.n, _CHUNK):  # chunks keep the temporary lists small
        hi = lo + _CHUNK
        out += zip(_WINDOW_LABELS[kinds[lo:hi]].tolist(), extreme[lo:hi].tolist())
    return out
