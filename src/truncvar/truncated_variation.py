"""Truncated variation: fast one-pass evaluation plus a quadratic oracle.

The level-c truncated variation of a path is the largest total of
``(|increment| - c)+`` over any subsequence of samples; the upward and
downward variants use the signed increment instead of its absolute value.
The fast path reads all three off the regime scan in O(n). The oracle
computes them straight from that defining maximization with an O(n^2)
dynamic program and exists purely to cross-check the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _native
from ._scan import _window_scan, rise_fall, tv_scan
from .path_model import (
    PathError,
    SampledPath,
    _frozen,
    checked_total,
    level_value,
    osc_norm,
    positive_real,
    positive_reals,
)


@dataclass(frozen=True)
class TruncatedVariations:
    """Upward, downward, and total truncated variation at one level."""

    utv: float
    dtv: float
    tv: float


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Total truncated variation evaluated on an increasing level grid."""

    levels: np.ndarray
    tv_values: np.ndarray


def truncated_variation(path: SampledPath, c) -> TruncatedVariations:
    """One-pass evaluation; ``tv`` is constructed as ``utv + dtv``."""
    c = level_value(c)
    utv, dtv, _ = tv_scan(path.values, c)
    return TruncatedVariations(utv=utv, dtv=dtv, tv=utv + dtv)


def _dp_best(x: np.ndarray, c: float, mode: int) -> float:
    # best[j] = largest truncated total over subsequences ending at j;
    # mode +1 counts rises, -1 counts falls, 0 absolute increments.
    n = x.shape[0]
    best = np.zeros(n)
    for j in range(1, n):
        if mode > 0:
            gain = x[j] - x[:j] - c
        elif mode < 0:
            gain = x[:j] - x[j] - c
        else:
            gain = np.abs(x[j] - x[:j]) - c
        np.maximum(gain, 0.0, out=gain)
        gain += best[:j]
        best[j] = max(0.0, float(gain.max()))
    return float(best.max())


def oracle_truncated_variation(path: SampledPath, c) -> TruncatedVariations:
    """Quadratic partition oracle evaluated straight from the definition.

    Each of the three quantities runs its own dynamic program over sample
    indices, independent of the regime scan. Because the path is constant
    between samples, the maximum over index subsequences is the exact
    supremum over all partitions of the domain. Intended for n up to ~1e4.
    """
    c = level_value(c)
    x = path.values
    return TruncatedVariations(
        utv=_dp_best(x, c, +1),
        dtv=_dp_best(x, c, -1),
        tv=_dp_best(x, c, 0),
    )


def prefix_curves(path: SampledPath, c):
    """Per-sample running (utv, dtv, tv), each nondecreasing in the index."""
    c = level_value(c)
    up, down = rise_fall(path.values, c)
    return _frozen(up), _frozen(down), _frozen(up + down)


def sweep(path: SampledPath, levels: Sequence[float]) -> SweepCurve:
    """Evaluate the total truncated variation on an increasing level grid.

    The levels run up a ladder of skeletons (see ``_scan``) in one copy of
    the samples. The first level is scanned on the samples, and each later
    one on the skeleton the level below emitted; each scan writes the
    skeleton it emits, which holds the extremes all higher levels can still
    see, over its own input. The same comparisons and the same additions
    run on the same values as in a scan of the whole path, so every
    ``tv_values[i]`` equals ``truncated_variation(path, levels[i]).tv`` bit
    for bit. Each level follows :func:`positive_real` (PathError
    ``bad-level-grid``).
    """
    grid = positive_reals(levels, "bad-level-grid", "level")
    if grid.ndim != 1 or grid.size == 0 or not np.all(grid[1:] > grid[:-1]):
        raise PathError("bad-level-grid", "levels must be a nonempty, strictly increasing 1-d grid")
    tv_values = np.empty(grid.size)
    work = path.values.copy()
    m = work.size
    for i, c in enumerate(grid.tolist()):
        # the Python machine until perfbench's per-call bookkeeping stops
        # growing with the call count (ROADMAP items 1 and 2)
        up, down, _, m = _window_scan(work[:m], c, skeleton=work)
        tv_values[i] = checked_total(up + down)
    return SweepCurve(levels=_frozen(grid), tv_values=_frozen(tv_values))


def _persistence(values: np.ndarray) -> np.ndarray:
    """Sorted positive values Q with ``tv(c) = sum((q - c)+ for q in Q)``.

    Q is the finite 0-dimensional persistence of the sublevel and the
    superlevel filtrations of the samples, plus ``osc_norm``. Numpy keeps
    the turning points, which alternate strictly; one pass pairs them on a
    stack (the four-point rainflow rule). When the range between the top two
    points is no larger than the ranges beside it, that max and that min
    pair up in both filtrations: the range enters Q twice and both points
    leave. The ranges between the points left are the rest of Q. Where
    ``_native.library()`` loads, its ``persistence`` makes the same pass in
    one walk over the samples; this loop stays the reference.
    """
    lib = _native.library()
    if lib is not None:  # the same differences in the same multiset, then sorted
        vals = np.ascontiguousarray(values, np.float64)
        q, stack = np.empty(vals.shape[0]), np.empty(vals.shape[0])
        count = lib.persistence(vals.ctypes.data, vals.shape[0], q.ctypes.data, stack.ctypes.data)
        return np.sort(q[:count])
    x = values[np.r_[True, values[1:] != values[:-1]]]  # drop plateau repeats
    rise = np.diff(x) > 0
    turns = x[np.r_[True, rise[1:] != rise[:-1], True]] if x.size > 1 else x
    stack, q = [], []
    for v in turns.tolist():
        while len(stack) >= 3:
            inner = abs(stack[-1] - stack[-2])
            if inner > abs(stack[-2] - stack[-3]) or inner > abs(v - stack[-1]):
                break
            q += (inner, inner)
            del stack[-2:]
        stack.append(v)
    q += [abs(b - a) for a, b in zip(stack, stack[1:])]
    return np.sort(np.array(q, dtype=np.float64))


def l1_upper_bound(
    components: Sequence[SampledPath], c, grid_points: int = 64
) -> tuple[float, list[float]]:
    """Best split of one level budget across components sharing a grid.

    Minimizes ``sum_i tv(f_i, c_i)`` over levels ``c_i`` summing to ``c`` by
    water-filling. Each ``tv_i`` is convex and piecewise linear, the sum of
    ``(q - c_i)+`` over its persistence values (``_persistence``), so its
    right slope at a level is ``-#{q in Q_i : q > level}``. Every component
    starts at a small floor (the infimum may sit on the open boundary at 0),
    and the rest of the budget goes to the (component, segment) pieces in
    decreasing order of slope magnitude, ties by component index (each
    component has one piece per slope); budget left once every component
    sits at its oscillation goes to the first component. The split is exact, not searched, among levels at
    or above the floor. The bound is one scan per component at its level,
    summed in component order, so it equals
    ``sum(truncated_variation(f_i, c_i).tv)`` and is attained. Returns the
    bound and the split. ``grid_points`` must be a real number (the rule of
    :func:`positive_real`) of at least 2, else PathError ``bad-level-grid``, and is
    otherwise ignored; it is kept so that existing callers keep working.
    A level c whose share ``c / len(components)`` rounds to 0.0 cannot be
    split: PathError ``bad-level``.
    """
    comps = list(components)
    if not comps:
        raise PathError("empty-path", "need at least one component")
    c = level_value(c)
    if positive_real(grid_points, "bad-level-grid", "grid_points") < 2:
        raise PathError("bad-level-grid", "grid_points must be at least 2")
    if any(not np.array_equal(p.times, comps[0].times) for p in comps[1:]):
        raise PathError("domain-mismatch", "components must share one time grid")
    n_comp = len(comps)
    if c / n_comp == 0.0:
        raise PathError("bad-level", f"level {c!r} is too small to split across {n_comp} components")
    # at least one ulp of c, so that c minus the other levels stays above 0
    floor = min(max(1e-12 * max(osc_norm(p) for p in comps), float(np.spacing(c))), c / n_comp)
    pieces = [q[q > floor] for q in (_persistence(p.values) for p in comps)]
    ends = np.concatenate(pieces)  # piece k of a component ends at its q[k]
    lengths = np.concatenate([np.diff(q, prepend=floor) for q in pieces])
    owner = np.repeat(np.arange(n_comp), [q.size for q in pieces])
    slope = np.concatenate([np.arange(q.size, 0, -1) for q in pieces])
    order = np.argsort(-slope, kind="stable")  # pieces come in component order
    with np.errstate(over="ignore"):  # a sum past float64 is past any budget too
        reach = np.cumsum(lengths[order])
    filled = int(np.searchsorted(reach, c - n_comp * floor, side="right"))
    # a component's filled pieces end at rising levels, so the highest is the last
    split, done = np.full(n_comp, floor), order[:filled]
    np.maximum.at(split, owner[done], ends[done])
    split = split.tolist()
    last = int(owner[order[filled]]) if filled < order.size else 0
    split[last] = 0.0  # so that the sum below runs over the other levels
    split[last] = max(c - sum(split), floor)
    bound = float(sum(truncated_variation(p, s).tv for p, s in zip(comps, split)))
    return checked_total(bound), split
