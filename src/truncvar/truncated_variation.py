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

from ._scan import checked_total, full_scan, tv_scan
from .path_model import (
    PathError,
    SampledPath,
    _frozen,
    level_value,
    osc_norm,
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
    utv, dtv, _, _ = tv_scan(path.values, c)
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
    scan = full_scan(path.values, c)
    return _frozen(scan.up), _frozen(scan.down), _frozen(scan.up + scan.down)


_FOLD_BLOCK = 1 << 16  # gap-by-level terms folded at once


def _fold(gaps: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per level c, the left-to-right sum of ``gap - c`` over ``gaps``.

    ``np.add.accumulate`` adds strictly in order from the first term on, as
    the scan adds each term to a total that starts at 0.0.
    """
    out = np.zeros(levels.shape[0])
    if gaps.size:
        step = max(1, _FOLD_BLOCK // gaps.size)
        for s in range(0, levels.shape[0], step):
            terms = gaps[:, None] - levels[None, s : s + step]
            out[s : s + step] = np.add.accumulate(terms, axis=0, out=terms)[-1]
    return out


def sweep(path: SampledPath, levels: Sequence[float]) -> SweepCurve:
    """Evaluate the total truncated variation on an increasing level grid.

    The levels run up a ladder of skeletons (see ``_scan``). A level above
    the smallest gap of the current skeleton is scanned on it, and the
    skeleton that scan emits, which holds the extremes all higher levels can
    still see, becomes the current one; the first level is scanned on the
    samples. A level no larger than the smallest gap is priced in closed
    form from the gaps: the fold of ``gap - c`` over the rises plus the fold
    over the falls. Either way the same comparisons and the same additions
    run on the same values as in a scan of the whole path, so every
    ``tv_values[i]`` equals ``truncated_variation(path, levels[i]).tv`` bit
    for bit, at a cost near one scan of the path for the whole grid. A
    closed form adds, in the same order, terms no larger than those of the
    scan that emitted its skeleton, so it is finite when that scan's
    checked total is.
    """
    grid = np.asarray(levels, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise PathError("bad-level-grid", "level grid must be a nonempty 1-d sequence")
    if not np.isfinite(grid).all() or np.min(grid) <= 0:
        raise PathError("bad-level-grid", "levels must be finite and > 0")
    if grid.size > 1 and not np.all(grid[1:] > grid[:-1]):
        raise PathError("bad-level-grid", "levels must be strictly increasing")
    tv_values = np.empty(grid.size)
    skeleton, min_gap = path.values, -np.inf
    i = 0
    while i < grid.size:
        c = float(grid[i])
        if c <= min_gap:
            j = int(np.searchsorted(grid, min_gap, side="right"))
            first_rise = int(skeleton.shape[0] > 1 and skeleton[1] < skeleton[0])
            rises, falls = gaps[first_rise::2], gaps[1 - first_rise :: 2]
            tv_values[i:j] = _fold(rises, grid[i:j]) + _fold(falls, grid[i:j])
            i = j
        else:
            up, down, _, skeleton = tv_scan(skeleton, c, True)
            tv_values[i] = up + down
            gaps = np.abs(np.diff(skeleton))
            min_gap = float(gaps.min()) if gaps.size else np.inf
            i += 1
    return SweepCurve(levels=_frozen(grid.copy()), tv_values=_frozen(tv_values))


def _persistence(values: np.ndarray) -> np.ndarray:
    """Sorted positive values Q with ``tv(c) = sum((q - c)+ for q in Q)``.

    Q is the finite 0-dimensional persistence of the sublevel and the
    superlevel filtrations of the samples, plus ``osc_norm``. Numpy keeps
    the turning points, which alternate strictly; one pass pairs them on a
    stack (the four-point rainflow rule). When the range between the top two
    points is no larger than the ranges beside it, that max and that min
    pair up in both filtrations: the range enters Q twice and both points
    leave. The ranges between the points left are the rest of Q.
    """
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
    decreasing order of slope magnitude, ties by component index and then by
    level; budget left once every component sits at its oscillation goes to
    the first component. The split is exact, not searched, among levels at
    or above the floor. The bound is one scan per component at its level,
    summed in component order, so it equals
    ``sum(truncated_variation(f_i, c_i).tv)`` and is attained. Returns the
    bound and the split. ``grid_points`` must be a number whose ``int`` is at
    least 2 (else PathError ``bad-level-grid``) and is otherwise ignored; it
    is kept so that existing callers keep working.
    """
    comps = list(components)
    if not comps:
        raise PathError("empty-path", "need at least one component")
    c = level_value(c)
    try:
        enough = int(grid_points) >= 2
    except (TypeError, ValueError, OverflowError):  # None, "x", nan, inf
        enough = False
    if not enough:
        raise PathError("bad-level-grid", "grid_points must be a number of at least 2")
    if any(not np.array_equal(p.times, comps[0].times) for p in comps[1:]):
        raise PathError("domain-mismatch", "components must share one time grid")
    n_comp = len(comps)
    # at least one ulp of c, so that c minus the other levels stays above 0
    floor = min(max(1e-12 * max(osc_norm(p) for p in comps), float(np.spacing(c))), c / n_comp)
    pieces = [q[q > floor] for q in (_persistence(p.values) for p in comps)]
    ends = np.concatenate(pieces)  # piece k of a component ends at its q[k]
    lengths = np.concatenate([np.diff(q, prepend=floor) for q in pieces])
    owner = np.repeat(np.arange(n_comp), [q.size for q in pieces])
    slope = np.concatenate([np.arange(q.size, 0, -1) for q in pieces])
    order = np.lexsort((ends, owner, -slope))
    with np.errstate(over="ignore"):  # a sum past float64 is past any budget too
        reach = np.cumsum(lengths[order])
    filled = int(np.searchsorted(reach, c - n_comp * floor, side="right"))
    split = [floor] * n_comp
    # a component's pieces come in increasing level order, so the last wins
    for i, end in zip(owner[order[:filled]].tolist(), ends[order[:filled]].tolist()):
        split[i] = end
    last = int(owner[order[filled]]) if filled < order.size else 0
    split[last] = 0.0  # so that the sum below runs over the other levels
    split[last] = max(c - sum(split), floor)
    bound = float(sum(truncated_variation(p, s).tv for p, s in zip(comps, split)))
    return checked_total(bound), split
