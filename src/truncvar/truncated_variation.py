"""Truncated variation: fast one-pass evaluation plus a quadratic oracle.

The level-c truncated variation of a path is the largest total of
``(|increment| - c)+`` over any subsequence of samples; the upward and
downward variants use the signed increment instead of its absolute value.
The fast path reads all three off the regime scan in O(n). The oracle
computes them straight from that defining maximization with an O(n^2)
dynamic program and exists purely to cross-check the scan.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._scan import full_scan, tv_scan
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
_CACHE_VALUES = 1 << 20  # skeleton values a ladder keeps besides the samples


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


class _Ladder:
    """``tv`` of one sample sequence at any batch of levels, bit-identical to
    one scan per level, from skeletons cached across batches.

    Each rung is a level a and a skeleton exact at every level ``>= a`` (see
    ``_scan``); the rung at level 0 holds the samples. A skeleton's values
    alternate strictly and every gap between neighbours is at least a, so at
    a level c no larger than its smallest gap the scan would trigger at
    every value: ``tv(c)`` is the fold of ``gap - c`` over the rises plus
    the fold over the falls, and no scan runs. A level above the smallest
    gap is scanned on the highest rung below it, and the skeleton that scan
    emits becomes a new rung. Once the skeletons hold more than
    ``_CACHE_VALUES`` values, the lowest rungs are dropped, never the
    samples or the newest rung.
    """

    def __init__(self, values: np.ndarray):
        self._levels = [0.0]
        self._rungs = [(values, -np.inf)]  # (skeleton, smallest gap)
        self._cached = 0

    def tv(self, levels: np.ndarray) -> np.ndarray:
        order = np.argsort(levels, kind="stable")
        pending = levels[order]
        level_value(pending[0])  # the smallest level vouches for the rest
        done = np.empty(pending.shape[0])
        i = 0
        while i < pending.shape[0]:
            c = float(pending[i])
            at = bisect.bisect_right(self._levels, c) - 1
            skeleton, min_gap = self._rungs[at]
            if c <= min_gap:
                j = int(np.searchsorted(pending, min_gap, side="right"))
                gaps = np.abs(np.diff(skeleton))
                first_rise = int(skeleton.shape[0] > 1 and skeleton[1] < skeleton[0])
                rises, falls = gaps[first_rise::2], gaps[1 - first_rise :: 2]
                batch = pending[i:j]
                done[i:j] = _fold(rises, batch) + _fold(falls, batch)
                i = j
            else:
                up, down, _, shorter = tv_scan(skeleton, c, True)
                done[i] = up + down
                self._add(at + 1, c, shorter)
                i += 1
        out = np.empty_like(done)
        out[order] = done
        return out

    def _add(self, at: int, c: float, skeleton: np.ndarray) -> None:
        gaps = np.abs(np.diff(skeleton))
        self._levels.insert(at, c)
        self._rungs.insert(at, (skeleton, float(gaps.min()) if gaps.size else np.inf))
        self._cached += skeleton.shape[0]
        while self._cached > _CACHE_VALUES and len(self._rungs) > 2:
            drop = 2 if self._rungs[1][0] is skeleton else 1
            self._cached -= self._rungs[drop][0].shape[0]
            del self._levels[drop], self._rungs[drop]


def sweep(path: SampledPath, levels: Sequence[float]) -> SweepCurve:
    """Evaluate the total truncated variation on an increasing level grid.

    The levels form a ladder (``_Ladder``): a level is scanned on the
    skeleton that a scan at a lower level emitted, which holds the extremes
    all higher levels can still see, or, when it is no larger than every gap
    of that skeleton, priced in closed form from the gaps. Either way the
    same comparisons and the same additions run on the same values as in a
    scan of the whole path, so every ``tv_values[i]`` equals
    ``truncated_variation(path, levels[i]).tv`` bit for bit, at a cost near
    one scan of the path for the whole grid.
    """
    grid = np.asarray(levels, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise PathError("bad-level-grid", "level grid must be a nonempty 1-d sequence")
    if not np.isfinite(grid).all() or np.min(grid) <= 0:
        raise PathError("bad-level-grid", "levels must be finite and > 0")
    if grid.size > 1 and not np.all(grid[1:] > grid[:-1]):
        raise PathError("bad-level-grid", "levels must be strictly increasing")
    tv_values = _Ladder(path.values).tv(grid)
    return SweepCurve(levels=_frozen(grid.copy()), tv_values=_frozen(tv_values))


_REFINE_ROUNDS = 3


def l1_upper_bound(
    components: Sequence[SampledPath], c, grid_points: int = 64
) -> tuple[float, list[float]]:
    """Best split of one level budget across components sharing a grid.

    Minimizes ``sum_i tv(f_i, c_i)`` over positive ``c_i`` summing to ``c``
    by pairwise transfers: each coordinate map is convex in its level, so
    the transfer objective is unimodal and a refining grid search finds its
    minimum. Each round of that search evaluates its whole grid of transfers
    as two level batches, one per component of the pair. Every component
    keeps one ladder (see ``sweep``) for the whole call, so a batch starts
    from the skeletons that earlier rounds and sweeps emitted, and the
    narrow windows of the later rounds mostly fall below a skeleton's
    smallest gap, where no scan runs. Returns the achieved bound and the
    split; the bound is always attainable, hence an upper bound for the
    underlying infimum, within grid resolution of it. Levels are clamped
    away from zero because the infimum may sit on the open boundary.
    """
    comps = list(components)
    if not comps:
        raise PathError("empty-path", "need at least one component")
    c = level_value(c)
    points = int(grid_points)
    if points < 2:
        raise PathError("bad-level-grid", "grid_points must be at least 2")
    base = comps[0]
    for p in comps[1:]:
        if not np.array_equal(p.times, base.times):
            raise PathError("domain-mismatch", "components must share one time grid")
    n_comp = len(comps)
    oscs = [osc_norm(p) for p in comps]
    if max(oscs) == 0.0:
        return 0.0, [c / n_comp] * n_comp
    # at least one ulp of c, so that split - (split - floor) stays above 0
    floor = min(max(1e-12 * max(oscs), float(np.spacing(c))), c / n_comp)

    split = [c / n_comp] * n_comp
    ladders = [_Ladder(p.values) for p in comps]
    vals = [truncated_variation(comps[i], split[i]).tv for i in range(n_comp)]

    improved = True
    sweeps = 0
    while improved and sweeps < 8:
        improved = False
        sweeps += 1
        for i in range(n_comp):
            for j in range(i + 1, n_comp):
                lo0 = lo = -(split[j] - floor)
                hi0 = hi = split[i] - floor
                if hi <= lo:
                    continue
                # grid search over the transfer t with shrinking windows
                best_t, best_v, best_i, best_j = lo, np.inf, 0.0, 0.0
                for _ in range(_REFINE_ROUNDS + 1):
                    grid = np.linspace(lo, hi, points)
                    tv_i = ladders[i].tv(split[i] - grid)
                    tv_j = ladders[j].tv(split[j] + grid)
                    for t, a, b in zip(grid.tolist(), tv_i.tolist(), tv_j.tolist()):
                        if a + b < best_v:
                            best_t, best_v, best_i, best_j = t, a + b, a, b
                    span = (hi - lo) / (points - 1)
                    if span == 0.0:
                        break
                    lo = max(lo0, best_t - span)
                    hi = min(hi0, best_t + span)
                current = vals[i] + vals[j]
                if best_v < current - 1e-15 * max(1.0, current):
                    split[i] -= best_t
                    split[j] += best_t
                    vals[i], vals[j] = best_i, best_j
                    improved = True

    return float(sum(vals)), split
