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


_RETRY = 8  # levels to scan on a skeleton that stopped shrinking before trying again


def _ladder_tv(values: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``tv`` of the samples at each level, bit-identical to one scan per level.

    Levels are visited in ascending order, and each scan runs on the
    skeleton emitted by a scan at a lower level rather than on the samples
    (see ``_scan``), so the work shrinks as the level rises. Emitting a
    skeleton costs a write per trigger and a pass over the windows, so once
    a new skeleton comes out less than a tenth shorter than its input, the
    next ``_RETRY - 1`` levels reuse it without emitting one.
    """
    order = np.argsort(levels, kind="stable")
    level_value(levels[order[0]])  # the smallest level vouches for the rest
    out = np.empty(levels.shape[0])
    skeleton = values
    waited = 0  # levels scanned since a skeleton last shrank by a tenth
    for i in order:
        keep = waited % _RETRY == 0
        up, down, _, shorter = tv_scan(skeleton, float(levels[i]), keep)
        out[i] = up + down
        shrank = keep and 10 * shorter.shape[0] <= 9 * skeleton.shape[0]
        waited = 0 if shrank else waited + 1
        skeleton = shorter if keep else skeleton
    return out


def sweep(path: SampledPath, levels: Sequence[float]) -> SweepCurve:
    """Evaluate the total truncated variation on an increasing level grid.

    The levels form a ladder: each level is scanned on the skeleton that the
    scan at the level below it emitted, which holds the extremes all higher
    levels can still see. The scan then makes the same comparisons and the
    same additions on the same values as a scan of the whole path, so every
    ``tv_values[i]`` equals ``truncated_variation(path, levels[i]).tv`` bit
    for bit, at a cost near one scan of the path for the whole grid.
    """
    grid = np.asarray(levels, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise PathError("bad-level-grid", "level grid must be a nonempty 1-d sequence")
    if not np.isfinite(grid).all() or np.min(grid) <= 0:
        raise PathError("bad-level-grid", "levels must be finite and > 0")
    if grid.size > 1 and not np.all(grid[1:] > grid[:-1]):
        raise PathError("bad-level-grid", "levels must be strictly increasing")
    tv_values = _ladder_tv(path.values, grid)
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
    as two level batches, one per component of the pair, on the ladder that
    ``sweep`` uses. Returns the achieved bound and the split; the bound is
    always attainable, hence an upper bound for the underlying infimum,
    within grid resolution of it. Levels are clamped away from zero because
    the infimum may sit on the open boundary.
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
                    tv_i = _ladder_tv(comps[i].values, split[i] - grid)
                    tv_j = _ladder_tv(comps[j].values, split[j] + grid)
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
