"""Minimal-total-variation approximations within a band around a path.

``lazy_approximation`` builds the flattest path that stays within ``c/2``
of the input everywhere: it sits still at the valley minimum plus ``c/2``
(or peak maximum minus ``c/2``) and only moves when the tracked extreme
moves. Among all finite-variation paths in that uniform band it attains
the smallest total variation, prefix by prefix, and its decomposition into
a nondecreasing rise component and a nondecreasing fall component is the
minimal one (the two never increase at the same step).

``zero_start_approximation`` is the same object anchored at zero: the rise
component minus the fall component. Its increments track the input's
increments within ``c`` and it minimizes total variation among all paths
with that property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from ._scan import full_scan
from .path_model import PathError, SampledPath, _frozen, level_value, total_variation


@dataclass(frozen=True, eq=False)
class JordanPair:
    """Nondecreasing rise/fall components, both starting at 0.

    At every step at most one of the two increases, which is exactly the
    minimality of the decomposition; their difference reconstructs the
    band approximation up to its starting value.
    """

    up_component: np.ndarray
    down_component: np.ndarray


@dataclass(frozen=True, eq=False)
class ApproximationResult:
    """An approximation path plus its decomposition and quality numbers.

    ``achieved_tv`` is the total variation of ``approximation``. For the
    band approximation ``sup_error`` is the uniform distance to the input
    (at most ``c/2``); for the zero-start variant it is the oscillation of
    the residual, i.e. the worst increment mismatch (at most ``c``).
    """

    approximation: SampledPath
    jordan: JordanPair
    achieved_tv: float
    sup_error: float


def lazy_approximation(path: SampledPath, c) -> ApproximationResult:
    """Flattest path staying within ``c/2`` of the input everywhere.

    Raises PathError ``band-overflow`` when that path passes float64.
    """
    c = level_value(c)
    scan = full_scan(path.values, c)
    approx = SampledPath(path.times, _frozen(scan.approx))
    jordan = JordanPair(_frozen(scan.up), _frozen(scan.down))
    sup_error = float(np.max(np.abs(scan.approx - path.values)))
    if not math.isfinite(sup_error):  # within c/2 of the values unless it overflowed
        raise PathError("band-overflow", "the band c/2 around the values overflows float64")
    return ApproximationResult(
        approximation=approx,
        jordan=jordan,
        achieved_tv=total_variation(approx),
        sup_error=sup_error,
    )


def jordan_pair(path: SampledPath, c) -> JordanPair:
    """Per-sample minimal rise/fall components of the band approximation."""
    c = level_value(c)
    scan = full_scan(path.values, c)
    return JordanPair(_frozen(scan.up), _frozen(scan.down))


def zero_start_approximation(path: SampledPath, c) -> ApproximationResult:
    """Rise minus fall component: the optimal increment tracker from 0."""
    c = level_value(c)
    up, down = full_scan(path.values, c)[1:]  # the band is not kept alive
    zero_vals = up - down
    approx = SampledPath(path.times, _frozen(zero_vals))
    jordan = JordanPair(_frozen(up), _frozen(down))
    residual = zero_vals - path.values
    sup_error = float(np.max(residual) - np.min(residual))
    return ApproximationResult(
        approximation=approx,
        jordan=jordan,
        achieved_tv=total_variation(approx),
        sup_error=sup_error,
    )


def step_skeleton(path: SampledPath, c) -> SampledPath:
    """Greedy coarse resampling within ``c/2`` of the input.

    Starting from the first sample, the next breakpoint is the first sample
    whose value differs from the held one by strictly more than ``c/2``.
    The result holds the input's value at each kept breakpoint, stays
    within ``c/2`` uniformly, and its breakpoints are a subset of the
    input's. The final grid time is always kept so the domain is preserved.
    """
    c = level_value(c)
    half = c / 2.0
    lib = _native.codec()
    if lib is not None:  # the same loop in C, into an int64 buffer
        vals = np.ascontiguousarray(path.values, np.float64)
        keep = np.empty(vals.shape[0], np.int64)
        keep = keep[: lib.greedy_skeleton(vals.ctypes.data, keep.shape[0], half, keep.ctypes.data)]
    else:
        vals = path.values.tolist()
        keep = [0]
        held = vals[0]
        for j, v in enumerate(vals):
            if abs(v - held) > half:
                keep.append(j)
                held = v
        del vals  # ~32 bytes a sample; free it before the index array is built
        keep = np.array(keep)
    times = path.times[keep]
    values = path.values[keep]
    if times[-1] != path.times[-1]:
        times = np.append(times, path.times[-1])
        values = np.append(values, values[-1])
    return SampledPath(_frozen(times), _frozen(values))
