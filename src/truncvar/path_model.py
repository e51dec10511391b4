"""Sampled step paths and the elementary functionals defined on them.

A path is a finite list of (time, value) samples read as a right-continuous
step function: the value at ``times[i]`` is held on ``[times[i], times[i+1])``
and the last value is held up to the domain end ``times[-1]``. Everything in
this package is exact finite arithmetic on these samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class PathError(ValueError):
    """Invalid input to a path operation; ``code`` names the precondition.

    Codes used across the package: ``empty-path``, ``length-mismatch``,
    ``non-finite``, ``times-not-increasing``, ``value-span-overflow``,
    ``tv-overflow`` (a truncated variation total overflows float64),
    ``band-overflow`` (the band ``c/2`` around a value passes float64),
    ``outside-domain``, ``domain-mismatch``, ``bad-level``, ``bad-level-grid``,
    ``stale-decomposition``, ``bad-decomposition`` (trigger times that no scan
    gives), ``unknown-generator``, ``bad-generator-spec``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Right-continuous step function sampled at strictly increasing times.

    Instances are immutable: both arrays are float64 and marked read-only.
    Construct through :func:`make_path`, which validates the invariants.
    """

    times: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return int(self.times.shape[0])

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def real_number(value, code: str, what: str) -> float:
    """``float(value)`` for an int, a float, or a numpy integer or float (no
    bool or ``np.timedelta64``) finite in float64, else PathError ``code``."""
    try:
        x = float(value) if isinstance(value, (int, float, np.integer, np.floating)) else math.nan
    except (OverflowError, TypeError):  # an int past float64, a NaT timedelta
        x = math.nan
    if isinstance(value, (bool, np.timedelta64)) or not math.isfinite(x):
        raise PathError(code, f"{what} must be a finite real number, got {value!r}")
    return x


def real_numbers(values, code: str, what: str) -> np.ndarray:
    """A new float64 array of ``values``, else PathError ``code``: an int or float ndarray
    by dtype; a list, tuple, object ndarray or number by :func:`real_number`, nesting kept.
    A flat list or tuple of exact ints and floats is cast in one go, to the same floats."""
    try:
        if isinstance(values, (list, tuple)) and set(map(type, values)) <= {float, int}:
            a = np.array(values, dtype=np.float64)
        else:
            by_entry = isinstance(values, (list, tuple, int, float, np.number))
            a = np.array(values, dtype=object) if by_entry else values
    except (OverflowError, ValueError):  # an int past float64; nested arrays of unequal shapes
        a = None
    kind = a.dtype.kind if isinstance(a, np.ndarray) else None
    if kind == "O":
        return np.array([real_number(v, code, what) for v in a.flat]).reshape(a.shape)
    with np.errstate(over="ignore"):  # a longdouble past float64 gives inf, refused below
        x = a.astype(np.float64) if kind in ("i", "u", "f") else np.array(math.nan)
    if not np.isfinite(x).all():  # nan stands for any other dtype or container: str, set, ...
        raise PathError(code, f"every {what} must be a finite real number")
    return x


def positive_real(value, code: str, what: str) -> float:
    """:func:`real_number` that is > 0, else PathError ``code``."""
    x = real_number(value, code, what)
    if not x > 0:
        raise PathError(code, f"{what} must be > 0, got {value!r}")
    return x


def positive_reals(values, code: str, what: str) -> np.ndarray:
    """:func:`real_numbers` that are all > 0, else PathError ``code``."""
    x = real_numbers(values, code, what)
    if not np.all(x > 0):
        raise PathError(code, f"every {what} must be > 0")
    return x


def level_value(c) -> float:
    """A level c as a float, else PathError ``bad-level``. Every number a path is built
    from follows :func:`real_number`; every level, level grid and generator parameter
    is also > 0 (:func:`positive_real`)."""
    return positive_real(c, "bad-level", "level")


def make_path(times: Sequence[float], values: Sequence[float]) -> SampledPath:
    """Validate raw samples and build a :class:`SampledPath`.

    Times and values are copied by :func:`real_numbers` (PathError ``non-finite``).
    Raises ``empty-path`` (no samples), ``length-mismatch``, ``times-not-increasing``
    or ``value-span-overflow`` (finite values whose ``max - min`` overflows: every
    increment and truncated variation would read ``inf``).
    """
    t = real_numbers(times, "non-finite", "time")
    v = real_numbers(values, "non-finite", "value")
    if t.ndim != 1 or v.ndim != 1:
        raise PathError("length-mismatch", "times and values must be one-dimensional")
    if t.size == 0 and v.size == 0:
        raise PathError("empty-path", "need at least one sample")
    if t.size != v.size:
        raise PathError(
            "length-mismatch", f"times has {t.size} entries, values has {v.size}"
        )
    if t.size > 1 and not np.all(t[1:] > t[:-1]):
        raise PathError("times-not-increasing", "times must be strictly increasing")
    if not np.isfinite(float(np.max(v)) - float(np.min(v))):
        raise PathError("value-span-overflow", "max(values) - min(values) overflows float64")
    return SampledPath(_frozen(t), _frozen(v))


def evaluate(path: SampledPath, t: float) -> float:
    """Value of the step function at time ``t`` (right-continuous semantics);
    ``t`` is a :func:`real_number` in the domain, else PathError ``outside-domain``."""
    t = real_number(t, "outside-domain", "t")
    lo, hi = path.domain
    if not (lo <= t <= hi):
        raise PathError("outside-domain", f"t={t!r} outside domain [{lo}, {hi}]")
    i = int(np.searchsorted(path.times, t, side="right")) - 1
    return float(path.values[i])


def checked_total(total: float) -> float:
    """``total`` if it is finite, else PathError ``tv-overflow``."""
    if not math.isfinite(total):
        raise PathError("tv-overflow", "the truncated variation overflows float64")
    return total


def total_variation(path: SampledPath) -> float:
    """Sum of absolute increments over the samples; PathError ``tv-overflow``
    when the sum passes float64."""
    with np.errstate(over="ignore"):  # an overflow is reported just below
        d = np.diff(path.values)
        return checked_total(float(np.sum(np.abs(d, out=d))))


def osc_norm(path: SampledPath) -> float:
    """Largest difference between any two values: max - min."""
    return float(np.max(path.values) - np.min(path.values))


def _require_same_domain(f: SampledPath, g: SampledPath) -> None:
    if f.domain != g.domain:
        raise PathError(
            "domain-mismatch", f"domains differ: {f.domain} vs {g.domain}"
        )


def _on_union_grid(f: SampledPath, g: SampledPath):
    t = np.union1d(f.times, g.times)
    fv = f.values[np.searchsorted(f.times, t, side="right") - 1]
    gv = g.values[np.searchsorted(g.times, t, side="right") - 1]
    return t, fv, gv


def sup_distance(f: SampledPath, g: SampledPath) -> float:
    """Uniform distance between two paths sharing a domain.

    For step functions the supremum over the continuum is attained on the
    union of the two breakpoint sets, so that is all that gets evaluated.
    A distance past float64 is PathError ``value-span-overflow``.
    """
    _require_same_domain(f, g)
    _, fv, gv = _on_union_grid(f, g)
    with np.errstate(over="ignore"):  # an overflowed difference raises below
        distance = float(np.max(np.abs(fv - gv)))
    if not np.isfinite(distance):
        raise PathError("value-span-overflow", "the distance between the paths overflows float64")
    return distance


def negate(path: SampledPath) -> SampledPath:
    """Pointwise negation; shares the time grid."""
    return SampledPath(path.times, _frozen(-path.values))


def add_constant(path: SampledPath, alpha: float) -> SampledPath:
    """Shift all values by ``alpha`` on the same time grid, checked by :func:`make_path`."""
    a = real_number(alpha, "non-finite", "shift")
    with np.errstate(over="ignore"):  # an overflowed value raises non-finite
        return make_path(path.times, path.values + a)


def combine(
    f: SampledPath, g: SampledPath, weights: tuple[float, float] = (1.0, 1.0)
) -> SampledPath:
    """Weighted pointwise sum ``weights[0]*f + weights[1]*g`` on the union grid.

    Both operands are resampled on the union of their breakpoints first, so
    the result is exact under step semantics. Needs identical domains and two
    weights (PathError ``length-mismatch``), each a :func:`real_number`.
    """
    _require_same_domain(f, g)
    w = real_numbers(weights, "non-finite", "weight")
    if w.ndim != 1:
        raise PathError("non-finite", "each weight must be a real number")
    if w.size != 2:
        raise PathError("length-mismatch", f"need two weights, got {w.size}")
    t, fv, gv = _on_union_grid(f, g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises non-finite
        return make_path(t, w[0] * fv + w[1] * gv)
