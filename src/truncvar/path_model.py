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


@dataclass(frozen=True)
class Level:
    """Strictly positive, finite threshold in the same units as path values.

    The rule of every level, level grid and generator parameter: an int, a
    float, or a numpy integer or float (no bool or ``np.timedelta64``) whose
    float64 value is finite and > 0; see :func:`positive_real`.
    """

    c: float

    def __post_init__(self):
        positive_real(self.c, "bad-level", "level")


def positive_real(value, code: str, what: str) -> float:
    """``float(value)`` if it follows the rule of :class:`Level`, else PathError ``code``."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if not real or isinstance(value, (bool, np.timedelta64)):
        raise PathError(code, f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an int past float64
        x = math.inf
    if not (math.isfinite(x) and x > 0):
        raise PathError(code, f"{what} must be finite and > 0, got {value!r}")
    return x


def positive_reals(values, code: str, what: str) -> np.ndarray:
    """``values`` as float64 by :func:`positive_real`, or by dtype for an int or float ndarray."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
    with np.errstate(over="ignore"):  # a longdouble past float64 gives inf, refused below
        x = values.astype(np.float64, copy=False) if kind in "iuf" else None
    if x is not None and np.isfinite(x).all() and np.all(x > 0):
        return x
    if kind == "O" and np.iterable(values):
        return np.array([positive_real(v, code, what) for v in values])
    raise PathError(code, f"every {what} must be a real number, finite and > 0")


def level_value(c) -> float:
    """A :class:`Level` or a bare number, by the rule of :class:`Level`, as a float."""
    return float(c.c) if isinstance(c, Level) else positive_real(c, "bad-level", "level")


def make_path(times: Sequence[float], values: Sequence[float]) -> SampledPath:
    """Validate raw samples and build a :class:`SampledPath`.

    Raises :class:`PathError` with code ``empty-path`` (no samples),
    ``length-mismatch``, ``non-finite``, ``times-not-increasing``, or
    ``value-span-overflow`` (finite values whose ``max - min`` overflows:
    every increment and truncated variation would read ``inf``).
    """
    try:
        t, v = np.asarray(times), np.asarray(values)
        if t.dtype.kind in "US" or v.dtype.kind in "US":  # numpy would parse "1" as 1.0
            raise TypeError
        # a copy, so that the frozen arrays share no memory with the caller's
        t = np.array(t, dtype=np.float64)
        v = np.array(v, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # "a", a ragged list, an int past float64
        raise PathError("non-finite", "times and values must be real numbers") from None
    if t.ndim != 1 or v.ndim != 1:
        raise PathError("length-mismatch", "times and values must be one-dimensional")
    if t.size == 0 and v.size == 0:
        raise PathError("empty-path", "need at least one sample")
    if t.size != v.size:
        raise PathError(
            "length-mismatch", f"times has {t.size} entries, values has {v.size}"
        )
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise PathError("non-finite", "times and values must all be finite")
    if t.size > 1 and not np.all(t[1:] > t[:-1]):
        raise PathError("times-not-increasing", "times must be strictly increasing")
    if not np.isfinite(float(np.max(v)) - float(np.min(v))):
        raise PathError("value-span-overflow", "max(values) - min(values) overflows float64")
    return SampledPath(_frozen(t), _frozen(v))


def evaluate(path: SampledPath, t: float) -> float:
    """Value of the step function at time ``t`` (right-continuous semantics)."""
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
    """
    _require_same_domain(f, g)
    _, fv, gv = _on_union_grid(f, g)
    return float(np.max(np.abs(fv - gv)))


def negate(path: SampledPath) -> SampledPath:
    """Pointwise negation; shares the time grid."""
    return SampledPath(path.times, _frozen(-path.values))


def _finite(x, what: str) -> float:
    """``float(x)`` if ``x`` is a number and that is finite, else PathError
    ``non-finite``; a string is no number, though ``float`` parses ``"1"``."""
    try:
        a = math.nan if isinstance(x, (str, bytes, bytearray)) else float(x)
    except (TypeError, ValueError, OverflowError):  # None, an int past float64
        a = math.nan
    if not math.isfinite(a):
        raise PathError("non-finite", f"{what} must be a finite number, got {x!r}")
    return a


def add_constant(path: SampledPath, alpha: float) -> SampledPath:
    """Shift all values by ``alpha`` on the same time grid, checked by :func:`make_path`."""
    a = _finite(alpha, "shift")
    with np.errstate(over="ignore"):  # an overflowed value raises non-finite
        return make_path(path.times, path.values + a)


def combine(
    f: SampledPath, g: SampledPath, weights: tuple[float, float] = (1.0, 1.0)
) -> SampledPath:
    """Weighted pointwise sum ``weights[0]*f + weights[1]*g`` on the union grid.

    Both operands are resampled on the union of their breakpoints first, so
    the result is exact under step semantics. Requires identical domains.
    """
    _require_same_domain(f, g)
    wf, wg = _finite(weights[0], "weight"), _finite(weights[1], "weight")
    t, fv, gv = _on_union_grid(f, g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises non-finite
        return make_path(t, wf * fv + wg * gv)
