"""Deterministic path generators for tests and benchmarks.

All randomness comes from SplitMix64 driven in counter mode, a fixed,
published algorithm: output i is obtained by mixing ``seed + (i+1)*GAMMA``
with the standard two xor-multiply rounds. Identical specs therefore
reproduce byte-identical paths on any platform, and any language with
64-bit integers can replay the streams.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .path_model import PathError, SampledPath, make_path, positive_real

# the generator kinds in the order of gen's --kind choices, each with its
# knobs (GeneratorSpec.extra keys) and their defaults in the order of its flags
_EXTRA_KEYS = {
    "random-walk": {},
    "jump-mixture": {"jump_prob": 0.05, "jump_scale": 10.0},
    "ramp": {},
    "near-threshold-oscillator": {"target_level": 1.0, "amplitude_ratio": 0.999},
}
KINDS = tuple(_EXTRA_KEYS)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the SplitMix64 stream for ``seed``. All
    three are integers by :func:`_whole`, and a negative seed wraps mod 2**64."""
    seed, count, start = _whole(seed, "seed"), _whole(count, "count"), _whole(start, "start")
    if count < 0 or start < 0:
        raise PathError("bad-generator-spec", "count and start must be >= 0")
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed % (1 << 64)) + counters * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from the top 53 bits of the stream."""
    bits = splitmix64(seed, count, start) >> np.uint64(11)
    return bits.astype(np.float64) * (2.0 ** -53)


@dataclass(frozen=True)
class GeneratorSpec:
    """Full description of one synthetic path; equal specs give equal paths.

    ``extra`` carries kind-specific knobs:
      jump-mixture: ``jump_prob`` (default 0.05), ``jump_scale`` (default 10.0)
      near-threshold-oscillator: ``target_level`` (default 1.0),
        ``amplitude_ratio`` (default 0.999); the square wave swings by
        ``amplitude_ratio * target_level``, so ratios below 1 stay invisible
        at the target level and ratios above 1 are seen at every swing.
        A ``scale`` other than 1 is refused for this kind.
    ``scale`` and the knobs follow :func:`~truncvar.path_model.positive_real`;
    ``length`` and ``seed`` are integers, not bools (else PathError
    ``bad-generator-spec``).
    """

    kind: str
    length: int
    seed: int = 0
    scale: float = 1.0
    extra: Mapping[str, float] = field(default_factory=dict)


def _whole(value, what: str) -> int:
    """``operator.index(value)`` for an integer other than a bool, else
    PathError ``bad-generator-spec``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:  # a float, a string, None
        pass
    raise PathError("bad-generator-spec", f"{what} must be an integer, got {value!r}")


def _check_spec(spec: GeneratorSpec) -> tuple[int, int, float, dict[str, float]]:
    """``(length, seed, scale, knobs)`` of a valid spec; ``knobs`` holds every
    knob of its kind, defaults filled in."""
    if spec.kind not in KINDS:
        raise PathError("unknown-generator", f"unknown generator kind {spec.kind!r}")
    n, seed = _whole(spec.length, "length"), _whole(spec.seed, "seed")
    if n < 1:
        raise PathError("bad-generator-spec", "length must be >= 1")
    if seed < 0:
        raise PathError("bad-generator-spec", "seed must be a nonnegative integer")
    scale = positive_real(spec.scale, "bad-generator-spec", "scale")
    if spec.kind == "near-threshold-oscillator" and scale != 1.0:
        raise PathError("bad-generator-spec", "the oscillator takes no scale (it must be 1)")
    if not isinstance(spec.extra, Mapping):
        raise PathError("bad-generator-spec", f"extra must be a mapping, got {spec.extra!r}")
    unknown = set(spec.extra) - set(_EXTRA_KEYS[spec.kind])
    if unknown:
        raise PathError(
            "bad-generator-spec",
            f"unknown parameters for {spec.kind}: {sorted(unknown)}",
        )
    knobs = {key: spec.extra.get(key, d) for key, d in _EXTRA_KEYS[spec.kind].items()}
    knobs = {key: positive_real(v, "bad-generator-spec", key) for key, v in knobs.items()}
    if knobs.get("jump_prob", 0.0) > 1.0:
        raise PathError("bad-generator-spec", "jump_prob must be in (0, 1]")
    return n, seed, scale, knobs


def generate(spec: GeneratorSpec) -> SampledPath:
    """Build the path described by ``spec``; times are 0 .. length-1. A scale
    or knob whose path has a value past float64 is PathError
    ``bad-generator-spec``, with no numpy warning."""
    n, seed, scale, knobs = _check_spec(spec)
    try:
        times = np.arange(np.intp(n), dtype=np.float64)
    except (OverflowError, ValueError, MemoryError):
        # a length past the index range (np.arange alone reads 2**63 as an
        # empty range), or more samples than numpy can allocate
        raise PathError("bad-generator-spec", f"length {n} is too large") from None

    with np.errstate(over="ignore", invalid="ignore"):  # values past float64 are refused below
        if spec.kind == "ramp":
            values = scale * times
        elif spec.kind == "random-walk":
            steps = scale * (2.0 * uniform_stream(seed, n - 1) - 1.0)
            values = np.concatenate([[0.0], np.cumsum(steps)])
        elif spec.kind == "jump-mixture":
            p, jump_scale = knobs["jump_prob"], knobs["jump_scale"]
            u_step = uniform_stream(seed, n - 1, start=0)
            u_jump = uniform_stream(seed, n - 1, start=n)
            u_mag = uniform_stream(seed, n - 1, start=2 * n)
            steps = 0.1 * scale * (2.0 * u_step - 1.0)
            steps = steps + np.where(
                u_jump < p, jump_scale * scale * (2.0 * u_mag - 1.0), 0.0
            )
            values = np.concatenate([[0.0], np.cumsum(steps)])
        else:  # near-threshold-oscillator
            amp = knobs["amplitude_ratio"] * knobs["target_level"]
            values = np.where(np.arange(n) % 2 == 1, amp, 0.0)
    if not np.isfinite(values).all():
        raise PathError("bad-generator-spec", f"the {spec.kind} path's values overflow float64")

    return make_path(times, values)
