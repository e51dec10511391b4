"""Truncated variation toolkit for sampled step functions.

Given a step path and a level c > 0 this package computes the level-c
truncated variation with its upward/downward split, the flattest path that
stays uniformly within c/2 of the input (the minimizer of total variation
inside that band), its decomposition into nondecreasing rise and fall
components, and the zero-anchored representative of the same minimizer.
A quadratic partition oracle, deterministic generators, and a command line
interface round out the toolkit.
"""

from .optimal_approx import (
    ApproximationResult,
    JordanPair,
    jordan_pair,
    lazy_approximation,
    step_skeleton,
    zero_start_approximation,
)
from .path_model import (
    PathError,
    SampledPath,
    make_path,
    osc_norm,
    total_variation,
)
from .regime_detector import (
    RegimeDecomposition,
    detect_regimes,
    first_down_time,
    first_up_time,
    running_extremes,
)
from .synth import GeneratorSpec, generate, splitmix64, uniform_stream
from .truncated_variation import (
    SweepCurve,
    TruncatedVariations,
    l1_upper_bound,
    oracle_truncated_variation,
    prefix_curves,
    sweep,
    truncated_variation,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationResult",
    "GeneratorSpec",
    "JordanPair",
    "PathError",
    "RegimeDecomposition",
    "SampledPath",
    "SweepCurve",
    "TruncatedVariations",
    "detect_regimes",
    "first_down_time",
    "first_up_time",
    "generate",
    "jordan_pair",
    "l1_upper_bound",
    "lazy_approximation",
    "make_path",
    "oracle_truncated_variation",
    "osc_norm",
    "prefix_curves",
    "running_extremes",
    "splitmix64",
    "step_skeleton",
    "sweep",
    "total_variation",
    "truncated_variation",
    "uniform_stream",
    "zero_start_approximation",
]
