"""The package's public surface, and what importing the CLI loads."""

import subprocess
import sys

import truncvar
from truncvar import path_model

PUBLIC = [
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

# pointwise path algebra is how the tests check the paper's identities
# (tests/_oracles.py), not part of the package
REMOVED = ["add_constant", "combine", "evaluate", "negate", "sup_distance"]


def test_public_surface():
    assert sorted(truncvar.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(truncvar, name) is not None
    for name in REMOVED:
        assert not hasattr(truncvar, name)
        assert not hasattr(path_model, name)


def test_cli_import_loads_neither_hashlib_nor_subprocess():
    # hashlib adds megabytes of RSS to every CLI child; the native loader
    # imports subprocess only when it compiles the library
    code = "import sys, truncvar.cli; print(sorted({'hashlib', 'subprocess'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
