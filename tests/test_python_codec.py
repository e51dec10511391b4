"""The CSV, scan, step-skeleton and file-command CLI tests on the Python route.

``pathio``, ``_scan.full_scan`` and ``optimal_approx.step_skeleton`` take
their Python routes whenever the native library cannot be built or loaded;
the autouse fixture below forces that, so the reference reader and writer,
the numpy derivation of the per-sample scan arrays and the greedy Python
loop stay covered wherever the library builds.
"""

import pytest

from truncvar import _native, pathio

from test_cli import (  # noqa: F401  (collected again here)
    TestApproxCommand,
    TestDecomposeCommand,
    TestExitCodes,
    TestGenCommand,
    TestPathIO,
    TestSkeletonCommand,
    TestSweepCommand,
    TestTvCommand,
    p1_file,
    test_band_overflow_exit_4,
    test_digest_overflow_exit_4_before_any_output,
    test_file_commands_report_stage_times_and_peak_rss,
    test_non_utf8_input_exit_3,
    test_reports_name_the_codec,
    test_value_span_overflow_exit_4,
)
from test_optimal_approx import (  # noqa: F401  (collected again here)
    TestSingleSample,
    test_band_overflow_is_a_path_error_without_warnings,
    test_step_skeleton_matches_loop_on_corpus,
    test_step_skeleton_matches_loop_on_signed_zeros,
)
from test_pathio import *  # noqa: F401,F403  (collected again here)
from test_scan import (  # noqa: F401  (collected again here)
    test_bit_identical_edge_cases,
    test_bit_identical_on_corpus,
    test_bit_identical_property,
    test_non_contiguous_values,
)


@pytest.fixture(autouse=True)
def python_codec(monkeypatch):
    monkeypatch.setattr(_native, "codec", lambda: None)
    assert pathio.codec() == "python"
