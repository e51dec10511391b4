"""The CSV tests and the file-command CLI tests on the Python route.

``pathio`` takes its Python routes whenever the native codec cannot be
built or loaded; the autouse fixture below forces that, so the reference
reader and writer stay covered wherever the codec builds.
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
from test_pathio import *  # noqa: F401,F403  (collected again here)


@pytest.fixture(autouse=True)
def python_codec(monkeypatch):
    monkeypatch.setattr(_native, "codec", lambda: None)
    assert pathio.codec() == "python"
