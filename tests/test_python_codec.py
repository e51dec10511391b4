"""Every test marked ``both_routes``, collected again on the Python route.

``conftest.both_routes_tests()`` gathers the marked classes and functions of
the other test modules by their marker, so this module names no test: a
newly marked test runs here as written. The ``route`` fixture runs each item
of this module with ``_native.codec`` patched to return None, so the
reference reader and writer, the numpy derivation of the per-sample scan
arrays and the greedy Python loop stay covered wherever the library builds.
"""

import pytest

from conftest import both_routes_tests

pytestmark = pytest.mark.both_routes

globals().update(both_routes_tests())
