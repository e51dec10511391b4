"""Every test marked ``both_routes``, collected again on the Python route.

``conftest.both_routes_tests()`` gathers the marked classes and functions of
the other test modules by their marker, so this module names no test: a
newly marked test runs here as written. The ``route`` fixture runs each item
of this module with ``_native.library`` patched to return None, so the
Python routes of what ``_native`` lists stay covered wherever the library
builds.
"""

import pytest

from conftest import both_routes_tests

pytestmark = pytest.mark.both_routes

globals().update(both_routes_tests())
