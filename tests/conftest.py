"""Shared fixtures, and the one switch between the native and the Python route.

The loops that ``_native`` lists run in the native library whenever
``_native.library()`` loads it, and take their Python routes, which stay
the reference, when it returns None. A module, class or function marked
``both_routes`` runs on both routes: in its own module on the native
library, and again in ``test_python_codec.py``, which gathers every marked
test with ``both_routes_tests()``, with ``library`` patched to return None
for that one test. So an unmarked test always sees the unpatched library.
Where the library does not build, the native items skip rather than run the
Python route twice.
"""

import contextlib
import importlib
from pathlib import Path

import pytest

from truncvar import _native, make_path, pathio
from truncvar.pathio import write_path

NO_LIB = "the native library cannot be built here"
needs_lib = pytest.mark.skipif(_native.library() is None, reason=NO_LIB)

PYTHON_ROUTE_MODULE = "test_python_codec"


@contextlib.contextmanager
def python_route():
    """Inside this block every caller of ``_native.library`` takes its Python route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "library", lambda: None)
        assert pathio.codec() == "python"
        yield


def _marked(obj):
    marks = getattr(obj, "pytestmark", [])
    marks = marks if isinstance(marks, list) else [marks]
    return any(mark.name == "both_routes" for mark in marks)


def both_routes_tests():
    """Every test class and function marked ``both_routes``, by name, from
    the other test modules (a module's ``pytestmark`` marks all of its tests)."""
    found = {}
    for file in sorted(Path(__file__).parent.glob("test_*.py")):
        if file.stem == PYTHON_ROUTE_MODULE:
            continue
        module = importlib.import_module(file.stem)
        whole = _marked(module)
        for name, obj in vars(module).items():
            if not name.startswith(("test", "Test")) or getattr(obj, "__module__", None) != file.stem:
                continue
            if whole or _marked(obj):
                if name in found:
                    raise NameError(f"{name} is marked both_routes in two modules")
                found[name] = obj
    return found


# Autouse and function-scoped, so that the patch lasts one test; it is not an
# argument of any ``@given`` test, so hypothesis does not flag it.
@pytest.fixture(autouse=True)
def route(request):
    """The route of a ``both_routes`` item; None, with nothing patched, elsewhere."""
    if request.node.get_closest_marker("both_routes") is None:
        yield None
    elif request.module.__name__ == PYTHON_ROUTE_MODULE:
        with python_route():
            yield "python"
    else:
        if _native.library() is None:
            pytest.skip(NO_LIB)
        yield "native"


@pytest.fixture
def p1():
    return make_path([0, 1, 2, 3, 4], [0.0, 1.0, 0.2, 1.2, 0.2])


@pytest.fixture
def p3():
    return make_path([0, 1], [5.0, 5.0])


@pytest.fixture
def ramp3():
    return make_path([0, 1, 2], [0.0, 1.0, 2.0])


@pytest.fixture
def p1_file(tmp_path, p1):
    dest = tmp_path / "p1.csv"
    write_path(p1, dest)
    return str(dest)
