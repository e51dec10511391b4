"""The native CSV codec against ``repr`` and ``float``, and its loader.

``format_rows`` must write ``repr``'s bytes for every float64. ``parse_rows``
must give ``float``'s bits on the rows it accepts and return -1 on anything
outside its subset, so that ``read_path`` re-reads with the line parser.
The loader must fall back to None, silently, when it cannot build or load,
and must name its cached build by the source and the compiler flags. The
source must compile under its flags with ``-Wall -Wextra -Werror``. Its one
function that makes Python objects, ``running_pairs``, must hold the GIL and
leave no reference or memory behind, and must leave the cyclic GC as enabled
or disabled as it found it.
"""

import ctypes
import gc
import math
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import _native, detect_regimes, make_path, pathio, running_extremes
from truncvar.regime_detector import _KINDS

from conftest import needs_lib

LIB = _native.library()


def native_repr(values) -> list[str]:
    col = np.ascontiguousarray(values, dtype=np.float64)
    return native_text([col], col.size).split("\n")[:-1]


def native_text(cols, n) -> str:
    # each block is a view of one reused buffer: copy it before the next
    return b"".join(map(bytes, pathio._native_blocks(LIB, cols, n))).decode("ascii")


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    assert native_repr(values) == [repr(x) for x in values.tolist()]


@needs_lib
def test_format_matches_repr_on_random_bit_patterns():
    rng = np.random.default_rng(77)
    bits = rng.integers(0, 2**64, size=2_000_000, dtype=np.uint64, endpoint=False)
    assert_repr(bits.view(np.float64))


@needs_lib
def test_format_matches_repr_on_random_positional_values():
    # few random bit patterns fall in [1e-4, 1e16), where format_rows writes
    # fixed form: draw binades log-uniform over that range, then a full
    # random mantissa and sign in each
    rng = np.random.default_rng(78)
    n = 200_000
    binades = (10.0 ** rng.uniform(-4.0, 16.0, n)).view(np.uint64) & np.uint64(0x7FF << 52)
    mantissas = rng.integers(0, 2**52, n, dtype=np.uint64)
    signs = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    values = (binades | mantissas | signs).view(np.float64)
    assert_repr(values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)])


def structured_values() -> np.ndarray:
    big = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_subnormal
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    around_2_53 = 2.0**53 + np.arange(-64, 65)
    switches = np.array([1e16, 9999999999999998.0, 1e-4, 1e-5, 0.0001, 0.00001,
                         123456789012345680.0, 1234567890123456.8, 0.1, 1 / 3])
    subnormals = np.arange(1, 2000) * tiny
    edges = np.concatenate([powers, tens, around_2_53, switches, subnormals,
                            [tiny, big, np.finfo(np.float64).tiny]])
    with np.errstate(over="ignore"):  # the neighbours of float max are inf
        neighbours = np.concatenate([np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    every = np.concatenate([edges, neighbours, [0.0, np.inf, np.nan]])
    return np.concatenate([every, -every])


@needs_lib
def test_format_matches_repr_on_structured_edges():
    values = structured_values()
    assert_repr(values)
    # a row of several columns, and integral values of every width
    assert_repr(np.arange(-5000, 5000, dtype=np.float64) * 1e12)
    cols = [values, values[::-1].copy(), -values]
    text = native_text(cols, values.size)
    rows = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in cols))]
    assert text.split("\n")[:-1] == rows


def parse(data: bytes):
    """``parse_rows`` on ``data``: the rows' bits, or -1."""
    cap = data.count(b"\n") + 1
    times, values = np.empty(cap), np.empty(cap)
    n = LIB.parse_rows(data, len(data), times.ctypes.data, values.ctypes.data, cap)
    return n if n < 0 else (times[:n].tobytes(), values[:n].tobytes())


def bits(numbers) -> bytes:
    return np.array(numbers, dtype=np.float64).tobytes()


# inputs outside the parser's subset; the line parser settles each of them
REJECTED = {
    "leading plus": b"+1,2\n",
    "underscore": b"1_0,2\n",
    "overflow": b"0,1e400\n",
    "underflow": b"0,1e-400\n",
    "hex float": b"0x1p3,1\n",
    "inf": b"0,inf\n",
    "negative infinity": b"0,-Infinity\n",
    "nan": b"0,nan\n",
    "lone CR": b"0,1\r1,2\n",
    "CR at the end": b"0,1\r",
    "form feed": b"0,1\x0c\n",
    "vertical tab": b"0\x0b,1\n",
    "NUL": b"0,1\x00\n",
    "non-ASCII space": "0,\xa01\n".encode(),
    "non-ASCII digit": "0,١\n".encode(),
    "capital header": b"Time,Value\n0,1\n",
    "spaced header": b"time, value\n0,1\n",
    "header on line 2": b"\ntime,value\n0,1\n",
    "trailing comma": b"0,1,\n",
    "one field": b"0\n",
    "two numbers in a field": b"0,1 2\n",
    "lone minus": b"-,1\n",
    "lone point": b"0,.\n",
    "bare exponent": b"1e,2\n",
    "exponent without digits": b"1e+,2\n",
    "quoted": b'"0",1\n',
}

ACCEPTED = {
    "blanks around fields": (b" 1 , 2 \n\t3\t,\t-4\t\n", [1, 3], [2, -4]),
    "CRLF and a header": (b"time,value\r\n0,1\r\n1,2\r\n", [0, 1], [1, 2]),
    "BOM, padded header": (b"\xef\xbb\xbf time,value \n0,1", [0], [1]),
    "blank lines": (b"\n \n0,1\n\t\n\n1,2\n\n", [0, 1], [1, 2]),
    "spellings": (b"1.,.5\n2E3,-0.0\n3,1e+05\n4,00012\n", [1, 2000, 3, 4], [0.5, -0.0, 1e5, 12]),
    "25-digit mantissas": (
        b"0.1000000000000000000000001,1.999999999999999999999999\n"
        b"2,2.225073858507201136057409e-308\n",
        [0.1, 2.0],
        [float("1.999999999999999999999999"), float("2.225073858507201136057409e-308")],
    ),
    "subnormals": (b"0,5e-324\n1,-4.9e-324\n2,2.4703282292062328e-324\n",
                   [0, 1, 2], [5e-324, -5e-324, 5e-324]),
}


@needs_lib
@pytest.mark.parametrize("data", REJECTED.values(), ids=REJECTED.keys())
def test_parse_rejects_outside_its_subset(data):
    assert parse(data) == -1


@needs_lib
@pytest.mark.parametrize("case", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_parse_accepts_its_subset(case):
    data, times, values = case
    assert parse(data) == (bits(times), bits(values))


@needs_lib
def test_parse_gives_no_rows_on_files_without_rows():
    # read_path re-reads these with the line parser, which names the error
    for data in (b"", b"time,value\n", b"\n\n", b"\xef\xbb\xbf"):
        assert parse(data) == (b"", b"")


@st.composite
def decimal_strings(draw):
    """Decimal numbers within float64's range, in every spelling parse_rows takes."""
    digits = draw(st.text("0123456789", min_size=1, max_size=30))
    point = draw(st.integers(0, len(digits)))
    mantissa = digits[:point] + draw(st.sampled_from([".", ""])) + digits[point:]
    if mantissa == ".":
        mantissa = "0."
    if draw(st.booleans()):
        exp = draw(st.integers(-250, 250))
        mantissa += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        mantissa += str(abs(exp)).zfill(draw(st.integers(1, 4)))
    return draw(st.sampled_from(["", "-"])) + mantissa


finite = st.floats(allow_nan=False, allow_infinity=False)
spelled = st.one_of(
    decimal_strings(),
    finite.map(repr),
    st.tuples(finite, st.integers(0, 40)).map(lambda x: f"{x[0]:.{x[1]}e}"),
    st.tuples(finite.filter(lambda x: abs(x) < 1e20), st.integers(0, 30)).map(
        lambda x: f"{x[0]:.{x[1]}f}"
    ),
).filter(lambda s: math.isfinite(float(s)))  # "2e+308" is out of range


@needs_lib
@given(st.lists(st.tuples(spelled, spelled), min_size=1, max_size=6),
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", " ", "\t "]))
@settings(deadline=None, max_examples=400)
def test_parse_matches_float(rows, newline, pad):
    data = "".join(f"{pad}{t}{pad},{pad}{v}{pad}{newline}" for t, v in rows).encode()
    want_t, want_v = zip(*((float(t), float(v)) for t, v in rows))
    assert parse(data) == (bits(want_t), bits(want_v))


@pytest.fixture
def loader(monkeypatch, tmp_path):
    """``_native`` with a fresh cache under ``tmp_path`` and no library loaded."""
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
    _native.library.cache_clear()
    yield monkeypatch
    _native.library.cache_clear()


def assert_python_route(tmp_path):
    """Files written and read on the Python route match the reference."""
    assert pathio.codec() == "python"
    values = structured_values()
    values = values[np.isfinite(values) & (np.abs(values) < 1e300)]
    path = make_path(np.arange(values.size, dtype=float), values)
    pathio.write_path(path, tmp_path / "p.csv")
    got = tmp_path / "p.csv"
    assert got.read_bytes().splitlines()[1:] == [
        f"{t!r},{v!r}".encode() for t, v in zip(path.times.tolist(), values.tolist())
    ]
    assert pathio.read_path(got).values.tobytes() == values.tobytes()


def test_missing_compiler_gives_the_python_route_silently(loader, tmp_path, capfd):
    loader.setattr(_native, "_COMPILERS", ("no-such-compiler++",))
    assert _native.library() is None
    assert_python_route(tmp_path)
    assert capfd.readouterr() == ("", "")


def test_unwritable_cache_gives_the_python_route_silently(loader, tmp_path, capfd):
    # a cache under a regular file cannot be made, whatever the permissions
    (tmp_path / "file").write_text("")
    loader.setattr(_native, "_CACHE", tmp_path / "file" / "cache")
    assert _native.library() is None
    assert_python_route(tmp_path)
    assert capfd.readouterr() == ("", "")


def test_failed_build_prints_nothing_and_leaves_nothing(loader, tmp_path, capfd):
    broken = tmp_path / "broken.cpp"
    broken.write_text("#error this source does not compile\n")
    loader.setattr(_native, "_SOURCE", broken)
    assert _native.library() is None
    assert capfd.readouterr() == ("", "")
    assert list((tmp_path / "cache").iterdir()) == []


@needs_lib
def test_build_is_cached_by_source_and_safe_in_parallel(loader, tmp_path):
    cache = tmp_path / "cache"
    code = (
        "import sys; from pathlib import Path; from truncvar import _native, pathio\n"
        "_native._CACHE = Path(sys.argv[1]); print(pathio.codec())"
    )
    runs = [subprocess.Popen([sys.executable, "-c", code, str(cache)], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) for _ in range(2)]
    assert [run.communicate(timeout=300) for run in runs] == [("native\n", "")] * 2
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].endswith(".so")
    # a later first use loads the cached library without building
    loader.setattr(_native, "_build", lambda lib_path: pytest.fail("rebuilt"))
    assert _native.library() is not None


@needs_lib
def test_a_build_prunes_libraries_of_earlier_sources(loader, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    machine = os.uname().machine
    stale = [cache / f"_native-{machine}-{key}.so" for key in ("00000000", "ffffffff")]
    kept = [
        cache / f"_native-{machine}-12345678.so.4242.tmp",  # another process's build
        cache / "_native-other-machine-12345678.so",
        cache / "notes.txt",
    ]
    for file in stale + kept:
        file.write_bytes(b"not a shared object")
    refused = cache / f"_native-{machine}-deadbeef.so"  # unlink raises IsADirectoryError
    refused.mkdir()
    assert _native.library() is not None
    name = _native._library_name(_native._SOURCE.read_bytes(), _native._FLAGS)
    assert sorted(os.listdir(cache)) == sorted([name, refused.name, *(f.name for f in kept)])


def test_library_name_is_keyed_by_source_and_flags():
    source = _native._SOURCE.read_bytes()
    name = _native._library_name(source, _native._FLAGS)
    assert name == _native._library_name(source, tuple(_native._FLAGS))
    assert "-ffp-contract=off" in _native._FLAGS  # keeps a*b+c unfused: same bits everywhere
    other_opt = tuple(f.replace("-O2", "-O3") for f in _native._FLAGS)
    for flags in (_native._FLAGS[:-1], (*_native._FLAGS, "-g"), other_opt):
        assert _native._library_name(source, flags) != name
    assert _native._library_name(source + b"\n", _native._FLAGS) != name


def test_source_builds_without_warnings(tmp_path):
    compiler = next(filter(shutil.which, _native._COMPILERS), None)
    if compiler is None:
        pytest.skip("no C++ compiler")
    flags = [*_native._FLAGS, "-Wall", "-Wextra", "-Werror"]
    argv = [compiler, *flags, "-o", str(tmp_path / "lib.so"), str(_native._SOURCE)]
    run = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         timeout=300)
    assert (run.returncode, run.stderr) == (0, "")


def test_failed_load_gives_the_python_route(loader, tmp_path):
    # a cached file under the library's name that is no library
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / _native._library_name(_native._SOURCE.read_bytes(), _native._FLAGS)).write_bytes(
        b"not a shared object"
    )
    assert _native.library() is None
    path = make_path([0, 1, 2, 3, 4], [0.0, 1.0, 0.2, 1.2, 0.2])
    assert running_extremes(path, detect_regimes(path, 0.6)) == [
        ("seek", 0.0), ("up", 1.0), ("down", 0.2), ("up", 1.2), ("down", 0.2),
    ]
    assert_python_route(tmp_path)


@needs_lib
def test_only_running_pairs_holds_the_gil():
    assert LIB.running_pairs._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    for name in ("format_rows", "parse_rows", "window_scan", "greedy_skeleton"):
        assert not getattr(LIB, name)._flags_ & ctypes._FUNCFLAG_PYTHONAPI, name


@needs_lib
def test_running_pairs_leaves_no_reference_or_memory_behind():
    rng = np.random.default_rng(3)
    path = make_path(np.arange(5000.0), np.cumsum(rng.standard_normal(5000)))
    dec = detect_regimes(path, 1.0)
    labels = list(_KINDS)  # the label objects running_extremes passes
    running_extremes(path, dec)  # warm caches and free lists first
    gc.collect()
    counts = [sys.getrefcount(label) for label in labels]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            running_extremes(path, dec)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [sys.getrefcount(label) for label in labels] == counts
    assert grown < 64 * 1024  # one dropped result of 5000 pairs is ~0.4 MB


@needs_lib
def test_running_pairs_raises_the_error_of_a_failed_allocation():
    # a list this long is refused before anything is allocated or read
    with pytest.raises(MemoryError):
        LIB.running_pairs(None, 2**62, None, 0, 0, *_KINDS)


@needs_lib
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_running_pairs_restores_the_gc_setting(enabled):
    # the collector is paused while the list is built, and only re-enabled
    # if it was on, after a finished list and after a failed allocation alike
    path = make_path(np.arange(50.0), np.sin(np.arange(50.0)))
    dec = detect_regimes(path, 0.5)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        running_extremes(path, dec)
        assert gc.isenabled() is enabled
        with pytest.raises(MemoryError):
            LIB.running_pairs(None, 2**62, None, 0, 0, *_KINDS)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
