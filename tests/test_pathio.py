"""The CSV layer against its references.

``read_path`` (the native row parser, falling back to the line parser) must
give the line parser's result on every file: the same arrays bit for bit, or
the same exception with the same message and line. ``write_columns`` must
write the bytes of the per-row ``repr`` writer in ``_oracles``. The module
is marked ``both_routes``: every test runs with the native codec and again
on the Python route.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import PathError, make_path, pathio
from truncvar.pathio import FileFormatError, read_path, write_columns, write_path

from _oracles import write_columns_per_row

pytestmark = pytest.mark.both_routes

BLOCK = pathio._BLOCK_ROWS
READ_CHARS = 1 << 16  # a read buffer's size: the large files below are many of them


def line_parser(src):
    return pathio._parse_lines(pathio._decode(Path(src).read_bytes()))


def outcome(read, src):
    """The arrays' bytes, or the exception's type, message and line."""
    try:
        path = read(src)
    except (FileFormatError, PathError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return path.times.tobytes(), path.values.tobytes()


def assert_same_outcome(tmp_path, data: bytes):
    src = tmp_path / "in.csv"
    src.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(read_path, src)
    assert got == outcome(line_parser, src)
    return got


READ_CASES = {
    "empty file": b"",
    "header only": b"time,value\n",
    "blank lines": b"\n0,1\n\n\n1,2\n\n",
    "whitespace-only lines": b"time,value\n  \n0,1\n\t\n1,2\n \t \n",
    "BOM before header": b"\xef\xbb\xbftime,value\n0,1\n1,2\n",
    "BOM before a row": b"\xef\xbb\xbf0,1\n1,2\n",
    "header on line 1, padded": b" time,value \n0,1\n",
    "header on line 2": b"\ntime,value\n0,1\n",
    "header after a row": b"0,1\ntime,value\n",
    "underscore digits": b"1_000,1\n2_000,2\n",
    "non-ASCII digits": "0,\u0661\n1,\u0662\n".encode(),
    "non-ASCII space": "0,\xa01\n1,2\u3000\n".encode(),
    "trailing comma": b"0,1,\n1,2,\n",
    "hex literal": b"0x1,1\n0x2,2\n",
    "spaces around fields": b" 0 , 1 \n1\t,\t2\n",
    "nan": b"0,nan\n1,2\n",
    "inf": b"0,1\n1,-inf\n",
    "non-UTF-8 byte": b"time,value\n0,1\n1,\xff2\n",
    "non-UTF-8 after CR breaks": b"0,1\r1,2\r2,\xc3\n",
    "non-UTF-8 after a BOM": b"\xef\xbb\xbft\xffime,value\n",
    "CRLF": b"time,value\r\n0,1\r\n1,2\r\n",
    "CR": b"time,value\r0,1\r1,2\r",
    "form feed inside a row": b"0\x0c,1\n1,2\n",
    "form feed before the header": b"\x0ctime,value\n0,1\n",
    "line separators": "0,1\x1c1,2\x852,3\u20283,4\n".encode(),
    "NUL byte": b"0,1\x00\n",
    "one column": b"0\n1\n",
    "three columns": b"0,1,2\n1,2,3\n",
    "no final newline": b"0,1\n1,2",
    "signed zeros and subnormals": b"-0.0,-0.0\n5e-324,0.0\n1e-300,-5e-324\n",
    "unsorted times": b"1,1\n0,2\n",
    "value span overflow": b"0,-1e308\n1,1e308\n",
    "quoted field": b'"0",1\n',
    "leading plus": b"+1,+2\n",
    "overflowing exponent": b"0,1e400\n",
    "underflowing exponent": b"0,1e-400\n1,-1e-400\n",
    "hex float": b"0x1p3,1\n",
    "padded fields": b" 1 , 2 \n",
    "lone CR mid-file": b"0,1\n1,2\r2,3\n",
    "25-digit mantissas": b"0.1000000000000000000000001,1.999999999999999999999999\n",
}


@pytest.mark.parametrize("data", READ_CASES.values(), ids=READ_CASES.keys())
def test_read_matches_line_parser(tmp_path, data):
    assert_same_outcome(tmp_path, data)


def test_read_rejects_like_the_line_parser(tmp_path):
    # the cases the line parser rejects, with the line it names
    expect = {
        "empty file": None,
        "header on line 2": 2,
        "header after a row": 2,
        "trailing comma": 1,
        "hex literal": 1,
        "non-UTF-8 byte": 3,
        "non-UTF-8 after CR breaks": 3,
        "non-UTF-8 after a BOM": 1,
        "form feed inside a row": 1,
        "form feed before the header": 2,
        "NUL byte": 1,
        "one column": 1,
        "quoted field": 1,
    }
    for name, line in expect.items():
        kind, _, got = assert_same_outcome(tmp_path, READ_CASES[name])
        assert (kind, got) == (FileFormatError, line), name


def test_read_crosses_block_boundaries(tmp_path):
    # finite random bit patterns over many read blocks, a first line longer
    # than a block, and a bad row in the last block
    rng = np.random.default_rng(7)
    values = np.frombuffer(rng.bytes(8 * 30_000), dtype=np.float64)
    values = values[np.isfinite(values)]
    values = values[np.abs(values) < 1e300]  # keep max - min finite
    times = np.arange(values.size, dtype=float)
    src = tmp_path / "big.csv"
    write_columns(src, ("time", "value"), (times, values))
    text = src.read_bytes()
    assert len(text) > 10 * READ_CHARS
    got = assert_same_outcome(tmp_path, text)
    assert got == (times.tobytes(), values.tobytes())
    long_first = b"-1." + b"0" * (3 * READ_CHARS) + b"1,1\n" + text.split(b"\n", 1)[1]
    assert_same_outcome(tmp_path, long_first)
    kind, _, line = assert_same_outcome(tmp_path, text + b"1e400,x\n")
    assert (kind, line) == (FileFormatError, values.size + 2)


TOKENS = ["0", "1", "-0.0", "2.5e-3", "nan", "1_0", "\u0663", "0x1", "time", "value",
          ",", ",", " ", "\t", "\xa0", "\x0c", "\x1c", "\u2028", "\ufeff"]
BREAKS = ["\n", "\n", "\r\n", "\r", "\x85"]


@st.composite
def path_files(draw):
    """Mostly well-formed rows with increasing times, some lines of junk."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["time,value", " time,value", "time, value"])))
    for i in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)):
            pad = draw(st.sampled_from(["", " ", "\t"]))
            value = draw(st.sampled_from(["0", "-0.0", "1.5", "-2e-308", "1e16", "7"]))
            lines.append(f"{pad}{i}{pad},{pad}{value}{pad}")
        else:
            lines.append("".join(draw(st.lists(st.sampled_from(TOKENS), max_size=5))))
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    data = draw(st.sampled_from(["", "\ufeff"])) + text
    raw = data.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


@given(path_files())
@settings(deadline=None, max_examples=300)
def test_read_matches_line_parser_on_generated_files(tmp_path_factory, data):
    assert_same_outcome(tmp_path_factory.mktemp("gen"), data)


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                  1e16, 1e-5, 1e-4, 9.999999999999999e15, 1.7976931348623157e308,
                  -1.7976931348623157e308, -2.2250738585072014e-308, 0.1, 1 / 3, np.inf,
                  -np.inf, np.nan]


def assert_same_bytes(tmp_path, header, columns):
    write_columns(tmp_path / "new.csv", header, columns)
    write_columns_per_row(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_is_byte_identical_on_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(2026)
    bits = np.frombuffer(rng.bytes(8 * 1_000_000), dtype=np.float64)
    assert_same_bytes(tmp_path, ("a", "b"), (bits[::2], bits[1::2]))


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_write_is_byte_identical_at_block_edges(tmp_path, n):
    special = np.resize(np.array(SPECIAL_VALUES), n)
    cols = (np.arange(n, dtype=float), special, special[::-1].copy(), -special)
    assert_same_bytes(tmp_path, ("time", "utv", "dtv", "tv"), cols)


def test_write_path_matches_reference_and_reads_back(tmp_path):
    values = np.array([v for v in SPECIAL_VALUES if np.isfinite(v) and abs(v) < 1e300])
    path = make_path(np.arange(values.size) * 0.1, values)
    write_path(path, tmp_path / "new.csv")
    write_columns_per_row(tmp_path / "ref.csv", ("time", "value"), (path.times, path.values))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = read_path(tmp_path / "new.csv")
    assert back.values.tobytes() == path.values.tobytes()
    assert back.times.tobytes() == path.times.tobytes()


def test_write_columns_takes_lists_and_ints(tmp_path):
    # rows stop at the shortest column; integers print as floats
    assert_same_bytes(tmp_path, ("c", "tv"), ([1, 2, 3], np.array([4, 5], dtype=np.int64)))
