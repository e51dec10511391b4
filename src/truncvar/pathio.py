"""Two-column text serialization for paths and level curves.

Path files are UTF-8 text, one ``time,value`` row per sample, with an
optional leading ``time,value`` header; a UTF-8 byte-order mark before the
first row is skipped. Numbers are written with shortest
round-trip precision (``repr``), so a write/read cycle reproduces the
exact float64 bits. Rows must already be time-sorted; unsorted input is
rejected rather than silently reordered, to surface data bugs upstream.

Each direction has two routes: the native codec (``_native.cpp``, C++17
``<charconv>``), and a Python route that is the reference for it. The
codec is compiled with the system C++ compiler the first time a file is
read or written and cached in the package's ``__pycache__``; without a
compiler, a writable cache or a library that loads, every call takes the
Python route. ``codec()`` says which one is in use. It names the whole
native library, so the same answer holds for the other loops that
``_native`` lists.

``read_path`` reads the whole file and hands it to the native row parser,
which accepts a strict subset of path files (ASCII decimal numbers, blanks
around fields, ``\\n`` or ``\\r\\n`` line ends) and gives ``float``'s bits on
it. On anything else, and on a file without rows, it re-reads the text
with ``_parse_lines``, which defines what a path file may hold (it also
takes ``1_000``, ``inf`` or non-ASCII digits, as ``float`` does) and names
the bad line. ``write_columns`` is the one writer: it formats blocks of
``_BLOCK_ROWS`` rows natively, or with ``repr`` on the Python route, and
both give the bytes of writing ``format_number`` row by row.
"""

from __future__ import annotations

import codecs
import ctypes
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _native
from .path_model import SampledPath, make_path

PATH_HEADER = "time,value"

_BLOCK_ROWS = 1 << 13  # rows formatted per write
_FIELD_BYTES = 25  # the longest repr of a float64 and its separator


class FileFormatError(ValueError):
    """A row that cannot be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def format_number(x: float) -> str:
    return repr(float(x))


def codec() -> str:
    """``"native"`` when the native library (``_native`` lists what it
    holds) is loaded, else ``"python"``."""
    return "python" if _native.library() is None else "native"


def write_path(path: SampledPath, dest) -> None:
    """Write a path file with full round-trip precision."""
    write_columns(dest, PATH_HEADER.split(","), (path.times, path.values))


def read_path(src) -> SampledPath:
    """Parse a path file; raises FileFormatError on malformed rows."""
    data = Path(src).read_bytes()
    lib = _native.library()
    if lib is not None:
        cap = data.count(b"\n") + 1  # no more rows than lines
        times, values = np.empty(cap), np.empty(cap)
        n = lib.parse_rows(data, len(data), times.ctypes.data, values.ctypes.data, cap)
        if n > 0:
            return make_path(times[:n], values[:n])
    return _parse_lines(_decode(data))


def _decode(data: bytes) -> str:
    """A file's bytes as text; bytes that are not UTF-8 are a format error."""
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, numbered as _parse_lines numbers lines
        line = len((body[: exc.start].decode("utf-8") + "x").splitlines())
        at = exc.start + len(data) - len(body)
        raise FileFormatError(f"not UTF-8 text (byte {at})", line) from None


def _parse_lines(text: str) -> SampledPath:
    """The reference path-file parser, one line at a time."""
    times: list[float] = []
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line == PATH_HEADER:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise FileFormatError(
                f"expected 2 comma-separated fields, got {len(fields)}", lineno
            )
        try:
            t = float(fields[0])
            v = float(fields[1])
        except ValueError:
            raise FileFormatError(f"non-numeric row {line!r}", lineno) from None
        times.append(t)
        values.append(v)
    if not times:
        raise FileFormatError("no data rows")
    return make_path(np.array(times), np.array(values))


def write_columns(dest, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write aligned numeric columns under a comma-separated header.

    Rows run to the end of the shortest column and are written a block of
    ``_BLOCK_ROWS`` rows at a time, so no more than one block of text exists
    at once.
    """
    cols = [np.ascontiguousarray(col, dtype=np.float64) for col in columns]
    n = min((col.shape[0] for col in cols), default=0)
    lib = _native.library()
    blocks = _repr_blocks(cols, n) if lib is None else _native_blocks(lib, cols, n)
    with open(dest, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            fh.write(block)


def _native_blocks(lib, cols, n):
    """Blocks of rows formatted by the native codec; each is a view of one
    buffer that the next block overwrites."""
    pointers = (ctypes.c_void_p * len(cols))(*(col.ctypes.data for col in cols))
    buf = np.empty(min(n, _BLOCK_ROWS) * len(cols) * _FIELD_BYTES, np.uint8)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        yield buf[: lib.format_rows(pointers, len(cols), lo, hi, buf.ctypes.data)]


def _repr_blocks(cols, n):
    """Blocks of rows formatted with ``repr``: the reference for the codec."""
    for lo in range(0, n, _BLOCK_ROWS):
        block = [map(repr, col[lo : lo + _BLOCK_ROWS].tolist()) for col in cols]
        yield ("\n".join(map(",".join, zip(*block))) + "\n").encode()
