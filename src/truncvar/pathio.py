"""Two-column text serialization for paths and level curves.

Path files are UTF-8 text, one ``time,value`` row per sample, with an
optional leading ``time,value`` header; a UTF-8 byte-order mark before the
first row is skipped. Numbers are written with shortest
round-trip precision (``repr``), so a write/read cycle reproduces the
exact float64 bits. Rows must already be time-sorted; unsorted input is
rejected rather than silently reordered, to surface data bugs upstream.

Both directions stream. ``read_path`` hands the lines to numpy's C reader
(``np.loadtxt``) a block at a time; on any parse failure, or when the rows
do not form n >= 1 pairs, it reruns the file through the line-by-line
parser ``_parse_lines``, which defines what a path file may hold and which
line is wrong. Lines are split as that parser splits them
(``str.splitlines``), and numpy converts each field with
``PyOS_string_to_double``, as ``float`` does, but without ``float``'s
extras (underscores, non-ASCII digits), which make the fast route fail
over. So the fast route accepts a subset of what the parser accepts, with
the same bits. ``write_columns`` is the one writer: it formats blocks of
``_BLOCK_ROWS`` rows with ``repr``, byte-identical to writing
``format_number`` row by row.
"""

from __future__ import annotations

import codecs
import itertools
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .path_model import SampledPath, make_path

PATH_HEADER = "time,value"

_READ_CHARS = 1 << 16  # characters decoded per block of lines
_BLOCK_ROWS = 1 << 13  # rows formatted per write


class FileFormatError(ValueError):
    """A row that cannot be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def format_number(x: float) -> str:
    return repr(float(x))


def write_path(path: SampledPath, dest) -> None:
    """Write a path file with full round-trip precision."""
    write_columns(dest, PATH_HEADER.split(","), (path.times, path.values))


def _line_blocks(fh) -> Iterator[list[str]]:
    """The lines of a text file in blocks, split as ``str.splitlines`` splits
    the whole text; the first block holds all of line 1.

    A block ends at a ``\\n``: universal newlines leave no ``\\r`` before it,
    so no line break straddles the cut. A block may lack an empty line that
    the whole text has, which holds no row either way.
    """
    tail = ""
    while chunk := fh.read(_READ_CHARS):
        text = tail + chunk
        cut = text.rfind("\n")
        if cut < 0:
            tail = text
            continue
        yield text[:cut].splitlines()
        tail = text[cut + 1 :]
    yield tail.splitlines()


def read_path(src) -> SampledPath:
    """Parse a path file; raises FileFormatError on malformed rows."""
    try:
        with open(src, encoding="utf-8-sig") as fh:
            blocks = _line_blocks(fh)
            first = next(blocks)
            if first and first[0].strip() == PATH_HEADER:
                del first[0]
            # a last row of our own: loadtxt warns on input without rows, and
            # silencing that would change the process-wide warning filters
            lines = itertools.chain(first, itertools.chain.from_iterable(blocks), ["0,0"])
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)[:-1]
    except ValueError:  # a field numpy cannot convert, or undecodable bytes
        rows = None
    if rows is None or rows.shape[0] == 0 or rows.shape[1] != 2:
        return _parse_lines(_read_text(src))
    return make_path(rows[:, 0], rows[:, 1])


def _read_text(src) -> str:
    """The whole file as text; bytes that are not UTF-8 are a format error."""
    data = Path(src).read_bytes()
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

    Rows run to the end of the shortest column. Each block of rows is
    formatted from Python floats with ``repr`` and joined in one go, so no
    more than ``_BLOCK_ROWS`` rows of text exist at once.
    """
    cols = [np.asarray(col, dtype=np.float64) for col in columns]
    n = min((col.shape[0] for col in cols), default=0)
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            block = [map(repr, col[lo : lo + _BLOCK_ROWS].tolist()) for col in cols]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")
