"""Two-column text serialization for paths and level curves.

Path files are UTF-8 text, one ``time,value`` row per sample, with an
optional leading ``time,value`` header; a UTF-8 byte-order mark before the
first row is skipped. Numbers are written with shortest
round-trip precision (``repr``), so a write/read cycle reproduces the
exact float64 bits. Rows must already be time-sorted; unsorted input is
rejected rather than silently reordered, to surface data bugs upstream.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .path_model import SampledPath, make_path

PATH_HEADER = "time,value"


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
    lines = [PATH_HEADER]
    lines.extend(
        f"{format_number(t)},{format_number(v)}"
        for t, v in zip(path.times, path.values)
    )
    Path(dest).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_path(src) -> SampledPath:
    """Parse a path file; raises FileFormatError on malformed rows."""
    text = Path(src).read_text(encoding="utf-8-sig")
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
    """Write aligned numeric columns under a comma-separated header."""
    rows = [",".join(header)]
    for row in zip(*columns):
        rows.append(",".join(format_number(x) for x in row))
    Path(dest).write_text("\n".join(rows) + "\n", encoding="utf-8")
