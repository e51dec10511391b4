"""Loader for the C++ CSV codec in ``_native.cpp``, built on first use.

``codec()`` returns the loaded library, or None when it cannot be had; the
callers in ``pathio`` then take their Python routes. The first call
compiles the source with the system C++ compiler (``c++``, else ``g++``;
C++17 ``<charconv>`` with floating-point ``to_chars``/``from_chars``, as in
GCC 11 or later) into ``__pycache__`` next to this file, under a name keyed
by the source's CRC-32, so an edited source gets a fresh build and an
unchanged one is built once per checkout. The build writes to a temporary
name and then renames it into place, so processes that build at the same
time each load a whole library. Nothing is built at import, and compiler
output is captured, never printed. No compiler, a cache that cannot be
written, or a failed build or load all give None.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_native.cpp")
_CACHE = Path(__file__).with_name("__pycache__")
_COMPILERS = ("c++", "g++")
_FLAGS = ("-std=c++17", "-O2", "-shared", "-fPIC")

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


@functools.cache
def codec():
    """The codec library, or None when it cannot be built or loaded."""
    try:
        source = _SOURCE.read_bytes()
        name = f"_native-{os.uname().machine}-{zlib.crc32(source):08x}.so"
        lib_path = _CACHE / name
        if not lib_path.is_file() and not _build(lib_path):
            return None
        lib = ctypes.CDLL(str(lib_path))
    except OSError:  # no source, an unwritable cache, or a library that won't load
        return None
    lib.format_rows.argtypes = (_PTR, _I64, _I64, _I64, _PTR)
    lib.format_rows.restype = _I64
    lib.parse_rows.argtypes = (ctypes.c_char_p, _I64, _PTR, _PTR, _I64)
    lib.parse_rows.restype = _I64
    return lib


def _build(lib_path: Path) -> bool:
    """Compile the source to ``lib_path``; False when no compiler builds it."""
    import subprocess

    lib_path.parent.mkdir(exist_ok=True)
    tmp = lib_path.with_name(f"{lib_path.name}.{os.getpid()}.tmp")
    try:
        for compiler in _COMPILERS:
            try:
                run = subprocess.run(
                    [compiler, *_FLAGS, "-o", str(tmp), str(_SOURCE)],
                    stdin=subprocess.DEVNULL,
                    capture_output=True,
                    timeout=120,
                )
            except (OSError, subprocess.SubprocessError):  # not installed, or hung
                continue
            if run.returncode == 0:
                os.replace(tmp, lib_path)
                return True
        return False
    finally:
        tmp.unlink(missing_ok=True)
