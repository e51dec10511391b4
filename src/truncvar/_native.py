"""Loader for the native library in ``_native.cpp``, built on first use.

This is the one list of what runs natively. The library holds:

- the CSV codec of ``pathio`` (``format_rows`` and ``parse_rows``);
- ``window_scan``, the trigger state machine of ``_scan.full_scan``,
  ``_scan.rise_fall``, ``regime_detector.detect_regimes`` and the
  totals-only ``_scan.tv_scan`` (behind ``truncated_variation``, the final
  sum of ``l1_upper_bound`` and the CLI's ``tv``), all four
  run through ``_scan._machine``. It shares its contract with the Python
  machine ``_scan._window_scan``: as it walks the samples it writes only
  the outputs it is handed (a null pointer skips one), the window starts
  and the skeleton for ``detect_regimes``, the band and the rise/fall arrays
  for ``full_scan``, the rise/fall arrays alone (a null band) for
  ``rise_fall``, nothing but the totals for ``tv_scan``;
- ``running_pairs``, which builds the list of
  ``regime_detector.running_extremes`` from the validated window starts:
  the running extreme of each window and one (kind, extreme) tuple per
  sample, a new one where a window starts or the extreme moves, with the
  cyclic GC paused while it runs;
- ``greedy_skeleton``, the greedy pass of ``optimal_approx.step_skeleton``;
- ``persistence``, the rainflow pass of ``truncated_variation._persistence``
  behind ``l1_upper_bound``: plateau repeats dropped, turning points found
  and paired on a stack in one walk over the samples, the values left
  unsorted.

``running_pairs`` makes Python objects, so it is bound on the one
``ctypes.CDLL`` handle through a ``ctypes.PYFUNCTYPE`` prototype, which
holds the GIL while it runs and raises the Python error it leaves set;
every other function releases the GIL.
The skeleton ladder of ``truncated_variation.sweep`` keeps the Python
machine. ``library()`` returns the loaded library, or None when it cannot
be had; its callers then take their Python routes, which stay the
reference, and ``pathio.codec()`` (the CLI's ``codec`` report key) names
the route. The first call compiles the source with the system C++ compiler
(``c++``, else ``g++``; C++17 ``<charconv>`` with floating-point
``to_chars``/``from_chars``, as in GCC 11 or later) into ``__pycache__``
next to this file, under a name keyed by the machine and the CRC-32 of
the source and the compiler flags, so an edited source or flag gets a
fresh build and an unchanged one is built once per checkout; a new build
deletes the libraries of this machine built from earlier sources or flags.
``-ffp-contract=off`` keeps the compiler from fusing a multiply and an
add, which would change the bits of the per-sample arrays where fused
multiply-add is baseline. The build writes to a temporary name and then
renames it into place, so processes that build at the same time each
load a whole library. Nothing is built at import, and compiler output is
captured, never printed. No compiler, a cache that cannot be written, or
a failed build or load all give None.
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
_FLAGS = ("-std=c++17", "-O2", "-ffp-contract=off", "-shared", "-fPIC")

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_OBJ = ctypes.py_object


@functools.cache
def library():
    """The native library, or None when it cannot be built or loaded."""
    try:
        lib_path = _CACHE / _library_name(_SOURCE.read_bytes(), _FLAGS)
        if not lib_path.is_file() and not _build(lib_path):
            return None
        lib = ctypes.CDLL(str(lib_path))
    except OSError:  # no source, an unwritable cache, or a library that won't load
        return None
    lib.format_rows.argtypes = (_PTR, _I64, _I64, _I64, _PTR)
    lib.format_rows.restype = _I64
    lib.parse_rows.argtypes = (ctypes.c_char_p, _I64, _PTR, _PTR, _I64)
    lib.parse_rows.restype = _I64
    lib.window_scan.argtypes = (_PTR, _I64, _F64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR)
    lib.window_scan.restype = _I64
    lib.greedy_skeleton.argtypes = (_PTR, _I64, _F64, _PTR)
    lib.greedy_skeleton.restype = _I64
    lib.persistence.argtypes = (_PTR, _I64, _PTR, _PTR)
    lib.persistence.restype = _I64
    prototype = ctypes.PYFUNCTYPE(_OBJ, _PTR, _I64, _PTR, _I64, _I64, _OBJ, _OBJ, _OBJ)
    lib.running_pairs = prototype(("running_pairs", lib))
    return lib


def _library_name(source: bytes, flags: tuple[str, ...]) -> str:
    """The cache name of the library built from ``source`` with ``flags``."""
    key = zlib.crc32(" ".join(flags).encode(), zlib.crc32(source))
    return f"_native-{os.uname().machine}-{key:08x}.so"


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
                _prune(lib_path)
                return True
        return False
    finally:
        tmp.unlink(missing_ok=True)


def _prune(lib_path: Path) -> None:
    """Delete this machine's other cached libraries, which earlier sources or
    flags built; other processes' ``*.tmp`` builds are left alone."""
    for old in lib_path.parent.glob(f"_native-{os.uname().machine}-*.so"):
        if old != lib_path:
            try:
                old.unlink()
            except OSError:  # gone already, or not ours to remove
                pass
