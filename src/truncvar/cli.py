"""Command line surface: analyze path files, emit machine-readable reports.

Every subcommand prints a flat ``key=value`` report: the command name, a
digest of the input path, the level(s) used, the operation's results, and
``wall_ms``, the wall time of all of the command's computation in
milliseconds (the ``--prefix`` curves included). Each command computes
only what it prints: ``tv --prefix`` reads its totals off the curves'
last entries, and ``decompose`` builds no band.
Every report puts ``codec`` before ``wall_ms``: ``native`` when the
process loaded the native library and ``python`` when it runs the Python
routes; ``_native`` lists what the library runs. A file the native reader
refuses is parsed by the Python line parser, still under
``codec=native``. Reports add ``read_ms`` (when a file was read), ``write_ms``
(when files were written) and ``peak_rss_kb``, the process's peak resident
set size from ``getrusage`` (KiB on Linux). Floats are rendered with
shortest round-trip precision. Exit codes: 0 success, 2 bad usage, 3
malformed input data, 4 numeric-domain violation (e.g. a non-positive
level, a total that overflows float64, or, from ``approx``, a band that
does), 5 I/O failure. All behavior is controlled by flags; there is no
configuration file and no environment lookup.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

from .optimal_approx import (
    jordan_pair,
    lazy_approximation,
    step_skeleton,
    zero_start_approximation,
)
from .path_model import PathError, SampledPath, osc_norm, positive_reals, total_variation
from .pathio import (
    FileFormatError,
    codec,
    format_number,
    read_path,
    write_columns,
    write_path,
)
from .synth import _EXTRA_KEYS, KINDS, GeneratorSpec, generate
from .truncated_variation import prefix_curves, sweep, truncated_variation

EXIT_OK = 0
EXIT_MALFORMED = 3
EXIT_DOMAIN = 4
EXIT_IO = 5

# PathError codes that indicate broken input data rather than a bad number
_DATA_CODES = {"empty-path", "length-mismatch", "non-finite", "times-not-increasing"}

# the generator's optional knobs: GeneratorSpec.extra keys, and gen's flags
_GEN_EXTRA = tuple(key for knobs in _EXTRA_KEYS.values() for key in knobs)


def _digest(path: SampledPath) -> list[tuple[str, object]]:
    """The input's digest. Commands take it before any output is written, so
    an input whose total variation overflows (``tv-overflow``) leaves none."""
    lo, hi = path.domain
    return [
        ("n", path.n),
        ("t_start", lo),
        ("t_end", hi),
        ("osc_norm", osc_norm(path)),
        ("total_variation", total_variation(path)),
    ]


def _timed(fn, *args):
    """``(fn(*args), elapsed ms)``."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def _read(args):
    """``(path, report head, read ms)`` for a command that reads ``args.input``."""
    path, read_ms = _timed(read_path, args.input)
    return path, [("command", args.cmd), ("input", args.input), *_digest(path)], read_ms


def _file_stages(wall_ms, read_ms=None, write_ms=None) -> list[tuple[str, object]]:
    entries = [("codec", codec()), ("wall_ms", wall_ms)]
    entries += [] if read_ms is None else [("read_ms", read_ms)]
    entries += [] if write_ms is None else [("write_ms", write_ms)]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return entries + [("peak_rss_kb", int(peak))]


def _parse_levels(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise PathError("bad-level-grid", f"expected lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise PathError("bad-level-grid", f"non-numeric grid {spec!r}") from None
    positive_reals([lo, hi, step], "bad-level-grid", "lo, hi and step")
    if hi < lo:
        raise PathError("bad-level-grid", "need lo <= hi")
    try:
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        return lo + step * np.arange(count)
    except (OverflowError, ValueError, MemoryError):
        # (hi - lo) / step past float64, or more levels than numpy can allocate
        raise PathError("bad-level-grid", f"too many levels in {spec!r}") from None


def _cmd_tv(args):
    path, entries, read_ms = _read(args)
    write_ms = None
    if args.prefix is None:
        result, wall_ms = _timed(truncated_variation, path, args.level)
        totals = (result.utv, result.dtv, result.tv)
    else:  # the curves end on the totals: one scan gives both
        curves, wall_ms = _timed(prefix_curves, path, args.level)
        totals = tuple(float(curve[-1]) for curve in curves)
    entries += [("c", float(args.level)), *zip(("utv", "dtv", "tv"), totals)]
    if args.prefix is not None:
        columns = (path.times, *curves)
        _, write_ms = _timed(write_columns, args.prefix, ("time", "utv", "dtv", "tv"), columns)
        entries.append(("prefix_file", args.prefix))
    return entries + _file_stages(wall_ms, read_ms, write_ms)


def _cmd_approx(args):
    path, entries, read_ms = _read(args)
    method = zero_start_approximation if args.zero_start else lazy_approximation
    result, wall_ms = _timed(method, path, args.level)
    _, write_ms = _timed(write_path, result.approximation, args.out)
    entries += [
        ("c", float(args.level)),
        ("zero_start", int(args.zero_start)),
        ("achieved_tv", result.achieved_tv),
        ("sup_error", result.sup_error),
        ("out", args.out),
    ]
    return entries + _file_stages(wall_ms, read_ms, write_ms)


def _cmd_decompose(args):
    path, entries, read_ms = _read(args)
    pair, wall_ms = _timed(jordan_pair, path, args.level)
    up, down = pair.up_component, pair.down_component
    _, up_ms = _timed(write_path, SampledPath(path.times, up), args.out_up)
    _, down_ms = _timed(write_path, SampledPath(path.times, down), args.out_down)
    entries += [
        ("c", float(args.level)),
        ("utv", float(up[-1])),
        ("dtv", float(down[-1])),
        ("out_up", args.out_up),
        ("out_down", args.out_down),
    ]
    return entries + _file_stages(wall_ms, read_ms, up_ms + down_ms)


def _cmd_sweep(args):
    path, entries, read_ms = _read(args)
    levels = _parse_levels(args.levels)
    curve, wall_ms = _timed(sweep, path, levels)
    _, write_ms = _timed(write_columns, args.out, ("c", "tv"), (curve.levels, curve.tv_values))
    entries += [
        ("levels", args.levels),
        ("n_levels", int(curve.levels.size)),
        ("out", args.out),
    ]
    return entries + _file_stages(wall_ms, read_ms, write_ms)


def _cmd_skeleton(args):
    path, entries, read_ms = _read(args)
    skeleton, wall_ms = _timed(step_skeleton, path, args.level)
    _, write_ms = _timed(write_path, skeleton, args.out)
    entries += [
        ("c", float(args.level)),
        ("n_breakpoints", skeleton.n),
        ("out", args.out),
    ]
    return entries + _file_stages(wall_ms, read_ms, write_ms)


def _cmd_gen(args):
    extra = {key: getattr(args, key) for key in _GEN_EXTRA if getattr(args, key) is not None}
    spec = GeneratorSpec(args.kind, args.length, seed=args.seed, scale=args.scale, extra=extra)
    path, wall_ms = _timed(generate, spec)
    entries = [("command", "gen"), *_digest(path)]
    _, write_ms = _timed(write_path, path, args.out)
    entries += [
        ("kind", spec.kind),
        ("length", spec.length),
        ("seed", spec.seed),
        ("scale", float(spec.scale)),
    ]
    entries += [(k, float(v)) for k, v in sorted(spec.extra.items())]
    entries.append(("out", args.out))
    return entries + _file_stages(wall_ms, write_ms=write_ms)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncvar",
        description="Truncated variation toolkit for sampled step functions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    # the input file and the level, shared by the commands that analyze one path
    at_level = argparse.ArgumentParser(add_help=False)
    at_level.add_argument("input", help="path file (time,value rows)")
    at_level.add_argument("-c", "--level", type=float, required=True, help="level c > 0")

    tv = sub.add_parser("tv", parents=[at_level], help="truncated variation at one level")
    tv.add_argument("--prefix", metavar="FILE", help="write per-sample curves to FILE")
    tv.set_defaults(handler=_cmd_tv)

    approx = sub.add_parser(
        "approx", parents=[at_level], help="minimal-variation band approximation"
    )
    approx.add_argument("--out", required=True, help="output path file")
    approx.add_argument(
        "--zero-start", action="store_true", help="emit the zero-anchored variant"
    )
    approx.set_defaults(handler=_cmd_approx)

    dec = sub.add_parser(
        "decompose", parents=[at_level], help="nondecreasing rise/fall components"
    )
    dec.add_argument("--out-up", required=True)
    dec.add_argument("--out-down", required=True)
    dec.set_defaults(handler=_cmd_decompose)

    sw = sub.add_parser("sweep", help="tv across a level grid")
    sw.add_argument("input")
    sw.add_argument("--levels", required=True, help="grid as lo:hi:step")
    sw.add_argument("--out", required=True, help="output c,tv file")
    sw.set_defaults(handler=_cmd_sweep)

    sk = sub.add_parser(
        "skeleton", parents=[at_level], help="greedy coarse resampling within c/2"
    )
    sk.add_argument("--out", required=True)
    sk.set_defaults(handler=_cmd_skeleton)

    gen = sub.add_parser("gen", help="write a deterministic synthetic path")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0)
    for key in _GEN_EXTRA:
        gen.add_argument("--" + key.replace("_", "-"), type=float, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        entries = args.handler(args)
    except FileFormatError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except PathError as exc:
        if exc.code in _DATA_CODES:
            print(f"error: malformed input ({exc.code}): {exc}", file=sys.stderr)
            return EXIT_MALFORMED
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    for key, value in entries:
        print(f"{key}={format_number(value) if isinstance(value, float) else value}")
    return EXIT_OK
