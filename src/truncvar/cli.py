"""Command line surface: analyze path files, emit machine-readable reports.

Every subcommand prints a flat ``key=value`` report: the command name, a
digest of the input path, the level(s) used, the operation's results, and
the wall time of the computation in milliseconds. Commands that read or
write path files put ``codec`` before that time (``native`` when the C++
CSV codec is in use, ``python`` when ``pathio`` takes its Python routes;
``bench`` reports it too) and add ``read_ms`` (when a file was read),
``write_ms`` (when files were written) and ``peak_rss_kb``, the process's
peak resident set size from ``getrusage`` (KiB on Linux). Floats are
rendered with shortest round-trip precision. Exit codes: 0 success, 2 bad
usage, 3 malformed input data, 4 numeric-domain violation (e.g. a
non-positive level, or a total or band that overflows float64), 5 I/O
failure. All behavior is controlled by flags; there is no configuration
file and no environment lookup.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._scan import NUMBA_ENABLED
from .optimal_approx import lazy_approximation, step_skeleton, zero_start_approximation
from .path_model import PathError, SampledPath, osc_norm, total_variation
from .pathio import (
    FileFormatError,
    codec,
    format_number,
    read_path,
    write_columns,
    write_path,
)
from .synth import KINDS, GeneratorSpec, generate
from .truncated_variation import (
    oracle_truncated_variation,
    prefix_curves,
    sweep,
    truncated_variation,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_DOMAIN = 4
EXIT_IO = 5

# PathError codes that indicate broken input data rather than a bad number
_DATA_CODES = {"empty-path", "length-mismatch", "non-finite", "times-not-increasing"}


@dataclass
class RunReport:
    """Ordered key=value report for one command invocation."""

    entries: list[tuple[str, object]]

    def lines(self):
        for key, value in self.entries:
            if isinstance(value, float):
                yield f"{key}={format_number(value)}"
            else:
                yield f"{key}={value}"


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
    if not all(np.isfinite(x) for x in (lo, hi, step)):
        raise PathError("bad-level-grid", "grid bounds must be finite")
    if lo <= 0 or step <= 0 or hi < lo:
        raise PathError("bad-level-grid", "need 0 < lo <= hi and step > 0")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _cmd_tv(args) -> RunReport:
    path, read_ms = _timed(read_path, args.input)
    digest = _digest(path)
    t0 = time.perf_counter()
    result = truncated_variation(path, args.level)
    wall_ms = (time.perf_counter() - t0) * 1e3
    entries = [("command", "tv"), ("input", args.input)]
    entries += digest
    entries.append(("c", float(args.level)))
    entries += [("utv", result.utv), ("dtv", result.dtv), ("tv", result.tv)]
    if args.oracle:
        ref = oracle_truncated_variation(path, args.level)
        disc = max(
            abs(result.utv - ref.utv),
            abs(result.dtv - ref.dtv),
            abs(result.tv - ref.tv),
        )
        entries += [
            ("oracle_utv", ref.utv),
            ("oracle_dtv", ref.dtv),
            ("oracle_tv", ref.tv),
            ("oracle_discrepancy", disc),
        ]
    write_ms = None
    if args.prefix is not None:
        up, down, tv = prefix_curves(path, args.level)
        columns = (path.times, up, down, tv)
        _, write_ms = _timed(write_columns, args.prefix, ("time", "utv", "dtv", "tv"), columns)
        entries.append(("prefix_file", args.prefix))
    entries += _file_stages(wall_ms, read_ms, write_ms)
    return RunReport(entries)


def _cmd_approx(args) -> RunReport:
    path, read_ms = _timed(read_path, args.input)
    digest = _digest(path)
    t0 = time.perf_counter()
    if args.zero_start:
        result = zero_start_approximation(path, args.level)
    else:
        result = lazy_approximation(path, args.level)
    wall_ms = (time.perf_counter() - t0) * 1e3
    _, write_ms = _timed(write_path, result.approximation, args.out)
    entries = [("command", "approx"), ("input", args.input)]
    entries += digest
    entries += [
        ("c", float(args.level)),
        ("zero_start", int(bool(args.zero_start))),
        ("achieved_tv", result.achieved_tv),
        ("sup_error", result.sup_error),
        ("out", args.out),
    ]
    entries += _file_stages(wall_ms, read_ms, write_ms)
    return RunReport(entries)


def _cmd_decompose(args) -> RunReport:
    path, read_ms = _timed(read_path, args.input)
    digest = _digest(path)
    t0 = time.perf_counter()
    result = lazy_approximation(path, args.level)
    wall_ms = (time.perf_counter() - t0) * 1e3
    up = SampledPath(path.times, result.jordan.up_component)
    down = SampledPath(path.times, result.jordan.down_component)
    _, up_ms = _timed(write_path, up, args.out_up)
    _, down_ms = _timed(write_path, down, args.out_down)
    entries = [("command", "decompose"), ("input", args.input)]
    entries += digest
    entries += [
        ("c", float(args.level)),
        ("utv", float(result.jordan.up_component[-1])),
        ("dtv", float(result.jordan.down_component[-1])),
        ("out_up", args.out_up),
        ("out_down", args.out_down),
    ]
    entries += _file_stages(wall_ms, read_ms, up_ms + down_ms)
    return RunReport(entries)


def _cmd_sweep(args) -> RunReport:
    path, read_ms = _timed(read_path, args.input)
    digest = _digest(path)
    levels = _parse_levels(args.levels)
    t0 = time.perf_counter()
    curve = sweep(path, levels)
    wall_ms = (time.perf_counter() - t0) * 1e3
    _, write_ms = _timed(write_columns, args.out, ("c", "tv"), (curve.levels, curve.tv_values))
    entries = [("command", "sweep"), ("input", args.input)]
    entries += digest
    entries += [
        ("levels", args.levels),
        ("n_levels", int(curve.levels.size)),
        ("out", args.out),
    ]
    entries += _file_stages(wall_ms, read_ms, write_ms)
    return RunReport(entries)


def _cmd_skeleton(args) -> RunReport:
    path, read_ms = _timed(read_path, args.input)
    digest = _digest(path)
    t0 = time.perf_counter()
    skeleton = step_skeleton(path, args.level)
    wall_ms = (time.perf_counter() - t0) * 1e3
    _, write_ms = _timed(write_path, skeleton, args.out)
    entries = [("command", "skeleton"), ("input", args.input)]
    entries += digest
    entries += [
        ("c", float(args.level)),
        ("n_breakpoints", skeleton.n),
        ("out", args.out),
    ]
    entries += _file_stages(wall_ms, read_ms, write_ms)
    return RunReport(entries)


def _spec_from_args(args) -> GeneratorSpec:
    extra = {}
    if args.jump_prob is not None:
        extra["jump_prob"] = args.jump_prob
    if args.jump_scale is not None:
        extra["jump_scale"] = args.jump_scale
    if args.target_level is not None:
        extra["target_level"] = args.target_level
    if args.amplitude_ratio is not None:
        extra["amplitude_ratio"] = args.amplitude_ratio
    return GeneratorSpec(
        kind=args.kind,
        length=args.length,
        seed=args.seed,
        scale=args.scale,
        extra=extra,
    )


def _cmd_gen(args) -> RunReport:
    spec = _spec_from_args(args)
    t0 = time.perf_counter()
    path = generate(spec)
    wall_ms = (time.perf_counter() - t0) * 1e3
    digest = _digest(path)
    _, write_ms = _timed(write_path, path, args.out)
    entries = [("command", "gen")]
    entries += digest
    entries += [
        ("kind", spec.kind),
        ("length", spec.length),
        ("seed", spec.seed),
        ("scale", float(spec.scale)),
    ]
    entries += [(k, float(v)) for k, v in sorted(spec.extra.items())]
    entries.append(("out", args.out))
    entries += _file_stages(wall_ms, write_ms=write_ms)
    return RunReport(entries)


def _cmd_bench(args) -> RunReport:
    spec = GeneratorSpec(kind="random-walk", length=args.length, seed=args.seed)
    path = generate(spec)
    # warm pass on a prefix so jit compilation stays out of the timing
    truncated_variation(SampledPath(path.times[:64], path.values[:64]), args.level)
    t0 = time.perf_counter()
    result = truncated_variation(path, args.level)
    elapsed = time.perf_counter() - t0
    entries = [("command", "bench")]
    entries += _digest(path)
    entries += [
        ("c", float(args.level)),
        ("utv", result.utv),
        ("dtv", result.dtv),
        ("tv", result.tv),
        ("backend", "numba" if NUMBA_ENABLED else "python"),
        ("codec", codec()),
        ("elapsed_ms", elapsed * 1e3),
        ("samples_per_second", path.n / elapsed if elapsed > 0 else float("inf")),
        ("wall_ms", elapsed * 1e3),
    ]
    return RunReport(entries)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncvar",
        description="Truncated variation toolkit for sampled step functions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    tv = sub.add_parser("tv", help="truncated variation at one level")
    tv.add_argument("input", help="path file (time,value rows)")
    tv.add_argument("-c", "--level", type=float, required=True, help="level c > 0")
    tv.add_argument("--oracle", action="store_true", help="also run the quadratic oracle")
    tv.add_argument("--prefix", metavar="FILE", help="write per-sample curves to FILE")
    tv.set_defaults(handler=_cmd_tv)

    approx = sub.add_parser("approx", help="minimal-variation band approximation")
    approx.add_argument("input")
    approx.add_argument("-c", "--level", type=float, required=True)
    approx.add_argument("--out", required=True, help="output path file")
    approx.add_argument(
        "--zero-start", action="store_true", help="emit the zero-anchored variant"
    )
    approx.set_defaults(handler=_cmd_approx)

    dec = sub.add_parser("decompose", help="nondecreasing rise/fall components")
    dec.add_argument("input")
    dec.add_argument("-c", "--level", type=float, required=True)
    dec.add_argument("--out-up", required=True)
    dec.add_argument("--out-down", required=True)
    dec.set_defaults(handler=_cmd_decompose)

    sw = sub.add_parser("sweep", help="tv across a level grid")
    sw.add_argument("input")
    sw.add_argument("--levels", required=True, help="grid as lo:hi:step")
    sw.add_argument("--out", required=True, help="output c,tv file")
    sw.set_defaults(handler=_cmd_sweep)

    sk = sub.add_parser("skeleton", help="greedy coarse resampling within c/2")
    sk.add_argument("input")
    sk.add_argument("-c", "--level", type=float, required=True)
    sk.add_argument("--out", required=True)
    sk.set_defaults(handler=_cmd_skeleton)

    gen = sub.add_parser("gen", help="write a deterministic synthetic path")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--length", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--jump-prob", type=float, default=None)
    gen.add_argument("--jump-scale", type=float, default=None)
    gen.add_argument("--target-level", type=float, default=None)
    gen.add_argument("--amplitude-ratio", type=float, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen)

    bench = sub.add_parser("bench", help="one-pass throughput on a generated walk")
    bench.add_argument("--length", type=int, default=10_000_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("-c", "--level", type=float, default=1.0)
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        report = args.handler(args)
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
    for line in report.lines():
        print(line)
    return EXIT_OK
