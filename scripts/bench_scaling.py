#!/usr/bin/env python3
"""Scaling experiment for the one-pass scan, or for the CSV layer.

Times two queries across path sizes on each route (``native`` when the
library builds, and ``python``): ``truncated_variation``, the totals-only
scan, and ``prefix_curves``, which runs ``full_scan`` and so writes the
per-sample arrays. It times every size once per round, in CPU time per
call, over several rounds, so a slow phase of a shared machine slows the
sizes of a round alike. It prints a table of the median over the rounds,
whose ``route`` column names the route that ran, and the log-log fit
exponent of each query on each route (1.0 means linear): the median of
the rounds' exponents. It also compares the fast scan on each route
against the quadratic oracle at a desk-scale size as a sanity check.

With ``--io`` it times the CSV layer instead: at each size, the best of
several runs of ``read_path``, ``write_path`` and ``write_columns`` (four
columns), in ms and in MB/s of file text, on files in a temporary
directory, once on each codec route; the ``codec`` column names the route
that ran. For example::

    PYTHONPATH=src python scripts/bench_scaling.py --sizes 100000 1000000
    PYTHONPATH=src python scripts/bench_scaling.py --io --sizes 10000 100000
"""

import argparse
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from truncvar import (
    GeneratorSpec,
    generate,
    oracle_truncated_variation,
    prefix_curves,
    truncated_variation,
)
from truncvar import _native, pathio
from truncvar.pathio import read_path, write_columns, write_path


ROUNDS = 5


def cpu_time(fn, reps):
    """The mean CPU time of ``reps`` calls of ``fn``."""
    t0 = time.process_time()
    for _ in range(reps):
        fn()
    return (time.process_time() - t0) / reps


def best_time(fn, reps):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def routes():
    """Stand-ins for ``_native.library``: the native route when it builds, then python."""
    lib = _native.library()
    print(f"native library: {'built' if lib is not None else 'unavailable, python route only'}")
    return [lambda: None] if lib is None else [lambda: lib, lambda: None]


def io_table(sizes, seed):
    """Best-of-reps ms and MB/s of each CSV layer call at each size, per codec route."""
    libraries = routes()
    print(f"{'n':>12} {'layer':>14} {'codec':>7} {'best_ms':>10} {'MB/s':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        src, dest = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        for n in sizes:
            path = generate(GeneratorSpec("random-walk", n, seed=seed))
            # the shape of a `tv --prefix` file
            header = ("time", "utv", "dtv", "tv")
            columns = (path.times, path.values, -path.values, 2.0 * path.values)
            write_path(path, src)
            reps = max(3, 1_000_000 // n)
            layers = [
                ("read_path", src, lambda: read_path(src)),
                ("write_path", dest, lambda: write_path(path, dest)),
                ("write_columns", dest, lambda: write_columns(dest, header, columns)),
            ]
            for name, file, fn in layers:
                for codec in libraries:
                    with mock.patch.object(_native, "library", codec):
                        ran = pathio.codec()
                        t = best_time(fn, reps)
                    mb = os.path.getsize(file) / 2**20
                    print(f"{n:>12,} {name:>14} {ran:>7} {t * 1e3:>10.2f} {mb / t:>8.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10**5, 10**6, 10**7])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-c", "--level", type=float, default=1.0)
    ap.add_argument("--io", action="store_true", help="time the CSV layer instead of the scan")
    args = ap.parse_args()
    if args.io:
        io_table(args.sizes, args.seed)
        return

    libraries = routes()
    check = generate(GeneratorSpec("random-walk", 2000, seed=args.seed))
    ref = oracle_truncated_variation(check, args.level)
    queries = {"truncated_variation": truncated_variation, "prefix_curves": prefix_curves}
    for library in libraries:
        with mock.patch.object(_native, "library", library):
            fast = truncated_variation(check, args.level)
            prefix_curves(check, args.level)  # warms up the other query
            print(f"oracle cross-check at n=2000 ({pathio.codec()}): "
                  f"|tv_fast - tv_dp| = {abs(fast.tv - ref.tv):.3e}")

    paths = [generate(GeneratorSpec("random-walk", n, seed=args.seed)) for n in args.sizes]
    rounds = {}  # (query, route) -> one list of per-size times per round
    for _ in range(ROUNDS):
        for name, query in queries.items():
            for library in libraries:
                with mock.patch.object(_native, "library", library):
                    route = pathio.codec()
                    times = [cpu_time(lambda: query(path, args.level), max(1, 10**6 // path.n))
                             for path in paths]
                rounds.setdefault((name, route), []).append(times)
    print(f"{'n':>12} {'query':>20} {'route':>7} {'median_ms':>12} {'Msamples/s':>12}")
    for i, n in enumerate(args.sizes):
        for (name, route), route_rounds in rounds.items():
            t = float(np.median([times[i] for times in route_rounds]))
            print(f"{n:>12,} {name:>20} {route:>7} {t * 1e3:>12.3f} {n / t / 1e6:>12.1f}")
    if len(args.sizes) >= 2:
        for (name, route), route_rounds in rounds.items():
            slopes = [np.polyfit(np.log(args.sizes), np.log(t), 1)[0] for t in route_rounds]
            print(f"log-log fit exponent ({name}, {route}): {float(np.median(slopes)):.3f}")


if __name__ == "__main__":
    main()
