#!/usr/bin/env python3
"""Scaling experiment for the one-pass scan, or for the CSV layer.

Times four queries across path sizes on each route (``native`` when the
library builds, and ``python``): ``truncated_variation``, the totals-only
scan; ``prefix_curves``, which runs the band-less ``rise_fall`` scan and
so writes the per-sample rise/fall arrays but no band; ``sweep`` over
the 32 levels ``osc_norm * k / 32`` of perfbench's ``level_curve``, the
skeleton ladder, which runs the Python machine on both routes until
ROADMAP items 1 and 2 land; and ``l1_upper_bound`` at the level on two
components of n samples each, a random walk and a jump-mixture (the shape
of ``level_curve``'s split), whose rainflow pass ``_persistence`` runs
natively on the native route; its rate counts the 2n samples of both
components. It times every size once per round, in CPU time per call,
over several rounds, so a slow phase of a shared machine slows the sizes
of a round alike. It prints a table of the median over the rounds, whose
``route`` column names the route that ran, with the minor page faults per
call (the process's ``ru_minflt`` count over a cell's calls, divided by
the calls: a fresh array that the allocator maps anew faults on first
write), and the log-log fit exponent of each query on each route (1.0
means linear): the median of the rounds' exponents. It also compares the
fast scan on each route against the quadratic oracle at a desk-scale size
as a sanity check.

With ``--io`` it times the CSV layer instead, in the same rounds and CPU
time (the kernel's time in ``read`` and ``write`` counts, the disk's does
not): ``read_path``, ``write_path`` and ``write_columns`` (four columns)
on each codec route, in ms and MB/s of file text; the ``codec`` column
names the route that ran. For example::

    PYTHONPATH=src python scripts/bench_scaling.py --sizes 100000 1000000
    PYTHONPATH=src python scripts/bench_scaling.py --io --sizes 10000 100000
"""

import argparse
import os
import resource
import tempfile
import time
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np

from truncvar import (
    GeneratorSpec,
    generate,
    l1_upper_bound,
    oracle_truncated_variation,
    osc_norm,
    prefix_curves,
    sweep,
    truncated_variation,
)
from truncvar import _native, pathio
from truncvar.pathio import read_path, write_columns, write_path


ROUNDS = 5
LADDER_LEVELS = 32


def minor_faults():
    """The minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cpu_time(fn, reps):
    """The mean CPU time and minor page faults of ``reps`` calls of ``fn``."""
    f0 = minor_faults()
    t0 = time.process_time()
    for _ in range(reps):
        fn()
    t = time.process_time() - t0
    return t / reps, (minor_faults() - f0) / reps


def routes():
    """Stand-ins for ``_native.library``: the native route when it builds, then python."""
    lib = _native.library()
    print(f"native library: {'built' if lib is not None else 'unavailable, python route only'}")
    return [lambda: None] if lib is None else [lambda: lib, lambda: None]


def time_rounds(cells, libraries):
    """The CPU time and minor faults per call of each cell's calls (one per
    size) on each route, once per round: ``{(name, route): [per-size
    (time, faults) of a round, ...]}``."""
    rounds = {}
    for _ in range(ROUNDS):
        for name, calls in cells.items():
            for library in libraries:
                with mock.patch.object(_native, "library", library):
                    route = pathio.codec()
                    times = [cpu_time(fn, max(1, 10**6 // n)) for n, fn in calls]
                rounds.setdefault((name, route), []).append(times)
    return rounds


def report(sizes, rounds, heads, rate):
    """Print the median time and minor faults of every cell at every size
    with its ``rate(name, n, t)``, then the median of the rounds' fit exponents."""
    name_head, route_head, rate_head = heads
    print(f"{'n':>12} {name_head:>20} {route_head:>7} {'median_ms':>12} {rate_head:>12}"
          f" {'faults/call':>12}")
    for i, n in enumerate(sizes):
        for (name, route), route_rounds in rounds.items():
            t, faults = np.median([cells[i] for cells in route_rounds], axis=0).tolist()
            print(f"{n:>12,} {name:>20} {route:>7} {t * 1e3:>12.3f} {rate(name, n, t):>12.1f}"
                  f" {faults:>12.1f}")
    if len(sizes) >= 2:
        for (name, route), route_rounds in rounds.items():
            slopes = [np.polyfit(np.log(sizes), np.log([t for t, _ in cells]), 1)[0]
                      for cells in route_rounds]
            print(f"log-log fit exponent ({name}, {route}): {float(np.median(slopes)):.3f}")


def io_table(sizes, seed):
    """Median CPU ms and MB/s of each CSV layer call at each size, per codec route."""
    libraries = routes()
    cells, files = {}, {}  # files: (layer, n) -> the file the call reads or writes
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            path = generate(GeneratorSpec("random-walk", n, seed=seed))
            header = ("time", "utv", "dtv", "tv")  # the shape of a `tv --prefix` file
            columns = (path.times, path.values, -path.values, 2.0 * path.values)
            src, dest, wide = (Path(tmp) / f"{name}-{n}.csv" for name in ("in", "out", "wide"))
            write_path(path, src)
            layers = (("read_path", src, partial(read_path, src)),
                      ("write_path", dest, partial(write_path, path, dest)),
                      ("write_columns", wide, partial(write_columns, wide, header, columns)))
            for name, file, fn in layers:
                files[name, n] = file
                cells.setdefault(name, []).append((n, fn))
        rounds = time_rounds(cells, libraries)
        report(sizes, rounds, ("layer", "codec", "MB/s"),
               lambda name, n, t: os.path.getsize(files[name, n]) / 2**20 / t)


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

    def pair(n):
        """The random walk every query takes, and the jump-mixture l1_upper_bound adds."""
        return tuple(generate(GeneratorSpec(kind, n, seed=args.seed))
                     for kind in ("random-walk", "jump-mixture"))

    check = pair(2000)
    ref = oracle_truncated_variation(check[0], args.level)
    queries = {
        "truncated_variation": lambda path, _: partial(truncated_variation, path, args.level),
        "prefix_curves": lambda path, _: partial(prefix_curves, path, args.level),
        "sweep": lambda path, _: partial(
            sweep, path, osc_norm(path) * np.arange(1, LADDER_LEVELS + 1) / LADDER_LEVELS
        ),
        "l1_upper_bound": lambda path, jumps: partial(l1_upper_bound, [path, jumps], args.level),
    }
    for library in libraries:
        with mock.patch.object(_native, "library", library):
            fast = truncated_variation(check[0], args.level)
            for query in queries.values():  # warms up every query
                query(*check)()
            print(f"oracle cross-check at n=2000 ({pathio.codec()}): "
                  f"|tv_fast - tv_dp| = {abs(fast.tv - ref.tv):.3e}")

    pairs = [pair(n) for n in args.sizes]
    cells = {name: [(p[0].n, query(*p)) for p in pairs] for name, query in queries.items()}
    rounds = time_rounds(cells, libraries)
    report(args.sizes, rounds, ("query", "route", "Msamples/s"),
           lambda name, n, t: (2 if name == "l1_upper_bound" else 1) * n / t / 1e6)


if __name__ == "__main__":
    main()
