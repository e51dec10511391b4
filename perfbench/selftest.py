#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks, for every workload:

1. both modes emit exactly the metrics named in ``BENCHMARK.json``, each
   with its unit and a finite value, and no call fails;
2. the correctness gate is not vacuous: with one library result perturbed
   (``utv`` and ``tv`` from ``truncated_variation`` shifted by 1e-3) the run
   reports ``failed > 0`` and ``correct: false``;
3. in a directory holding only ``BENCHMARK.json`` and this directory, the
   benchmark exits non-zero and prints no result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import subprocess
import sys

import run as bench

SEED = 3
SECONDS = 0.05


def check_result(result, units, label, problems) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if set(result["metrics"]) != set(units):
        problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ set(units))}")
    for name, m in result["metrics"].items():
        if m.get("unit") != units.get(name) or not math.isfinite(m.get("value", math.nan)):
            problems.append(f"{label}: bad metric {name}={m}")
    if result["attempted"] < 1 or result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"{label}: attempted={result['attempted']} failed={result['failed']}")


def perturb(api):
    """Shift utv (and tv with it) in ``truncated_variation``; returns the undo."""
    mod = api.tv
    orig = mod.truncated_variation

    def wrong(path, c):
        r = orig(path, c)
        return dataclasses.replace(r, utv=r.utv + 1e-3, tv=r.tv + 1e-3)

    mod.truncated_variation = wrong
    return lambda: setattr(mod, "truncated_variation", orig)


def bare_directory_run(problems) -> None:
    bare = bench.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for f in bench.HERE.iterdir():
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single_level", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    api, _ = bench.load_truncvar()
    e2e_units, layer_units = bench.metric_units()
    problems: list[str] = []
    quiet = lambda line: None  # noqa: E731
    for name in bench.WORKLOADS:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            result = bench.run(name, SEED, SECONDS, trace, tiny=True, out=quiet)
            check_result(result, units, f"{name} trace={int(trace)}", problems)
        undo = perturb(api)
        try:
            result = bench.run(name, SEED, SECONDS, False, tiny=True, out=quiet)
        finally:
            undo()
        if not (result["failed"] > 0 and result["correct"] is False):
            problems.append(f"{name}: perturbed result passed the checks ({result})")
        print(f"{name}: perturbed run failed {result['failed']} of {result['attempted']} calls")
    bare_directory_run(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
