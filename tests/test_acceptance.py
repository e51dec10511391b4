"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. All corpora are deterministic, so reruns are byte-identical.
"""

import contextlib
import io
import subprocess
import sys
import time

import numpy as np

from truncvar import (
    GeneratorSpec,
    generate,
    jordan_pair,
    lazy_approximation,
    make_path,
    negate,
    oracle_truncated_variation,
    osc_norm,
    prefix_curves,
    sup_distance,
    sweep,
    total_variation,
    truncated_variation,
    uniform_stream,
    zero_start_approximation,
)
from truncvar._scan import full_scan, tv_scan
from truncvar.cli import main
from truncvar.pathio import read_path, write_path

from _oracles import exhaustive_truncated, mixed_corpus
from conftest import python_route

CORPUS = mixed_corpus(1000, seed=20260810, max_len=200)
SMALL = mixed_corpus(200, seed=31415, min_len=2, max_len=12)


def _finish(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def test_criterion_1_golden_example():
    p1 = make_path([0, 1, 2, 3, 4], [0.0, 1.0, 0.2, 1.2, 0.2])
    tol = 1e-12
    r = truncated_variation(p1, 0.6)
    approx = lazy_approximation(p1, 0.6)
    zero = zero_start_approximation(p1, 0.6)
    up, down, tv_prefix = prefix_curves(p1, 0.6)
    checks = [
        abs(r.utv - 0.8) <= tol,
        abs(r.dtv - 0.6) <= tol,
        abs(r.tv - 1.4) <= tol,
        np.allclose(approx.approximation.values, [0.3, 0.7, 0.5, 0.9, 0.5], atol=tol, rtol=0),
        np.allclose(zero.approximation.values, [0.0, 0.4, 0.2, 0.6, 0.2], atol=tol, rtol=0),
        np.allclose(tv_prefix, [0.0, 0.4, 0.6, 1.0, 1.4], atol=tol, rtol=0),
        abs(approx.sup_error - 0.3) <= tol,
    ]
    _finish(1, "golden example at 1e-12", all(checks))


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for path, c in CORPUS:
        fast = truncated_variation(path, c)
        ref = oracle_truncated_variation(path, c)
        tol = 1e-9 * max(1.0, osc_norm(path))
        disc = max(
            abs(fast.utv - ref.utv), abs(fast.dtv - ref.dtv), abs(fast.tv - ref.tv)
        )
        worst = max(worst, disc / tol)
    dp_ok = worst <= 1.0

    # tiny paths against exhaustive enumeration: the DP must agree exactly
    # (identical float-sum association); the scan assembles tv as utv+dtv,
    # a different association, so it is held to 1e-12 instead of bitwise
    enum_ok = True
    worst_fast = 0.0
    for path, c in SMALL:
        enum = (
            exhaustive_truncated(path.values, c, +1),
            exhaustive_truncated(path.values, c, -1),
            exhaustive_truncated(path.values, c, 0),
        )
        ref = oracle_truncated_variation(path, c)
        if (ref.utv, ref.dtv, ref.tv) != enum:
            enum_ok = False
        fast = truncated_variation(path, c)
        worst_fast = max(
            worst_fast,
            max(abs(a - b) for a, b in zip((fast.utv, fast.dtv, fast.tv), enum)),
        )
    fast_ok = worst_fast <= 1e-12
    elapsed = time.perf_counter() - t0
    _finish(
        2,
        "oracle equivalence",
        dp_ok and enum_ok and fast_ok and elapsed < 30.0,
        f" (1000 paths vs DP, 200 vs enumeration, {elapsed:.1f}s)",
    )


def test_criterion_3_attainment_identity():
    worst_tv = 0.0
    worst_ball = -np.inf
    for path, c in CORPUS:
        r = truncated_variation(path, c)
        a = lazy_approximation(path, c)
        worst_tv = max(worst_tv, abs(total_variation(a.approximation) - r.tv))
        worst_ball = max(worst_ball, sup_distance(path, a.approximation) - c / 2)
    ok = worst_tv <= 1e-12 and worst_ball <= 1e-12
    _finish(
        3,
        "attainment identity and ball membership",
        ok,
        f" (max |TV(approx)-tv| = {worst_tv:.2e}, max sup_error - c/2 = {worst_ball:.2e})",
    )


def test_criterion_4_decomposition_identities():
    ok = True
    for path, c in CORPUS:
        r = truncated_variation(path, c)
        mirrored = truncated_variation(negate(path), c)
        if r.tv != r.utv + r.dtv:
            ok = False
        if r.dtv != mirrored.utv or r.utv != mirrored.dtv:
            ok = False
        up, down, tv_prefix = prefix_curves(path, c)
        if not (
            np.all(np.diff(up) >= 0)
            and np.all(np.diff(down) >= 0)
            and np.all(np.diff(tv_prefix) >= 0)
        ):
            ok = False
        j = jordan_pair(path, c)
        du = np.diff(j.up_component)
        dd = np.diff(j.down_component)
        if du.size and not np.all(np.minimum(du, dd) == 0.0):
            ok = False
        fc = lazy_approximation(path, c).approximation.values
        dfc = np.diff(fc)
        dv = np.diff(path.values)
        if not np.all(dfc[dv == 0.0] == 0.0):
            ok = False
        if not np.all(np.abs(dfc) <= np.abs(dv) + 1e-12):
            ok = False
        if not ok:
            break
    _finish(4, "decomposition identities", ok)


def test_criterion_5_optimality_sampling():
    violations = 0
    paths = [pc for pc in CORPUS if pc[0].n >= 2][:100]
    for idx, (path, c) in enumerate(paths):
        best = truncated_variation(path, c).tv
        fc = lazy_approximation(path, c).approximation.values
        n = path.n
        lo = path.values - c / 2
        hi = path.values + c / 2
        u = uniform_stream(52000 + idx, 50 * n).reshape(50, n)
        for k in range(50):
            if k == 0:
                g = path.values
            elif k == 1:
                mid = (path.values.max() + path.values.min()) / 2
                g = np.clip(np.full(n, mid), lo, hi)
            else:
                g = np.clip(fc + (2.0 * u[k] - 1.0) * c, lo, hi)
            if float(np.sum(np.abs(np.diff(g)))) < best - 1e-9:
                violations += 1
        w = uniform_stream(97000 + idx, 50 * n).reshape(50, n)
        for k in range(50):
            h = (w[k] - 0.5) * c  # oscillation at most c
            g = path.values + h
            if float(np.sum(np.abs(np.diff(g)))) < best - 1e-9:
                violations += 1
    _finish(
        5,
        "optimality sampling (100 paths x 50 competitors x 2 families)",
        violations == 0,
        f" ({violations} violations)",
    )


def test_criterion_6_sweep_shape():
    ok = True
    tested = 0
    for path, c in CORPUS:
        osc = osc_norm(path)
        if osc == 0:
            continue
        tested += 1
        if tested > 100:
            break
        grid = np.linspace(osc / 64, osc, 64)
        vals = sweep(path, grid).tv_values
        if not np.all(np.diff(vals) <= 1e-9):
            ok = False
        mid_excess = vals[1:-1] - (vals[:-2] + vals[2:]) / 2
        if not np.all(mid_excess <= 1e-9):
            ok = False
        if vals[-1] != 0.0:
            ok = False
        tiny = truncated_variation(path, 1e-12 * osc).tv
        full = total_variation(path)
        if full > 0 and abs(tiny - full) > 1e-6 * full:
            ok = False
        if not ok:
            break
    _finish(6, "sweep shape on 100 paths", ok)


def test_criterion_7_linear_scaling():
    sizes = [10**5, 10**6, 10**7]
    warm = generate(GeneratorSpec("random-walk", 4096, seed=0))
    truncated_variation(warm, 1.0)  # warm-up stays out of the timing
    times = []
    for n in sizes:
        path = generate(GeneratorSpec("random-walk", n, seed=0))
        reps = max(3, 2_000_000 // n)
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            truncated_variation(path, 1.0)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    soft = "met" if times[-1] < 1.0 else "missed"
    ok = 0.9 <= slope <= 1.1
    _finish(
        7,
        "linear scaling",
        ok,
        f" (fit exponent {slope:.3f}; 1e7 samples in {times[-1]*1e3:.1f} ms, "
        f"soft 1s target {soft})",
    )


def test_criterion_7_linear_scaling_python_route():
    # The Python machine: full_scan writes every sample, and the skeleton scan
    # every trigger, by index into preallocated buffers. Each round times every
    # size in CPU time, so a busy machine slows the sizes of a round alike, and
    # the fit exponent is the median of the rounds' exponents.
    sizes = [2 * 10**4, 10**5, 5 * 10**5]
    paths = [generate(GeneratorSpec("random-walk", n, seed=0)).values for n in sizes]
    scans = {"full_scan": full_scan, "skeleton tv_scan": lambda x, c: tv_scan(x, c, True)}
    slopes = {}
    with python_route():
        for name, scan in scans.items():
            scan(paths[0], 1.0)  # warm-up stays out of the timing
            rounds = []
            for _ in range(5):
                times = []
                for values in paths:
                    t0 = time.process_time()
                    scan(values, 1.0)
                    times.append(time.process_time() - t0)
                rounds.append(np.polyfit(np.log(sizes), np.log(times), 1)[0])
            slopes[name] = float(np.median(rounds))
    ok = all(0.9 <= slope <= 1.1 for slope in slopes.values())
    detail = ", ".join(f"{name} {slope:.3f}" for name, slope in slopes.items())
    _finish(7, "linear scaling on the Python route", ok, f" (fit exponents: {detail})")


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_criterion_8_cli_round_trip(tmp_path):
    ok = True
    out = tmp_path / "walk.csv"
    code = _quiet_main(
        [
            "gen", "--kind", "jump-mixture", "--length", "400",
            "--seed", "21", "--scale", "0.2", "--out", str(out),
        ]
    )
    ok &= code == 0
    spec = GeneratorSpec("jump-mixture", 400, seed=21, scale=0.2)
    in_memory = generate(spec)
    from_file = read_path(out)
    ok &= from_file.values.tobytes() == in_memory.values.tobytes()

    # tv through a subprocess must reproduce the in-memory floats bit for bit
    proc = subprocess.run(
        [sys.executable, "-m", "truncvar", "tv", str(out), "-c", "0.7"],
        capture_output=True,
        text=True,
    )
    ok &= proc.returncode == 0
    rep = dict(line.split("=", 1) for line in proc.stdout.strip().splitlines())
    ref = truncated_variation(in_memory, 0.7)
    ok &= float(rep["utv"]) == ref.utv
    ok &= float(rep["dtv"]) == ref.dtv
    ok &= float(rep["tv"]) == ref.tv

    approx_out = tmp_path / "fc.csv"
    ok &= _quiet_main(["approx", str(out), "-c", "0.7", "--out", str(approx_out)]) == 0
    ok &= (
        read_path(approx_out).values.tobytes()
        == lazy_approximation(in_memory, 0.7).approximation.values.tobytes()
    )
    up_f, down_f = tmp_path / "up.csv", tmp_path / "down.csv"
    ok &= (
        _quiet_main(
            ["decompose", str(out), "-c", "0.7", "--out-up", str(up_f), "--out-down", str(down_f)]
        )
        == 0
    )
    j = jordan_pair(in_memory, 0.7)
    ok &= read_path(up_f).values.tobytes() == j.up_component.tobytes()
    ok &= read_path(down_f).values.tobytes() == j.down_component.tobytes()

    # documented exit codes
    bad = tmp_path / "bad.csv"
    bad.write_text("0,zero\n")
    ok &= _quiet_main(["tv", str(bad), "-c", "0.5"]) == 3
    ok &= _quiet_main(["tv", str(out), "-c", "-1"]) == 4
    ok &= _quiet_main(["tv", str(tmp_path / "missing.csv"), "-c", "0.5"]) == 5
    ok &= _quiet_main(["tv"]) == 2
    _finish(8, "cli round trip and exit codes", bool(ok))
