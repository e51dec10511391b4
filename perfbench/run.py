#!/usr/bin/env python3
"""truncvar benchmark: run one workload and print its metrics.

Run from the repository root, with no install step (the package is
imported from ``src/``):

    python3 perfbench/run.py --workload single_level --seed 1 --seconds 20 --trace 0

Workloads: ``cli_files``, ``single_level``, ``level_curve`` (see
``workloads.py`` and ``README.md``). Each is a closed loop from one client
in one process: the next call starts when the previous one has returned.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
times scaled to a reference machine speed by a calibration loop run between
calls (``speed.py``; the raw figures are printed too);
``--trace 1`` reports its per-layer metrics from a separate traced loop.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the package or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy

import speed
from tracing import Tracer, has_ancestor, layer_stats
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# setup_s is the median of at least SETUP_REPS set-ups, repeated until they
# took SETUP_MIN_S: one set-up of an in-process workload is a few hundredths
# of a second, too short to time alone on a machine whose speed drifts
SETUP_REPS = 5
SETUP_MIN_S = 2.0
SETUP_CALS = 3  # calibrations on each side of a set-up or of the import
STARTUP_REPS = 5  # child `import truncvar` runs behind cli.startup_ms
TIME_UNITS = {"ms", "ns", "MB/s"}  # per-layer units that are times or rates
mmap_threshold_fixed = False  # set by main through fix_mmap_threshold
CLI_LABELS = ("tv", "tv_prefix", "approx", "approx_zero_start", "decompose", "skeleton", "sweep")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_truncvar():
    """Import truncvar from this checkout's ``src/``; returns (api, import seconds)."""
    if not (SRC / "truncvar" / "__init__.py").is_file():
        raise BenchError(f"no truncvar package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    # public modules only: the end-to-end runs must survive refactors of the
    # private scan module, whose functions the traced run wraps if present
    names = ("cli", "pathio", "path_model", "synth", "truncated_variation",
             "optimal_approx", "regime_detector")
    mods = {name: importlib.import_module(f"truncvar.{name}") for name in names}
    import_s = time.perf_counter() - t0
    pkg = sys.modules["truncvar"]
    if Path(pkg.__file__).resolve().parent != (SRC / "truncvar").resolve():
        raise BenchError(f"imported truncvar from {pkg.__file__}, not from {SRC}")
    api = SimpleNamespace(
        src=SRC, cli=mods["cli"], pathio=mods["pathio"], path_model=mods["path_model"],
        synth=mods["synth"], tv=mods["truncated_variation"],
        approx=mods["optimal_approx"], regimes=mods["regime_detector"],
    )
    return api, import_s


def metric_units() -> tuple[dict, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ------------------------------------------------------------------ run loop


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    labels: list = field(default_factory=list)  # call label of each latency
    kinds: list = field(default_factory=list)  # (request, label) of each latency
    cals: list = field(default_factory=list)  # calibrations around the calls, when taken
    samples: int = 0  # input samples of calls that returned a correct result
    busy_s: float = 0.0  # summed call time: the timed wall time
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def absorb(self, other: "LoopResult") -> None:
        self.latencies += other.latencies
        self.labels += other.labels
        self.kinds += other.kinds
        self.samples += other.samples
        self.busy_s += other.busy_s
        self.cycles += other.cycles
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: 5 - len(self.errors)]


def run_loop(calls, tracer: Tracer, traced: bool, seconds=None, cycles=None,
             min_calls=0, first_cycle=0, calibrated=False) -> LoopResult:
    """Whole cycles of ``calls``: ``cycles`` of them, or until ``seconds`` of
    call time and at least ``min_calls`` calls. With ``calibrated``, a
    calibration runs before the first call and after every call, outside
    the call's clock and before its check."""
    res = LoopResult()
    if calibrated:
        res.cals.append(speed.calibrate())
    while True:
        for call in calls:
            tracer.round = (first_cycle + res.cycles, call.request)
            tracer.active = traced
            t0 = time.perf_counter()
            try:
                out = call.run()
                error = None
            except Exception as exc:  # a failed call is counted, not fatal
                out, error = None, f"{call.label} raised {exc!r}"
            dt = time.perf_counter() - t0
            tracer.active = False
            if calibrated:
                res.cals.append(speed.calibrate())
            if error is None:
                try:
                    call.check(out)
                    res.samples += call.samples
                except CheckFailed as exc:
                    error = f"{call.label} ({call.request}): {exc}"
                except Exception as exc:  # malformed output, e.g. wrong type
                    error = f"{call.label} ({call.request}) check raised {exc!r}"
            res.latencies.append(dt)
            res.labels.append(call.label)
            res.kinds.append((call.request, call.label))
            res.busy_s += dt
            res.attempted += 1
            if error is not None:
                res.failed += 1
                if len(res.errors) < 5:
                    res.errors.append(error)
        res.cycles += 1
        if cycles is not None and res.cycles >= cycles:
            return res
        if seconds is not None and res.busy_s >= seconds and res.attempted >= min_calls:
            return res


def tail_min_calls(percentile: float) -> int:
    """Fewest calls that leave at least 10 beyond ``percentile``."""
    return math.ceil(10 / (1.0 - percentile / 100.0) - 1e-9)


def nearest_rank(latencies, percentile: float) -> float:
    xs = sorted(latencies)
    return xs[max(0, math.ceil(percentile / 100.0 * len(xs)) - 1)]


def fix_mmap_threshold() -> bool:
    """Hold glibc's mmap threshold at its initial 128 KiB; False where not glibc.

    glibc raises the threshold to the size of each mapped block freed, after
    which arrays of that size come from the heap, whose freed pages stay
    resident until the heap's top is free. Peak RSS then depends on how many
    set-ups and cycles a run's time allowed and on the order of frees: the
    same input's peak flipped between ~109 and ~113-117 MB from run to run,
    with the threshold left free or held at its 32 MiB ceiling. Held at
    128 KiB, every array of that size or more is mapped when allocated and
    unmapped when freed, so the peak is the largest live set.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    M_MMAP_THRESHOLD = -3
    return libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1


# --------------------------------------------------------------- environment


def environment(wl, seed: int, seconds: float, trace: bool) -> dict:
    caches = {}
    for level in ("2", "3"):
        try:  # getconf asks the C library, which reads the CPU's own description
            size = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"], capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            size = ""
        caches[f"L{level}_bytes"] = int(size) if size.isdigit() else None
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": "numba" if getattr(sys.modules.get("truncvar._scan"), "NUMBA_ENABLED", False)
        else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": speed.USABLE_CORES,
        "pinned_core": speed.pinned_core,
        "mmap_threshold_fixed": mmap_threshold_fixed,
        "cpu_count": os.cpu_count(),
        **caches,
        "n_per_input": wl.describe(),
    }


# ----------------------------------------------------------------- tracing


def _scan_attrs(tracer, args, result):
    values, c = args[0], float(args[1])
    return {"n": int(values.shape[0]), "key": (tracer.round, id(values), c)}


def _full_scan_attrs(tracer, args, result):
    attrs = _scan_attrs(tracer, args, result)
    attrs["bytes"] = sum(a.nbytes for a in result[:9])
    return attrs


def _read_attrs(tracer, args, result):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_attrs(tracer, args, result):
    return {"levels": len(result.levels)}


# (span name, defining module, function, attribute recorder)
LAYERS = [
    ("scan.tv_scan", "truncvar._scan", "tv_scan", _scan_attrs),
    ("scan.full_scan", "truncvar._scan", "full_scan", _full_scan_attrs),
    ("path_model.make_path", "truncvar.path_model", "make_path", None),
    ("path_model.osc_norm", "truncvar.path_model", "osc_norm", None),
    ("path_model.total_variation", "truncvar.path_model", "total_variation", None),
    ("pathio.read_path", "truncvar.pathio", "read_path", _read_attrs),
    ("pathio.write_path", "truncvar.pathio", "write_path", None),
    ("pathio.write_columns", "truncvar.pathio", "write_columns", None),
    ("truncated_variation.truncated_variation", "truncvar.truncated_variation",
     "truncated_variation", None),
    ("truncated_variation.prefix_curves", "truncvar.truncated_variation", "prefix_curves", None),
    ("truncated_variation.sweep", "truncvar.truncated_variation", "sweep", _sweep_attrs),
    ("truncated_variation.l1_upper_bound", "truncvar.truncated_variation", "l1_upper_bound", None),
    ("optimal_approx.lazy_approximation", "truncvar.optimal_approx", "lazy_approximation", None),
    ("optimal_approx.zero_start_approximation", "truncvar.optimal_approx",
     "zero_start_approximation", None),
    ("optimal_approx.jordan_pair", "truncvar.optimal_approx", "jordan_pair", None),
    ("optimal_approx.step_skeleton", "truncvar.optimal_approx", "step_skeleton", None),
    ("regime_detector.detect_regimes", "truncvar.regime_detector", "detect_regimes", None),
    ("regime_detector.running_extremes", "truncvar.regime_detector", "running_extremes", None),
    ("regime_detector.first_up_time", "truncvar.regime_detector", "first_up_time", None),
    ("regime_detector.first_down_time", "truncvar.regime_detector", "first_down_time", None),
]
SETUP_LAYERS = [("synth.generate", "truncvar.synth", "generate", None)]
SELF_MS = [
    "regime_detector.running_extremes", "regime_detector.detect_regimes",
    "regime_detector.first_up_time", "regime_detector.first_down_time",
    "optimal_approx.lazy_approximation", "optimal_approx.zero_start_approximation",
    "optimal_approx.jordan_pair", "optimal_approx.step_skeleton",
    "truncated_variation.truncated_variation", "truncated_variation.prefix_curves",
    "truncated_variation.l1_upper_bound",
]


def child_startup_ms(api) -> float:
    env = dict(os.environ, PYTHONPATH=str(api.src))
    times = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import truncvar"], env=env, check=True,
                       timeout=60, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_metrics(spans, cycles: int) -> dict:
    st = layer_stats(spans)

    def mean_ms(name, self_time=False):
        s = st.get(name)
        if s is None:
            return 0.0
        return (s.self_s if self_time else s.total_s) / s.calls * 1e3

    def total_s(name):
        return st[name].total_s if name in st else 0.0

    named = {}
    for i, s in enumerate(spans):
        named.setdefault(s.name, []).append(i)
    m = {f"cli.{label}.self_ms": mean_ms(f"cli.{label}", True) for label in CLI_LABELS}
    for name in SELF_MS:
        m[f"{name}.self_ms"] = mean_ms(name, True)
    for name in ("pathio.read_path", "pathio.write_path", "pathio.write_columns",
                 "path_model.make_path"):
        m[f"{name}.ms"] = mean_ms(name)
    read_mb = sum(spans[i].attrs.get("bytes", 0) for i in named.get("pathio.read_path", [])) / 2**20
    m["pathio.read_path.mb_per_s"] = read_mb / total_s("pathio.read_path") if read_mb else 0.0

    for kind in ("full_scan", "tv_scan"):
        idx = named.get(f"scan.{kind}", [])
        samples = sum(spans[i].attrs.get("n", 0) for i in idx)
        m[f"scan.{kind}.ns_per_sample"] = total_s(f"scan.{kind}") / samples * 1e9 if samples else 0.0
    full = named.get("scan.full_scan", [])
    pairs = {spans[i].attrs.get("key") for i in full}
    m["scan.full_scan.calls_per_path_level"] = len(full) / len(pairs) if pairs else 0.0
    m["scan.full_scan.bytes_computed"] = sum(spans[i].attrs.get("bytes", 0) for i in full) / cycles
    m["scan.tv_scan.calls"] = len(named.get("scan.tv_scan", [])) / cycles

    scans = named.get("scan.tv_scan", []) + full
    levels = sum(spans[i].attrs.get("levels", 0) for i in named.get("truncated_variation.sweep", []))
    in_sweep = sum(has_ancestor(spans, i, "truncated_variation.sweep") for i in scans)
    m["truncated_variation.sweep.scans_per_level"] = in_sweep / levels if levels else 0.0
    m["truncated_variation.sweep.ms_per_level"] = (
        total_s("truncated_variation.sweep") * 1e3 / levels if levels else 0.0)
    l1_calls = len(named.get("truncated_variation.l1_upper_bound", []))
    in_l1 = sum(has_ancestor(spans, i, "truncated_variation.l1_upper_bound") for i in scans)
    m["truncated_variation.l1_upper_bound.tv_evals"] = in_l1 / l1_calls if l1_calls else 0.0
    return m


def probe_spans(wl) -> tuple[list, LoopResult]:
    """One traced cycle of every workload's in-process calls at tiny n.

    Gives a timing to layers the workload's own cycles never reach, so a
    traced run reports no time metric that is 0 by construction.
    """
    tracer = Tracer()
    loops = LoopResult()
    for name, cls in WORKLOADS.items():
        probe = cls(wl.api, wl.seed, True, wl.workdir / f"probe-{name}", tracer)
        probe.workdir.mkdir()
        probe.setup()
        probe.reference()
        tracer.install(LAYERS)
        try:
            loops.absorb(run_loop(probe.calls(in_process=True), tracer, True, cycles=1,
                                  first_cycle=loops.cycles))
        finally:
            tracer.uninstall()
    return tracer.spans, loops


def self_time_shares(spans, startup_s: float, cli_calls: int) -> list[tuple[str, float, float]]:
    """(layer, self seconds, share of traced time); child start-up counted as a layer."""
    st = layer_stats(spans)
    rows = [(name, s.self_s) for name, s in st.items()]
    if cli_calls:
        rows.append(("cli.startup", startup_s * cli_calls))
    total = sum(v for _, v in rows)
    return sorted(((n, v, v / total) for n, v in rows), key=lambda r: -r[1])


# -------------------------------------------------------------------- driver


def timing_metrics(latencies, kinds, samples: int, percentile: float) -> dict:
    """samples_per_s, call_ms_p50 and call_ms_tail from per-call seconds.

    call_ms_p50 is the median latency of each call of the cycle (one kind is
    one request and operation), averaged over the cycle's calls: a median over
    the pooled calls would sit on the edge between two kinds of call and jump
    between them from run to run.
    """
    by_kind = {}
    for kind, dt in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(dt)
    return {
        "samples_per_s": samples / sum(latencies),
        "call_ms_p50": statistics.fmean(statistics.median(d) for d in by_kind.values()) * 1e3,
        "call_ms_tail": nearest_rank(latencies, percentile) * 1e3,
    }


def measure_end_to_end(wl, seconds: float, setup_s: float, tiny: bool, out):
    """Untraced, calibrated closed loop; returns (metrics, loop result)."""
    p = wl.tail_percentile
    loop = run_loop(wl.calls(in_process=False), wl.tracer, False, seconds=seconds,
                    min_calls=0 if tiny else tail_min_calls(p), calibrated=True)
    factors = speed.scale_factors(loop.cals)
    scaled = [dt * f for dt, f in zip(loop.latencies, factors)]
    metrics = timing_metrics(scaled, loop.kinds, loop.samples, p)
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    metrics["setup_s"] = setup_s
    out(f"calls={loop.attempted} cycles={loop.cycles} timed_s={loop.busy_s:.3f} "
        f"call_ms_tail=p{p:g}_of_{loop.attempted}")
    out(f"calibration median_ms={statistics.median(loop.cals) * 1e3:.3f} "
        f"(reference {speed.CAL_REF_S * 1e3:g}) scale median={statistics.median(factors):.4f}")
    raw = timing_metrics(loop.latencies, loop.kinds, loop.samples, p)
    out("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    # error_rate is reported here and through attempted/failed, not as a
    # BENCHMARK.json metric: it is 0 on a correct commit, and a bound relative
    # to a zero median means nothing
    out(f"metric error_rate = {loop.failed / loop.attempted:.6g} ratio")
    by_label = {}
    for label, dt in zip(loop.labels, scaled):
        by_label.setdefault(label, []).append(dt)
    for label, dts in by_label.items():
        out(f"call {label}: n={len(dts)} scaled_median_ms={statistics.median(dts) * 1e3:.2f}")
    return metrics, loop


def measure_layers(wl, seconds: float, generate_ms: float, units: dict, out):
    """Alternating untraced and traced cycles; returns (metrics, loop result)."""
    tracer = wl.tracer
    calls = wl.calls(in_process=True)
    plain, traced = LoopResult(), LoopResult()
    # alternating puts drift in machine speed on both sides of trace.overhead
    while plain.cycles == 0 or plain.busy_s < seconds / 2:
        plain.absorb(run_loop(calls, tracer, False, cycles=1))
        tracer.install(LAYERS)
        try:
            traced.absorb(run_loop(calls, tracer, True, cycles=1, first_cycle=traced.cycles))
        finally:
            tracer.uninstall()
    spans = tracer.spans
    startup_ms = child_startup_ms(wl.api)
    metrics = layer_metrics(spans, traced.cycles)
    # a time of a layer this workload never reaches comes from the probe;
    # counts stay 0 there
    reached = {s.name for s in spans}
    extra_spans, extra = probe_spans(wl)
    probed = layer_metrics(extra_spans, extra.cycles)
    for name, unit in units.items():
        if name in metrics and unit in TIME_UNITS and name.rsplit(".", 1)[0] not in reached:
            metrics[name] = probed[name]
    metrics.update({
        "cli.startup_ms": startup_ms,
        "synth.generate.ms": generate_ms,
        "trace.coverage": sum(s.end - s.start for s in spans if s.parent < 0) / traced.busy_s,
        "trace.overhead": traced.busy_s / plain.busy_s - 1.0,
    })
    out(f"traced calls={traced.attempted} cycles={traced.cycles} "
        f"timed_s={traced.busy_s:.3f} untraced_s={plain.busy_s:.3f}")
    cli_calls = traced.attempted if wl.name == "cli_files" else 0
    for name, self_s, share in self_time_shares(spans, startup_ms / 1e3, cli_calls)[:12]:
        out(f"self-time {share:7.2%} {self_s * 1e3:11.1f} ms  {name}")
    plain.absorb(traced)
    plain.absorb(extra)
    return metrics, plain


def calibrations() -> list:
    return [speed.calibrate() for _ in range(SETUP_CALS)]


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, out=print):
    """Run one workload; prints the report through ``out`` and returns the result dict."""
    cals = [calibrations()]
    api, import_s = load_truncvar()
    cals.append(calibrations())
    import_s = speed.scaled(import_s, cals[0], cals[1])
    e2e_units, layer_units = metric_units()
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    try:
        wl = WORKLOADS[workload](api, seed, tiny, workdir, tracer)
        setups = []
        if trace:
            tracer.install(SETUP_LAYERS)
        setup_raw_s = 0.0
        while len(setups) < SETUP_REPS or (setup_raw_s < SETUP_MIN_S and not tiny):
            tracer.active = trace
            t0 = time.perf_counter()
            wl.setup()
            dt = time.perf_counter() - t0
            tracer.active = False
            setup_raw_s += dt
            cals.append(calibrations())
            setups.append(speed.scaled(dt, cals[-2], cals[-1]))
        generate = [s.end - s.start for s in tracer.spans if s.name == "synth.generate"]
        tracer.uninstall()
        tracer.reset()
        wl.reference()
        out("env " + json.dumps(environment(wl, seed, seconds, trace), sort_keys=True))
        for name, reason in wl.bad.items():
            out(f"check-failed input={name}: {reason}")
        if trace:
            generate_ms = statistics.mean(generate) * 1e3 if generate else 0.0
            units = layer_units
            metrics, loop = measure_layers(wl, seconds, generate_ms, units, out)
        else:
            setup_s = import_s + statistics.median(setups)
            out(f"setup: import_ms={import_s * 1e3:.2f} set-ups={len(setups)} "
                f"median_ms={statistics.median(setups) * 1e3:.2f} (scaled)")
            metrics, loop = measure_end_to_end(wl, seconds, setup_s, tiny, out)
            units = e2e_units
        for err in loop.errors:
            out(f"check-failed {err}")
        if set(metrics) != set(units):
            raise BenchError(f"metric names differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
        for name, value in metrics.items():
            out(f"metric {name} = {value:.6g} {units[name]}")
        return {
            "correct": loop.failed == 0,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="truncvar benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    global mmap_threshold_fixed
    speed.pin_to_one_core()
    mmap_threshold_fixed = fix_mmap_threshold()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
