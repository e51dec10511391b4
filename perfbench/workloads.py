"""The benchmark's three workloads: inputs, one cycle of calls, output checks.

Every input comes from ``truncvar.synth.generate`` with a seed derived from
the workload seed. Reference results and the one-off checks (DP oracle on
a prefix, CSV round trips) are computed in ``reference()``, outside the
timed region; the per-call checks run after each call's clock has stopped.
A call whose check fails, or whose input failed a one-off check, counts as
failed. Calls resolve library functions through the module objects at call
time, so the traced run sees them through the wrappers it installs.

Why each workload exists (the README in this directory has the prediction
table):

- ``cli_files``: a shell user's cost. Interpreter start, CSV parse and CSV
  write outweigh the scan; read-only and write-heavy commands alternate so
  an I/O change that trades parse speed for write speed shows.
- ``single_level``: in-process calls at one level on three trigger
  densities; time goes to the per-sample scan and its consumers. Never
  touches ``pathio``; one level per path.
- ``level_curve``: repeated totals-only scans, from a level sweep and the
  budget splitter; the regime count runs from thousands down to one across
  the grid. ``single_level`` bypasses this code.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

C = 1.0  # the single level used by single_level, cli_files and the splitter
ORACLE_N = 2000  # prefix length for the quadratic DP cross-check
SWEEP_LEVELS = 32  # level_curve grid size
CLI_SWEEP_LEVELS = 8
CHILD_TIMEOUT_S = 120
# A CLI child runs ``python -m truncvar`` through runpy, as ``-m`` does, and
# reports its own peak RSS on stderr when it ends. RUSAGE_CHILDREN cannot
# give it: Linux carries the parent's peak into a child's ru_maxrss at exec,
# so that reads the benchmark process's own ~110 MB.
CHILD_MAIN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('truncvar', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open('/proc/self/status') as f:\n"
    "        sys.stderr.write(''.join(x for x in f if x.startswith('VmHWM:')))\n"
)


class CheckFailed(Exception):
    """An output broke an identity or disagreed with its reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def tolerance(osc: float) -> float:
    # the test suite's tolerance for float identities on a path
    return 1e-9 * max(1.0, osc)


def fmt(x) -> str:
    # shortest round-trip form, as the CLI promises for its key=value floats
    return repr(float(x))


@dataclass
class Call:
    label: str  # what is called, e.g. "lazy_approximation" or "approx_zero_start"
    request: str  # calls of one cycle with the same request share one (path, c)
    samples: int  # input samples the call consumes
    run: Callable[[], object]
    check: Callable[[object], None]


class Workload:
    name = ""
    # call_ms_tail reports this fixed percentile, and every untraced run makes
    # enough calls to leave at least 10 beyond it; a fixed percentile keeps a
    # faster commit (more calls per run) from being read at a higher one
    tail_percentile = 75.0

    def __init__(self, api, seed: int, tiny: bool, workdir: Path, tracer):
        self.api = api
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.tracer = tracer
        self.inputs = {}  # input name -> SampledPath
        self.bad = {}  # input name -> reason a one-off check failed

    def spec(self, index: int, kind: str, n: int, **extra):
        synth = self.api.synth
        return synth.GeneratorSpec(kind=kind, length=n, seed=self.seed * 16 + index, extra=extra)

    def generate(self, specs: dict) -> dict:
        return {name: self.api.synth.generate(spec) for name, spec in specs.items()}

    def oracle_check(self, name: str, path) -> None:
        """Scan and DP oracle agree on a prefix; a miss marks the input bad."""
        pm, tv = self.api.path_model, self.api.tv
        m = min(ORACLE_N, path.n)
        prefix = pm.make_path(path.times[:m], path.values[:m])
        fast = tv.truncated_variation(prefix, C)
        ref = tv.oracle_truncated_variation(prefix, C)
        tol = tolerance(pm.osc_norm(prefix))
        worst = max(abs(fast.utv - ref.utv), abs(fast.dtv - ref.dtv), abs(fast.tv - ref.tv))
        if not worst <= tol:
            self.bad[name] = f"scan and DP oracle differ by {worst!r} on the n={m} prefix"

    def guarded(self, name: str, check):
        def run_check(out):
            require(name not in self.bad, self.bad.get(name, ""))
            check(out)

        return run_check

    def describe(self) -> dict:
        return {name: p.n for name, p in self.inputs.items()}

    def peak_rss_mb(self) -> float:
        """Peak RSS in MiB of the process that runs the calls."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


# ---------------------------------------------------------------- single_level


@dataclass
class _LevelRef:
    utv: float
    dtv: float
    tv: float
    tol: float
    decomposition: object
    kinds: list  # per-sample window kind, from _running_extremes_loop
    extremes: np.ndarray  # per-sample running extreme, from the same
    first_up: int | None
    first_down: int | None
    n_skeleton: int


def _first_trigger(values: np.ndarray, c: float, up: bool) -> int | None:
    # plain loop over the samples, independent of the numpy route under test
    run = float(values[0])
    for j, v in enumerate(values.tolist()):
        if up:
            run = min(run, v)
            if v - run >= c:
                return j
        else:
            run = max(run, v)
            if run - v >= c:
                return j
    return None


def _running_extremes_loop(values: list, c: float) -> tuple[list, list]:
    """Per-sample window kind and running extreme, as a plain loop.

    The alternating scan as documented in ``regime_detector``: undecided
    ("seek") until the first trigger, then peak windows ("up", tracking the
    maximum) and valley windows ("down", tracking the minimum), a trigger
    sample opening the next window. The undecided prefix tracks the maximum
    when the first trigger is a down trigger, else the minimum.
    """
    kinds, extremes = [], []
    lo = hi = values[0]
    state = "seek"
    for j, v in enumerate(values):
        if state == "seek":
            lo, hi = min(lo, v), max(hi, v)
            if v - lo >= c:
                state, hi = "up", v
            elif hi - v >= c:
                state, lo = "down", v
            if state != "seek":  # settle the undecided prefix
                track = max if state == "down" else min
                run = values[0]
                for x in values[:j]:
                    run = track(run, x)
                    kinds.append("seek")
                    extremes.append(run)
                kinds.append(state)
                extremes.append(v)
        elif state == "up":
            hi = max(hi, v)
            if hi - v >= c:
                state, lo = "down", v
            kinds.append(state)
            extremes.append(hi if state == "up" else lo)
        else:
            lo = min(lo, v)
            if v - lo >= c:
                state, hi = "up", v
            kinds.append(state)
            extremes.append(lo if state == "down" else hi)
    if state == "seek":
        run = values[0]
        for x in values:
            run = min(run, x)
            kinds.append("seek")
            extremes.append(run)
    return kinds, extremes


class SingleLevel(Workload):
    """All per-sample consumers at c = 1 on three trigger densities."""

    name = "single_level"
    tail_percentile = 90.0

    def specs(self):
        n = 300 if self.tiny else 200_000
        return {
            "jump-mixture": self.spec(0, "jump-mixture", n),
            "random-walk": self.spec(1, "random-walk", n),
            "oscillator": self.spec(
                2, "near-threshold-oscillator", n, target_level=1.0, amplitude_ratio=1.001
            ),
        }

    def setup(self) -> None:
        self.inputs = self.generate(self.specs())
        pm = self.api.path_model
        for path in self.inputs.values():  # warm-up (JIT compile when numba is present)
            head = pm.make_path(path.times[:64], path.values[:64])
            for call in self._calls_for("warm-up", head, None):
                call.run()

    def reference(self) -> None:
        api = self.api
        self.refs = {}
        for name, path in self.inputs.items():
            r = api.tv.truncated_variation(path, C)
            dec = api.regimes.detect_regimes(path, C)
            kinds, extremes = _running_extremes_loop(path.values.tolist(), C)
            ref = _LevelRef(
                utv=r.utv,
                dtv=r.dtv,
                tv=r.tv,
                tol=tolerance(api.path_model.osc_norm(path)),
                decomposition=dec,
                kinds=kinds,
                extremes=np.array(extremes),
                first_up=_first_trigger(path.values, C, up=True),
                first_down=_first_trigger(path.values, C, up=False),
                n_skeleton=api.approx.step_skeleton(path, C).n,
            )
            self.refs[name] = ref
            self.oracle_check(name, path)
            triggers = [t for t in (ref.first_up, ref.first_down) if t is not None]
            first_scan = np.concatenate([dec.up_times, dec.down_times])
            if (min(triggers) if triggers else None) != (
                int(first_scan.min()) if first_scan.size else None
            ):
                self.bad[name] = "first trigger of the scan is not the earlier first-passage time"

    def calls(self, in_process: bool) -> list[Call]:
        out = []
        for name, path in self.inputs.items():
            out += self._calls_for(name, path, self.refs[name])
        return out

    def _calls_for(self, name: str, path, ref: _LevelRef | None) -> list[Call]:
        api = self.api
        n = path.n
        values = path.values
        half = C / 2.0

        def chk(fn):
            return self.guarded(name, fn) if ref is not None else (lambda out: None)

        def check_ends(up, down):
            require(up[-1] == ref.utv and down[-1] == ref.dtv, "component end values != utv/dtv")

        def check_tv(r):
            require(r.tv == r.utv + r.dtv, "tv != utv + dtv")
            require((r.utv, r.dtv) == (ref.utv, ref.dtv), "totals differ from the reference")

        def check_band(a):
            fc = a.approximation.values
            require(abs(float(np.sum(np.abs(np.diff(fc)))) - ref.tv) <= ref.tol, "|TV(band) - tv| > tol")
            require(abs(a.achieved_tv - ref.tv) <= ref.tol, "achieved_tv != tv")
            require(a.sup_error <= half + ref.tol, "sup_error > c/2")
            require(float(np.max(np.abs(fc - values))) <= half + ref.tol, "band leaves c/2 ball")
            check_ends(a.jordan.up_component, a.jordan.down_component)

        def check_zero(a):
            fc = a.approximation.values
            require(fc[0] == 0.0, "zero-start path does not start at 0")
            require(abs(a.achieved_tv - ref.tv) <= ref.tol, "achieved_tv != tv")
            residual = fc - values
            require(float(residual.max() - residual.min()) <= C + ref.tol, "increments miss by > c")
            check_ends(a.jordan.up_component, a.jordan.down_component)

        def check_jordan(j):
            du, dd = np.diff(j.up_component), np.diff(j.down_component)
            require(np.all(du >= 0) and np.all(dd >= 0), "components decrease")
            require(np.all(np.minimum(du, dd) == 0.0), "both components rise at one step")
            check_ends(j.up_component, j.down_component)

        def check_prefix(curves):
            up, down, tv = curves
            for arr in curves:
                require(np.all(np.diff(arr) >= 0), "prefix curve decreases")
            check_ends(up, down)
            require(tv[-1] == ref.tv, "last prefix tv != tv")

        def check_regimes(d):
            r = ref.decomposition
            require(d.first_direction == r.first_direction, "first direction differs")
            for a, b in ((d.up_times, r.up_times), (d.down_times, r.down_times),
                         (d.lows, r.lows), (d.highs, r.highs)):
                require(np.array_equal(a, b), "regime skeleton differs from the reference")
            first, second = (d.down_times, d.up_times) if d.first_direction == "down-first" else (
                d.up_times, d.down_times)
            merged = np.empty(first.size + second.size, dtype=np.int64)
            merged[0::2], merged[1::2] = first, second
            require(np.all(np.diff(merged) > 0), "triggers do not alternate")

        def check_extremes(pairs):
            require([k for k, _ in pairs] == ref.kinds, "kinds differ from the plain loop")
            got = np.fromiter((e for _, e in pairs), dtype=np.float64, count=len(pairs))
            require(np.array_equal(got, ref.extremes), "extremes differ from the plain loop")

        def check_skeleton(s):
            require(s.n == ref.n_skeleton, "breakpoint count differs from the reference")
            require(bool(np.all(np.isin(s.times, path.times))), "breakpoints not a subset")
            require(s.times[-1] == path.times[-1], "domain end dropped")
            held = s.values[np.searchsorted(s.times, path.times, side="right") - 1]
            require(float(np.max(np.abs(held - values))) <= half, "skeleton leaves c/2 ball")

        def check_eq(attr):
            return lambda t: require(t == getattr(ref, attr), f"{attr} differs from the plain loop")

        dec = ref.decomposition if ref is not None else api.regimes.detect_regimes(path, C)
        ops = [
            ("truncated_variation", lambda: api.tv.truncated_variation(path, C), check_tv),
            ("lazy_approximation", lambda: api.approx.lazy_approximation(path, C), check_band),
            ("zero_start_approximation", lambda: api.approx.zero_start_approximation(path, C), check_zero),
            ("jordan_pair", lambda: api.approx.jordan_pair(path, C), check_jordan),
            ("prefix_curves", lambda: api.tv.prefix_curves(path, C), check_prefix),
            ("detect_regimes", lambda: api.regimes.detect_regimes(path, C), check_regimes),
            ("running_extremes", lambda: api.regimes.running_extremes(path, dec), check_extremes),
            ("step_skeleton", lambda: api.approx.step_skeleton(path, C), check_skeleton),
            ("first_up_time", lambda: api.regimes.first_up_time(path, C), check_eq("first_up")),
            ("first_down_time", lambda: api.regimes.first_down_time(path, C), check_eq("first_down")),
        ]
        return [Call(label, name, n, run, chk(check)) for label, run, check in ops]


# ----------------------------------------------------------------- level_curve


class LevelCurve(Workload):
    """32-level sweeps plus the budget splitter: repeated totals-only scans."""

    name = "level_curve"

    def specs(self):
        n, m = (400, 100) if self.tiny else (20_000, 2000)
        return {
            "random-walk": self.spec(0, "random-walk", n),
            "jump-mixture": self.spec(1, "jump-mixture", n),
            "split-walk": self.spec(2, "random-walk", m),
            "split-jumps": self.spec(3, "jump-mixture", m),
        }

    def setup(self) -> None:
        self.inputs = self.generate(self.specs())
        pm, tv = self.api.path_model, self.api.tv
        heads = [pm.make_path(p.times[:64], p.values[:64]) for p in self.inputs.values()]
        tv.sweep(heads[0], [0.5, 1.0])  # warm-up
        tv.l1_upper_bound(heads[2:], C, grid_points=4)

    def grid(self, path) -> np.ndarray:
        # spans (0, osc_norm]; the last level is osc_norm itself, where tv is 0
        osc = self.api.path_model.osc_norm(path)
        return osc * np.arange(1, SWEEP_LEVELS + 1) / SWEEP_LEVELS

    def reference(self) -> None:
        api = self.api
        self.curves = {}
        for name, path in self.inputs.items():
            self.oracle_check(name, path)
            if name.startswith("split-"):
                continue
            grid = self.grid(path)
            self.curves[name] = (grid, np.array([api.tv.truncated_variation(path, float(c)).tv for c in grid]))
        self.components = [self.inputs["split-walk"], self.inputs["split-jumps"]]
        self.split_ref = api.tv.l1_upper_bound(self.components, C)

    def calls(self, in_process: bool) -> list[Call]:
        api = self.api
        out = []
        for name, (grid, ref_tv) in self.curves.items():
            tol = tolerance(api.path_model.osc_norm(self.inputs[name]))

            def check_curve(curve, grid=grid, ref_tv=ref_tv, tol=tol):
                require(np.array_equal(curve.levels, grid), "sweep returned another grid")
                vals = curve.tv_values
                require(np.array_equal(vals, ref_tv), "sweep differs from truncated_variation per level")
                require(np.all(np.diff(vals) <= tol), "tv curve increases")
                require(vals[-1] == 0.0, "tv is not 0 at osc_norm")

            path = self.inputs[name]
            out.append(Call("sweep", name, path.n, lambda p=path, g=grid: api.tv.sweep(p, g),
                            self.guarded(name, check_curve)))

        comps = self.components

        def check_split(result):
            for name in ("split-walk", "split-jumps"):
                require(name not in self.bad, self.bad.get(name, ""))
            bound, split = result
            require(all(s > 0 for s in split), "non-positive level in the split")
            require(abs(sum(split) - C) <= 1e-12 * C, "split does not sum to c")
            achieved = sum(api.tv.truncated_variation(p, s).tv for p, s in zip(comps, split))
            require(bound == achieved, "bound is not the summed tv at the split")
            start = sum(api.tv.truncated_variation(p, C / len(comps)).tv for p in comps)
            require(bound <= start + tolerance(start), "bound worse than the equal split")
            require((bound, list(split)) == (self.split_ref[0], list(self.split_ref[1])),
                    "split differs from the reference")

        out.append(Call("l1_upper_bound", "split", sum(p.n for p in comps),
                        lambda: api.tv.l1_upper_bound(comps, C), check_split))
        return out


# ------------------------------------------------------------------- cli_files


@dataclass
class _Command:
    label: str
    argv: list
    expected: dict  # report key -> exact string value
    outputs: dict  # output file -> expected bytes


class CliFiles(Workload):
    """``python -m truncvar`` on CSV files, one child process at a time."""

    name = "cli_files"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.child_env = dict(os.environ, PYTHONPATH=str(self.api.src))
        self.child_peak_kib = 0  # largest VmHWM a CLI child reported

    def specs(self):
        n = 300 if self.tiny else 100_000
        return {
            "random-walk": self.spec(0, "random-walk", n),
            "jump-mixture": self.spec(1, "jump-mixture", n),
        }

    def csv(self, name: str) -> Path:
        return self.workdir / f"in-{name}.csv"

    def setup(self) -> None:
        pm, pathio = self.api.path_model, self.api.pathio
        self.inputs = self.generate(self.specs())
        for name, path in self.inputs.items():
            pathio.write_path(path, self.csv(name))
        first = next(iter(self.inputs.values()))
        warm = self.workdir / "warm.csv"
        pathio.write_path(pm.make_path(first.times[:64], first.values[:64]), warm)
        # warm-up: interpreter, byte-code cache and file cache, as a shell user's
        # second run would find them
        self.child(["tv", str(warm), "-c", fmt(C)])
        for name in self.inputs:
            self.csv(name).read_bytes()

    def child(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_MAIN, *argv],
            env=self.child_env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        for line in proc.stderr.splitlines():
            if line.startswith("VmHWM:"):
                self.child_peak_kib = max(self.child_peak_kib, int(line.split()[1]))
        return proc.returncode, proc.stdout

    def peak_rss_mb(self) -> float:
        """Peak RSS in MiB of the largest CLI child."""
        return self.child_peak_kib / 1024.0

    def in_process(self, label: str, argv):
        buf = io.StringIO()
        with self.tracer.span(f"cli.{label}"), contextlib.redirect_stdout(buf):
            code = self.api.cli.main(argv)
        return code, buf.getvalue()

    def reference(self) -> None:
        self.commands = {}
        for name, generated in self.inputs.items():
            path = self.api.pathio.read_path(self.csv(name))
            if not (np.array_equal(path.times, generated.times)
                    and np.array_equal(path.values, generated.values)):
                self.bad[name] = "CSV round trip changed the path"
            self.oracle_check(name, path)
            self.commands[name] = self._commands(name, path)

    def _reference_file(self, name: str, label: str, write, columns) -> bytes:
        """Write ``columns`` in-process, check they read back equal, return the bytes."""
        dest = self.workdir / f"ref-{name}-{label}.csv"
        write(dest)
        rows = dest.read_text(encoding="utf-8").splitlines()[1:]
        back = np.array([[float(x) for x in row.split(",")] for row in rows]).T
        for got, want in zip(back, columns):
            if not np.array_equal(got, np.asarray(want, dtype=np.float64)):
                self.bad[name] = f"{dest.name} does not read back equal"
        return dest.read_bytes()

    def _commands(self, name: str, path) -> list[_Command]:
        api = self.api
        pathio, tv, approx = api.pathio, api.tv, api.approx
        src = str(self.csv(name))
        lo, hi = path.domain
        digest = {
            "input": src,
            "n": str(path.n),
            "t_start": fmt(lo),
            "t_end": fmt(hi),
            "osc_norm": fmt(api.path_model.osc_norm(path)),
            "total_variation": fmt(api.path_model.total_variation(path)),
        }
        c = fmt(C)

        def out(label):
            return str(self.workdir / f"out-{name}-{label}.csv")

        def path_file(label, p):
            return {out(label): self._reference_file(
                name, label, lambda d: pathio.write_path(p, d), (p.times, p.values))}

        def cols_file(label, header, columns):
            return {out(label): self._reference_file(
                name, label, lambda d: pathio.write_columns(d, header, columns), columns)}

        r = tv.truncated_variation(path, C)
        totals = {"c": c, "utv": fmt(r.utv), "dtv": fmt(r.dtv), "tv": fmt(r.tv)}
        up, down, tvp = tv.prefix_curves(path, C)
        band = approx.lazy_approximation(path, C)
        zero = approx.zero_start_approximation(path, C)
        skeleton = approx.step_skeleton(path, C)
        osc = api.path_model.osc_norm(path)
        step = osc / CLI_SWEEP_LEVELS
        spec = f"{step!r}:{osc!r}:{step!r}"
        levels = step + step * np.arange(CLI_SWEEP_LEVELS)  # the CLI's lo + step * k
        curve = tv.sweep(path, levels)
        ju, jd = band.jordan.up_component, band.jordan.down_component

        def quality(a, zero_start):
            return {"c": c, "zero_start": str(zero_start), "achieved_tv": fmt(a.achieved_tv),
                    "sup_error": fmt(a.sup_error)}

        cmds = [
            _Command("tv", ["tv", src, "-c", c], {"command": "tv", **totals}, {}),
            _Command("approx", ["approx", src, "-c", c, "--out", out("approx")],
                     {"command": "approx", "out": out("approx"), **quality(band, 0)},
                     path_file("approx", band.approximation)),
            _Command("tv_prefix", ["tv", src, "-c", c, "--prefix", out("tv_prefix")],
                     {"command": "tv", "prefix_file": out("tv_prefix"), **totals},
                     cols_file("tv_prefix", ("time", "utv", "dtv", "tv"), (path.times, up, down, tvp))),
            _Command("decompose", ["decompose", src, "-c", c, "--out-up", out("up"),
                                   "--out-down", out("down")],
                     {"command": "decompose", "c": c, "utv": fmt(ju[-1]), "dtv": fmt(jd[-1])},
                     {**path_file("up", api.path_model.make_path(path.times, ju)),
                      **path_file("down", api.path_model.make_path(path.times, jd))}),
            _Command("sweep", ["sweep", src, "--levels", spec, "--out", out("sweep")],
                     {"command": "sweep", "levels": spec, "n_levels": str(CLI_SWEEP_LEVELS)},
                     cols_file("sweep", ("c", "tv"), (curve.levels, curve.tv_values))),
            _Command("approx_zero_start", ["approx", src, "-c", c, "--zero-start", "--out",
                                           out("approx_zero_start")],
                     {"command": "approx", **quality(zero, 1)},
                     path_file("approx_zero_start", zero.approximation)),
            _Command("skeleton", ["skeleton", src, "-c", c, "--out", out("skeleton")],
                     {"command": "skeleton", "c": c, "n_breakpoints": str(skeleton.n)},
                     path_file("skeleton", skeleton)),
        ]
        for cmd in cmds:
            cmd.expected.update(digest)
        return cmds

    def calls(self, in_process: bool) -> list[Call]:
        out = []
        for name, cmds in self.commands.items():
            for cmd in cmds:
                if in_process:
                    run = (lambda cmd=cmd: self.in_process(cmd.label, cmd.argv))
                else:
                    run = (lambda cmd=cmd: self.child(cmd.argv))
                check = self.guarded(name, lambda res, cmd=cmd: self._check(cmd, res))
                out.append(Call(cmd.label, f"{name}:{cmd.label}", self.inputs[name].n, run, check))
        return out

    @staticmethod
    def _check(cmd: _Command, result) -> None:
        code, stdout = result
        try:
            require(code == 0, f"{cmd.label} exited with {code}")
            report = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
            for key, want in cmd.expected.items():
                require(report.get(key) == want, f"{cmd.label}: {key}={report.get(key)} != {want}")
            for dest, want in cmd.outputs.items():
                require(Path(dest).read_bytes() == want, f"{cmd.label}: {dest} differs")
        finally:
            for dest in cmd.outputs:
                Path(dest).unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (CliFiles, SingleLevel, LevelCurve)}
