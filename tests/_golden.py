"""Digests of every public output family over one fixed corpus.

``golden_digests.json`` holds one SHA-256 per family, and
``test_golden.py`` recomputes them on both routes, so a change that moves
any output by one ulp fails and names the families it moved. A change that
alters results on purpose regenerates the file with

    PYTHONPATH=src python tests/_golden.py

and says in CHANGES.md which families changed and why. The file records the
numpy version it was made with: numpy's summation order is internal, so a
new numpy can move a digest without any change here.

The corpus is ``mixed_corpus`` at two levels a path, the benchmark's
generators at small n at the benchmark's level 1 (the amplitude-1.001
oscillator also at its amplitude, where every swing ties the level), and
pairs of corpus paths for ``l1_upper_bound``. The CLI family is the output
files' bytes and each report without its timings, codec and file names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from truncvar import (
    GeneratorSpec,
    cli,
    detect_regimes,
    first_down_time,
    first_up_time,
    generate,
    jordan_pair,
    l1_upper_bound,
    lazy_approximation,
    make_path,
    osc_norm,
    prefix_curves,
    running_extremes,
    step_skeleton,
    sweep,
    total_variation,
    truncated_variation,
    zero_start_approximation,
)
from truncvar.pathio import write_path

from _oracles import mixed_corpus

GOLDEN = Path(__file__).with_name("golden_digests.json")

FAMILIES = (
    "tv",
    "total_variation",
    "prefix_curves",
    "sweep",
    "lazy_approximation",
    "zero_start_approximation",
    "jordan_pair",
    "regimes",
    "running_extremes",
    "step_skeleton",
    "l1_upper_bound",
    "cli",
)

# report keys whose values depend on the run, the route or the file names
_VOLATILE = {
    "codec", "wall_ms", "read_ms", "write_ms", "peak_rss_kb",
    "input", "out", "out_up", "out_down", "prefix_file",
}


def _feed(h, *items) -> None:
    """Hash each item with its dtype and shape, so equal bytes of another
    type or layout do not collide."""
    for item in items:
        a = np.asarray(item)
        h.update(f"{a.dtype.str}{a.shape}|".encode())
        h.update(a.tobytes())


def _bench_paths():
    """The benchmark's generators (perfbench, seed 1) at small n."""
    specs = [
        GeneratorSpec("jump-mixture", 5000, seed=16),
        GeneratorSpec("random-walk", 5000, seed=17),
        GeneratorSpec(
            "near-threshold-oscillator", 5000, seed=18,
            extra={"target_level": 1.0, "amplitude_ratio": 1.001},
        ),
    ]
    return [generate(spec) for spec in specs]


def _cases():
    """``(path, levels, sweep grid)`` triples."""
    corpus = mixed_corpus(400, seed=2612, max_len=200)
    out = [(p, (c, c / 8), c * np.arange(1, 9) / 4) for p, c in corpus]
    jumps, walk, oscillator = _bench_paths()
    for path in (jumps, walk):
        out.append((path, (1.0, 0.25), osc_norm(path) * np.arange(1, 33) / 32))
    out.append((oscillator, (1.0, 1.001), np.linspace(0.5, 1.5, 33)))
    return out


def _splits():
    """``(components, c)`` for ``l1_upper_bound``: corpus paths cut to one grid."""
    corpus = mixed_corpus(120, seed=2613, max_len=200)
    out = []
    for (a, ca), (b, cb) in zip(corpus[::2], corpus[1::2]):
        n = min(a.n, b.n)
        comps = [make_path(p.times[:n], p.values[:n]) for p in (a, b)]
        out.append((comps, ca + cb))
    return out


def _cli_runs(tmp: Path):
    """Argument lists of the CLI commands, and the files each writes."""
    src = str(tmp / "in.csv")
    out = [str(tmp / name) for name in ("a.csv", "b.csv")]
    return [
        (["tv", src, "-c", "1", "--prefix", out[0]], out[:1]),
        (["approx", src, "-c", "1", "--out", out[0]], out[:1]),
        (["approx", src, "-c", "1", "--zero-start", "--out", out[0]], out[:1]),
        (["decompose", src, "-c", "0.5", "--out-up", out[0], "--out-down", out[1]], out),
        (["sweep", src, "--levels", "0.25:4:0.25", "--out", out[0]], out[:1]),
        (["skeleton", src, "-c", "0.5", "--out", out[0]], out[:1]),
        (["gen", "--kind", "jump-mixture", "--length", "500", "--seed", "3", "--out", out[0]],
         out[:1]),
    ]


def _hash_cli(h) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_path(_bench_paths()[0], tmp / "in.csv")
        for argv, written in _cli_runs(tmp):
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"truncvar {' '.join(argv)} exited {code}")
            lines = [line for line in report.getvalue().splitlines()
                     if line.split("=", 1)[0] not in _VOLATILE]
            h.update("\n".join(lines).encode())
            for name in written:
                h.update(Path(name).read_bytes())


def digests() -> dict[str, str]:
    """SHA-256 of every family over the corpus, by family name."""
    h = {name: hashlib.sha256() for name in FAMILIES}
    for path, levels, grid in _cases():
        _feed(h["total_variation"], total_variation(path), osc_norm(path))
        for c in levels:
            r = truncated_variation(path, c)
            _feed(h["tv"], r.utv, r.dtv, r.tv)
            _feed(h["prefix_curves"], *prefix_curves(path, c))
            for name, method in (
                ("lazy_approximation", lazy_approximation),
                ("zero_start_approximation", zero_start_approximation),
            ):
                a = method(path, c)
                _feed(h[name], a.approximation.times, a.approximation.values,
                      a.jordan.up_component, a.jordan.down_component, a.achieved_tv, a.sup_error)
            pair = jordan_pair(path, c)
            _feed(h["jordan_pair"], pair.up_component, pair.down_component)
            d = detect_regimes(path, c)
            first = [first_up_time(path, c), first_down_time(path, c)]
            first = [-1 if i is None else i for i in first]
            _feed(h["regimes"], d.first_direction, d.up_times, d.down_times, d.lows, d.highs,
                  d.n, d.c, first)
            pairs = running_extremes(path, d)
            _feed(h["running_extremes"], "\n".join(kind for kind, _ in pairs),
                  [extreme for _, extreme in pairs])
            s = step_skeleton(path, c)
            _feed(h["step_skeleton"], s.times, s.values)
        curve = sweep(path, grid)
        _feed(h["sweep"], curve.levels, curve.tv_values)
    for comps, c in _splits():
        bound, split = l1_upper_bound(comps, c)
        _feed(h["l1_upper_bound"], bound, split)
    _hash_cli(h["cli"])
    return {name: hh.hexdigest() for name, hh in h.items()}


def main() -> None:
    record = {"numpy": np.__version__, "families": digests()}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
