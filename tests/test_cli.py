import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from truncvar import (
    GeneratorSpec,
    generate,
    jordan_pair,
    lazy_approximation,
    make_path,
    step_skeleton,
    truncated_variation,
    zero_start_approximation,
)
from truncvar import pathio
from truncvar.cli import main
from truncvar.pathio import FileFormatError, read_path, write_path


# The in-process file commands are marked both_routes; a child process
# started by a test does not see the route patch, so those tests are not.


def report_of(capsys):
    out = capsys.readouterr().out
    return dict(line.split("=", 1) for line in out.strip().splitlines())


@pytest.mark.both_routes
class TestPathIO:
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = generate(GeneratorSpec("random-walk", 500, seed=3))
        dest = tmp_path / "walk.csv"
        write_path(p, dest)
        q = read_path(dest)
        assert q.values.tobytes() == p.values.tobytes()
        assert q.times.tobytes() == p.times.tobytes()

    def test_header_is_optional(self, tmp_path):
        dest = tmp_path / "noheader.csv"
        dest.write_text("0,1.5\n1,2.5\n")
        q = read_path(dest)
        assert q.values.tolist() == [1.5, 2.5]

    def test_malformed_rows(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0,1,2\n")
        with pytest.raises(FileFormatError):
            read_path(bad)
        bad.write_text("time,value\n0,abc\n")
        with pytest.raises(FileFormatError):
            read_path(bad)


@pytest.mark.both_routes
class TestTvCommand:
    def test_basic_report(self, p1_file, p1, capsys):
        assert main(["tv", p1_file, "-c", "0.6"]) == 0
        rep = report_of(capsys)
        ref = truncated_variation(p1, 0.6)
        assert float(rep["utv"]) == ref.utv
        assert float(rep["dtv"]) == ref.dtv
        assert float(rep["tv"]) == ref.tv
        assert rep["n"] == "5"
        assert float(rep["osc_norm"]) == 1.2

    def test_bom_before_header(self, p1_file, p1, tmp_path, capsys):
        bom_file = tmp_path / "bom.csv"
        bom_file.write_bytes(b"\xef\xbb\xbf" + Path(p1_file).read_bytes())
        assert main(["tv", str(bom_file), "-c", "0.6"]) == 0
        rep = report_of(capsys)
        ref = truncated_variation(p1, 0.6)
        assert (float(rep["utv"]), float(rep["dtv"]), float(rep["tv"])) == (
            ref.utv,
            ref.dtv,
            ref.tv,
        )

    def test_oracle_flag(self, p1_file, capsys):
        assert main(["tv", p1_file, "-c", "0.6", "--oracle"]) == 0
        rep = report_of(capsys)
        assert float(rep["oracle_discrepancy"]) <= 1e-9

    def test_prefix_totals_come_from_the_curves(self, p1_file, p1, tmp_path, capsys,
                                                monkeypatch):
        ref = truncated_variation(p1, 0.6)

        def no_second_scan(*args):
            raise AssertionError("tv --prefix scans twice")

        monkeypatch.setattr("truncvar.cli.truncated_variation", no_second_scan)
        out = tmp_path / "prefix.csv"
        assert main(["tv", p1_file, "-c", "0.6", "--prefix", str(out)]) == 0
        rep = report_of(capsys)
        assert (rep["utv"], rep["dtv"], rep["tv"]) == tuple(
            pathio.format_number(x) for x in (ref.utv, ref.dtv, ref.tv)
        )

    def test_prefix_flag(self, p1_file, p1, tmp_path, capsys):
        out = tmp_path / "prefix.csv"
        assert main(["tv", p1_file, "-c", "0.6", "--prefix", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "time,utv,dtv,tv"
        tv_col = [float(r.split(",")[3]) for r in rows[1:]]
        np.testing.assert_allclose(tv_col, [0, 0.4, 0.6, 1.0, 1.4], atol=1e-12)


@pytest.mark.both_routes
class TestApproxCommand:
    def test_writes_band_approximation(self, p1_file, p1, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        assert main(["approx", p1_file, "-c", "0.6", "--out", str(out)]) == 0
        got = read_path(out)
        ref = lazy_approximation(p1, 0.6).approximation
        assert got.values.tobytes() == ref.values.tobytes()
        rep = report_of(capsys)
        assert float(rep["sup_error"]) == pytest.approx(0.3, abs=1e-12)

    def test_zero_start(self, p1_file, p1, tmp_path, capsys):
        out = tmp_path / "f0.csv"
        assert main(
            ["approx", p1_file, "-c", "0.6", "--out", str(out), "--zero-start"]
        ) == 0
        got = read_path(out)
        ref = zero_start_approximation(p1, 0.6).approximation
        assert got.values.tobytes() == ref.values.tobytes()


@pytest.mark.both_routes
class TestDecomposeCommand:
    def test_writes_components(self, p1_file, p1, tmp_path, capsys):
        up_f = tmp_path / "up.csv"
        down_f = tmp_path / "down.csv"
        code = main(
            [
                "decompose",
                p1_file,
                "-c",
                "0.6",
                "--out-up",
                str(up_f),
                "--out-down",
                str(down_f),
            ]
        )
        assert code == 0
        j = jordan_pair(p1, 0.6)
        assert read_path(up_f).values.tobytes() == j.up_component.tobytes()
        assert read_path(down_f).values.tobytes() == j.down_component.tobytes()


@pytest.mark.both_routes
class TestSweepCommand:
    def test_grid_rows(self, tmp_path, ramp3, capsys):
        src = tmp_path / "ramp.csv"
        write_path(ramp3, src)
        out = tmp_path / "curve.csv"
        code = main(["sweep", str(src), "--levels", "0.5:1.5:0.5", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "c,tv"
        got = [tuple(map(float, r.split(","))) for r in rows[1:]]
        assert [c for c, _ in got] == [0.5, 1.0, 1.5]
        np.testing.assert_allclose([t for _, t in got], [1.5, 1.0, 0.5], atol=1e-12)


@pytest.mark.both_routes
class TestSkeletonCommand:
    def test_writes_skeleton(self, tmp_path, capsys):
        p = make_path([0, 1, 2, 3], [0.0, 0.1, 0.2, 1.0])
        src = tmp_path / "p.csv"
        write_path(p, src)
        out = tmp_path / "skel.csv"
        assert main(["skeleton", str(src), "-c", "0.5", "--out", str(out)]) == 0
        got = read_path(out)
        ref = step_skeleton(p, 0.5)
        assert got.values.tobytes() == ref.values.tobytes()


@pytest.mark.both_routes
class TestGenCommand:
    def test_gen_then_tv_round_trip_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "walk.csv"
        args = [
            "gen",
            "--kind",
            "random-walk",
            "--length",
            "300",
            "--seed",
            "11",
            "--scale",
            "0.5",
            "--out",
            str(out),
        ]
        assert main(args) == 0
        capsys.readouterr()
        spec = GeneratorSpec("random-walk", 300, seed=11, scale=0.5)
        in_memory = generate(spec)
        from_file = read_path(out)
        assert from_file.values.tobytes() == in_memory.values.tobytes()
        assert main(["tv", str(out), "-c", "0.8"]) == 0
        rep = report_of(capsys)
        ref = truncated_variation(in_memory, 0.8)
        assert float(rep["utv"]) == ref.utv
        assert float(rep["dtv"]) == ref.dtv
        assert float(rep["tv"]) == ref.tv

    def test_gen_is_deterministic_across_calls(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["gen", "--kind", "jump-mixture", "--length", "64", "--seed", "5"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_ramp_rows(self, tmp_path, capsys):
        out = tmp_path / "ramp.csv"
        assert main(["gen", "--kind", "ramp", "--length", "3", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows == ["time,value", "0.0,0.0", "1.0,1.0", "2.0,2.0"]


class TestBenchCommand:
    def test_small_bench_reports_throughput(self, capsys):
        assert main(["bench", "--length", "20000", "--seed", "1"]) == 0
        rep = report_of(capsys)
        assert float(rep["samples_per_second"]) > 0
        assert rep["n"] == "20000"
        assert rep["backend"] == "python"


@pytest.mark.both_routes
class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["tv", str(tmp_path / "nope.csv"), "-c", "0.5"]) == 5

    def test_malformed_rows_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0,one\n")
        assert main(["tv", str(bad), "-c", "0.5"]) == 3

    def test_unsorted_times_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "unsorted.csv"
        bad.write_text("1,1.0\n0,2.0\n")
        assert main(["tv", str(bad), "-c", "0.5"]) == 3

    def test_nonpositive_level_exit_4(self, p1_file, capsys):
        assert main(["tv", p1_file, "-c", "-1"]) == 4
        assert main(["tv", p1_file, "-c", "0"]) == 4

    def test_bad_level_grid_exit_4(self, p1_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["sweep", p1_file, "--levels", "ugh", "--out", str(out)]) == 4

    @pytest.mark.parametrize("grid", ["1e-300:1:1e-300", "1e-300:1e300:1e-300"])
    def test_level_grid_too_large_exit_4(self, p1_file, tmp_path, capsys, grid):
        out = tmp_path / "curve.csv"
        assert main(["sweep", p1_file, "--levels", grid, "--out", str(out)]) == 4
        assert "bad-level-grid" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_usage_exit_2(self, capsys):
        assert main(["tv"]) == 2
        assert main(["frobnicate"]) == 2

    def test_unwritable_output_exit_5(self, p1_file, tmp_path, capsys):
        dest = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["approx", p1_file, "-c", "0.6", "--out", str(dest)]) == 5


def test_module_entry_point_subprocess(p1_file):
    ok = subprocess.run(
        [sys.executable, "-m", "truncvar", "tv", p1_file, "-c", "0.6"],
        capture_output=True,
        text=True,
    )
    assert ok.returncode == 0
    rep = dict(line.split("=", 1) for line in ok.stdout.strip().splitlines())
    assert float(rep["tv"]) == truncated_variation(read_path(p1_file), 0.6).tv

    missing = subprocess.run(
        [sys.executable, "-m", "truncvar", "tv", "no-such-file.csv", "-c", "0.6"],
        capture_output=True,
        text=True,
    )
    assert missing.returncode == 5


@pytest.mark.both_routes
def test_value_span_overflow_exit_4(tmp_path, capsys):
    src = tmp_path / "wide.csv"
    src.write_text("time,value\n0,-1e308\n1,1e308\n2,-1e308\n")
    assert main(["tv", str(src), "-c", "1"]) == 4
    assert "value-span-overflow" in capsys.readouterr().err


@pytest.mark.both_routes
def test_file_commands_report_stage_times_and_peak_rss(p1_file, tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    runs = [
        (["tv", p1_file, "-c", "0.6"], ["read_ms"]),
        (["tv", p1_file, "-c", "0.6", "--prefix", out], ["read_ms", "write_ms"]),
        (["approx", p1_file, "-c", "0.6", "--out", out], ["read_ms", "write_ms"]),
        (
            ["decompose", p1_file, "-c", "0.6", "--out-up", out, "--out-down", out + "2"],
            ["read_ms", "write_ms"],
        ),
        (["sweep", p1_file, "--levels", "0.5:1.5:0.5", "--out", out], ["read_ms", "write_ms"]),
        (["skeleton", p1_file, "-c", "0.6", "--out", out], ["read_ms", "write_ms"]),
        (["gen", "--kind", "ramp", "--length", "5", "--out", out], ["write_ms"]),
    ]
    for argv, stages in runs:
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        # the new keys follow every existing one, wall_ms last among those
        assert keys[-len(stages) - 2 :] == ["wall_ms", *stages, "peak_rss_kb"], argv
        rep = dict(line.split("=", 1) for line in lines)
        assert all(float(rep[k]) >= 0.0 for k in stages)
        assert int(rep["peak_rss_kb"]) > 0


@pytest.mark.both_routes
def test_non_utf8_input_exit_3(tmp_path, capsys):
    src = tmp_path / "latin1.csv"
    src.write_bytes(b"time,value\n0,1\n1,\xff2\n")
    assert main(["tv", str(src), "-c", "1"]) == 3
    assert "line 3: not UTF-8 text" in capsys.readouterr().err


def test_tv_overflow_exit_4_without_warnings(tmp_path):
    # every rise is finite, their sum is not
    src = tmp_path / "huge.csv"
    write_path(make_path(np.arange(4000.0), np.tile([0.0, 1e305], 2000)), src)
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "truncvar", "tv", str(src), "-c", "1"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 4
    assert run.stderr.startswith("error: tv-overflow:")


@pytest.mark.both_routes
def test_digest_overflow_exit_4_before_any_output(tmp_path, capsys):
    # skeleton never scans totals; the input digest's total_variation overflows
    src, out = tmp_path / "huge.csv", tmp_path / "s.csv"
    write_path(make_path(np.arange(4000.0), np.tile([0.0, 1e305], 2000)), src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["skeleton", str(src), "-c", "1", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: tv-overflow:")
    assert not out.exists()


@pytest.mark.both_routes
def test_band_overflow_exit_4(tmp_path, capsys):
    src, out = tmp_path / "high.csv", tmp_path / "a.csv"
    write_path(make_path([0, 1], [1.7e308, 1.7e308]), src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["approx", str(src), "-c", "1.7e308", "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith("error: band-overflow:")
    assert not out.exists()


@pytest.mark.both_routes
def test_decompose_writes_no_band(tmp_path, capsys):
    # the band c/2 around these values overflows, the rise/fall pair does not
    src, up_f, down_f = tmp_path / "high.csv", tmp_path / "up.csv", tmp_path / "down.csv"
    write_path(make_path([0, 1], [1.7e308, 1.7e308]), src)
    argv = ["decompose", str(src), "-c", "1.7e308", "--out-up", str(up_f), "--out-down",
            str(down_f)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    rep = report_of(capsys)
    assert (rep["utv"], rep["dtv"]) == ("0.0", "0.0")
    for f in (up_f, down_f):
        assert read_path(f).values.tolist() == [0.0, 0.0]


@pytest.mark.both_routes
def test_reports_name_the_codec(p1_file, tmp_path, capsys):
    # codec sits just before wall_ms and names the route pathio takes
    out = str(tmp_path / "out.csv")
    for argv in (["tv", p1_file, "-c", "0.6"], ["gen", "--kind", "ramp", "--length", "5",
                 "--out", out], ["bench", "--length", "100"]):
        assert main(argv) == 0
        keys = [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]
        if argv[0] == "bench":
            assert keys.index("codec") == keys.index("backend") + 1
        else:
            assert keys.index("codec") == keys.index("wall_ms") - 1
    assert main(["tv", p1_file, "-c", "0.6"]) == 0
    assert report_of(capsys)["codec"] == pathio.codec()


DIGEST_KEYS = ["n", "t_start", "t_end", "osc_norm", "total_variation"]
READ_WRITE = ["codec", "wall_ms", "read_ms", "write_ms", "peak_rss_kb"]


@pytest.mark.both_routes
def test_every_report_has_its_exact_key_sequence(p1_file, tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    head = ["command", "input", *DIGEST_KEYS]
    tv_keys = [*head, "c", "utv", "dtv", "tv"]
    approx_keys = [*head, "c", "zero_start", "achieved_tv", "sup_error", "out", *READ_WRITE]
    oracle = ["oracle_utv", "oracle_dtv", "oracle_tv", "oracle_discrepancy"]
    gen_keys = ["command", *DIGEST_KEYS, "kind", "length", "seed", "scale"]
    runs = [
        (["tv", p1_file, "-c", "0.6"], [*tv_keys, "codec", "wall_ms", "read_ms", "peak_rss_kb"]),
        (
            ["tv", p1_file, "-c", "0.6", "--oracle"],
            [*tv_keys, *oracle, "codec", "wall_ms", "read_ms", "peak_rss_kb"],
        ),
        (["tv", p1_file, "-c", "0.6", "--prefix", out], [*tv_keys, "prefix_file", *READ_WRITE]),
        (["approx", p1_file, "-c", "0.6", "--out", out], approx_keys),
        (["approx", p1_file, "-c", "0.6", "--out", out, "--zero-start"], approx_keys),
        (
            ["decompose", p1_file, "-c", "0.6", "--out-up", out, "--out-down", out + "2"],
            [*head, "c", "utv", "dtv", "out_up", "out_down", *READ_WRITE],
        ),
        (
            ["sweep", p1_file, "--levels", "0.5:1.5:0.5", "--out", out],
            [*head, "levels", "n_levels", "out", *READ_WRITE],
        ),
        (
            ["skeleton", p1_file, "-c", "0.6", "--out", out],
            [*head, "c", "n_breakpoints", "out", *READ_WRITE],
        ),
        (
            ["gen", "--kind", "ramp", "--length", "5", "--out", out],
            [*gen_keys, "out", "codec", "wall_ms", "write_ms", "peak_rss_kb"],
        ),
        (
            ["gen", "--kind", "jump-mixture", "--length", "5", "--jump-scale", "3",
             "--jump-prob", "0.2", "--out", out],
            [*gen_keys, "jump_prob", "jump_scale", "out", "codec", "wall_ms", "write_ms",
             "peak_rss_kb"],
        ),
        (
            ["gen", "--kind", "near-threshold-oscillator", "--length", "5", "--target-level",
             "2", "--amplitude-ratio", "0.5", "--out", out],
            [*gen_keys, "amplitude_ratio", "target_level", "out", "codec", "wall_ms",
             "write_ms", "peak_rss_kb"],
        ),
        (
            ["bench", "--length", "100"],
            ["command", *DIGEST_KEYS, "c", "utv", "dtv", "tv", "backend", "codec", "elapsed_ms",
             "samples_per_second", "wall_ms"],
        ),
    ]
    for argv, keys in runs:
        assert main(argv) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("=", 1)[0] for line in lines] == keys, argv
