"""Per-sample scan arrays against the sample-by-sample reference loop.

``full_scan``, the totals-only ``tv_scan`` and ``detect_regimes`` (which
calls ``_machine`` with starts and a skeleton) run the native trigger
machine, and ``running_extremes`` the native ``running_pairs``, when the
library loads (see ``_native``), and their plain-Python routes otherwise.
The fields of ``full_scan``, the regimes and running extremes of
``regime_detector``, and the window starts and skeleton ``_machine`` writes
must match ``full_scan_loop`` bit for bit (floats compared as int64 bit
patterns), the sign of a zero included; those tests are marked
``both_routes``, so they run on each route, as do the oracle-free scaling,
overflow and time-reversal tests (the last checks the totals-only scan
without an oracle). The unmarked ``test_routes_agree_*`` tests compare the
two routes with each other, and
``test_every_sample_oscillator_fills_the_buffers``,
``test_bandless_scan_fills_up_and_down_alone`` and
``test_skeleton_may_overwrite_its_input`` check the buffer contract the two
machines share: bounds, null outputs, per-sample arrays (the band left out
on its own included) and a skeleton written over its own input, on the
ctypes ``window_scan`` (through ``_machine``) and on ``_window_scan``. Skeletons come from
``_oracles.skeleton_scan``, so the tests read the native one where the
library loads.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import (
    PathError,
    detect_regimes,
    make_path,
    pathio,
    running_extremes,
    step_skeleton,
)
from truncvar._scan import DOWN, ScanResult, _machine, _window_scan, full_scan, tv_scan
from truncvar.regime_detector import _FIRST_DIRECTIONS, _KINDS

from _oracles import full_scan_loop, mixed_corpus, skeleton_scan
from conftest import needs_lib, python_route


def bits(a):
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == np.float64 else a


def assert_same_bits(got, ref, name=""):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape, name
    assert np.array_equal(bits(got), bits(ref)), name


def assert_scan_exact(vals, c):
    x = np.array(vals, dtype=np.float64)
    ref = full_scan_loop(x, c)
    got = full_scan(x, c)
    for name, ref_field in zip(ScanResult._fields, ref):
        assert_same_bits(getattr(got, name), ref_field, name)
    kind, extreme, up_times, down_times, lows, highs, direction = ref[3:]

    path = make_path(np.arange(x.size, dtype=float), x)
    dec = detect_regimes(path, c)
    assert dec.first_direction == _FIRST_DIRECTIONS[direction]
    for name, ref_field in zip(
        ("up_times", "down_times", "lows", "highs"), (up_times, down_times, lows, highs)
    ):
        assert_same_bits(getattr(dec, name), ref_field, name)

    pairs = running_extremes(path, dec)
    assert [k for k, _ in pairs] == [_KINDS[int(k)] for k in kind]
    assert all(type(e) is float for _, e in pairs)
    assert_same_bits(np.array([e for _, e in pairs]), extreme, "running_extremes")

    # the skeleton: regime lows and highs, interleaved
    assert_same_bits(skeleton_scan(x, c)[3], window_layout(ref)[1], "skeleton")


def window_layout(ref):
    """The window starts ``[0, t0, t1, ...]`` and the skeleton of a
    ``full_scan_loop`` result: its triggers and extremes, interleaved."""
    up_times, down_times, lows, highs, direction = ref[5:]
    times = (down_times, up_times) if direction == DOWN else (up_times, down_times)
    extremes = (highs, lows) if direction == DOWN else (lows, highs)
    starts = np.zeros(1 + up_times.size + down_times.size, np.int64)
    starts[1::2], starts[2::2] = times
    skeleton = np.empty(lows.size + highs.size)
    skeleton[0::2], skeleton[1::2] = extremes
    return starts, skeleton


@pytest.mark.both_routes
def test_bit_identical_on_corpus():
    for path, c in mixed_corpus(60, seed=4242, max_len=200):
        assert_scan_exact(path.values, c)
        # levels at increments, where triggers fire on equality
        for step in np.abs(np.diff(path.values))[:3]:
            if step > 0:
                assert_scan_exact(path.values, float(step))


def paths_of(floats):
    """+-0.0 mixtures, small integers (ties and plateaus), and lists of ``floats``."""
    return st.one_of(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), min_size=1, max_size=40),
        st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),
        st.lists(floats, min_size=1, max_size=60),
    )


values_st = paths_of(st.floats(min_value=-20, max_value=20, allow_nan=False))


def levels_for(x):
    """A general level, or an increment of ``x`` or one ulp to either side of it."""
    steps = sorted({float(s) for s in np.abs(np.diff(x))} - {0.0})
    levels = st.floats(min_value=0.01, max_value=50.0)
    if steps:
        step = st.sampled_from(steps)
        levels = levels | step | step.map(lambda s: float(np.nextafter(s, 0.0)))
        levels = levels | step.map(lambda s: float(np.nextafter(s, np.inf)))
    return levels


@pytest.mark.both_routes
@given(values_st, st.data())
@settings(deadline=None, max_examples=300)
def test_bit_identical_property(vals, data):
    assert_scan_exact(vals, data.draw(levels_for(np.array(vals))))


@pytest.mark.both_routes
@pytest.mark.parametrize(
    "vals, c",
    [
        ([2.5], 0.7),  # n = 1
        ([-0.0], 1.0),  # n = 1, negative zero
        ([1.0, 1.0, 1.0], 0.5),  # constant: nothing triggers
        ([0.0, -0.0, -0.0, 0.0], 1.0),  # no trigger: the first zero is kept
        ([0.0, -0.0, 0.3, -0.0, 0.0], 1.0),  # no trigger, zero ties
        ([-0.0, 0.0, 2.0, 0.0, -0.0, 2.0, -0.0], 2.0),  # triggers on zero ties
        ([5.0, 0.0, -0.0, 0.0, -0.0], 1.0),  # down-first, zero ties in the valley
        ([0.0, 0.0, 1.0, 1.0, 0.0, 0.0], 1.0),  # plateaus, level = step
        ([0.0, 2.0, 1.5, 3.0], 1.0),  # first trigger at sample 1, up
        ([0.0, -1.0, 3.0, 2.5], 1.0),  # first trigger at sample 1, down
        ([0.0, 0.5, 0.2, 1.0], 1.0),  # first trigger at the last sample
        ([-0.0, 0.0, -0.0, -1.0], 1.0),  # down-first, undecided maximum a zero tie
        ([0.0, 1.0] * 500, 1.0),  # every sample after the first triggers
        ([-0.0, 1.0, 0.0, 1.0] * 250, 1.0),  # the same, with zero ties
    ],
)
def test_bit_identical_edge_cases(vals, c):
    assert_scan_exact(vals, c)


@pytest.mark.both_routes
def test_non_contiguous_values():
    x = np.array([0.0, 9.0, 1.5, 9.0, -0.0, 9.0, 2.0, 9.0, 0.5, 9.0, 3.0] * 20)
    view = x[::2]  # every other sample: a strided view
    ref = full_scan_loop(view.copy(), 1.0)
    for name, ref_field in zip(ScanResult._fields, ref):
        assert_same_bits(getattr(full_scan(view, 1.0), name), ref_field, name)
    n = view.size
    starts, skeleton = np.empty(n, np.int64), np.empty(n)
    *totals, k = _machine(view, 1.0, starts, skeleton)
    assert totals[2] == ref[-1]
    want_starts, want_skeleton = window_layout(ref)
    assert_same_bits(starts[:k], want_starts, "starts")
    assert_same_bits(skeleton[:k], want_skeleton, "skeleton")


def regimes_of(x, c):
    return detect_regimes(make_path(np.arange(x.size, dtype=float), x), c)


@pytest.mark.both_routes
@pytest.mark.parametrize(
    "scan", [full_scan, regimes_of, tv_scan], ids=["full_scan", "detect_regimes", "tv_scan"]
)
def test_tv_overflow(scan):
    x = np.array([0.0, 9e307, 0.0])  # up and down fit float64, up + down does not
    with pytest.raises(PathError) as err:
        scan(x, 1.0)
    assert err.value.code == "tv-overflow"


# values that scale by 2**-3 without rounding: zero, or far from the subnormals
scalable_st = paths_of(
    st.floats(min_value=-20, max_value=20, allow_nan=False).filter(
        lambda v: v == 0.0 or abs(v) >= 2.0**-960
    )
)


@pytest.mark.both_routes
@given(scalable_st, st.data())
@settings(deadline=None, max_examples=200)
def test_scaling_by_powers_of_two(vals, data):
    """Scaling the values and the level by a power of two scales every
    rounded sum and difference exactly, and keeps every comparison."""
    x = np.array(vals)
    c = data.draw(levels_for(x))
    scan = full_scan(x, c)
    up, down, direction, skeleton = skeleton_scan(x, c)
    regimes = detect_regimes(make_path(np.arange(x.size, dtype=float), x), c)
    for s in (2.0**-3, 2.0**5):
        scaled = full_scan(x * s, c * s)
        assert_same_bits(scaled.up, scan.up * s, "up")
        assert_same_bits(scaled.down, scan.down * s, "down")
        got = skeleton_scan(x * s, c * s)
        assert_same_bits(got[:2], np.array([up, down]) * s, "skeleton scan totals")
        assert got[2] == direction
        assert_same_bits(got[3], skeleton * s, "skeleton")
        got = tv_scan(x * s, c * s)  # totals only: the native machine where it loads
        assert_same_bits(got[:2], np.array([up, down]) * s, "totals-only tv_scan")
        assert got[2:] == (direction,)
        got = detect_regimes(make_path(np.arange(x.size, dtype=float), x * s), c * s)
        assert got.first_direction == regimes.first_direction
        assert_same_bits(got.up_times, regimes.up_times, "up_times")
        assert_same_bits(got.down_times, regimes.down_times, "down_times")
        assert_same_bits(got.lows, regimes.lows * s, "lows")
        assert_same_bits(got.highs, regimes.highs * s, "highs")


@pytest.mark.both_routes
@given(values_st, st.data())
@settings(deadline=None, max_examples=300)
def test_time_reversal_swaps_up_and_down(vals, data):
    """Reversing the samples turns every rise into a fall, so ``tv_scan`` of
    the reversed path gives (down, up) of the path up to rounding. The
    reversed path is a view with a negative stride, which the totals-only
    scan takes as it is on the Python route and copies on the native. Each
    total is a left-to-right sum of k - 1 terms ``(hi - lo) - c``, one per
    gap of the k-value skeleton, added in the opposite order on the other
    side; the recursive-summation bound puts each side within k * eps/2
    times the summed gaps of the exact value."""
    x = np.array(vals)
    c = data.draw(levels_for(x))
    up, down, _, skeleton = skeleton_scan(x, c)
    up_rev, down_rev, _ = tv_scan(x[::-1], c)
    tol = skeleton.size * np.finfo(float).eps * np.abs(np.diff(skeleton)).sum()
    assert abs(up_rev - down) <= tol
    assert abs(down_rev - up) <= tol


def assert_routes_agree(vals, c):
    """``full_scan``, ``detect_regimes``, ``step_skeleton``, ``running_extremes``,
    the totals-only ``tv_scan`` and the skeleton-only machine call: the native
    loops give the Python routes' bits, the same direction, the same kinds,
    floats and signs of zero pair by pair, and the same tuples shared between
    neighbouring pairs."""
    x = np.array(vals, dtype=np.float64)
    path = make_path(np.arange(x.size, dtype=float), x)
    dec = detect_regimes(path, c)

    def scans():
        pairs = running_extremes(path, dec)
        totals = tv_scan(x, c)
        return full_scan(x, c), detect_regimes(path, c), step_skeleton(path, c), pairs, totals

    assert pathio.codec() == "native"  # unmarked: nothing patched the library away
    native = scans()
    with python_route():
        ref = scans()
    for name, got, want in zip(ScanResult._fields, native[0], ref[0]):
        assert_same_bits(got, want, name)
    assert native[1].first_direction == ref[1].first_direction
    for name in ("up_times", "down_times", "lows", "highs"):
        assert_same_bits(getattr(native[1], name), getattr(ref[1], name), name)
    for name in ("times", "values"):
        assert_same_bits(getattr(native[2], name), getattr(ref[2], name), name)
    assert len(native[3]) == len(ref[3]) == x.size
    for (kind, e), (want_kind, want) in zip(native[3], ref[3]):
        assert kind == want_kind and type(e) is float
        assert e == want and math.copysign(1, e) == math.copysign(1, want)
    shared = [[a is b for a, b in zip(pairs, pairs[1:])] for pairs in (native[3], ref[3])]
    assert shared[0] == shared[1]
    assert_same_bits(native[4][:2], ref[4][:2], "tv_scan totals")
    assert native[4][2:] == ref[4][2:] and len(native[4]) == 3
    assert all(type(t) is float for t in native[4][:2]) and type(native[4][2]) is int
    # the skeleton alone, with null window starts and per-sample arrays
    buf, ref_buf = np.empty(x.size + 1), np.empty(x.size + 1)
    got, want = _machine(x, c, skeleton=buf), _window_scan(x, c, skeleton=ref_buf)
    assert_same_bits(got[:2], want[:2], "skeleton-only totals")
    assert got[2:] == want[2:]
    assert_same_bits(buf[: got[3]], ref_buf[: want[3]], "skeleton")


@needs_lib
def test_routes_agree_on_corpus():
    for seed in (6161, 6262):
        for path, c in mixed_corpus(60, seed=seed, max_len=200):
            assert_routes_agree(path.values, c)
            for step in np.abs(np.diff(path.values))[:3]:
                if step > 0:  # triggers and skeleton breaks on equality
                    assert_routes_agree(path.values, float(step))
                    assert_routes_agree(path.values, 2.0 * float(step))


@needs_lib
@given(values_st, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@settings(deadline=None, max_examples=300)
def test_routes_agree_on_ties_and_signed_zeros(vals, c):
    assert_routes_agree(vals, c)


@pytest.mark.parametrize(
    "machine",
    [
        # _machine runs the ctypes window_scan where the library loads
        pytest.param(_machine, marks=needs_lib, id="native"),
        pytest.param(_window_scan, id="python"),
    ],
)
def test_every_sample_oscillator_fills_the_buffers(machine):
    # at c = 1 every sample after the first triggers: k = n windows, and the
    # skeleton is the path itself; the entry past them stays unwritten, and
    # the per-sample arrays fill their n entries and no more
    x = np.array([0.0, 1.0] * 500)
    n = x.size
    starts = np.full(n + 1, -7, np.int64)
    skeleton = np.full(n + 1, -7.0)
    arrays = [np.full(n + 1, -7.0) for _ in ScanResult._fields]
    *totals, k = machine(x, 1.0, starts, skeleton, arrays)
    assert k == n
    assert_same_bits(starts[:n], np.arange(n, dtype=np.int64))
    assert_same_bits(skeleton[:n], x)
    assert starts[n] == -7 and skeleton[n] == -7.0
    assert totals == [0.0, 0.0, 1.0]
    for name, got, want in zip(ScanResult._fields, arrays, full_scan_loop(x, 1.0)):
        assert_same_bits(got[:n], want, name)
        assert got[n] == -7.0, name
    # a null starts, then null starts and skeleton: the same count, totals and bits
    for with_skeleton in (True, False):
        again = np.full(n + 1, -7.0)
        others = [np.full(n + 1, -7.0) for _ in ScanResult._fields]
        *totals_again, k = machine(x, 1.0, None, again if with_skeleton else None, others)
        assert k == n
        assert_same_bits(totals_again, totals)
        assert_same_bits(again, skeleton if with_skeleton else np.full(n + 1, -7.0))
        for name, got, want in zip(ScanResult._fields, others, arrays):
            assert_same_bits(got, want, name)


@pytest.mark.parametrize(
    "machine",
    [
        pytest.param(_machine, marks=needs_lib, id="native"),
        pytest.param(_window_scan, id="python"),
    ],
)
def test_bandless_scan_fills_up_and_down_alone(machine):
    # out=(None, up, down): the band is not written, and up and down, the
    # totals and the window count are those of the three-array call; the
    # oscillator triggers at every sample, the corpus paths at few or none
    cases = [(np.array([0.0, 1.0] * 500), 1.0)]
    cases += [(path.values, c) for path, c in mixed_corpus(40, seed=2424, max_len=200)]
    for x, c in cases:
        n = x.size
        arrays = [np.full(n + 1, -7.0) for _ in ScanResult._fields]
        *totals, k = machine(x, c, None, None, arrays)
        up, down = np.full(n + 1, -7.0), np.full(n + 1, -7.0)
        *totals_bandless, k_bandless = machine(x, c, None, None, (None, up, down))
        assert k_bandless == k
        assert_same_bits(totals_bandless, totals)
        ref = full_scan_loop(x, c)
        for name, got, want in (("up", up, ref[1]), ("down", down, ref[2])):
            assert_same_bits(got[:n], want, name)
            assert got[n] == -7.0, name


@pytest.mark.parametrize(
    "machine",
    [
        pytest.param(_machine, marks=needs_lib, id="native"),
        pytest.param(_window_scan, id="python"),
    ],
)
def test_skeleton_may_overwrite_its_input(machine):
    # sweep's ladder: each rung's scan writes its skeleton over its own input,
    # which is safe only while every write lands behind the samples still to
    # be read; the scan in place must give the bits of a separate buffer
    corpus = [(path.values, c) for path, c in mixed_corpus(60, seed=2323, max_len=200)]
    corpus.append((np.array([0.0, 1.0] * 50), 0.5))  # every sample after the first triggers
    for x, c in corpus:
        for rungs in ([c], [2.0 * c], [c, 2.0 * c]):
            work = x.copy()
            m = work.size
            for level in rungs:
                ref = np.empty(m)
                want = machine(work[:m].copy(), level, None, ref)
                got = machine(work[:m], level, None, work)
                assert_same_bits(got[:2], want[:2], "totals")
                assert got[2:] == want[2:]
                m = got[3]
                assert_same_bits(work[:m], ref[:m], "skeleton")
