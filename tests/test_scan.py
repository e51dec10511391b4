"""Per-sample scan arrays against the sample-by-sample reference loop.

``full_scan``, ``regime_scan`` and the totals-only ``tv_scan`` run the
native trigger machine, and ``running_extremes`` the native
``running_pairs``, when the library loads (see ``_native``), and their
plain-Python routes otherwise. The fields of
``full_scan``, and the regimes and running extremes of ``regime_detector``,
must match ``full_scan_loop`` bit for bit (floats compared as int64 bit
patterns), the sign of a zero included; those tests are marked
``both_routes``, so they run on each route, as do the oracle-free scaling,
overflow and time-reversal tests (the last checks the totals-only scan
without an oracle). The unmarked ``test_routes_agree_*`` tests compare the
two routes with each other, and
``test_every_sample_oscillator_fills_the_buffers`` checks the buffer
contract the two machines share: bounds, null outputs and per-sample
arrays, on the ctypes ``window_scan`` (through ``_machine``) and on
``_window_scan``.
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
from truncvar._scan import (
    DIRECTION_LABELS,
    DOWN,
    KIND_LABELS,
    Regimes,
    ScanResult,
    _machine,
    _window_scan,
    full_scan,
    regime_scan,
    tv_scan,
)

from _oracles import full_scan_loop, mixed_corpus
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
    assert dec.first_direction == DIRECTION_LABELS[direction]
    for name, ref_field in zip(
        ("up_times", "down_times", "lows", "highs"), (up_times, down_times, lows, highs)
    ):
        assert_same_bits(getattr(dec, name), ref_field, name)

    pairs = running_extremes(path, dec)
    assert [k for k, _ in pairs] == [KIND_LABELS[int(k)] for k in kind]
    assert all(type(e) is float for _, e in pairs)
    assert_same_bits(np.array([e for _, e in pairs]), extreme, "running_extremes")

    # the skeleton: regime lows and highs, interleaved
    skeleton = tv_scan(x, c, True)[3]
    first, second = (highs, lows) if direction == DOWN else (lows, highs)
    inter = np.empty(first.size + second.size)
    inter[0::2], inter[1::2] = first, second
    assert_same_bits(skeleton, inter, "skeleton")


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
    for name, ref_field in zip(Regimes._fields, ref[5:]):
        assert_same_bits(getattr(regime_scan(view, 1.0), name), ref_field, name)


@pytest.mark.both_routes
@pytest.mark.parametrize("scan", [full_scan, regime_scan, tv_scan])
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
    up, down, direction, skeleton = tv_scan(x, c, True)
    regimes = detect_regimes(make_path(np.arange(x.size, dtype=float), x), c)
    for s in (2.0**-3, 2.0**5):
        scaled = full_scan(x * s, c * s)
        assert_same_bits(scaled.up, scan.up * s, "up")
        assert_same_bits(scaled.down, scan.down * s, "down")
        got = tv_scan(x * s, c * s, True)
        assert_same_bits(got[:2], np.array([up, down]) * s, "tv_scan totals")
        assert got[2] == direction
        assert_same_bits(got[3], skeleton * s, "skeleton")
        got = tv_scan(x * s, c * s)  # totals only: the native machine where it loads
        assert_same_bits(got[:2], np.array([up, down]) * s, "totals-only tv_scan")
        assert got[2] == direction and got[3] is None
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
    up, down, _, skeleton = tv_scan(x, c, True)
    up_rev, down_rev, _, _ = tv_scan(x[::-1], c)
    tol = skeleton.size * np.finfo(float).eps * np.abs(np.diff(skeleton)).sum()
    assert abs(up_rev - down) <= tol
    assert abs(down_rev - up) <= tol


def assert_routes_agree(vals, c):
    """``full_scan``, ``regime_scan``, ``step_skeleton``, ``running_extremes``
    and the totals-only ``tv_scan``: the native loops give the Python routes'
    bits, the same direction, and the same kinds, floats and signs of zero
    pair by pair."""
    x = np.array(vals, dtype=np.float64)
    path = make_path(np.arange(x.size, dtype=float), x)
    dec = detect_regimes(path, c)

    def scans():
        pairs = running_extremes(path, dec)
        totals = tv_scan(x, c)
        return full_scan(x, c), regime_scan(x, c), step_skeleton(path, c), pairs, totals

    assert pathio.codec() == "native"  # unmarked: nothing patched the library away
    native = scans()
    with python_route():
        ref = scans()
    for name, got, want in zip(ScanResult._fields, native[0], ref[0]):
        assert_same_bits(got, want, name)
    for name, got, want in zip(Regimes._fields, native[1], ref[1]):
        assert_same_bits(got, want, name)
    for name in ("times", "values"):
        assert_same_bits(getattr(native[2], name), getattr(ref[2], name), name)
    assert len(native[3]) == len(ref[3]) == x.size
    for (kind, e), (want_kind, want) in zip(native[3], ref[3]):
        assert kind == want_kind and type(e) is float
        assert e == want and math.copysign(1, e) == math.copysign(1, want)
    assert_same_bits(native[4][:2], ref[4][:2], "tv_scan totals")
    assert native[4][2] == ref[4][2] and native[4][3] is ref[4][3] is None
    assert all(type(t) is float for t in native[4][:2]) and type(native[4][2]) is int


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
    for keep_skeleton in (True, False):
        again = np.full(n + 1, -7.0)
        others = [np.full(n + 1, -7.0) for _ in ScanResult._fields]
        *totals_again, k = machine(x, 1.0, None, again if keep_skeleton else None, others)
        assert k == n
        assert_same_bits(totals_again, totals)
        assert_same_bits(again, skeleton if keep_skeleton else np.full(n + 1, -7.0))
        for name, got, want in zip(ScanResult._fields, others, arrays):
            assert_same_bits(got, want, name)
