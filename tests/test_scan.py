"""Per-sample scan arrays against the sample-by-sample reference loop.

``full_scan`` derives its arrays from the trigger indices of the totals
kernel, in the native library's loop when it loads and with numpy
otherwise (``test_python_codec.py`` runs these tests again on that route).
Its fields, and the regimes and running extremes of ``regime_detector``,
must match ``full_scan_loop`` bit for bit (floats compared as int64 bit
patterns), the sign of a zero included, and the two routes must match
each other.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import _native, detect_regimes, make_path, running_extremes, step_skeleton
from truncvar._scan import DIRECTION_LABELS, DOWN, KIND_LABELS, ScanResult, full_scan, tv_scan

from _oracles import full_scan_loop, mixed_corpus

needs_lib = pytest.mark.skipif(
    _native.codec() is None, reason="the native library cannot be built here"
)


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


def test_bit_identical_on_corpus():
    for path, c in mixed_corpus(60, seed=4242, max_len=200):
        assert_scan_exact(path.values, c)
        # levels at increments, where triggers fire on equality
        for step in np.abs(np.diff(path.values))[:3]:
            if step > 0:
                assert_scan_exact(path.values, float(step))


# +-0.0 mixtures, small integers (ties and plateaus), and general floats
values_st = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), min_size=1, max_size=40),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),
    st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=60),
)


@given(values_st, st.data())
@settings(deadline=None, max_examples=300)
def test_bit_identical_property(vals, data):
    x = np.array(vals)
    steps = sorted({float(s) for s in np.abs(np.diff(x))} - {0.0})
    levels = st.floats(min_value=0.01, max_value=50.0)
    if steps:  # an increment, or one ulp to either side of it
        step = st.sampled_from(steps)
        levels = levels | step | step.map(lambda s: float(np.nextafter(s, 0.0)))
        levels = levels | step.map(lambda s: float(np.nextafter(s, np.inf)))
    assert_scan_exact(vals, data.draw(levels))


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
        ([0.0, 1.0] * 500, 1.0),  # every sample after the first triggers
        ([-0.0, 1.0, 0.0, 1.0] * 250, 1.0),  # the same, with zero ties
    ],
)
def test_bit_identical_edge_cases(vals, c):
    assert_scan_exact(vals, c)


def test_non_contiguous_values():
    x = np.array([0.0, 9.0, 1.5, 9.0, -0.0, 9.0, 2.0, 9.0, 0.5, 9.0, 3.0] * 20)
    view = x[::2]  # every other sample: a strided view
    ref = full_scan_loop(view.copy(), 1.0)
    for name, ref_field in zip(ScanResult._fields, ref):
        assert_same_bits(getattr(full_scan(view, 1.0), name), ref_field, name)


def assert_routes_agree(vals, c):
    """``full_scan`` and ``step_skeleton``: the native loops give the numpy
    and Python routes' bits."""
    x = np.array(vals, dtype=np.float64)
    path = make_path(np.arange(x.size, dtype=float), x)
    native = full_scan(x, c), step_skeleton(path, c)
    with mock.patch.object(_native, "codec", lambda: None):
        ref = full_scan(x, c), step_skeleton(path, c)
    for name, got, want in zip(ScanResult._fields, native[0], ref[0]):
        assert_same_bits(got, want, name)
    for name in ("times", "values"):
        assert_same_bits(getattr(native[1], name), getattr(ref[1], name), name)


@needs_lib
def test_routes_agree_on_corpus():
    for path, c in mixed_corpus(60, seed=6161, max_len=200):
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

