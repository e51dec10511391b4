"""Per-sample scan arrays against the sample-by-sample reference loop.

``full_scan`` derives its arrays from the trigger indices of the totals
kernel with numpy. Its fields, and the regimes and running extremes of
``regime_detector``, must match ``full_scan_loop`` bit for bit (floats
compared as int64 bit patterns), the sign of a zero included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import detect_regimes, make_path, running_extremes
from truncvar._scan import DIRECTION_LABELS, DOWN, KIND_LABELS, ScanResult, full_scan, tv_scan

from _oracles import full_scan_loop, mixed_corpus


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
    ],
)
def test_bit_identical_edge_cases(vals, c):
    assert_scan_exact(vals, c)

