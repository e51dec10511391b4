import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import (
    PathError,
    detect_regimes,
    first_down_time,
    first_up_time,
    make_path,
    negate,
    running_extremes,
)

from _oracles import level_st, mixed_corpus, path_from

pytestmark = pytest.mark.both_routes  # detect_regimes runs regime_scan

values_st = st.lists(
    st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=50
)


class TestFirstTimes:
    def test_first_up_examples(self, p1, p3):
        assert first_up_time(p1, 0.6) == 1
        assert first_up_time(p1, 2.0) is None
        assert first_up_time(p3, 0.1) is None

    def test_first_down_examples(self, p1, p3):
        assert first_down_time(p1, 0.6) == 2
        assert first_down_time(p1, 1.1) is None
        assert first_down_time(p3, 0.1) is None


class TestDetectRegimes:
    def test_golden_up_first(self, p1):
        d = detect_regimes(p1, 0.6)
        assert d.first_direction == "up-first"
        assert d.up_times.tolist() == [1, 3]
        assert d.down_times.tolist() == [2, 4]
        assert d.lows.tolist() == [0.0, 0.2, 0.2]
        assert d.highs.tolist() == [1.0, 1.2]

    def test_no_move_large_level(self, p1):
        d = detect_regimes(p1, 2.0)
        assert d.first_direction == "none"
        assert d.up_times.size == 0 and d.down_times.size == 0
        assert d.lows.tolist() == [0.0]
        assert d.highs.size == 0

    def test_down_first(self):
        p = make_path([0, 1, 2], [0.0, -1.0, 0.2])
        d = detect_regimes(p, 0.8)
        assert d.first_direction == "down-first"
        assert d.down_times.tolist() == [1]
        assert d.up_times.tolist() == [2]
        # mirror of the scan of the negated path
        m = detect_regimes(negate(p), 0.8)
        assert m.first_direction == "up-first"
        assert m.up_times.tolist() == d.down_times.tolist()
        assert m.down_times.tolist() == d.up_times.tolist()
        assert np.array_equal(d.lows, -m.highs)
        assert np.array_equal(d.highs, -m.lows)


class TestRunningExtremes:
    def test_golden(self, p1):
        d = detect_regimes(p1, 0.6)
        assert running_extremes(p1, d) == [
            ("seek", 0.0),
            ("up", 1.0),
            ("down", 0.2),
            ("up", 1.2),
            ("down", 0.2),
        ]

    def test_constant(self, p3):
        d = detect_regimes(p3, 0.1)
        assert running_extremes(p3, d) == [("seek", 5.0), ("seek", 5.0)]

    def test_monotone_stays_in_up_regime(self, ramp3):
        d = detect_regimes(ramp3, 0.5)
        assert running_extremes(ramp3, d) == [
            ("seek", 0.0),
            ("up", 1.0),
            ("up", 2.0),
        ]

    def test_stale_decomposition(self, p1, p3):
        d = detect_regimes(p1, 0.6)
        with pytest.raises(PathError) as err:
            running_extremes(p3, d)
        assert err.value.code == "stale-decomposition"


class TestExactThreshold:
    # trigger comparisons are exact floating-point >=, so a move of exactly
    # c counts and one ulp below does not
    def test_move_of_exactly_c_triggers(self):
        p = make_path([0, 1], [0.0, 0.5])
        assert first_up_time(p, 0.5) == 1
        assert detect_regimes(p, 0.5).first_direction == "up-first"

    def test_one_ulp_below_does_not_trigger(self):
        p = make_path([0, 1], [0.0, float(np.nextafter(0.5, 0.0))])
        assert first_up_time(p, 0.5) is None
        assert detect_regimes(p, 0.5).first_direction == "none"


class TestSingleSampleRegimes:
    def test_degenerate_path(self):
        p = make_path([3.0], [1.5])
        d = detect_regimes(p, 0.7)
        assert d.first_direction == "none"
        assert d.lows.tolist() == [1.5]
        assert d.highs.size == 0
        assert running_extremes(p, d) == [("seek", 1.5)]
        assert first_up_time(p, 0.7) is None
        assert first_down_time(p, 0.7) is None


def _window_bounds(d, n):
    """(start, end, label) triples covering all samples, in scan order."""
    triggers = sorted(
        [(int(i), "up") for i in d.up_times] + [(int(i), "down") for i in d.down_times]
    )
    bounds = []
    prev = 0
    label = "seek"
    for idx, kind in triggers:
        bounds.append((prev, idx, label))
        prev, label = idx, kind
    bounds.append((prev, n, label))
    return [(lo, hi, lab) for lo, hi, lab in bounds if hi > lo]


def check_decomposition(p, c):
    d = detect_regimes(p, c)
    v = p.values
    triggers = sorted(
        [(int(i), "up") for i in d.up_times] + [(int(i), "down") for i in d.down_times]
    )
    # strict interleaving of alternating kinds
    for (i, ki), (j, kj) in zip(triggers, triggers[1:]):
        assert i < j
        assert ki != kj
    if triggers:
        first = triggers[0][1]
        assert d.first_direction == ("up-first" if first == "up" else "down-first")
    else:
        assert d.first_direction == "none"
    # trigger minimality inside each window
    for lo, hi, label in _window_bounds(d, p.n):
        if hi == p.n:
            continue  # trailing window has no trigger
        trig = hi
        window = v[lo : trig + 1]
        kind = dict(triggers)[trig]
        if kind == "up":
            assert v[trig] - window.min() >= c
            for j in range(lo, trig):
                assert v[j] - v[lo : j + 1].min() < c
        else:
            assert window.max() - v[trig] >= c
            for j in range(lo, trig):
                assert v[lo : j + 1].max() - v[j] < c
    # window extremes match their windows and adjacent gaps reach c
    lows = list(d.lows)
    highs = list(d.highs)
    li = hi_ = 0
    seq = []
    for lo, hi, label in _window_bounds(d, p.n):
        if label == "up" or (label == "seek" and d.first_direction == "down-first"):
            assert highs[hi_] == v[lo:hi].max()
            seq.append(("high", highs[hi_]))
            hi_ += 1
        else:
            assert lows[li] == v[lo:hi].min()
            seq.append(("low", lows[li]))
            li += 1
    assert li == len(lows) and hi_ == len(highs)
    for (ka, va), (kb, vb) in zip(seq, seq[1:]):
        assert ka != kb
        assert abs(va - vb) >= c
    return d


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_decomposition_properties(vals, c):
    check_decomposition(path_from(vals), c)


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_tie_impossibility(vals, c):
    p = path_from(vals)
    t_up = first_up_time(p, c)
    t_down = first_down_time(p, c)
    if t_up is not None and t_down is not None:
        assert t_up != t_down


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_negation_duality(vals, c):
    p = path_from(vals)
    d = detect_regimes(p, c)
    m = detect_regimes(negate(p), c)
    if d.first_direction == "none":
        assert m.first_direction == "none"
        assert m.up_times.size == 0 and m.down_times.size == 0
        return
    assert np.array_equal(m.up_times, d.down_times)
    assert np.array_equal(m.down_times, d.up_times)
    assert np.array_equal(m.lows, -d.highs)
    assert np.array_equal(m.highs, -d.lows)


@given(values_st, level_st)
@settings(deadline=None, max_examples=60)
def test_direction_none_iff_no_first_times(vals, c):
    p = path_from(vals)
    d = detect_regimes(p, c)
    none_expected = first_up_time(p, c) is None and first_down_time(p, c) is None
    assert (d.first_direction == "none") == none_expected


def test_decomposition_properties_on_corpus():
    for path, c in mixed_corpus(60, seed=5150, max_len=80):
        d = check_decomposition(path, c)
        kinds = [k for k, _ in running_extremes(path, d)]
        assert len(kinds) == path.n
