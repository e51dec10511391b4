import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from truncvar import (
    PathError,
    RegimeDecomposition,
    detect_regimes,
    first_down_time,
    first_up_time,
    make_path,
    running_extremes,
    truncated_variation,
)

from truncvar.regime_detector import _FIRST_BLOCK, _KINDS

from _oracles import full_scan_loop, level_st, mixed_corpus, negate, path_from

pytestmark = pytest.mark.both_routes  # detect_regimes calls _machine with starts and a skeleton

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

    def test_passages_never_sum(self):
        # rise plus fall is past float64, but a passage reads only the
        # running extreme, so it is found where the scan raises tv-overflow
        p = make_path([0, 1, 2], [0.0, 9e307, 0.0])
        assert first_up_time(p, 1.0) == 1
        assert first_down_time(p, 1.0) == 2
        for scan in (detect_regimes, truncated_variation):
            with pytest.raises(PathError) as err:
                scan(p, 1.0)
            assert err.value.code == "tv-overflow"


def first_passage_loop(values, c, up):
    """The first index at least c from the running extreme, as a plain loop."""
    run = values[0]
    for j, v in enumerate(values):
        run = min(run, v) if up else max(run, v)
        if (v - run if up else run - v) >= c:
            return j
    return None


def assert_first_times(vals, c):
    p = path_from(vals)
    assert first_up_time(p, c) == first_passage_loop(list(vals), c, up=True)
    assert first_down_time(p, c) == first_passage_loop(list(vals), c, up=False)


# block k of the first-passage scan ends at _FIRST_BLOCK * (2**k - 1)
BLOCK_ENDS = [_FIRST_BLOCK * (2**k - 1) for k in (1, 2, 3)]


class TestFirstTimesInBlocks:
    @pytest.mark.parametrize("n", [1, 2, _FIRST_BLOCK, BLOCK_ENDS[1] + 1, BLOCK_ENDS[2] + 5])
    def test_no_hit(self, n):
        vals = np.sin(np.arange(n)) * 0.49
        assert_first_times(vals, 1.0)
        assert first_up_time(path_from(vals), 1.0) is None

    @pytest.mark.parametrize("n", [2, _FIRST_BLOCK, BLOCK_ENDS[1], BLOCK_ENDS[1] + 7])
    def test_hit_in_the_last_sample(self, n):
        for jump, found in ((1.0, first_up_time), (-1.0, first_down_time)):
            vals = np.zeros(n)
            vals[-1] = jump
            assert_first_times(vals, 1.0)
            assert found(path_from(vals), 1.0) == n - 1

    @pytest.mark.parametrize("hit", [e + d for e in BLOCK_ENDS for d in (-1, 0, 1)])
    def test_hit_on_a_block_boundary(self, hit):
        # the extreme the hit is measured from sits in the first block, so
        # the hit is found only if the scan carries it across the boundaries
        for sign, found in ((1.0, first_up_time), (-1.0, first_down_time)):
            vals = np.zeros(BLOCK_ENDS[-1] + 3)
            vals[3], vals[hit] = -0.6 * sign, 0.5 * sign
            assert_first_times(vals, 1.0)
            assert found(path_from(vals), 1.0) == hit

    def test_random_walks(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 300, 800, 2000):
            vals = np.cumsum(rng.standard_normal(n))
            for c in (0.5, 3.0, 10.0, 40.0):
                assert_first_times(vals, c)


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


def hand_built(path, direction, ups, downs):
    return RegimeDecomposition(
        direction, np.array(ups, np.int64), np.array(downs, np.int64),
        np.zeros(1), np.zeros(1), path.n, 1.0,
    )


class TestBadDecomposition:
    # running_extremes checks a decomposition before either route reads it
    @pytest.mark.parametrize(
        "direction, ups, downs",
        [
            ("up-first", [1, 3], []),  # counts that do not alternate
            ("down-first", [2], []),  # down-first, no down trigger
            ("none", [1], [2]),  # triggers without a direction
            ("up-first", [9], []),  # past the end of a 5-sample path
            ("up-first", [0], []),  # the undecided window starts at 0
            ("up-first", [3], [2]),  # up-first, yet the down trigger is first
            ("down-first", [2], [2]),  # two triggers at one sample
            ("sideways", [], []),  # no such direction
            (["up-first"], [], []),  # a direction that is not a string
        ],
    )
    def test_rejected(self, p1, direction, ups, downs):
        with pytest.raises(PathError) as err:
            running_extremes(p1, hand_built(p1, direction, ups, downs))
        assert err.value.code == "bad-decomposition"

    def test_float_times_rejected(self, p1):
        d = RegimeDecomposition("up-first", np.array([1.0]), np.array([], np.int64),
                                np.zeros(1), np.zeros(1), p1.n, 1.0)
        with pytest.raises(PathError) as err:
            running_extremes(p1, d)
        assert err.value.code == "bad-decomposition"

    def test_hand_built_like_a_scan_accepted(self, p1):
        # the scan's triggers, given as lists of Python ints
        d = detect_regimes(p1, 0.6)
        listed = RegimeDecomposition("up-first", [1, 3], [2, 4], d.lows, d.highs, p1.n, 0.6)
        assert running_extremes(p1, listed) == running_extremes(p1, d)


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


def assert_first_triggers_are_first_passages(p, c, d):
    # the first trigger is one of the two first passages; before it no two
    # samples lie c apart, so from it on each window's running extreme is the
    # one from sample 0, and the next trigger is the other first passage
    assert first_up_time(p, c) == (int(d.up_times[0]) if d.up_times.size else None)
    assert first_down_time(p, c) == (int(d.down_times[0]) if d.down_times.size else None)


@given(values_st, level_st)
@settings(deadline=None, max_examples=60)
def test_direction_none_iff_no_first_times(vals, c):
    p = path_from(vals)
    d = detect_regimes(p, c)
    none_expected = first_up_time(p, c) is None and first_down_time(p, c) is None
    assert (d.first_direction == "none") == none_expected
    assert_first_triggers_are_first_passages(p, c, d)


def test_decomposition_properties_on_corpus():
    for path, c in mixed_corpus(60, seed=5150, max_len=80):
        d = check_decomposition(path, c)
        assert_first_triggers_are_first_passages(path, c, d)
        kinds = [k for k, _ in running_extremes(path, d)]
        assert len(kinds) == path.n


signed_zero_st = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), min_size=1, max_size=40),
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),
)


@given(signed_zero_st, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@example([-0.0], 1.0)  # n = 1
@example([0.0, -0.0, 0.5, -0.0, 0.0, -0.5], 2.0)  # never triggers
@example([-0.0, 0.0, -1.0, 0.0, -0.0, 1.0, 0.0], 1.0)  # zero ties in every window
@settings(deadline=None, max_examples=300)
def test_running_extremes_keep_signed_zeros(vals, c):
    x = np.array(vals)
    p = path_from(x)
    kind, extreme = full_scan_loop(x, c)[3:5]
    pairs = running_extremes(p, detect_regimes(p, c))
    assert [k for k, _ in pairs] == [_KINDS[int(k)] for k in kind]
    assert all(type(e) is float for _, e in pairs)
    assert [e for _, e in pairs] == extreme.tolist()
    assert [math.copysign(1, e) for _, e in pairs] == np.copysign(1, extreme).tolist()


# runs of one value, long enough to cross the first-passage scan's blocks
runs_st = st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0]), st.integers(1, 400)),
    min_size=1,
    max_size=8,
)


@given(runs_st, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
@settings(deadline=None, max_examples=150)
def test_first_times_on_signed_zero_runs(runs, c):
    assert_first_times([v for v, count in runs for _ in range(count)], c)
