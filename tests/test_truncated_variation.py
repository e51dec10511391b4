import importlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import (
    GeneratorSpec,
    PathError,
    TruncatedVariations,
    detect_regimes,
    lazy_approximation,
    l1_upper_bound,
    make_path,
    oracle_truncated_variation,
    osc_norm,
    generate,
    prefix_curves,
    sweep,
    total_variation,
    truncated_variation,
)
from truncvar._scan import tv_scan

from conftest import needs_lib, python_route
from _oracles import (
    exhaustive_truncated,
    level_st,
    mixed_corpus,
    negate,
    path_from,
    persistence_union_find,
    skeleton_scan,
)

# the module, which the package's same-named function hides as an attribute
tv_module = importlib.import_module("truncvar.truncated_variation")

values_st = st.lists(
    st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=60
)
# integer values give ties, plateaus and levels equal to an increment
ladder_values_st = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),
    values_st,
)
small_values_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=9
)


@pytest.mark.both_routes  # the totals-only scan
class TestFastPath:
    def test_golden(self, p1):
        r = truncated_variation(p1, 0.6)
        assert r.utv == pytest.approx(0.8, abs=1e-12)
        assert r.dtv == pytest.approx(0.6, abs=1e-12)
        assert r.tv == pytest.approx(1.4, abs=1e-12)
        assert r.tv == r.utv + r.dtv

    def test_zero_above_oscillation(self, p1):
        r = truncated_variation(p1, 2.0)
        assert (r.utv, r.dtv, r.tv) == (0.0, 0.0, 0.0)

    def test_monotone(self, ramp3):
        r = truncated_variation(ramp3, 0.5)
        assert r.utv == pytest.approx(1.5, abs=1e-12)
        assert r.dtv == 0.0
        assert r.tv == pytest.approx(1.5, abs=1e-12)

    def test_rejects_bad_level(self, p1):
        with pytest.raises(PathError) as err:
            truncated_variation(p1, -1.0)
        assert err.value.code == "bad-level"

    @pytest.mark.parametrize("c", [True, "0.5", None, pytest.param(10**400, id="10**400")])
    def test_level_must_be_a_real_number(self, p1, c):
        # the rule of positive_real: a bool or a string is no level, even if float() takes it
        with pytest.raises(PathError) as err:
            truncated_variation(p1, c)
        assert err.value.code == "bad-level"

    @pytest.mark.parametrize(
        "c", [1, np.float32(0.5), np.int64(1), pytest.param(10**20, id="10**20")]
    )
    def test_numeric_levels_are_accepted(self, p1, c):
        assert truncated_variation(p1, c) == truncated_variation(p1, float(c))

    def test_exact_threshold_is_inclusive(self):
        # a move of exactly c is counted, contributing exactly zero
        p = make_path([0, 1], [0.0, 0.5])
        assert truncated_variation(p, 0.5).tv == 0.0
        below = float(np.nextafter(0.5, 0.0))
        assert truncated_variation(p, below).tv > 0.0
        assert oracle_truncated_variation(p, below).tv > 0.0

    def test_single_sample_path(self):
        p = make_path([3.0], [1.5])
        assert truncated_variation(p, 0.7) == TruncatedVariations(0.0, 0.0, 0.0)
        assert oracle_truncated_variation(p, 0.7).tv == 0.0
        up, down, tv = prefix_curves(p, 0.7)
        assert tv.tolist() == [0.0]


class TestOracle:
    def test_golden(self, p1):
        r = oracle_truncated_variation(p1, 0.6)
        assert r.tv == pytest.approx(1.4, abs=1e-12)
        assert r.utv == pytest.approx(0.8, abs=1e-12)
        assert r.dtv == pytest.approx(0.6, abs=1e-12)

    def test_constant(self, p3):
        r = oracle_truncated_variation(p3, 0.1)
        assert (r.utv, r.dtv, r.tv) == (0.0, 0.0, 0.0)

    def test_single_pair_beats_splitting(self, ramp3):
        r = oracle_truncated_variation(ramp3, 0.5)
        assert r.utv == pytest.approx(1.5, abs=1e-12)
        assert exhaustive_truncated(ramp3.values, 0.5, +1) == r.utv


@pytest.mark.both_routes  # through full_scan
class TestPrefixCurves:
    def test_golden(self, p1):
        up, down, tv = prefix_curves(p1, 0.6)
        np.testing.assert_allclose(tv, [0, 0.4, 0.6, 1.0, 1.4], atol=1e-12, rtol=0)

    def test_constant(self, p3):
        up, down, tv = prefix_curves(p3, 0.1)
        assert tv.tolist() == [0.0, 0.0]

    def test_monotone(self, ramp3):
        up, down, tv = prefix_curves(ramp3, 0.5)
        np.testing.assert_allclose(up, [0, 0.5, 1.5], atol=1e-12, rtol=0)

    def test_prefixes_match_oracle(self, p1):
        up, down, tv = prefix_curves(p1, 0.6)
        for s in range(p1.n):
            head = make_path(p1.times[: s + 1], p1.values[: s + 1])
            ref = oracle_truncated_variation(head, 0.6)
            assert up[s] == pytest.approx(ref.utv, abs=1e-12)
            assert down[s] == pytest.approx(ref.dtv, abs=1e-12)


class TestSweep:
    def test_monotone_ramp_curve(self, ramp3):
        curve = sweep(ramp3, [0.5, 1.0, 1.5])
        np.testing.assert_allclose(curve.tv_values, [1.5, 1.0, 0.5], atol=1e-12)

    def test_at_oscillation_norm(self, p1):
        assert sweep(p1, [1.2]).tv_values.tolist() == [0.0]

    def test_tiny_level_approaches_total_variation(self, p1):
        curve = sweep(p1, [1e-12])
        assert curve.tv_values[0] == pytest.approx(3.8, abs=5e-12)

    def test_rejects_bad_grids(self, p1):
        for bad in (
            [], [0.5, 0.5], [0.2, 0.1], [-1.0, 1.0], [0.0, 1.0],
            [True], ["0.5"], [10**400], [0.5, 10**400], [[0.5], [1.0, 2.0]],
            [0.5, True], [True, 2], [0.5, np.True_], [np.array(0.5), 1.0],
            np.array([np.timedelta64(1)]), np.array([True]),
            np.array([np.longdouble("1e400")]),  # past float64: refused without a warning
            b"\x01\x02", bytearray(b"\x01\x02"), memoryview(b"\x01\x02"),  # no list of 1, 2
        ):
            with pytest.raises(PathError) as err:
                sweep(p1, bad)
            assert err.value.code == "bad-level-grid"

    def test_takes_the_levels_level_takes(self, p1):
        # Python ints past int64 make an object array; each is a valid level
        curve = sweep(p1, [0.5, 10**20])
        assert curve.tv_values.tolist() == [truncated_variation(p1, c).tv for c in (0.5, 10**20)]


@pytest.mark.both_routes  # through _persistence
class TestL1UpperBound:
    def test_flat_objective_two_ramps(self, ramp3):
        ramp = make_path([0, 1, 2], [0.0, 1.0, 2.0])
        bound, split = l1_upper_bound([ramp3, ramp], 1.0)
        assert bound == pytest.approx(3.0, abs=1e-9)
        assert sum(split) == pytest.approx(1.0, abs=1e-12)
        assert all(s > 0 for s in split)

    def test_single_component_reduces_to_tv(self, p1):
        bound, split = l1_upper_bound([p1], 0.6)
        assert bound == pytest.approx(truncated_variation(p1, 0.6).tv, abs=1e-12)
        assert split == [0.6]

    def test_constant_component_gets_squeezed_out(self, p1):
        flat = make_path(p1.times, np.full(5, 5.0))
        bound, split = l1_upper_bound([p1, flat], 0.5)
        ref = oracle_truncated_variation(p1, 0.5).tv
        assert bound == pytest.approx(ref, abs=1e-6)
        assert split[0] == pytest.approx(0.5, abs=1e-9)
        assert 0 < split[1] < 1e-9
        assert sum(split) == pytest.approx(0.5, abs=1e-12)

    def test_mismatched_grids_rejected(self, p1, p3):
        with pytest.raises(PathError) as err:
            l1_upper_bound([p1, p3], 0.5)
        assert err.value.code == "domain-mismatch"

    def test_no_components_is_an_empty_path(self):
        with pytest.raises(PathError) as err:
            l1_upper_bound([], 1.0)
        assert err.value.code == "empty-path"

    @pytest.mark.parametrize("points", [1, None, float("inf"), "x", float("nan"), "3"])
    def test_bad_grid_points_is_a_level_grid_error(self, p1, points):
        with pytest.raises(PathError) as err:
            l1_upper_bound([p1], 0.6, grid_points=points)
        assert err.value.code == "bad-level-grid"

    def test_all_constant_components(self, p3):
        bound, split = l1_upper_bound([p3, p3], 1.0)
        assert bound == 0.0
        assert sum(split) == pytest.approx(1.0, abs=1e-12)

    def test_slope_ties_go_to_the_lower_component(self):
        # Q = {1, 1, 3, 3} on both: every slope ties, and the budget runs
        # out inside the slope-2 pieces, so the first component gets the rest
        p = make_path([0, 1, 2, 3, 4], [0.0, 2.0, 1.0, 3.0, 0.0])
        bound, split = l1_upper_bound([p, p], 3.0)
        assert split == [2.0, 1.0]
        assert bound == scanned_sum([p, p], split) == 6.0

    def test_largest_level(self):
        # one ulp of the largest float is 2**971; numpy gives its spacing as inf
        p = make_path([0, 1, 2], [0.0, 1.0, 0.0])
        bound, split = l1_upper_bound([p, p], sys.float_info.max)
        assert (bound, split) == (0.0, [1.7976931348623155e308, 1.99584030953472e292])

    @pytest.mark.parametrize("n_comp, c", [(2, 5e-324), (3, 5e-324), (4, 1e-323)])
    def test_level_too_small_to_split(self, p1, n_comp, c):
        with pytest.raises(PathError, match=f"{c!r}.*{n_comp} components") as err:
            l1_upper_bound([p1] * n_comp, c)
        assert err.value.code == "bad-level"


@pytest.mark.both_routes
@given(values_st, level_st)
@settings(deadline=None, max_examples=60)
def test_fast_matches_oracle(vals, c):
    p = path_from(vals)
    fast = truncated_variation(p, c)
    ref = oracle_truncated_variation(p, c)
    tol = 1e-9 * max(1.0, osc_norm(p))
    assert fast.utv == pytest.approx(ref.utv, abs=tol)
    assert fast.dtv == pytest.approx(ref.dtv, abs=tol)
    assert fast.tv == pytest.approx(ref.tv, abs=tol)


@given(small_values_st, level_st)
@settings(deadline=None, max_examples=40)
def test_oracle_matches_enumeration_exactly(vals, c):
    p = path_from(vals)
    ref = oracle_truncated_variation(p, c)
    assert ref.utv == exhaustive_truncated(p.values, c, +1)
    assert ref.dtv == exhaustive_truncated(p.values, c, -1)
    assert ref.tv == exhaustive_truncated(p.values, c, 0)


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_duality_and_bounds(vals, c):
    p = path_from(vals)
    r = truncated_variation(p, c)
    m = truncated_variation(negate(p), c)
    assert r.dtv == m.utv
    assert r.utv == m.dtv
    assert r.tv == r.utv + r.dtv
    assert max(r.utv, r.dtv, r.tv) <= total_variation(p) + 1e-12
    if c >= osc_norm(p):
        assert r.tv == 0.0


@given(values_st, level_st, st.integers(min_value=0, max_value=59))
@settings(deadline=None, max_examples=60)
def test_superadditive_under_concatenation(vals, c, m):
    p = path_from(vals)
    m = m % p.n
    left = make_path(p.times[: m + 1], p.values[: m + 1])
    right = make_path(p.times[m:], p.values[m:])
    whole = truncated_variation(p, c).tv
    assert (
        whole
        >= truncated_variation(left, c).tv + truncated_variation(right, c).tv - 1e-9
    )


@pytest.mark.both_routes
@given(values_st, level_st)
@settings(deadline=None, max_examples=60)
def test_prefix_curves_nondecreasing(vals, c):
    p = path_from(vals)
    up, down, tv = prefix_curves(p, c)
    for curve in (up, down, tv):
        assert np.all(np.diff(curve) >= 0)


def test_attainment_identity_on_corpus():
    for path, c in mixed_corpus(80, seed=99, max_len=120):
        r = truncated_variation(path, c)
        approx = lazy_approximation(path, c)
        assert total_variation(approx.approximation) == pytest.approx(
            r.tv, abs=1e-12
        )


def assert_certified(path, c):
    """The theorem's two halves in O(n), with no oracle. Every path within
    c/2 of the samples has total variation at least
    ``sum((|f(w[i+1]) - f(w[i])| - c)+)`` for any increasing indices w, and
    ``lazy_approximation`` is such a path. The witnesses w are the first
    sample of each window at the window's extreme, read off the triggers of
    ``detect_regimes`` and the skeleton; the lower bound and the achieved
    variation must both meet ``tv`` within ``(k + 2) * eps`` times the
    summed gaps and levels of the k-value skeleton."""
    x = path.values
    regimes = detect_regimes(path, c)
    starts = np.sort(np.concatenate([[0], regimes.up_times, regimes.down_times]))
    skeleton = skeleton_scan(x, c)[3]
    k = skeleton.size
    window = np.repeat(np.arange(k), np.diff(np.append(starts, x.size)))
    hits = np.flatnonzero(x == skeleton[window])
    witnesses = hits[np.unique(window[hits], return_index=True)[1]]
    assert witnesses.size == k and np.all(np.diff(witnesses) > 0)
    assert np.array_equal(x[witnesses].view(np.int64), skeleton.view(np.int64))
    lower = float(np.sum(np.maximum(np.abs(np.diff(x[witnesses])) - c, 0.0)))
    upper = lazy_approximation(path, c).achieved_tv
    tv = truncated_variation(path, c).tv
    tol = (k + 2) * np.finfo(float).eps * (np.abs(np.diff(skeleton)).sum() + k * c)
    assert abs(lower - tv) <= tol, (lower, tv, tol)
    assert abs(upper - tv) <= tol, (upper, tv, tol)


@pytest.mark.both_routes
def test_optimality_certificate_on_corpus():
    for path, c in mixed_corpus(1500, seed=1717, max_len=300):
        assert_certified(path, c)


@pytest.mark.both_routes
@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("jump-mixture", 200_000, seed=16),
        GeneratorSpec("random-walk", 200_000, seed=17),
        GeneratorSpec(
            "near-threshold-oscillator", 200_000, seed=18,
            extra={"target_level": 1.0, "amplitude_ratio": 1.001},
        ),
    ],
    ids=lambda spec: spec.kind,
)
def test_optimality_certificate_at_benchmark_scale(spec):
    assert_certified(generate(spec), 1.0)


def test_sweep_shape_on_corpus():
    for path, c in mixed_corpus(30, seed=2717, max_len=80):
        osc = osc_norm(path)
        if osc == 0:
            continue
        grid = np.linspace(osc / 16, osc, 16)
        curve = sweep(path, grid)
        vals = curve.tv_values
        assert np.all(np.diff(vals) <= 1e-9)
        mid_excess = vals[1:-1] - (vals[:-2] + vals[2:]) / 2
        assert np.all(mid_excess <= 1e-9)
        assert vals[-1] == 0.0


def assert_skeleton_exact(vals, c0, c):
    """The level-c0 skeleton scans like the samples at c >= c0, bit for bit."""
    x = np.array(vals, dtype=float)
    _, _, _, skeleton = skeleton_scan(x, c0)
    assert skeleton.dtype == np.float64
    assert tv_scan(skeleton, c) == tv_scan(x, c)
    # the skeleton is the scan's regime lows and highs, interleaved
    dec = detect_regimes(make_path(np.arange(x.size, dtype=float), x), c0)
    lows_first = dec.first_direction != "down-first"
    assert skeleton[0 if lows_first else 1 :: 2].tolist() == dec.lows.tolist()
    assert skeleton[1 if lows_first else 0 :: 2].tolist() == dec.highs.tolist()


@given(ladder_values_st, st.data())
@settings(deadline=None, max_examples=150)
def test_skeleton_scan_matches_sample_scan(vals, data):
    x = np.array(vals)
    exact = {float(s) for s in np.abs(np.diff(x))} | {float(np.ptp(x))}
    levels = level_st | st.sampled_from(sorted(exact - {0.0}) or [1.0])
    a = data.draw(levels)
    b = data.draw(levels | st.just(a))
    assert_skeleton_exact(vals, min(a, b), max(a, b))


@pytest.mark.parametrize(
    "vals, c0, c",
    [
        ([2.5], 0.7, 0.7),  # n = 1
        ([0.0, 0.0, 1.0, 1.0, 0.0, 0.0], 1.0, 1.0),  # plateaus, c = c0 = step
        ([0.0, 2.0, 1.0, 3.0, 0.0], 1.0, 3.0),  # c = osc_norm
        ([1.0, 1.0, 1.0], 0.5, 2.0),  # constant: nothing triggers
    ],
)
def test_skeleton_scan_edge_cases(vals, c0, c):
    assert_skeleton_exact(vals, c0, c)


def test_sweep_is_bit_identical_to_per_level_scans_on_corpus():
    for path, c in mixed_corpus(40, seed=31, max_len=150):
        steps = np.abs(np.diff(path.values))[:10]
        grid = np.unique(np.concatenate([steps, [c / 3, c, osc_norm(path)]]))
        grid = grid[grid > 0]
        ref = [truncated_variation(path, float(g)).tv for g in grid]
        assert np.array_equal(sweep(path, grid).tv_values, ref)


# (c, components as (kind, seed, scale)) on n = 300, with (bound, split) per
# grid_points as float.hex, recorded from the grid search the exact
# water-filling split replaced; the pins are references it may only improve on
L1_PINNED = [
    (
        1.0,
        [("random-walk", 11, 1.0), ("jump-mixture", 12, 1.0)],
        {
            2: ("0x1.040fc9612cc33p+7", ["0x1.ffffffffc6bc4p-1", "0x1.ca1e000000000p-36"]),
            4: ("0x1.f5a7771919489p+6", ["0x1.cd6e9e0624384p-1", "0x1.948b0fcede3e0p-4"]),
            64: ("0x1.f5662a6a51a40p+6", ["0x1.d33018e17fdb2p-1", "0x1.667f38f401274p-4"]),
        },
    ),
    (
        0.5,
        [("jump-mixture", 21, 0.5), ("random-walk", 22, 1.0), ("random-walk", 23, 0.25)],
        {
            2: (
                "0x1.6d1a017c28b64p+7",
                ["0x1.eefc800000000p-37", "0x1.555555551775cp-2", "0x1.5555555555555p-3"],
            ),
            4: (
                "0x1.68cb62929288ep+7",
                ["0x1.f06a1f093525ep-7", "0x1.9356393170597p-2", "0x1.7499d75917f5bp-4"],
            ),
            64: (
                "0x1.68ca15a073204p+7",
                ["0x1.efceb3ff1a270p-7", "0x1.95f01dc3de1e8p-2", "0x1.6a45b270a4414p-4"],
            ),
        },
    ),
    (
        2.0,
        [("random-walk", 31, 2.0), ("jump-mixture", 32, 0.5)],
        {
            2: ("0x1.3766fa307cfd5p+7", ["0x1.ffffffffdc3dep+0", "0x1.1e10c00000000p-35"]),
            4: ("0x1.324a64831b909p+7", ["0x1.f35ba781728d0p+0", "0x1.948b0fd1ae5f0p-5"]),
            64: ("0x1.32476a99ab490p+7", ["0x1.f429a92877c93p+0", "0x1.7acadaf106da0p-5"]),
        },
    ),
]


def split_floor(comps, c):
    """The smallest level ``l1_upper_bound`` gives a component."""
    return min(max(1e-12 * max(osc_norm(p) for p in comps), float(np.spacing(c))), c / len(comps))


def scanned_sum(comps, split):
    return sum(truncated_variation(p, s).tv for p, s in zip(comps, split))


def best_breakpoint_split(comps, c, first, second):
    """Smallest scanned sum over two-level splits of ``c`` that put one
    component on one of its candidate levels, or one of them on the floor."""
    f = split_floor(comps, c)
    splits = [(f, c - f), (c - f, f)]
    splits += [(q, c - q) for q in first if f <= q <= c - f]
    splits += [(c - q, q) for q in second if f <= q <= c - f]
    return min(scanned_sum(comps, s) for s in splits)


@pytest.mark.both_routes
@pytest.mark.parametrize("c, specs, pins", L1_PINNED)
def test_l1_upper_bound_pinned(c, specs, pins):
    comps = [
        generate(GeneratorSpec(kind, 300, seed=seed, scale=scale))
        for kind, seed, scale in specs
    ]
    bound, split = l1_upper_bound(comps, c)
    for points, (pinned, _) in pins.items():
        assert l1_upper_bound(comps, c, grid_points=points) == (bound, split)
        assert bound <= float.fromhex(pinned) * (1 + 1e-12)
    assert bound <= scanned_sum(comps, [c / len(comps)] * len(comps))
    assert all(s > 0 for s in split)
    assert abs(sum(split) - c) <= 1e-12 * c
    if len(comps) == 2:
        q = [tv_module._persistence(p.values) for p in comps]
        assert abs(bound - best_breakpoint_split(comps, c, *q)) <= 1e-12 * bound


def pairwise_distances(values):
    return {abs(b - a) for a in values for b in values}


def same_length_pair(n):
    vals = st.lists(st.integers(-4, 4).map(float) | st.floats(-10, 10), min_size=n, max_size=n)
    return st.tuples(vals, vals)


@pytest.mark.both_routes
@given(st.integers(1, 12).flatmap(same_length_pair), st.floats(min_value=1e-3, max_value=60.0))
@settings(deadline=None, max_examples=200)
def test_l1_upper_bound_is_the_best_breakpoint_split(pair, c):
    # a sum of two convex piecewise-linear curves is least at a breakpoint,
    # and every breakpoint of tv is a distance between two samples
    comps = [path_from(v) for v in pair]
    bound, split = l1_upper_bound(comps, c)
    best = best_breakpoint_split(comps, c, *map(pairwise_distances, pair))
    assert abs(bound - best) <= 1e-12 * best
    assert bound == scanned_sum(comps, split)
    assert all(s > 0 for s in split)
    assert abs(sum(split) - c) <= 1e-12 * c


@pytest.mark.both_routes
def test_l1_upper_bound_budget_far_above_oscillation():
    # the level floor must stay above half an ulp of the split, or a level
    # split - (split - floor) rounds to 0 and is rejected
    comps = [make_path([0, 1, 2], [0, 1, 0]), make_path([0, 1, 2], [0, 2, 1])]
    bound, split = l1_upper_bound(comps, 1e5)
    assert bound == 0.0
    assert all(s > 0 for s in split)
    assert sum(split) == pytest.approx(1e5, rel=1e-15)


def test_sweep_reuses_a_skeleton_that_stopped_shrinking():
    # dense runs of close levels leave the skeleton almost unchanged, so the
    # ladder scans several levels on skeletons of nearly the same length; on
    # the oscillator every sample triggers below its swing of 1.001, so the
    # skeleton never shrinks there
    oscillator = generate(
        GeneratorSpec(
            "near-threshold-oscillator", 2000,
            extra={"target_level": 1.0, "amplitude_ratio": 1.001},
        )
    )
    for path, c in mixed_corpus(20, seed=77, min_len=50, max_len=400) + [(oscillator, 1.0)]:
        osc = osc_norm(path)
        if osc == 0:
            continue
        dense = c / 4 + np.linspace(0.0, c / 1e3, 40)
        grid = np.unique(np.concatenate([dense, np.linspace(c / 2, osc, 12)]))
        ref = [truncated_variation(path, float(g)).tv for g in grid]
        assert np.array_equal(sweep(path, grid).tv_values, ref)


def per_level_scans(x, grid):
    """``tv`` at each level from one scan of the samples per level."""
    totals = [tv_scan(x, float(c))[:2] for c in grid]
    return np.array([up + down for up, down in totals])


def assert_sweep_exact(x, levels):
    """``sweep`` over the distinct positive ``levels`` equals one scan of the
    samples per level, bit for bit."""
    x = np.array(x, dtype=float)
    grid = np.unique(np.array(levels, dtype=float))
    grid = grid[grid > 0]
    got = sweep(path_from(x), grid).tv_values
    assert got.view(np.int64).tolist() == per_level_scans(x, grid).view(np.int64).tolist()


def skeleton_gap_levels(x, levels):
    """Each level, and the smallest gap of the skeleton a scan at it emits,
    with the gap's neighbours 1 ulp away: levels at which the next scan of
    that skeleton triggers at every value, or just fails to."""
    out = list(levels)
    for c in levels:
        gaps = np.abs(np.diff(skeleton_scan(np.array(x, dtype=float), c)[3]))
        if gaps.size:
            gap = float(gaps.min())
            out += [gap, float(np.nextafter(gap, 0.0)), float(np.nextafter(gap, np.inf))]
    return out


# ``sweep`` climbs a ladder of skeletons, keeping only the newest; each
# batch of levels below is one sweep grid


@given(ladder_values_st, st.data())
@settings(deadline=None, max_examples=150)
def test_ladder_batches_match_per_level_scans(vals, data):
    steps = sorted({float(s) for s in np.abs(np.diff(vals))} - {0.0})
    level = level_st | st.sampled_from(steps or [1.0])
    for _ in range(2):
        batch = data.draw(st.lists(level, min_size=1, max_size=12))
        # levels at each skeleton's smallest gap, then gaps of those skeletons
        assert_sweep_exact(vals, skeleton_gap_levels(vals, skeleton_gap_levels(vals, batch)))


@pytest.mark.parametrize(
    "vals, batches",
    [
        ([2.5], [[0.7, 0.1], [3.0, 0.7]]),  # n = 1
        ([0.0, 0.5, 0.2, 3.0], [[1.0], [3.0, 2.0, 3.0000000000000004]]),  # two values
        ([3.0, 2.0, 2.5, 0.0, 1.0, 0.2], [[0.4, 0.8], [2.5, 0.5, 3.0, 1.0]]),  # down-first
        ([1.0, 1.0, 1.0], [[0.5, 2.0], [0.5]]),  # constant
    ],
)
def test_ladder_edge_cases(vals, batches):
    for batch in batches:
        assert_sweep_exact(vals, skeleton_gap_levels(vals, batch))


def count_scans(monkeypatch):
    """``(level, number of values)`` of every scan ``sweep`` runs, in order."""
    scans = []
    scan = tv_module._window_scan
    monkeypatch.setattr(
        tv_module,
        "_window_scan",
        lambda *a, **kw: scans.append((a[1], len(a[0]))) or scan(*a, **kw),
    )
    return scans


def test_ladder_scans_each_level_on_the_skeleton_below(monkeypatch):
    scans = count_scans(monkeypatch)
    for path, c in mixed_corpus(20, seed=808, min_len=20, max_len=200):
        grid = np.unique(skeleton_gap_levels(path.values, list(c * np.linspace(0.05, 1.2, 9))))
        scans.clear()
        assert_sweep_exact(path.values, grid)
        # one scan per level, in order: the first on the samples, each later
        # one on the k values of the skeleton the level below emitted
        sizes = [len(skeleton_scan(path.values, g)[3]) for g in grid.tolist()]
        assert scans == list(zip(grid.tolist(), [path.values.size] + sizes[:-1]))


@pytest.mark.both_routes
def test_total_overflow_is_a_path_error_without_warnings():
    # every increment is finite; the sum of the rises (or of up and down) is not
    paths = [
        make_path(np.arange(4000.0), np.tile([0.0, 1e305], 2000)),
        make_path(np.arange(2000.0), np.tile([0.0, 1.7e305], 1000)),
    ]
    calls = [
        lambda p: truncated_variation(p, 1),
        lambda p: sweep(p, [1.0, 2.0]),
        lambda p: lazy_approximation(p, 1),
        lambda p: prefix_curves(p, 1),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in paths:
            for call in calls:
                with pytest.raises(PathError) as err:
                    call(path)
                assert err.value.code == "tv-overflow"
        # finite component totals whose sum overflows, with oscillations
        # that sum past float64 too and that do not
        for big in ([0.0, 1e308], np.tile([0.0, 5e304], 1000)):
            comp = path_from(big)
            with pytest.raises(PathError) as err:
                l1_upper_bound([comp, comp], 1.0)
            assert err.value.code == "tv-overflow"


def assert_persistence_route(path, levels):
    """``sum((q - c)+)`` over the persistence values against the scan and the
    DP, and the values themselves against a union-find pairing."""
    q = tv_module._persistence(path.values)
    ref = persistence_union_find(path.values)
    assert q.view(np.int64).tolist() == ref.view(np.int64).tolist()
    tol = 1e-9 * max(1.0, osc_norm(path))
    for c in levels:
        got = float(np.maximum(q - c, 0.0).sum())
        assert abs(got - truncated_variation(path, c).tv) <= tol
        assert abs(got - oracle_truncated_variation(path, c).tv) <= tol


@pytest.mark.both_routes
def test_persistence_route_on_corpus():
    for path, c in mixed_corpus(40, seed=53, max_len=150):
        q = tv_module._persistence(path.values)
        assert_persistence_route(path, [c, c / 3, *q[:: max(1, q.size // 6)]])


persistence_values_st = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=30),
    ladder_values_st,
    st.builds(lambda v, n: [v] * n, st.floats(-20, 20), st.integers(1, 6)),  # constant
)


@pytest.mark.both_routes
@given(persistence_values_st, level_st)
@settings(deadline=None, max_examples=200)
def test_persistence_route_at_breakpoints(vals, c):
    path = path_from(vals)
    q = tv_module._persistence(path.values).tolist()
    around = [float(np.nextafter(v, d)) for v in q for d in (0.0, np.inf)]
    assert_persistence_route(path, [c, *q, *[v for v in around if v > 0]])


PERSISTENCE_EDGES = {
    "one-sample": [3.0],
    "two-equal": [1.0, 1.0],
    "two-rising": [0.0, 2.0],
    "two-falling": [2.0, 0.0],
    "constant": [-4.5] * 7,
    "plateau-turns": [0.0, 0.0, 3.0, 3.0, 3.0, 1.0, 1.0, 4.0, 4.0, 2.0, 2.0],
    "down-first": [5.0, 1.0, 4.0, 2.0, 3.0, 0.0],
    "down-first-plateaus": [5.0, 5.0, 1.0, 1.0, 4.0, 4.0, 2.0],
    "signed-zeros": [0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0, 0.0],
    "signed-zero-turns": [-0.0, 2.0, 0.0, -0.0, 1.0, -0.0],
    "wide": [-1e308, 7e307, -5e307, 1e308],
}


@needs_lib
def test_native_persistence_is_the_python_loop_byte_for_byte():
    cases = [p.values for p, _ in mixed_corpus(200)]
    cases += [np.array(v, dtype=np.float64) for v in PERSISTENCE_EDGES.values()]
    native = [tv_module._persistence(v).tobytes() for v in cases]
    with python_route():
        assert [tv_module._persistence(v).tobytes() for v in cases] == native
