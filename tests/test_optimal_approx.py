import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import (
    PathError,
    detect_regimes,
    jordan_pair,
    lazy_approximation,
    make_path,
    osc_norm,
    prefix_curves,
    step_skeleton,
    total_variation,
    truncated_variation,
    uniform_stream,
    zero_start_approximation,
)

from _oracles import (
    full_scan_loop,
    level_st,
    mixed_corpus,
    monotone_parts,
    negate,
    path_from,
    prefix_total_variation,
    step_skeleton_loop,
    sup_distance,
)

# full_scan and step_skeleton have a native and a Python route
pytestmark = pytest.mark.both_routes

values_st = st.lists(
    st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=50
)


class TestLazyApproximation:
    def test_golden(self, p1):
        r = lazy_approximation(p1, 0.6)
        np.testing.assert_allclose(
            r.approximation.values, [0.3, 0.7, 0.5, 0.9, 0.5], atol=1e-12, rtol=0
        )
        assert r.achieved_tv == pytest.approx(1.4, abs=1e-12)
        assert r.sup_error == pytest.approx(0.3, abs=1e-12)
        assert np.array_equal(r.approximation.times, p1.times)

    def test_level_above_oscillation_gives_flat_band(self, p1):
        r = lazy_approximation(p1, 2.0)
        np.testing.assert_allclose(r.approximation.values, np.full(5, 1.0), atol=1e-12)
        assert r.achieved_tv == 0.0

    def test_constant_path(self, p3):
        r = lazy_approximation(p3, 0.1)
        np.testing.assert_allclose(r.approximation.values, [5.05, 5.05], atol=1e-12)
        assert r.achieved_tv == 0.0


class TestJordanPair:
    def test_golden(self, p1):
        j = jordan_pair(p1, 0.6)
        np.testing.assert_allclose(j.up_component, [0, 0.4, 0.4, 0.8, 0.8], atol=1e-12)
        np.testing.assert_allclose(j.down_component, [0, 0, 0.2, 0.2, 0.6], atol=1e-12)

    def test_constant(self, p3):
        j = jordan_pair(p3, 0.1)
        assert j.up_component.tolist() == [0.0, 0.0]
        assert j.down_component.tolist() == [0.0, 0.0]

    def test_monotone(self, ramp3):
        j = jordan_pair(ramp3, 0.5)
        np.testing.assert_allclose(j.up_component, [0.0, 0.5, 1.5], atol=1e-12)
        assert j.down_component.tolist() == [0.0, 0.0, 0.0]


class TestZeroStart:
    def test_golden(self, p1):
        r = zero_start_approximation(p1, 0.6)
        np.testing.assert_allclose(
            r.approximation.values, [0, 0.4, 0.2, 0.6, 0.2], atol=1e-12
        )
        assert r.achieved_tv == pytest.approx(1.4, abs=1e-12)

    def test_constant(self, p3):
        r = zero_start_approximation(p3, 0.1)
        assert r.approximation.values.tolist() == [0.0, 0.0]

    def test_no_regimes(self, p1):
        r = zero_start_approximation(p1, 2.0)
        assert r.approximation.values.tolist() == [0.0] * 5


class TestStepSkeleton:
    def test_greedy_scan(self):
        p = make_path([0, 1, 2, 3], [0.0, 0.1, 0.2, 1.0])
        s = step_skeleton(p, 0.5)
        assert s.times.tolist() == [0.0, 3.0]
        assert s.values.tolist() == [0.0, 1.0]

    def test_constant_never_triggers(self, p3):
        s = step_skeleton(p3, 0.1)
        # constant band held over the whole domain
        assert s.values.tolist() == [5.0, 5.0]
        assert s.domain == p3.domain
        assert sup_distance(s, p3) == 0.0

    def test_every_sample_kept_when_steps_exceed_half(self, p1):
        s = step_skeleton(p1, 0.6)
        assert np.array_equal(s.times, p1.times)
        assert np.array_equal(s.values, p1.values)


# at module level: a @given method collected on two routes fails hypothesis'
# differing_executors check, since each item calls it on its own instance
@given(values_st, level_st)
@settings(deadline=None, max_examples=60)
def test_step_skeleton_contract(vals, c):
    p = path_from(vals)
    s = step_skeleton(p, c)
    assert sup_distance(p, s) <= c / 2 + 1e-12
    assert set(s.times.tolist()) <= set(p.times.tolist())


class TestSingleSample:
    def test_all_constructions_degenerate_cleanly(self):
        p = make_path([3.0], [1.5])
        r = lazy_approximation(p, 0.7)
        assert r.approximation.values.tolist() == [1.85]
        assert r.achieved_tv == 0.0
        assert r.sup_error == pytest.approx(0.35, abs=1e-15)
        z = zero_start_approximation(p, 0.7)
        assert z.approximation.values.tolist() == [0.0]
        s = step_skeleton(p, 0.7)
        assert s.times.tolist() == [3.0]
        assert s.values.tolist() == [1.5]


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_ball_membership(vals, c):
    p = path_from(vals)
    r = lazy_approximation(p, c)
    assert sup_distance(p, r.approximation) <= c / 2 + 1e-12


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_prefix_variation_matches_components(vals, c):
    p = path_from(vals)
    r = lazy_approximation(p, c)
    j = r.jordan
    tv_prefix = prefix_total_variation(r.approximation.values)
    np.testing.assert_allclose(
        tv_prefix, j.up_component + j.down_component, atol=1e-12, rtol=0
    )


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_band_reconstruction(vals, c):
    p = path_from(vals)
    r = lazy_approximation(p, c)
    j = r.jordan
    fc = r.approximation.values
    np.testing.assert_allclose(
        fc, fc[0] + j.up_component - j.down_component, atol=1e-12, rtol=0
    )


@given(values_st, level_st)
@settings(deadline=None, max_examples=80)
def test_jump_containment(vals, c):
    p = path_from(vals)
    fc = lazy_approximation(p, c).approximation.values
    dv = np.diff(p.values)
    dfc = np.diff(fc)
    held = dv == 0.0
    assert np.all(dfc[held] == 0.0)
    assert np.all(np.abs(dfc) <= np.abs(dv) + 1e-12)


@given(values_st, level_st)
@settings(deadline=None, max_examples=60)
def test_negation_equivariance(vals, c):
    p = path_from(vals)
    if detect_regimes(p, c).first_direction == "none":
        return
    a = lazy_approximation(p, c).approximation.values
    b = lazy_approximation(negate(p), c).approximation.values
    assert np.array_equal(b, -a)


def _ball_competitors(path, fc, c, count, seed):
    lo = path.values - c / 2
    hi = path.values + c / 2
    n = path.n
    u = uniform_stream(seed, count * n).reshape(count, n)
    for k in range(count):
        if k == 0:
            yield path.values
        elif k == 1:
            mid = (path.values.max() + path.values.min()) / 2
            yield np.clip(np.full(n, mid), lo, hi)
        else:
            noise = (2.0 * u[k] - 1.0) * c
            yield np.clip(fc + noise, lo, hi)


def _osc_competitors(path, c, count, seed):
    n = path.n
    u = uniform_stream(seed, count * n).reshape(count, n)
    for k in range(count):
        h = (u[k] - 0.5) * c  # oscillation at most c
        yield path.values + h


def test_optimality_sampling_on_corpus():
    for idx, (path, c) in enumerate(mixed_corpus(40, seed=777, max_len=60)):
        best = truncated_variation(path, c).tv
        fc = lazy_approximation(path, c).approximation.values
        for g in _ball_competitors(path, fc, c, 12, seed=9000 + idx):
            assert float(np.sum(np.abs(np.diff(g)))) >= best - 1e-9
            gu, gd = monotone_parts(g)
            ju = np.concatenate([[0.0], np.cumsum(np.maximum(np.diff(fc), 0.0))])
            jd = np.concatenate([[0.0], np.cumsum(np.maximum(-np.diff(fc), 0.0))])
            assert np.all(gu >= ju - 1e-9)
            assert np.all(gd >= jd - 1e-9)
        for g in _osc_competitors(path, c, 12, seed=9500 + idx):
            assert float(np.sum(np.abs(np.diff(g)))) >= best - 1e-9


def test_uniqueness_of_band_minimizer_on_corpus():
    # perturbing the minimizer anywhere, while staying inside the band,
    # must strictly raise the variation of some prefix
    u = uniform_stream(31337, 3 * 60)
    cases = mixed_corpus(60, seed=4242, max_len=60)
    checked = 0
    for idx, (path, c) in enumerate(cases):
        if c > osc_norm(path):
            continue
        r = lazy_approximation(path, c)
        fc = r.approximation.values.copy()
        base_prefix = prefix_total_variation(fc)
        k = int(u[3 * idx] * path.n)
        delta = (u[3 * idx + 1] - 0.5) * c
        g = fc.copy()
        g[k] = np.clip(fc[k] + delta, path.values[k] - c / 2, path.values[k] + c / 2)
        if abs(g[k] - fc[k]) < c / 100:
            continue
        g_prefix = prefix_total_variation(g)
        assert np.max(g_prefix - base_prefix) > 1e-12
        checked += 1
    assert checked >= 10


def test_zero_start_tracks_increments_on_corpus():
    for path, c in mixed_corpus(60, seed=616, max_len=80):
        r = zero_start_approximation(path, c)
        assert r.approximation.values[0] == 0.0
        residual = r.approximation.values - path.values
        assert residual.max() - residual.min() <= c + 1e-12
        assert r.achieved_tv == pytest.approx(
            lazy_approximation(path, c).achieved_tv, abs=1e-12
        )


def test_achieved_tv_equals_truncated_variation_on_corpus(p1):
    for path, c in mixed_corpus(60, seed=8080, max_len=80):
        r = lazy_approximation(path, c)
        assert r.achieved_tv == pytest.approx(
            truncated_variation(path, c).tv, abs=1e-12
        )
        assert total_variation(r.approximation) == r.achieved_tv


def assert_bits(got, want, name):
    got = np.asarray(got)
    assert got.dtype == np.float64 and got.shape == np.shape(want), name
    assert np.array_equal(got.view(np.int64), np.asarray(want, np.float64).view(np.int64)), name


def assert_consumers_exact(path, c):
    # every output equals, bit for bit, its formula on the reference scan's arrays
    x = path.values
    approx, up, down = full_scan_loop(x, c)[:3]
    zero = up - down
    residual = zero - x
    lazy, zs = lazy_approximation(path, c), zero_start_approximation(path, c)
    jordan, curves = jordan_pair(path, c), prefix_curves(path, c)
    expected = [
        (lazy.approximation.values, approx, "lazy approx"),
        (lazy.jordan.up_component, up, "lazy up"),
        (lazy.jordan.down_component, down, "lazy down"),
        (lazy.achieved_tv, float(np.sum(np.abs(np.diff(approx)))), "lazy achieved_tv"),
        (lazy.sup_error, float(np.max(np.abs(approx - x))), "lazy sup_error"),
        (zs.approximation.values, zero, "zero-start approx"),
        (zs.jordan.up_component, up, "zero-start up"),
        (zs.jordan.down_component, down, "zero-start down"),
        (zs.achieved_tv, float(np.sum(np.abs(np.diff(zero)))), "zero-start achieved_tv"),
        (zs.sup_error, float(np.max(residual) - np.min(residual)), "zero-start sup_error"),
        (jordan.up_component, up, "jordan up"),
        (jordan.down_component, down, "jordan down"),
        (curves[0], up, "prefix utv"),
        (curves[1], down, "prefix dtv"),
        (curves[2], up + down, "prefix tv"),
        (total_variation(path), float(np.sum(np.abs(np.diff(x)))), "total_variation"),
    ]
    for got, want, name in expected:
        assert_bits(got, want, name)


def test_consumers_match_the_reference_scan_bit_for_bit_on_corpus():
    for path, c in mixed_corpus(60, seed=2626, max_len=200):
        assert_consumers_exact(path, c)
        for step in np.abs(np.diff(path.values))[:3]:  # triggers on equality
            if step > 0:
                assert_consumers_exact(path, float(step))


def assert_step_skeleton_exact(path, c):
    s = step_skeleton(path, c)
    ref_t, ref_v = step_skeleton_loop(path.times, path.values, c)
    for got, ref in ((s.times, ref_t), (s.values, ref_v)):
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_step_skeleton_matches_loop_on_corpus():
    for path, c in mixed_corpus(60, seed=5150, max_len=200):
        assert_step_skeleton_exact(path, c)
        for step in np.abs(np.diff(path.values))[:3]:  # c/2 at an increment
            if step > 0:
                assert_step_skeleton_exact(path, 2.0 * float(step))


@given(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), min_size=1, max_size=40),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
@settings(deadline=None, max_examples=200)
def test_step_skeleton_matches_loop_on_signed_zeros(vals, c):
    assert_step_skeleton_exact(path_from(vals), c)


def test_band_overflow_is_a_path_error_without_warnings():
    # every total is 0, but the band c/2 around the values passes float64
    path = make_path([0, 1], [1.7e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError) as err:
            lazy_approximation(path, 1.7e308)
        assert err.value.code == "band-overflow"
        # the rise/fall pair and the zero-start variant hold no band
        assert jordan_pair(path, 1.7e308).up_component.tolist() == [0.0, 0.0]
        assert zero_start_approximation(path, 1.7e308).sup_error == 0.0
        # the widest band that fits still builds
        edge = lazy_approximation(path, 2 * (np.finfo(float).max - 1.7e308))
        assert np.isfinite(edge.approximation.values).all()
