import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import (
    PathError,
    add_constant,
    combine,
    evaluate,
    make_path,
    negate,
    osc_norm,
    sup_distance,
    total_variation,
)

from _oracles import path_from

values_st = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
)


class TestMakePath:
    def test_identity_construction(self, p1):
        assert p1.times.tolist() == [0, 1, 2, 3, 4]
        assert p1.values.tolist() == [0.0, 1.0, 0.2, 1.2, 0.2]

    def test_constant_path(self, p3):
        assert p3.n == 2
        assert p3.domain == (0.0, 1.0)

    def test_error_codes_distinct(self):
        failures = [
            (([], []), "empty-path"),
            (([0, 1], [1.0]), "length-mismatch"),
            (([0, 0], [1.0, 2.0]), "times-not-increasing"),
            (([0, 1], [1.0, float("nan")]), "non-finite"),
        ]
        codes = set()
        for (t, v), expected in failures:
            with pytest.raises(PathError) as err:
                make_path(t, v)
            assert err.value.code == expected
            codes.add(err.value.code)
        assert len(codes) == len(failures)

    def test_arrays_are_read_only(self, p1):
        with pytest.raises(ValueError):
            p1.values[0] = 9.0


class TestEvaluate:
    def test_holds_value_between_samples(self, p1):
        assert evaluate(p1, 2.5) == 0.2

    def test_right_continuous_at_breakpoint(self, p1):
        assert evaluate(p1, 1.0) == 1.0

    def test_constant(self, p3):
        assert evaluate(p3, 0.7) == 5.0

    def test_outside_domain(self, p1):
        with pytest.raises(PathError) as err:
            evaluate(p1, 4.5)
        assert err.value.code == "outside-domain"


class TestFunctionals:
    def test_total_variation_examples(self, p1, p3, ramp3):
        assert total_variation(p1) == pytest.approx(3.8, abs=1e-12)
        assert total_variation(p3) == 0.0
        assert total_variation(ramp3) == 2.0

    def test_osc_norm_examples(self, p1, p3):
        assert osc_norm(p1) == pytest.approx(1.2, abs=1e-12)
        assert osc_norm(p3) == 0.0
        assert osc_norm(make_path([0, 1], [-2.0, 3.0])) == 5.0

    def test_sup_distance_examples(self, p1, p3):
        assert sup_distance(p1, p1) == 0.0
        assert sup_distance(p3, make_path([0, 1], [4.0, 6.0])) == 1.0
        const = make_path(p1.times, np.full(5, 0.6))
        assert sup_distance(p1, const) == pytest.approx(0.6, abs=1e-12)

    def test_sup_distance_domain_mismatch(self, p1, p3):
        with pytest.raises(PathError) as err:
            sup_distance(p1, p3)
        assert err.value.code == "domain-mismatch"


class TestAlgebra:
    def test_negate(self, p3):
        assert negate(p3).values.tolist() == [-5.0, -5.0]

    def test_add_constant(self, p3):
        assert add_constant(p3, 1).values.tolist() == [6.0, 6.0]

    def test_add_constant_rejects_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathError) as err:
                add_constant(make_path([0, 1, 2], [0, 1e308, 0]), 1e308)
        assert err.value.code == "non-finite"
        # both shifted values are finite, but their span rounds past float64
        p = make_path([0, 1], [-9.886001176613491e307, 8.090930172009666e307])
        with pytest.raises(PathError) as err:
            add_constant(p, 2.161068974061451e306)
        assert err.value.code == "value-span-overflow"

    def test_combine_union_grid(self):
        f = make_path([0, 2], [1.0, 1.0])
        g = make_path([0, 1, 2], [0.0, 2.0, 2.0])
        h = combine(f, g)
        assert h.times.tolist() == [0, 1, 2]
        assert h.values.tolist() == [1.0, 3.0, 3.0]

    def test_combine_domain_mismatch(self, p1, p3):
        with pytest.raises(PathError):
            combine(p1, p3)


@given(values_st, st.integers(min_value=0, max_value=39))
@settings(deadline=None)
def test_right_continuity(vals, i):
    p = path_from(vals)
    i = i % p.n
    t = float(p.times[i])
    assert evaluate(p, t) == p.values[i]
    if i + 1 < p.n:
        assert evaluate(p, t + 0.5) == p.values[i]


@given(values_st)
@settings(deadline=None)
def test_negation_keeps_total_variation(vals):
    p = path_from(vals)
    assert total_variation(negate(p)) == total_variation(p)


@given(values_st, st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(deadline=None)
def test_shift_keeps_oscillation(vals, alpha):
    p = path_from(vals)
    tol = 1e-9 * max(1.0, osc_norm(p))
    assert abs(osc_norm(add_constant(p, alpha)) - osc_norm(p)) <= tol


@given(values_st, values_st, values_st)
@settings(deadline=None)
def test_sup_distance_is_a_metric(a, b, c):
    n = min(len(a), len(b), len(c))
    f, g, h = (path_from(v[:n]) for v in (a, b, c))
    assert sup_distance(f, g) == sup_distance(g, f)
    assert sup_distance(f, f) == 0.0
    tol = 1e-9 * max(1.0, osc_norm(f), osc_norm(g), osc_norm(h))
    assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h) + tol


@given(values_st)
@settings(deadline=None)
def test_redundant_breakpoints_keep_total_variation(vals):
    p = path_from(vals)
    # refine the grid with midpoints carrying zero contribution
    fine_times = np.sort(np.concatenate([p.times, p.times[:-1] + 0.5]))
    zero = make_path(fine_times, np.zeros(fine_times.size)) if p.n > 1 else p
    refined = combine(p, zero, (1.0, 0.0)) if p.n > 1 else p
    assert total_variation(refined) == pytest.approx(total_variation(p), abs=1e-12)


def test_value_span_overflow_is_rejected():
    # every value is finite, but max - min is not: increments would read inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError) as err:
            make_path([0, 1, 2], [-1e308, 1e308, -1e308])
        assert err.value.code == "value-span-overflow"
        # the widest finite span still builds a path
        wide = make_path([0, 1], [-8e307, 8e307])
    assert osc_norm(wide) == 1.6e308


def test_total_variation_overflow_is_a_path_error_without_warnings():
    # every increment is finite, their sum is not
    path = make_path(np.arange(4000.0), np.tile([0.0, 1e305], 2000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError) as err:
            total_variation(path)
        assert err.value.code == "tv-overflow"
        assert total_variation(make_path([0, 1], [-8e307, 8e307])) == 1.6e308
