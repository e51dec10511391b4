import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncvar import (
    GeneratorSpec,
    PathError,
    add_constant,
    combine,
    evaluate,
    generate,
    make_path,
    negate,
    osc_norm,
    sup_distance,
    sweep,
    total_variation,
    truncated_variation,
)
from truncvar.path_model import real_numbers

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

    @pytest.mark.parametrize("times, values", [([], [1.0]), ([0.0], [])])
    def test_one_empty_side_is_a_length_mismatch(self, times, values):
        with pytest.raises(PathError) as err:
            make_path(times, values)
        assert err.value.code == "length-mismatch"

    @pytest.mark.parametrize(
        "values",
        [["a", "2"], [[1], [2, 3]], [10**400, 1], ["1", "2"], [b"1", b"2"], np.array(["1", "2"])],
    )
    def test_values_that_are_no_numbers_are_non_finite(self, values):
        with pytest.raises(PathError) as err:
            make_path([0, 1], values)
        assert err.value.code == "non-finite"

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

    @pytest.mark.parametrize(
        "alpha",
        [
            pytest.param(10**400, id="10**400"),
            "a",
            None,
            pytest.param("1", id="str-1"),
            pytest.param(b"1", id="bytes-1"),
            pytest.param(np.str_("1"), id="np.str_-1"),
        ],
    )
    def test_add_constant_rejects_a_shift_that_is_no_finite_number(self, p3, alpha):
        with pytest.raises(PathError) as err:
            add_constant(p3, alpha)
        assert err.value.code == "non-finite"

    def test_combine_union_grid(self):
        f = make_path([0, 2], [1.0, 1.0])
        g = make_path([0, 1, 2], [0.0, 2.0, 2.0])
        h = combine(f, g)
        assert h.times.tolist() == [0, 1, 2]
        assert h.values.tolist() == [1.0, 3.0, 3.0]

    @pytest.mark.parametrize(
        "weights",
        [
            ("a", 1),
            (float("inf"), 1),
            (1, float("nan")),
            (10**400, 1),
            (1e308, 1e308),
            ("0.5", 1),  # finite sums on this path, so only the string is at fault
            (1, b"0.5"),
        ],
    )
    def test_combine_rejects_bad_weights_without_warnings(self, weights):
        f = make_path([0, 1], [1e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PathError) as err:
                combine(f, f, weights)
        assert err.value.code == "non-finite"

    @pytest.mark.parametrize(
        "weights, code",
        [
            ((1, 2, 3), "length-mismatch"),  # the third weight is not dropped
            (np.ones(3), "length-mismatch"),
            ([1], "length-mismatch"),
            ((), "length-mismatch"),
            ([[1.0], [2.0]], "non-finite"),  # two weights, each no number
        ],
    )
    def test_combine_takes_exactly_two_weights(self, p3, weights, code):
        with pytest.raises(PathError) as err:
            combine(p3, p3, weights)
        assert err.value.code == code

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


# the rule of positive_real, which every level, level grid and generator parameter follows
_POSITIVE_REALS = [0.5, 1, np.float32(0.5), np.longdouble(0.5), np.int64(2), np.uint8(1), 10**20]
_NOT_POSITIVE_REALS = [
    True, np.True_, "0.5", None, 0.5 + 0j, Fraction(1, 2), Decimal("0.5"), np.array(0.5),
    np.array([0.5]), np.timedelta64(1), float("nan"), float("inf"), 0, -1, 10**400,
]


def _case_id(v):
    return f"10**{len(str(v)) - 1}" if type(v) is int and v > 10**6 else repr(v)


@pytest.mark.parametrize(
    "x, accepted",
    [(x, True) for x in _POSITIVE_REALS] + [(x, False) for x in _NOT_POSITIVE_REALS],
    ids=_case_id,
)
def test_one_positive_real_rule(p1, x, accepted):
    checks = [
        (lambda: truncated_variation(p1, x), "bad-level"),
        (lambda: sweep(p1, [x]), "bad-level-grid"),
        (lambda: generate(GeneratorSpec("ramp", 3, scale=x)), "bad-generator-spec"),
        (lambda: generate(GeneratorSpec("jump-mixture", 3, extra={"jump_scale": x})),
         "bad-generator-spec"),
    ]
    for call, code in checks:
        if accepted:
            call()
        else:
            with pytest.raises(PathError) as err:
                call()
            assert err.value.code == code
    if accepted:
        assert sweep(p1, [x]).tv_values.tolist() == [truncated_variation(p1, x).tv]


# the rule of every number a path is built from: a time, a value, a shift, a
# weight or the t of evaluate, alone or in a list, a tuple or an int or float array
_REALS = [0.5, -2, 0, -0.0, np.float32(0.5), np.longdouble(0.5), np.int64(-2), np.uint8(1), 10**20]
_NOT_REALS = [
    True, np.True_, "0.5", b"1", None, 0.5 + 0j, Fraction(1, 2), Decimal("0.5"), np.array(0.5),
    np.array([0.5]), np.timedelta64(1), np.datetime64(1, "s"), float("nan"), float("inf"),
    10**400, np.array("1"), np.array(b"1"), memoryview(b"1"), np.str_("1"),
]
_REAL_LISTS = [
    [0.5, 2], (0.5, 2), np.array([0.5, 2]), np.array([1, 2], np.uint8),
    np.array([0.5, 2], np.float32), np.array([0.5, 2], dtype=object),
]
_NOT_REAL_LISTS = [
    np.array(["1", "2"], dtype=object), np.array(["1", "2"]), [True, 2], np.array([True, False]),
    np.array([1 + 0j, 2]), [Fraction(1, 2), 2], [Decimal("0.5"), 2], [np.array(0.5), 2],
    np.array([1, 2], dtype="m8[s]"), np.array([1, 2], dtype="M8[s]"), b"\x01\x02",
    bytearray(b"\x01\x02"), memoryview(b"\x01\x02"), {0.5, 2.0}, {0: 0.5, 1: 2.0}, "12",
    range(1, 3),
]


def _rule_id(v):
    if isinstance(v, np.ndarray):
        return f"array({v.tolist()!r}, {v.dtype.str})"
    if isinstance(v, memoryview):
        return f"memoryview({v.tobytes()!r})"
    return _case_id(v)


@pytest.mark.parametrize(
    "x, accepted, listed",
    [(x, True, False) for x in _REALS] + [(x, False, False) for x in _NOT_REALS]
    + [(x, True, True) for x in _REAL_LISTS] + [(x, False, True) for x in _NOT_REAL_LISTS],
    ids=_rule_id,
)
def test_one_real_number_rule(x, accepted, listed):
    wide = make_path([-1e300, 1e300], [1.0, 2.0])
    if listed:  # taken as its floats, else refused; never taken as one number
        reference = [float(v) for v in x] if accepted else None
        calls = [
            (lambda v: make_path(v, [0.0, 1.0]).times.tolist(), "non-finite"),
            (lambda v: make_path([0, 1], v).values.tolist(), "non-finite"),
            (lambda v: combine(wide, wide, v).values.tolist(), "non-finite"),
        ]
        never = [(lambda v: add_constant(wide, v), "non-finite"),
                 (lambda v: evaluate(wide, v), "outside-domain")]
    else:  # as float(x), else refused
        reference = float(x) if accepted else None
        # a sequence in the list of samples is one more dimension
        entry = "length-mismatch" if np.ndim(x) else "non-finite"
        calls = [
            (lambda v: make_path([v], [0.0]).times.tolist(), entry),
            (lambda v: make_path([0.0], [v]).values.tolist(), entry),
            (lambda v: add_constant(wide, v).values.tolist(), "non-finite"),
            (lambda v: combine(wide, wide, (v, 0)).values.tolist(), "non-finite"),
            (lambda v: combine(wide, wide, (0, v)).values.tolist(), "non-finite"),
            (lambda v: evaluate(wide, v), "outside-domain"),
        ]
        never = []
    for call, code in never if accepted else calls + never:
        with pytest.raises(PathError) as err:
            call(x)
        assert err.value.code == code
    if accepted:
        assert [call(x) for call, _ in calls] == [call(reference) for call, _ in calls]


@pytest.mark.parametrize("values, accepted", [
    ([1.0, True], False),  # a bool is no real number, even among floats
    ([1, 10**400], False),  # an int past float64
    ([1.0, -(2**1024)], False),
    ([1.0, float("inf")], False),
    ([1.0, np.float64(2)], True),  # a numpy scalar takes the entry-by-entry rule
    ((0.5, 10**20, -0.0, 0), True),
    ([], True),
], ids=_case_id)
def test_flat_lists_of_ints_and_floats_keep_the_rule(values, accepted):
    if accepted:
        assert real_numbers(values, "non-finite", "value").tolist() == [float(v) for v in values]
    else:
        with pytest.raises(PathError) as err:
            real_numbers(values, "non-finite", "value")
        assert err.value.code == "non-finite"


def test_flat_list_cast_gives_the_floats_of_the_rule():
    # ints of every size up to float64's range, mixed with floats; the one cast
    # must round each int as float() does, which the entry-by-entry rule uses
    rng = np.random.default_rng(31)
    bases, shifts = rng.integers(-2**62, 2**62, 2000), rng.integers(0, 960, 2000)
    ints = [int(b) << int(s) for b, s in zip(bases, shifts)]
    values = [v if i % 3 else float(v) / 7 for i, v in enumerate(ints)]
    fast = real_numbers(values, "non-finite", "value")
    by_entry = real_numbers(np.array(values, dtype=object), "non-finite", "value")
    assert fast.tobytes() == by_entry.tobytes()
    assert make_path(list(range(len(values))), values).values.tobytes() == fast.tobytes()
