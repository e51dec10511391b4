import warnings

import numpy as np
import pytest

from truncvar import (
    GeneratorSpec,
    PathError,
    generate,
    oracle_truncated_variation,
    splitmix64,
    truncated_variation,
    uniform_stream,
)

# reference outputs of the published algorithm for seed 0
_SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_known_answers():
    assert splitmix64(0, 3).tolist() == _SPLITMIX64_SEED0


def test_splitmix64_counter_mode_is_consistent():
    whole = splitmix64(42, 10)
    assert splitmix64(42, 4, start=6).tolist() == whole[6:].tolist()


def test_uniforms_in_unit_interval():
    u = uniform_stream(7, 1000)
    assert np.all((u >= 0.0) & (u < 1.0))


def test_ramp_example():
    p = generate(GeneratorSpec("ramp", 3, scale=1.0))
    assert p.times.tolist() == [0.0, 1.0, 2.0]
    assert p.values.tolist() == [0.0, 1.0, 2.0]


def test_determinism_byte_identical():
    a = generate(GeneratorSpec("random-walk", 5, seed=42))
    b = generate(GeneratorSpec("random-walk", 5, seed=42))
    assert a.values.tobytes() == b.values.tobytes()
    assert a.times.tobytes() == b.times.tobytes()


def test_different_seeds_differ():
    a = generate(GeneratorSpec("random-walk", 50, seed=1))
    b = generate(GeneratorSpec("random-walk", 50, seed=2))
    assert a.values.tobytes() != b.values.tobytes()


def test_jump_mixture_deterministic_and_valid():
    spec = GeneratorSpec("jump-mixture", 200, seed=9, scale=0.2)
    a = generate(spec)
    b = generate(spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert np.isfinite(a.values).all()


@pytest.mark.parametrize("ratio,expect_zero", [(0.999, True), (1.01, False)])
def test_oscillator_straddles_the_trigger(ratio, expect_zero):
    target = 0.7
    spec = GeneratorSpec(
        "near-threshold-oscillator",
        64,
        extra={"target_level": target, "amplitude_ratio": ratio},
    )
    p = generate(spec)
    fast = truncated_variation(p, target).tv
    ref = oracle_truncated_variation(p, target).tv
    if expect_zero:
        assert fast == 0.0
        assert ref == 0.0
    else:
        assert fast > 0.0
        assert ref > 0.0


def test_unknown_kind_rejected():
    with pytest.raises(PathError) as err:
        generate(GeneratorSpec("brownian", 10))
    assert err.value.code == "unknown-generator"


@pytest.mark.parametrize("spec", [
    GeneratorSpec("ramp", 3, scale=1.7976931348623157e308),
    GeneratorSpec("random-walk", 1000, seed=1, scale=1e308),
    GeneratorSpec("jump-mixture", 1000, seed=1, scale=1e300, extra={"jump_scale": 1e10}),
    GeneratorSpec("near-threshold-oscillator", 4,
                  extra={"target_level": 1e308, "amplitude_ratio": 10.0}),
], ids=lambda spec: spec.kind)
def test_overflowing_values_are_a_bad_spec_without_warnings(spec):
    # each knob passes the positive-real rule, but the path it makes does not fit float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PathError) as err:
            generate(spec)
    assert err.value.code == "bad-generator-spec"


def test_bad_spec_rejected():
    for spec in (
        GeneratorSpec("ramp", 0),
        GeneratorSpec("ramp", 5, scale=0.0),
        GeneratorSpec("ramp", 5, extra={"nope": 1.0}),
        GeneratorSpec("jump-mixture", 5, extra={"jump_prob": 2.0}),
        GeneratorSpec("ramp", 10**19),  # too long: fails before anything is allocated
        # length and seed are integers, not bools
        GeneratorSpec("ramp", 5.7),
        GeneratorSpec("ramp", "5"),
        GeneratorSpec("ramp", True),
        GeneratorSpec("ramp", None),
        GeneratorSpec("ramp", 5, seed="3"),
        GeneratorSpec("ramp", 5, seed=2.5),
        GeneratorSpec("ramp", 5, seed=None),
        # scale and the knobs are positive reals by the rule of Level
        GeneratorSpec("ramp", 5, scale=True),
        GeneratorSpec("ramp", 5, scale="2"),
        GeneratorSpec("ramp", 5, scale=10**400),
        GeneratorSpec("jump-mixture", 5, extra={"jump_scale": True}),
        GeneratorSpec("jump-mixture", 5, extra={"jump_scale": "x"}),
        GeneratorSpec("jump-mixture", 5, extra={"jump_prob": "0.5"}),
        GeneratorSpec("near-threshold-oscillator", 5, extra={"target_level": None}),
        GeneratorSpec("near-threshold-oscillator", 5, extra={"amplitude_ratio": 10**400}),
        # extra is a mapping of knobs
        GeneratorSpec("ramp", 3, extra=None),
        GeneratorSpec("ramp", 3, extra=5),
        GeneratorSpec("jump-mixture", 3, extra=["jump_prob"]),
    ):
        with pytest.raises(PathError) as err:
            generate(spec)
        assert err.value.code == "bad-generator-spec"
