import numpy as np
import pytest

from asmux.exceptions import ParameterError
from asmux.multiplexer import MultiplexerSpec, SourceFamily, transmission_vector


def arm_transmission(spec: MultiplexerSpec, n: int) -> float:
    """Total transmission of arm ``n`` (1-based), straight from the loss model.

    Every arm carries the common factor ``v_b`` and one reflection per
    router between it and the output.  All arms but the last also pass
    one router through-port (``v_t``); the last arm enters the chain at
    its far end.  A single-unit system has no routers.
    """
    value = spec.v_b
    for _ in range(n - 1):
        value *= spec.v_r
    if n < spec.n_units:
        value *= spec.v_t
    return value


class TestArmTransmission:
    def test_first_arm_carries_through_factor(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=2, v_t=0.985)
        assert transmission_vector(spec)[0] == pytest.approx(0.98 * 0.985, abs=1e-15)

    def test_single_unit_has_no_routers(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=1, v_t=0.985)
        assert transmission_vector(spec)[0] == pytest.approx(0.98, abs=1e-15)

    def test_last_arm_of_chain(self):
        spec = MultiplexerSpec(v_r=0.8, v_b=0.8, v_d=0.9, n_units=5, v_t=0.985)
        expected = arm_transmission(spec, 5)
        assert expected == pytest.approx(0.8 * 0.8**4, rel=1e-12)  # 0.32768
        assert transmission_vector(spec)[4] == pytest.approx(expected, rel=1e-12)


class TestTransmissionVector:
    def test_lossless(self):
        spec = MultiplexerSpec(v_r=1.0, v_b=1.0, v_d=1.0, n_units=3, v_t=1.0)
        assert np.allclose(transmission_vector(spec), [1.0, 1.0, 1.0])

    def test_matches_direct_formula(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=3, v_t=0.985)
        expected = [arm_transmission(spec, n) for n in (1, 2, 3)]
        # last arm drops the through factor and so exceeds the one before it
        assert expected[2] > expected[1]
        assert np.allclose(transmission_vector(spec), expected, rtol=1e-13)

    def test_single_unit(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1, v_t=0.985)
        assert np.allclose(transmission_vector(spec), [0.9])

    def test_elementwise_agreement_with_arm_transmission(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec = MultiplexerSpec(
                v_r=rng.uniform(0.5, 1.0),
                v_b=rng.uniform(0.5, 1.0),
                v_d=rng.uniform(0.5, 1.0),
                n_units=int(rng.integers(1, 12)),
                v_t=rng.uniform(0.5, 1.0),
            )
            vec = transmission_vector(spec)
            for n in range(1, spec.n_units + 1):
                assert vec[n - 1] == pytest.approx(arm_transmission(spec, n), rel=1e-12)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spec = MultiplexerSpec(
                v_r=rng.uniform(0.5, 1.0),
                v_b=rng.uniform(0.5, 1.0),
                v_d=0.9,
                n_units=int(rng.integers(2, 15)),
                v_t=rng.uniform(0.5, 1.0),
            )
            vec = transmission_vector(spec)
            assert np.all(vec >= 0.0) and np.all(vec <= spec.v_b + 1e-15)
            # chained part (all but the last arm) never increases
            assert np.all(np.diff(vec[:-1]) <= 1e-15)


class TestSpecValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ParameterError):
            MultiplexerSpec(v_r=1.2, v_b=0.9, v_d=0.9, n_units=2)
        with pytest.raises(ParameterError):
            MultiplexerSpec(v_r=0.9, v_b=-0.1, v_d=0.9, n_units=2)

    def test_rejects_bad_unit_count(self):
        with pytest.raises(ParameterError):
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=0)
        with pytest.raises(ParameterError):
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2.5)

    def test_source_coercion(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source="thermal")
        assert spec.source is SourceFamily.THERMAL
        with pytest.raises(ParameterError):
            MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source="squeezed")

    def test_with_units(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2)
        assert spec.with_units(7).n_units == 7
        with pytest.raises(ParameterError):
            spec.with_units(0)
