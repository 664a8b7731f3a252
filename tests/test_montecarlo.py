import math

import numpy as np
import pytest

from asmux.exceptions import ParameterError
from asmux.montecarlo import (
    McSettings,
    VALIDATION_CORPUS,
    compare_with_analytic,
    corpus_case,
    simulate,
)
from asmux.multiplexer import MultiplexerSpec, SourceFamily, transmission_vector
from asmux.statistics import DetectionStrategy, PumpProfile

SPD = DetectionStrategy.single_photon()
QUICK = McSettings(trials=200_000, seed=77, chunk_trials=50_000)


def reference_accept_mask(strategy, counts):
    if strategy.is_threshold:
        return counts >= 1
    return np.isin(counts, sorted(strategy.accepted))


def eager_chunk(rng, size, lam, v_arm, v_d, strategy, family, max_count):
    """Reference sampler: every unit is drawn for every trial, then routed.

    One (size, N) draw per quantity, admission by np.isin and priority to
    the smallest admitted index by argmax, so it shares no step with the
    unit-by-unit sampler it checks.
    """
    if family is SourceFamily.POISSON:
        pairs = rng.poisson(lam, size=(size, lam.size))
    else:
        pairs = rng.geometric(1.0 / (1.0 + lam), size=(size, lam.size)) - 1
    admitted = reference_accept_mask(strategy, rng.binomial(pairs, v_d))

    winner = np.argmax(admitted, axis=1)  # smallest admitted index
    has_winner = admitted.any(axis=1)
    out = np.zeros(size, dtype=np.int64)
    if has_winner.any():
        rows = np.flatnonzero(has_winner)
        out[rows] = rng.binomial(pairs[rows, winner[rows]], v_arm[winner[rows]])

    clipped = np.minimum(out, max_count + 1)
    return np.bincount(clipped, minlength=max_count + 2)


# (source, strategy, lambdas): both families, every strategy kind, a
# zero-pump unit inside the chain and chains of 12 and more units
TWO_SAMPLE_CASES = (
    ("poisson", "spd", (0.6, 0.0, 0.9)),
    ("thermal", "thd", (0.3, 0.5, 0.0, 0.7)),
    ("poisson", "upto:2", tuple(0.15 + 0.05 * k for k in range(12))),
    ("thermal", "set:1,3", (0.2,) * 6 + (0.0,) + (0.4,) * 7),
    ("poisson", "set:2", (0.9, 1.0, 0.0, 1.1, 1.2, 1.3)),
    ("thermal", "spd", tuple(0.05 * k for k in range(1, 16))),
)


class TestSimulate:
    def test_zero_pump_is_exact(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        result = simulate(spec, PumpProfile((0.0, 0.0, 0.0)), SPD, QUICK)
        assert result.counts[0] == QUICK.trials
        assert result.overflow == 0
        assert result.estimates[0] == 1.0

    def test_counts_partition_trials(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.85, n_units=4)
        pump = PumpProfile((0.8, 1.0, 1.2, 1.4))
        result = simulate(spec, pump, DetectionStrategy.threshold(), QUICK)
        assert result.counts.sum() + result.overflow == QUICK.trials

    def test_fixed_seed_bit_identical(self):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=2)
        pump = PumpProfile((0.5, 0.7))
        a = simulate(spec, pump, SPD, QUICK)
        b = simulate(spec, pump, SPD, QUICK)
        assert np.array_equal(a.counts, b.counts)
        assert a.overflow == b.overflow

    def test_closed_form_within_three_sigma(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=1.0, n_units=1)
        comparison = compare_with_analytic(spec, PumpProfile((0.5,)), SPD, QUICK)
        expected = 0.5 * math.exp(-0.5) * 0.98
        assert comparison.analytic[1] == pytest.approx(expected, rel=1e-12)
        assert comparison.within(3.0)

    def test_pump_length_checked(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        with pytest.raises(ParameterError):
            simulate(spec, PumpProfile((0.5,)), SPD, QUICK)


class TestLazySampler:
    @pytest.mark.parametrize("index", range(len(TWO_SAMPLE_CASES)))
    def test_matches_eager_reference(self, index):
        source, key, lambdas = TWO_SAMPLE_CASES[index]
        spec = MultiplexerSpec(
            v_r=0.93, v_b=0.9, v_d=0.85, n_units=len(lambdas), source=source
        )
        strategy = DetectionStrategy.parse(key)
        trials = 200_000
        mc = McSettings(trials=trials, seed=500 + index)
        lazy = simulate(spec, PumpProfile(lambdas), strategy, mc)
        eager = eager_chunk(
            np.random.default_rng(900 + index), trials, np.array(lambdas),
            transmission_vector(spec), spec.v_d, strategy, spec.source, mc.max_count,
        )
        lazy_counts = np.append(lazy.counts, lazy.overflow)
        assert lazy_counts.sum() == eager.sum() == trials
        pooled = (lazy_counts + eager) / (2 * trials)
        pooled_se = np.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
        assert np.all(np.abs(lazy_counts - eager) / trials <= 4.0 * pooled_se)

    @pytest.mark.parametrize("key", ["spd", "thd", "upto:3", "set:1,3", "set:2,5"])
    def test_accept_mask_matches_reference(self, key):
        strategy = DetectionStrategy.parse(key)
        counts = np.random.default_rng(3).integers(0, 8, size=(500, 4))
        expected = reference_accept_mask(strategy, counts)
        assert np.array_equal(strategy.accept_mask(counts), expected)


class TestCorpus:
    def test_corpus_shape(self):
        assert len(VALIDATION_CORPUS) == 20
        sources = {entry[5] for entry in VALIDATION_CORPUS}
        assert sources == {"poisson", "thermal"}

    @pytest.mark.parametrize("index", [0, 3, 7, 12, 16, 19])
    def test_sampled_cases_track_analytic(self, index):
        # reduced trial budget: a quick 4-sigma regression per case
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[index])
        mc = McSettings(trials=200_000, seed=seed, chunk_trials=100_000)
        comparison = compare_with_analytic(spec, pump, strategy, mc)
        assert comparison.within(4.0)

    def test_estimates_and_errors_shape(self):
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[0])
        mc = McSettings(trials=50_000, seed=seed)
        result = simulate(spec, pump, strategy, mc)
        assert result.estimates.shape == (mc.max_count + 1,)
        assert result.std_errors.shape == (mc.max_count + 1,)
        assert np.all(result.std_errors >= 0.0)


class TestMcSettings:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            McSettings(trials=100)
        with pytest.raises(ParameterError):
            McSettings(max_count=0)
