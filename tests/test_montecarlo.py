import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from asmux.exceptions import ParameterError, TruncationError
from asmux.montecarlo import (
    McComparison,
    McSettings,
    VALIDATION_CORPUS,
    _poisson_hazard,
    compare_with_analytic,
    corpus_case,
    simulate,
)
from asmux.multiplexer import MultiplexerSpec, SourceFamily, transmission_vector
from asmux.statistics import DetectionStrategy, PumpProfile, output_distribution

SPD = DetectionStrategy.single_photon()
QUICK = McSettings(trials=200_000, seed=77)


def reference_accept_mask(strategy, counts):
    if strategy.is_threshold:
        return counts >= 1
    return np.isin(counts, sorted(strategy.accepted))


def eager_chunk(rng, size, lam, v_arm, v_d, strategy, family, max_count):
    """Reference sampler: every unit is drawn for every trial, then routed.

    One (size, N) draw per quantity, admission by np.isin and priority to
    the smallest admitted index by argmax, so it shares no step with the
    count sampler it checks.
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


def lazy_chunk(rng, size, lam, v_arm, v_d, strategy, family, max_count):
    """Reference sampler: one draw per trial, unit by unit.

    Each unit is drawn only for the trials that no earlier unit
    admitted, but every one of those trials gets its own pair number,
    detected count and output count.
    """
    counts = np.zeros(max_count + 2, dtype=np.int64)
    pending = size
    for lam_k, v_k in zip(lam, v_arm):
        if family is SourceFamily.POISSON:
            pairs = rng.poisson(lam_k, size=pending)
        else:
            pairs = rng.geometric(1.0 / (1.0 + lam_k), size=pending) - 1
        detected = rng.binomial(pairs, v_d)
        heralded = pairs[strategy.accept_mask(detected)]
        out = rng.binomial(heralded, v_k)
        counts += np.bincount(np.minimum(out, max_count + 1), minlength=max_count + 2)
        pending -= heralded.size
        if pending == 0:
            break
    counts[0] += pending
    return counts


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

    def test_stops_once_every_trial_is_admitted(self, monkeypatch):
        # a bright first unit behind a perfect detector admits every trial;
        # with lossless through paths its arm is the one-unit arm, so no
        # later unit is drawn and the seeded counts are the one-unit run's
        import asmux.montecarlo

        thd = DetectionStrategy.threshold()
        mc = McSettings(trials=100_000, seed=11)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=1.0, v_t=1.0, n_units=1)
        one = simulate(spec, PumpProfile((50.0,)), thd, mc)
        draws = []
        draw = asmux.montecarlo._pair_histogram
        monkeypatch.setattr(
            asmux.montecarlo, "_pair_histogram", lambda *args: draws.append(args) or draw(*args)
        )
        three = simulate(spec.with_units(3), PumpProfile((50.0, 0.5, 0.5)), thd, mc)
        assert len(draws) == 1
        assert np.array_equal(three.counts, one.counts)
        assert three.overflow == one.overflow

    def test_billion_trials_in_bounded_memory(self):
        # the sampler keeps group counts, never one entry per trial
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[5])
        mc = McSettings(trials=1_000_000_000, seed=seed)
        tracemalloc.start()
        try:
            result = simulate(spec, pump, strategy, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert result.counts.sum() + result.overflow == mc.trials

    def test_memory_follows_pair_groups_not_max_count(self):
        # no trial carries more photons than its pair groups allow, so the
        # arm tables stop there however large max_count is
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[0])
        mc = McSettings(trials=1000, seed=seed, max_count=10**5)
        tracemalloc.start()
        try:
            result = simulate(spec, pump, strategy, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert result.counts.size == mc.max_count + 1
        assert result.counts.sum() + result.overflow == mc.trials

    def test_bright_thermal_pump_completes(self):
        # about a thousand pair-number groups per unit at lambda = 50
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3, source="thermal")
        mc = McSettings(trials=1_000_000_000, seed=5)
        result = simulate(spec, PumpProfile((50.0,) * 3), SPD, mc)
        assert result.counts.sum() + result.overflow == mc.trials


class TestPoissonHazard:
    @pytest.mark.parametrize("lam", [0.05, 0.7, 3.0, 50.0])
    def test_matches_pmf_over_survival(self, lam):
        for pairs in range(int(3 * lam) + 20):
            expected = stats.poisson.pmf(pairs, lam) / stats.poisson.sf(pairs - 1, lam)
            assert _poisson_hazard(lam, pairs) == pytest.approx(expected, rel=1e-12)

    def test_far_tail_tends_to_one(self):
        # P(X >= l) underflows long before here; the hazard does not
        hazard = _poisson_hazard(2.0, 400)
        assert 1.0 - hazard == pytest.approx(2.0 / 401, rel=1e-2)


def assert_two_sample_agree(counts, reference, trials):
    """Every bucket within 4 pooled standard errors of the reference."""
    assert counts.sum() == reference.sum() == trials
    pooled = (counts + reference) / (2 * trials)
    pooled_se = np.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
    assert np.all(np.abs(counts - reference) / trials <= 4.0 * pooled_se)


class TestLazySampler:
    """The count sampler, which like the per-trial references draws each
    unit only for pending trials, against both references."""

    @staticmethod
    def _sampled(index, reference):
        source, key, lambdas = TWO_SAMPLE_CASES[index]
        spec = MultiplexerSpec(
            v_r=0.93, v_b=0.9, v_d=0.85, n_units=len(lambdas), source=source
        )
        strategy = DetectionStrategy.parse(key)
        trials = 200_000
        mc = McSettings(trials=trials, seed=500 + index)
        result = simulate(spec, PumpProfile(lambdas), strategy, mc)
        expected = reference(
            np.random.default_rng(900 + index), trials, np.array(lambdas),
            transmission_vector(spec), spec.v_d, strategy, spec.source, mc.max_count,
        )
        return np.append(result.counts, result.overflow), expected, trials

    @pytest.mark.parametrize("index", range(len(TWO_SAMPLE_CASES)))
    def test_matches_eager_reference(self, index):
        assert_two_sample_agree(*self._sampled(index, eager_chunk))

    @pytest.mark.parametrize("index", range(len(TWO_SAMPLE_CASES)))
    def test_matches_lazy_reference(self, index):
        assert_two_sample_agree(*self._sampled(index, lazy_chunk))

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
        mc = McSettings(trials=200_000, seed=seed)
        comparison = compare_with_analytic(spec, pump, strategy, mc)
        assert comparison.within(4.0)

    def test_estimates_and_errors_shape(self):
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[0])
        mc = McSettings(trials=50_000, seed=seed)
        result = simulate(spec, pump, strategy, mc)
        assert result.estimates.shape == (mc.max_count + 1,)

    def test_model_refuses_before_sampling(self, monkeypatch):
        # a Poisson mean above the hard cap used to cost a full sampler pass first
        import asmux.montecarlo

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the model refused the input")

        monkeypatch.setattr(asmux.montecarlo, "simulate", no_sampling)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(TruncationError):
            compare_with_analytic(spec, PumpProfile((1e5,)), SPD, McSettings(trials=1000))


# The 1e9-trial oracle: two tests at a false-alarm rate of 1e-3 each, so
# the exact model fails it with probability at most 2e-3.
BILLION = McSettings(trials=1_000_000_000)
FALSE_ALARM = 1e-3
MIN_EXPECTED = 20.0


def _cells(comparison):
    """Observed and expected counts of buckets 0..max_count and overflow."""
    trials = comparison.result.trials
    observed = np.append(comparison.result.counts, comparison.result.overflow)
    probs = np.append(comparison.analytic, max(1.0 - comparison.analytic.sum(), 0.0))
    return observed, trials * probs, probs


def bonferroni_failures(comparisons):
    """Buckets 0..max_count whose exact two-sided binomial p-value is
    below FALSE_ALARM / (number of buckets over all cases)."""
    buckets = sum(c.analytic.size for c in comparisons)
    failures = []
    for index, comparison in enumerate(comparisons):
        observed, _, probs = _cells(comparison)
        trials = comparison.result.trials
        for bucket in range(comparison.analytic.size):
            k, p = observed[bucket], probs[bucket]
            tail = min(stats.binom.cdf(k, trials, p), stats.binom.sf(k - 1, trials, p))
            if 2.0 * tail < FALSE_ALARM / buckets:
                failures.append((index, bucket))
    return failures


def pooled_chi2(comparisons):
    """Pearson chi-square summed over independent cases, and its p-value.

    The cells of a case are its buckets (overflow included) with at
    least MIN_EXPECTED expected counts, plus one cell for the rest;
    that cell joins the smallest kept cell when it falls short itself.
    Merged cells of a multinomial are again multinomial, so each case
    contributes cells - 1 degrees of freedom.
    """
    statistic, dof = 0.0, 0
    for comparison in comparisons:
        observed, expected, _ = _cells(comparison)
        keep = expected >= MIN_EXPECTED
        obs, exp = list(observed[keep]), list(expected[keep])
        rest_obs, rest_exp = observed[~keep].sum(), expected[~keep].sum()
        if rest_exp >= MIN_EXPECTED:
            obs.append(rest_obs)
            exp.append(rest_exp)
        else:
            smallest = int(np.argmin(exp))
            obs[smallest] += rest_obs
            exp[smallest] += rest_exp
        obs, exp = np.array(obs, dtype=float), np.array(exp)
        statistic += float(np.sum((obs - exp) ** 2 / exp))
        dof += obs.size - 1
    return statistic, dof, float(stats.chi2.sf(statistic, dof))


def _billion_trial_corpus(v_t_error=0.0):
    """Every corpus case at 1e9 trials; the analytic side may use a v_t
    off by ``v_t_error`` relative while the sampler uses the true one."""
    comparisons = []
    for entry in VALIDATION_CORPUS:
        spec, pump, strategy, seed = corpus_case(entry)
        mc = dataclasses.replace(BILLION, seed=seed)
        result = simulate(spec, pump, strategy, mc)
        model = dataclasses.replace(spec, v_t=spec.v_t * (1.0 + v_t_error))
        dist = output_distribution(model, pump, strategy, i_max=mc.max_count)
        comparisons.append(McComparison(result=result, analytic=dist.probs))
    return comparisons


class TestBillionTrialOracle:
    def test_exact_model_passes(self):
        comparisons = _billion_trial_corpus()
        assert sum(c.analytic.size for c in comparisons) == 220
        statistic, dof, p_value = pooled_chi2(comparisons)
        print(
            f"1e9-trial oracle: chi2 {statistic:.1f} on {dof} dof (p={p_value:.3g}); "
            f"family-wise false-alarm rate <= {2 * FALSE_ALARM:g}"
        )
        assert bonferroni_failures(comparisons) == []
        assert p_value >= FALSE_ALARM

    def test_rejects_v_t_error_of_2e_4(self):
        comparisons = _billion_trial_corpus(v_t_error=2e-4)
        _, _, p_value = pooled_chi2(comparisons)
        assert bonferroni_failures(comparisons)
        assert p_value < FALSE_ALARM


class TestMcSettings:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            McSettings(trials=100)
        with pytest.raises(ParameterError):
            McSettings(max_count=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            McSettings(seed=-1)

    def test_trials_beyond_int64_rejected(self):
        McSettings(trials=2**63 - 1)
        with pytest.raises(ParameterError, match="trials"):
            McSettings(trials=2**63)
