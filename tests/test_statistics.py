import itertools
import math
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import binom, poisson

from asmux.exceptions import ParameterError, TruncationError
from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import OptimizerSettings
import asmux.statistics as model_statistics
from asmux.statistics import (
    DEFAULT_TRUNCATION,
    MAX_ACCEPTED_COUNT,
    DetectionStrategy,
    PumpProfile,
    TruncationPolicy,
    _binom_pmf,
    acceptance_weights,
    output_distribution,
    p1_profile_batch,
    required_lmax,
    series_cutoffs,
    single_photon_prob,
    source_pmf,
    source_tail,
)


def random_model(rng, n_max=12, thermal_ok=True):
    """Random spec/pump/strategy spanning the supported loss ranges."""
    n = int(rng.integers(1, n_max + 1))
    source = "thermal" if (thermal_ok and rng.random() < 0.3) else "poisson"
    spec = MultiplexerSpec(
        v_r=rng.uniform(0.8, 0.99),
        v_b=rng.uniform(0.8, 0.98),
        v_d=rng.uniform(0.8, 0.98),
        n_units=n,
        v_t=rng.uniform(0.9, 1.0),
        source=source,
    )
    pump = PumpProfile(tuple(rng.uniform(0.0, 1.5, size=n)))
    pick = rng.random()
    if pick < 0.4:
        strategy = DetectionStrategy.single_photon()
    elif pick < 0.6:
        strategy = DetectionStrategy.threshold()
    elif pick < 0.8:
        strategy = DetectionStrategy.accept_up_to(int(rng.integers(2, 5)))
    else:
        strategy = DetectionStrategy.explicit({1, 3})
    return spec, pump, strategy


def thinned_pmf(family, mean, j):
    """Closed-form pair-number pmf: Poisson or geometric (thermal) at ``mean``."""
    if family == "poisson":
        return float(poisson.pmf(j, mean))
    return mean**j / (1.0 + mean) ** (j + 1)


def detected_pmf(family, lam, v_d, j):
    """Probability of registering exactly ``j`` photons, from the model's kernels."""
    l_max = required_lmax(family, lam)
    if j == 0:
        weights = 1.0 - acceptance_weights(DetectionStrategy.threshold(), v_d, l_max)
    else:
        weights = acceptance_weights(DetectionStrategy.explicit({j}), v_d, l_max)
    return float(source_pmf(family, lam, l_max) @ weights)


class TestPairGenProb:
    """Pair-generation probabilities: the rows of ``source_pmf`` and their tail."""

    def test_poisson_values(self):
        assert source_pmf("poisson", 1.0, 4)[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert source_pmf("poisson", 0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_thermal_values(self):
        assert source_pmf("thermal", 1.0, 4)[2] == pytest.approx(1.0 / 8.0, rel=1e-14)
        assert source_pmf("thermal", 0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_normalization(self):
        # the cut row plus the exact tail beyond it closes to one
        lams = np.array([0.3, 1.0, 2.5])
        for family in ("poisson", "thermal"):
            l_max = required_lmax(family, float(lams.max()))
            total = source_pmf(family, lams, l_max).sum(axis=-1) + source_tail(family, lams, l_max)
            assert np.all(np.abs(total - 1.0) <= 1e-14)

    def test_negative_lambda_rejected(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError):
            required_lmax("poisson", -0.1)
        with pytest.raises(ParameterError):
            p1_profile_batch(spec, DetectionStrategy.single_photon(), np.array([[-0.1]]))

    def test_batch_shape_checks(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2)
        spd = DetectionStrategy.single_photon()
        with pytest.raises(ParameterError, match="profiles have 3 entries but the spec has 2"):
            p1_profile_batch(spec, spd, np.full((4, 3), 0.5))
        assert p1_profile_batch(spec, spd, np.zeros((0, 2))).shape == (0,)


class TestDetectCondProb:
    """Detector response: ``acceptance_weights`` for single accepted counts."""

    def test_examples(self):
        assert acceptance_weights(DetectionStrategy.explicit({1}), 0.98, 1)[1] == pytest.approx(
            0.98, rel=1e-14
        )
        assert acceptance_weights(DetectionStrategy.explicit({1}), 0.9, 2)[2] == pytest.approx(
            0.18, rel=1e-14
        )
        assert acceptance_weights(DetectionStrategy.explicit({3}), 0.9, 2)[2] == 0.0

    def test_large_l_log_path_matches_small_scale_product(self):
        # spot-check a large count against an independent exact product
        v, j, l = 0.9, 40, 80
        direct = math.comb(l, j) * v**j * (1 - v) ** (l - j)
        assert acceptance_weights(DetectionStrategy.explicit({j}), v, l)[l] == pytest.approx(
            direct, rel=1e-10
        )

    def test_edge_efficiencies(self):
        assert acceptance_weights(DetectionStrategy.explicit({3}), 1.0, 3)[3] == 1.0
        assert acceptance_weights(DetectionStrategy.explicit({2}), 1.0, 3)[3] == 0.0
        assert np.all(acceptance_weights(DetectionStrategy.threshold(), 0.0, 5) == 0.0)
        assert np.all(acceptance_weights(DetectionStrategy.single_photon(), 0.0, 5) == 0.0)


class TestTransmitCondProb:
    """Arm loss edges of the transmission cube in ``output_distribution``."""

    def test_examples(self):
        # lossless chain and detector: one pair gives one photon, more give more
        spec = MultiplexerSpec(v_r=1.0, v_b=1.0, v_d=1.0, n_units=3, v_t=1.0)
        lam = 0.7
        pump = PumpProfile.uniform(lam, 3)
        dist = output_distribution(spec, pump, DetectionStrategy.threshold(), i_max=4)
        quiet = math.exp(-3.0 * lam)
        closed = [quiet] + [
            (1.0 - quiet) / (1.0 - math.exp(-lam)) * lam**i * math.exp(-lam) / math.factorial(i)
            for i in range(1, 5)
        ]
        assert np.allclose(dist.probs, closed, rtol=1e-12, atol=0.0)

    def test_blocked_arm(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.0, v_d=0.9, n_units=3)
        pump = PumpProfile((0.5, 1.0, 1.5))
        dist = output_distribution(spec, pump, DetectionStrategy.threshold())
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probs[1:] == 0.0)


class TestDetectTotalProb:
    """Total detection probability: the source pmf marginalized over the detector."""

    def test_perfect_detector(self):
        expected = 0.5 * math.exp(-0.5)
        assert detected_pmf("poisson", 0.5, 1.0, 1) == pytest.approx(expected, rel=1e-12)

    def test_poisson_thinning_identity(self):
        # oracle: thinning a Poisson stream keeps it Poisson at mean lam * v_d
        rng = np.random.default_rng(21)
        for _ in range(25):
            lam = rng.uniform(0.0, 3.0)
            v_d = rng.uniform(0.0, 1.0)
            for j in range(6):
                closed = thinned_pmf("poisson", lam * v_d, j)
                assert detected_pmf("poisson", lam, v_d, j) == pytest.approx(closed, abs=1e-10)

    def test_thermal_thinning_identity(self):
        # geometric pair numbers thin to geometric as well
        rng = np.random.default_rng(22)
        for _ in range(10):
            lam = rng.uniform(0.0, 2.0)
            v_d = rng.uniform(0.1, 1.0)
            for j in range(6):
                closed = thinned_pmf("thermal", lam * v_d, j)
                assert detected_pmf("thermal", lam, v_d, j) == pytest.approx(closed, abs=1e-10)

    def test_zero_pump(self):
        for family in ("poisson", "thermal"):
            assert detected_pmf(family, 0.0, 0.9, 1) == 0.0
            assert detected_pmf(family, 0.0, 0.9, 0) == 1.0

    def test_unreachable_tail_bound(self):
        tight = TruncationPolicy(tail_epsilon=1e-12, l_hard_cap=50)
        with pytest.raises(TruncationError):
            required_lmax("thermal", 5.0, tight)


class TestNumpyKernels:
    """The numpy kernels against scipy's closed forms, which the package does not use."""

    def test_binomial_edges_are_exact(self):
        ks = np.arange(-2, 9)
        for n in (0, 1, 5):
            assert np.array_equal(_binom_pmf(ks, n, 0.0), (ks == 0).astype(float))
            assert np.array_equal(_binom_pmf(ks, n, 1.0), (ks == n).astype(float))
            assert np.array_equal(_binom_pmf(ks, n, 0.7)[ks > n], np.zeros(np.sum(ks > n)))
        assert np.array_equal(_binom_pmf(ks, 0, 0.3), (ks == 0).astype(float))

    def test_binomial_matches_scipy(self):
        for n in (0, 1, 2, 7, 40, 150, 400):
            ks = np.arange(-2, n + 4)
            for p in (0.0, 1e-3, 0.1, 0.5, 0.9, 0.98, 0.999, 1.0):
                np.testing.assert_allclose(
                    _binom_pmf(ks, n, p), binom.pmf(ks, n, p), rtol=1e-11, atol=0.0
                )

    def test_lossless_arm(self):
        # v = 1 passes every photon: the pmf is the identity over (k, l)
        counts, ls = np.arange(6)[:, None], np.arange(9)[None, :]
        cube = _binom_pmf(counts, ls, 1.0)
        assert np.array_equal(cube, binom.pmf(counts, ls, 1.0))
        assert np.array_equal(cube, (counts == ls).astype(float))

    def test_poisson_tail_matches_gammainc(self):
        # P(X > l) = P(l + 1, lam), down to tails of 1e-300
        lams = np.array([0.01, 0.3, 1.0, 3.0, 8.0])
        checked = 0
        for l_max in range(0, 401):
            reference = gammainc(l_max + 1.0, lams)
            keep = reference >= 1e-300
            if not keep.any():
                break
            tails = source_tail("poisson", lams, l_max)
            np.testing.assert_allclose(tails[keep], reference[keep], rtol=1e-12, atol=0.0)
            checked += int(keep.sum())
        assert checked > 500

    def test_poisson_cutoffs_match_gammainc_search(self):
        for lam in np.geomspace(1e-3, 40.0, 25):
            for eps in (1e-12, 1e-9, 5e-7):
                tails = gammainc(np.arange(401) + 1.0, lam)
                expected = int(np.flatnonzero(tails <= eps)[0])
                assert required_lmax("poisson", lam, TruncationPolicy(tail_epsilon=eps)) == expected

    def test_overflow_is_the_upper_binomial_sum(self):
        # one unit: the mass beyond i_max photons is sum_l pmf(l) w(l) P(Bin(l, v) > i_max)
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.85, n_units=1)
        strategy = DetectionStrategy.threshold()
        lam, i_max = 2.5, 2
        l_max = required_lmax("poisson", lam)
        ls = np.arange(l_max + 1)
        v = 0.9  # the last arm of a chain skips v_t
        exceed = poisson.pmf(ls, lam) * acceptance_weights(strategy, 0.85, l_max)
        expected = float(exceed @ binom.sf(i_max, ls, v)) + float(gammainc(l_max + 1.0, lam))
        dist = output_distribution(spec, PumpProfile((lam,)), strategy, i_max=i_max)
        assert dist.truncation_mass == pytest.approx(expected, rel=1e-13)

    def test_cutoff_search_follows_the_cutoff_not_the_cap(self):
        huge_cap = TruncationPolicy(l_hard_cap=10**8)
        tracemalloc.start()
        try:
            l_max = required_lmax("poisson", 1.0, huge_cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert l_max == required_lmax("poisson", 1.0)
        assert peak < 2 * 2**20
        assert model_statistics._log_factorial_table.size < 10**4

    def test_package_imports_no_scipy(self):
        src = Path(model_statistics.__file__).resolve().parents[1]
        probe = (
            "import sys; import asmux; import asmux.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"


def thermal_cutoff(lam, trunc=DEFAULT_TRUNCATION):
    """The thermal cutoff rule written out for one mean, or None above the cap.

    The tail beyond l is r^(l+1) with r = lam / (1 + lam); where r rounds
    to one no cutoff bounds it.
    """
    if lam == 0.0:
        return 0
    ratio = lam / (1.0 + lam)
    if ratio == 1.0:
        return None
    needed = max(math.ceil(math.log(trunc.tail_epsilon) / math.log(ratio)) - 1, 0)
    return needed if needed <= trunc.l_hard_cap else None


def poisson_cutoff(lam, trunc=DEFAULT_TRUNCATION):
    """First l up to the cap whose tail P(X > l) = P(l + 1, lam) is within the bound, or None."""
    if lam == 0.0:
        return 0
    tails = gammainc(np.arange(trunc.l_hard_cap + 1) + 1.0, lam)
    within = np.flatnonzero(tails <= trunc.tail_epsilon)
    return int(within[0]) if within.size else None


_MEAN_ERROR = "mean photon number must be finite and >= 0, got "


class TestSeriesCutoffs:
    """The cutoffs of many means in one call against the rule written out per mean."""

    POLICIES = (
        DEFAULT_TRUNCATION,
        TruncationPolicy(tail_epsilon=5e-7, l_hard_cap=50),
        TruncationPolicy(tail_epsilon=1e-9, l_hard_cap=1000),
    )

    @pytest.mark.parametrize("family", ["poisson", "thermal"])
    @pytest.mark.parametrize("trunc", POLICIES)
    def test_array_cutoffs_equal_scalar_cutoffs(self, family, trunc):
        rng = np.random.default_rng(7)
        lams = np.concatenate(
            ([0.0, 1e-14, 0.0], rng.uniform(0.0, 5.0, 40), np.geomspace(1e-6, 300.0, 60))
        )
        rule = poisson_cutoff if family == "poisson" else thermal_cutoff
        expected = [(lam, rule(lam, trunc)) for lam in lams.tolist()]
        cut = [(lam, l_max) for lam, l_max in expected if l_max is not None]
        means = np.array([lam for lam, _ in cut])
        assert np.sum(means == 0.0) == 2 and means.size > 60
        cutoffs = series_cutoffs(family, means.reshape(-1, 1), trunc)
        assert cutoffs.shape == (means.size, 1)
        assert cutoffs[:, 0].tolist() == [l_max for _, l_max in cut]
        assert [required_lmax(family, lam, trunc) for lam, _ in cut] == cutoffs[:, 0].tolist()
        assert series_cutoffs(family, np.array([]), trunc).shape == (0,)
        for lam, l_max in expected:  # the means no cutoff within the cap bounds
            if l_max is None:
                with pytest.raises(TruncationError):
                    series_cutoffs(family, np.array([0.5, lam]), trunc)

    def test_thermal_cutoffs_equal_scalar_cutoffs_on_many_means(self):
        # the thermal cutoffs are one array expression; each must round as
        # the rule written with math does, from the smallest positive means up to 14
        rng = np.random.default_rng(11)
        lams = np.concatenate(
            (np.geomspace(1e-300, 14.0, 200_000), rng.uniform(0.0, 14.0, 200_000))
        )
        expected = [thermal_cutoff(lam) for lam in lams.tolist()]
        cutoffs = series_cutoffs("thermal", lams)
        assert cutoffs.tolist() == expected
        assert max(expected) == DEFAULT_TRUNCATION.l_hard_cap

    @pytest.mark.parametrize(
        "family,lam,trunc,error,message",
        [
            pytest.param(
                "poisson", float("nan"), DEFAULT_TRUNCATION, ParameterError, _MEAN_ERROR + "nan",
                id="poisson-nan-trunc0",
            ),
            pytest.param(
                "thermal", -0.5, DEFAULT_TRUNCATION, ParameterError, _MEAN_ERROR + "-0.5",
                id="thermal--0.5-trunc1",
            ),
            pytest.param(
                "poisson", float("inf"), DEFAULT_TRUNCATION, ParameterError, _MEAN_ERROR + "inf",
                id="poisson-inf-trunc2",
            ),
            pytest.param(  # at the cap
                "poisson", 400.0, DEFAULT_TRUNCATION, TruncationError,
                "Poisson tail at mean 400.0 stays above 1e-12 up to the hard cap 400",
                id="poisson-400.0-trunc3",
            ),
            pytest.param(  # tail above the bound at the cap
                "poisson", 45.0, TruncationPolicy(l_hard_cap=50), TruncationError,
                "Poisson tail at mean 45.0 stays above 1e-12 up to the hard cap 50",
                id="poisson-45.0-trunc4",
            ),
            pytest.param(
                "thermal", 5.0, TruncationPolicy(l_hard_cap=50), TruncationError,
                "thermal tail at mean 5.0 needs a cutoff of 151, beyond the hard cap 50",
                id="thermal-5.0-trunc5",
            ),
            pytest.param(  # lam / (1 + lam) rounds to one
                "thermal", 1e17, DEFAULT_TRUNCATION, TruncationError,
                "thermal tail at mean 1e+17 needs a cutoff of inf, beyond the hard cap 400",
                id="thermal-1e+17-trunc6",
            ),
        ],
    )
    def test_array_cutoffs_raise_the_scalar_errors(self, family, lam, trunc, error, message):
        with pytest.raises(error) as scalar:
            required_lmax(family, lam, trunc)
        with pytest.raises(error) as array:
            series_cutoffs(family, np.array([0.0, 0.5, lam, 1.0]), trunc)
        assert str(scalar.value) == str(array.value) == message


class TestDetectionStrategy:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            DetectionStrategy.explicit(set())
        with pytest.raises(ParameterError):
            DetectionStrategy.explicit({0, 1})
        with pytest.raises(ParameterError):
            DetectionStrategy.accept_up_to(0)

    def test_accepted_counts_are_bounded_before_the_set_is_built(self):
        # an accepted count above any series cutoff changes nothing, yet its
        # set and weight table grew with it (upto:99999999 got the process killed)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="maximum accepted count must be in"):
                DetectionStrategy.accept_up_to(10**8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ParameterError, match=f"must be <= {MAX_ACCEPTED_COUNT}"):
            DetectionStrategy.explicit({1, MAX_ACCEPTED_COUNT + 1})
        widest = DetectionStrategy.parse(f"upto:{MAX_ACCEPTED_COUNT}")
        assert widest.key == f"upto:{MAX_ACCEPTED_COUNT}"

    def test_weight_table_stops_at_the_cutoff(self):
        # counts above l_max weigh 0; a table of all 10 000 rows took 229 MB
        # at l_max = 400
        widest = DetectionStrategy.accept_up_to(MAX_ACCEPTED_COUNT)
        tracemalloc.start()
        try:
            w = acceptance_weights(widest, 0.87, 61)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(w, acceptance_weights(DetectionStrategy.accept_up_to(61), 0.87, 61))

    def test_accept_up_to_equals_explicit_range(self):
        assert DetectionStrategy.accept_up_to(3) == DetectionStrategy.explicit({1, 2, 3})

    def test_key_round_trip(self):
        for strat in (
            DetectionStrategy.single_photon(),
            DetectionStrategy.threshold(),
            DetectionStrategy.accept_up_to(4),
            DetectionStrategy.explicit({1, 3}),
        ):
            assert DetectionStrategy.parse(strat.key) == strat

    def test_accept_mask(self):
        counts = np.array([0, 1, 2, 3, 4])
        assert DetectionStrategy.threshold().accept_mask(counts).tolist() == [
            False, True, True, True, True]
        assert DetectionStrategy.explicit({1, 3}).accept_mask(counts).tolist() == [
            False, True, False, True, False]


class TestOutputDistribution:
    def test_no_pairs(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        dist = output_distribution(spec, PumpProfile((0.0,)), DetectionStrategy.threshold())
        assert dist.probs[0] == 1.0
        assert np.all(dist.probs[1:] == 0.0)
        assert dist.truncation_mass == 0.0

    def test_perfect_detector_closed_form(self):
        # with v_d = 1 and single-photon heralding, exactly one pair must be
        # generated, and the photon then survives with probability v_b
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=1.0, n_units=1)
        pump = PumpProfile((0.5,))
        dist = output_distribution(spec, pump, DetectionStrategy.single_photon())
        p1_expected = 0.5 * math.exp(-0.5) * 0.98
        assert dist.probs[1] == pytest.approx(p1_expected, rel=1e-12)
        assert dist.probs[0] == pytest.approx(1.0 - p1_expected, rel=1e-12)
        assert np.all(dist.probs[2:] == pytest.approx(0.0, abs=1e-15))

    def test_single_photon_prob_accessor(self):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.85, n_units=3)
        pump = PumpProfile((0.4, 0.6, 0.8))
        strat = DetectionStrategy.accept_up_to(2)
        dist = output_distribution(spec, pump, strat)
        assert single_photon_prob(spec, pump, strat) == dist.probs[1]

    def test_normalization_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            spec, pump, strategy = random_model(rng)
            dist = output_distribution(spec, pump, strategy)
            total = float(dist.probs.sum()) + dist.truncation_mass
            assert abs(total - 1.0) <= 1e-9
            assert np.all(dist.probs >= 0.0) and np.all(dist.probs <= 1.0)

    def test_threshold_equals_large_accept_ceiling(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.85, n_units=4)
        pump = PumpProfile((0.5, 0.8, 1.1, 1.4))
        thd = output_distribution(spec, pump, DetectionStrategy.threshold())
        big = DetectionStrategy.accept_up_to(DEFAULT_TRUNCATION.l_hard_cap)
        acc = output_distribution(spec, pump, big)
        assert np.max(np.abs(thd.probs - acc.probs)) <= 1e-10

    def test_identical_mean_reduction(self):
        # the batch kernel and the canonical evaluator agree on a shared mean
        rng = np.random.default_rng(7)
        for _ in range(10):
            spec, _, strategy = random_model(rng, n_max=8)
            lam = float(rng.uniform(0.0, 1.5))
            general = float(
                p1_profile_batch(spec, strategy, np.full((1, spec.n_units), lam))[0]
            )
            canonical = single_photon_prob(
                spec, PumpProfile.uniform(lam, spec.n_units), strategy
            )
            assert general == pytest.approx(canonical, abs=1e-12)

    def test_monotone_loss_scaling(self):
        # shrinking every arm transmission strictly reduces the one-photon
        # mass at a pump weak enough that multiphoton terms are negligible
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=3)
        pump = PumpProfile((0.001, 0.001, 0.001))
        strat = DetectionStrategy.single_photon()
        base = output_distribution(spec, pump, strat)
        assert base.probs[2:].sum() < 1e-4 * base.probs[1]
        for c in (0.3, 0.7, 0.95):
            shrunk = MultiplexerSpec(
                v_r=spec.v_r, v_b=c * spec.v_b, v_d=spec.v_d,
                n_units=spec.n_units, v_t=spec.v_t,
            )
            assert single_photon_prob(shrunk, pump, strat) < base.probs[1]

    def test_gapped_set_between_neighbours(self):
        # accepting {1,3} admits strictly more than {1} and less than {1,2,3}
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.8, n_units=2)
        pump = PumpProfile((1.2, 1.2))
        p_spd = output_distribution(spec, pump, DetectionStrategy.single_photon()).probs[0]
        p_gap = output_distribution(spec, pump, DetectionStrategy.explicit({1, 3})).probs[0]
        p_full = output_distribution(spec, pump, DetectionStrategy.accept_up_to(3)).probs[0]
        assert p_full < p_gap < p_spd

    def test_batch_matches_canonical(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec, pump, strategy = random_model(rng, n_max=6)
            batch = float(p1_profile_batch(spec, strategy, pump.as_array()[None, :])[0])
            canonical = single_photon_prob(spec, pump, strategy)
            assert batch == pytest.approx(canonical, abs=1e-13)

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("key", ["spd", "upto:2", "thd", "set:1,3"])
    def test_batch_row_matches_row_alone(self, source, key):
        # each row is cut at its own cutoff: a shared cutoff set by the
        # partner at the search bound added series terms worth up to 7e-13
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=4, source=source)
        strategy = DetectionStrategy.parse(key)
        profile = np.full(4, 1.0)
        partner = np.full(4, OptimizerSettings().lambda_upper)
        alone = p1_profile_batch(spec, strategy, profile[None, :])[0]
        first = p1_profile_batch(spec, strategy, np.stack([profile, partner]))[0]
        last = p1_profile_batch(spec, strategy, np.stack([partner, profile]))[1]
        assert abs(first - alone) <= 1e-15
        assert abs(last - alone) <= 1e-15

    def test_length_mismatch(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        with pytest.raises(ParameterError):
            output_distribution(spec, PumpProfile((0.5, 0.5)), DetectionStrategy.threshold())

    def test_i_max_validation(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError):
            output_distribution(spec, PumpProfile((0.5,)), DetectionStrategy.threshold(), i_max=0)

    def test_large_i_max_pads_zeros(self):
        # no output count exceeds the series cutoff: a larger i_max only appends zeros
        spec = MultiplexerSpec(v_r=0.93, v_b=0.89, v_d=0.91, n_units=2, source="thermal")
        pump = PumpProfile((1.1, 0.9))
        strategy = DetectionStrategy.explicit({1, 3})
        l_max = required_lmax(spec.source, 1.1)
        at_cutoff = output_distribution(spec, pump, strategy, i_max=l_max)
        wide = output_distribution(spec, pump, strategy, i_max=400)
        assert wide.probs.tolist() == at_cutoff.probs.tolist() + [0.0] * (400 - l_max)
        assert wide.truncation_mass == at_cutoff.truncation_mass

    def test_memory_follows_series_cutoff(self):
        # the binomial cube stops at the cutoff (about 12 here), not at i_max
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.98, n_units=2)
        pump, strategy = PumpProfile((0.4, 0.7)), DetectionStrategy.single_photon()
        tracemalloc.start()
        try:
            dist = output_distribution(spec, pump, strategy, i_max=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        assert dist.probs.size == 10**5 + 1

    def test_truncation_error(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1, source="thermal")
        tight = TruncationPolicy(tail_epsilon=1e-12, l_hard_cap=50)
        with pytest.raises(TruncationError):
            output_distribution(spec, PumpProfile((5.0,)), DetectionStrategy.threshold(), trunc=tight)


class TestExports:
    def test_every_exported_name_resolves(self):
        import importlib
        import pkgutil

        import asmux

        modules = [asmux] + [
            importlib.import_module(f"asmux.{info.name}")
            for info in pkgutil.iter_modules(asmux.__path__)
        ]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestPolicyAndProfileValidation:
    def test_truncation_policy_invariants(self):
        with pytest.raises(ParameterError):
            TruncationPolicy(tail_epsilon=1e-5)
        with pytest.raises(ParameterError):
            TruncationPolicy(tail_epsilon=0.0)
        with pytest.raises(ParameterError):
            TruncationPolicy(l_hard_cap=10)

    def test_pump_profile_invariants(self):
        with pytest.raises(ParameterError):
            PumpProfile(())
        with pytest.raises(ParameterError):
            PumpProfile((-0.1,))
        with pytest.raises(ParameterError):
            PumpProfile((float("nan"),))
        with pytest.raises(ParameterError, match="finite and >= 0"):
            PumpProfile((0.4, math.inf))
        with pytest.raises(ParameterError, match="sequence of reals"):
            PumpProfile((0.4, "bright"))
        with pytest.raises(ParameterError, match="sequence of reals"):
            PumpProfile(0.4)
        profile = PumpProfile.uniform(0.4, 3)
        assert profile.lambdas == (0.4, 0.4, 0.4)
        assert len(profile) == 3


# Exact enumeration oracle.  A thermal source with a rational mean has a
# rational pmf and tail, so with rational losses the whole output
# distribution is rational; Poisson weights are floats summed by fsum.
# Fields: (strategy, accepted counts or None for threshold, v_r, v_t, v_b,
# v_d, pump means, i_max)
_ENUMERATION_CASES = [
    ("spd", {1}, "0.9", "0.985", "0.8", "0.85", ("1/7", "1/6", "1/9"), 10),
    ("thd", None, "0.95", "0.97", "0.9", "0.7", ("1/8", "1/7", "1/10"), 3),
    ("upto:2", {1, 2}, "0.85", "0.985", "0.92", "0.8", ("1/4", "1/5"), 10),
    ("set:1,3", {1, 3}, "0.9", "0.99", "0.85", "0.75", ("1/6", "1/6", "1/9"), 10),
    ("spd", {1}, "0.8", "0.985", "0.9", "0.9", ("1/8", "0", "1/7"), 2),
]
_ENUMERATION_EPSILON = 5e-7


def _pair_numbers(source, lam, l_max):
    """Pair-number pmf up to ``l_max`` and the mass beyond it: Fractions for
    thermal, floats for Poisson."""
    if source == "thermal":
        pmf = [lam**l / (1 + lam) ** (l + 1) for l in range(l_max + 1)]
        return pmf, (lam / (1 + lam)) ** (l_max + 1)
    terms = [math.exp(-lam) * lam**l / math.factorial(l) for l in range(l_max + 40)]
    return terms[: l_max + 1], math.fsum(terms[l_max + 1 :])


def _enumeration_cutoff(source, lam_max):
    """Smallest cutoff whose source tail is within the enumeration tail bound."""
    l_max = 0
    while _pair_numbers(source, lam_max, l_max)[1] > _ENUMERATION_EPSILON:
        l_max += 1
    return l_max


def _unit_outcomes(source, lam, v_d, accepted, l_max):
    """(pairs, admitted, weight) of every outcome of one unit.

    Each pair number up to ``l_max`` comes with every detected count;
    one last outcome, with ``pairs`` None, holds every pair number beyond
    the cutoff.
    """
    pmf, tail = _pair_numbers(source, lam, l_max)
    outcomes = []
    for pairs, p in enumerate(pmf):
        for d in range(pairs + 1):
            admitted = d >= 1 if accepted is None else d in accepted
            detect = math.comb(pairs, d) * v_d**d * (1 - v_d) ** (pairs - d)
            outcomes.append((pairs, admitted, p * detect))
    outcomes.append((None, False, tail))
    return outcomes


def _enumerate(units, arms, i_max):
    """Output probabilities 0..i_max and the truncation mass, from every joint outcome.

    The admitted unit of lowest index wins; each of its pairs' photons
    then survives its arm independently.  Outcomes in which a unit beyond
    the cutoff comes before any admitted unit, and outputs above
    ``i_max``, make up the truncation mass.
    """
    exact = isinstance(units[0][0][2], Fraction)
    scale = Fraction(1) if exact else 1.0
    if exact:
        # integer weights over one denominator per unit make every joint
        # weight an integer product; Fraction products would take seconds
        scaled = []
        for outcomes in units:
            den = math.lcm(*(w.denominator for _, _, w in outcomes))
            scaled.append([(l, a, w.numerator * (den // w.denominator)) for l, a, w in outcomes])
            scale /= den
        units = scaled
    joint_weights = defaultdict(list)  # winner and its pairs, "none" or "cut"
    for joint in itertools.product(*units):
        key = "none"
        for unit, (pairs, admitted, _) in enumerate(joint):
            if pairs is None or admitted:
                key = "cut" if pairs is None else (unit, pairs)
                break
        joint_weights[key].append(math.prod(w for _, _, w in joint))
    add = sum if exact else math.fsum
    mass = {key: add(ws) * scale for key, ws in joint_weights.items()}
    probs = [[] for _ in range(i_max + 1)]
    probs[0].append(mass.pop("none", 0))
    truncation = [mass.pop("cut", 0)]
    for (unit, pairs), m in mass.items():
        v = arms[unit]
        for i in range(pairs + 1):
            term = m * math.comb(pairs, i) * v**i * (1 - v) ** (pairs - i)
            (probs[i] if i <= i_max else truncation).append(term)
    return [float(add(terms)) for terms in probs], float(add(truncation))


class TestExactEnumeration:
    @pytest.mark.parametrize("source", ["thermal", "poisson"])
    @pytest.mark.parametrize(
        "case", _ENUMERATION_CASES, ids=["spd", "thd-i_max-3", "upto:2", "set:1,3", "zero-pump"]
    )
    def test_output_distribution_matches_enumeration(self, source, case):
        key, accepted, v_r, v_t, v_b, v_d, lambdas, i_max = case
        v_r, v_t, v_b, v_d = map(Fraction, (v_r, v_t, v_b, v_d))
        lams = [Fraction(lam) for lam in lambdas]
        if source == "poisson":
            v_r, v_t, v_b, v_d = map(float, (v_r, v_t, v_b, v_d))
            lams = list(map(float, lams))
        n = len(lams)
        arms = [v_b * v_t * v_r**k for k in range(n - 1)] + [v_b * v_r ** (n - 1)]
        l_max = _enumeration_cutoff(source, max(lams))
        units = [_unit_outcomes(source, lam, v_d, accepted, l_max) for lam in lams]
        probs, truncation = _enumerate(units, arms, i_max)

        spec = MultiplexerSpec(
            v_r=float(v_r), v_t=float(v_t), v_b=float(v_b), v_d=float(v_d),
            n_units=n, source=source,
        )
        dist = output_distribution(
            spec,
            PumpProfile(tuple(map(float, lams))),
            DetectionStrategy.parse(key),
            i_max=i_max,
            trunc=TruncationPolicy(tail_epsilon=_ENUMERATION_EPSILON),
        )
        np.testing.assert_allclose(dist.probs, probs, rtol=1e-13, atol=0.0)
        assert dist.truncation_mass == pytest.approx(truncation, rel=1e-13, abs=0.0)
