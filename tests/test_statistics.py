import itertools
import math
import subprocess
import sys
import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import binom, poisson

from asmux.exceptions import ParameterError, TruncationError
from asmux.multiplexer import MultiplexerSpec, transmission_vector
from asmux.optimize import OptimizerSettings, optimize_pump
import asmux.statistics as model_statistics
from asmux.statistics import (
    MAX_ACCEPTED_COUNT,
    DetectionStrategy,
    PumpProfile,
    _binom_pmf,
    acceptance_weights,
    output_distribution,
    p1_profile_batch,
    required_lmax,
    single_photon_prob,
    source_pmf,
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
            if family == "poisson":  # P(X > l) = P(l + 1, lam)
                tail = gammainc(l_max + 1.0, lams)
            else:
                tail = (lams / (1.0 + lams)) ** (l_max + 1)
            total = source_pmf(family, lams, l_max).sum(axis=-1) + tail
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
        # a thermal mean of 15 needs a cutoff of 428, past the cap of 400
        with pytest.raises(TruncationError):
            required_lmax("thermal", 15.0)


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

    def test_binomial_matches_the_broadcast_expression(self):
        # the same operations in the same order as one broadcast expression
        # with every cell clipped into 0 <= k <= n, so the bits agree
        def reference(k, n, p):
            k, n, p = np.asarray(k), np.asarray(n), np.asarray(p, dtype=float)
            inside = (k >= 0) & (k <= n)
            k, n = np.where(inside, k, 0), np.where(inside, n, 0)
            rest = n - k
            lf = np.array([math.lgamma(i + 1.0) for i in range(int(n.max(initial=0)) + 1)])
            with np.errstate(divide="ignore", invalid="ignore"):
                hits = np.where(k > 0, k * np.log(p), 0.0)
                misses = np.where(rest > 0, rest * np.log1p(-p), 0.0)
            return np.where(inside, np.exp(lf[n] - lf[k] - lf[rest] + hits + misses), 0.0)

        for p in (0.0, 1e-3, 0.3, 0.9, 0.98, 1.0):
            for k, n in (
                (np.arange(-3, 80), np.arange(90)[:, None]),
                (np.array([1, 3, 28])[:, None], np.arange(60)[None, :]),
                (5, 3),
                (0, 0),
            ):
                assert np.array_equal(_binom_pmf(k, n, p), reference(k, n, p))

    def test_binomial_table_holds_two_tables_at_most(self):
        # the (counts x accepted width) table of two thermal units at a mean
        # of 50 under upto:10000 in output_distribution; besides the result,
        # one scratch table and boolean masks
        k, n = np.arange(1723), np.arange(1724)[:, None]
        table_bytes = 8 * k.size * n.size
        _binom_pmf(k[:2], n[:2], 0.9)  # the log-factorial table, grown once
        tracemalloc.start()
        try:
            _binom_pmf(k, n, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table_bytes

    def test_lossless_arm(self):
        # v = 1 passes every photon: the pmf is the identity over (k, l)
        counts, ls = np.arange(6)[:, None], np.arange(9)[None, :]
        cube = _binom_pmf(counts, ls, 1.0)
        assert np.array_equal(cube, binom.pmf(counts, ls, 1.0))
        assert np.array_equal(cube, (counts == ls).astype(float))

    def test_poisson_cutoffs_match_gammainc_search(self):
        # every mean up to the last one the cap can cut, whose tail at 400
        # sits just below 1e-12
        lams = np.concatenate((np.geomspace(1e-3, 275.85, 600), [0.05, 1.0, 20.0, 275.0]))
        for lam in lams.tolist():
            tails = gammainc(np.arange(401) + 1.0, lam)
            expected = int(np.flatnonzero(tails <= 1e-12)[0])
            assert required_lmax("poisson", lam) == expected
        with pytest.raises(TruncationError):
            required_lmax("poisson", 275.857)

    def test_overflow_is_the_upper_binomial_sum(self):
        # one unit: the mass beyond i_max photons is sum_l pmf(l) w(l) P(Bin(l, v) > i_max),
        # over every pair number l (the terms past 80 are below 1e-60)
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.85, n_units=1)
        strategy = DetectionStrategy.threshold()
        lam, i_max = 2.5, 2
        ls = np.arange(81)
        v = 0.9  # the last arm of a chain skips v_t
        exceed = poisson.pmf(ls, lam) * acceptance_weights(strategy, 0.85, 80)
        expected = math.fsum(exceed * binom.sf(i_max, ls, v))
        dist = output_distribution(spec, PumpProfile((lam,)), strategy, i_max=i_max)
        assert dist.truncation_mass == pytest.approx(expected, rel=1e-13)

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


# the per-unit search grid's cutoff rule
TAIL_EPSILON = 1e-12
HARD_CAP = 400


def thermal_cutoff(lam):
    """The thermal cutoff rule written out for one mean, or None above the cap.

    The tail beyond l is r^(l+1) with r = lam / (1 + lam); where r rounds
    to one no cutoff bounds it.
    """
    if lam == 0.0:
        return 0
    ratio = lam / (1.0 + lam)
    if ratio == 1.0:
        return None
    needed = max(math.ceil(math.log(TAIL_EPSILON) / math.log(ratio)) - 1, 0)
    return needed if needed <= HARD_CAP else None


def poisson_cutoff(lam):
    """First l up to the cap whose tail P(X > l) = P(l + 1, lam) is within the bound, or None."""
    if lam == 0.0:
        return 0
    tails = gammainc(np.arange(HARD_CAP + 1) + 1.0, lam)
    within = np.flatnonzero(tails <= TAIL_EPSILON)
    return int(within[0]) if within.size else None


_MEAN_ERROR = "mean photon number must be finite and >= 0, got "


class TestCutoffRule:
    """``required_lmax`` against the cutoff rule written out per mean."""

    @pytest.mark.parametrize("family", ["poisson", "thermal"])
    def test_array_cutoffs_equal_scalar_cutoffs(self, family):
        rng = np.random.default_rng(7)
        lams = np.concatenate(
            ([0.0, 1e-14, 0.0], rng.uniform(0.0, 5.0, 40), np.geomspace(1e-6, 300.0, 60))
        )
        rule = poisson_cutoff if family == "poisson" else thermal_cutoff
        expected = [(lam, rule(lam)) for lam in lams.tolist()]
        cut = [(lam, l_max) for lam, l_max in expected if l_max is not None]
        assert sum(lam == 0.0 for lam, _ in cut) == 2 and len(cut) > 60
        assert [required_lmax(family, lam) for lam, _ in cut] == [l_max for _, l_max in cut]
        for lam, l_max in expected:  # the means no cutoff within the cap bounds
            if l_max is None:
                with pytest.raises(TruncationError):
                    required_lmax(family, lam)

    def test_thermal_cutoffs_equal_scalar_cutoffs_on_many_means(self):
        # from the smallest positive means up to 14, where the cutoff meets the cap
        rng = np.random.default_rng(11)
        lams = np.concatenate(
            (np.geomspace(1e-300, 14.0, 200_000), rng.uniform(0.0, 14.0, 200_000))
        ).tolist()
        expected = [thermal_cutoff(lam) for lam in lams]
        assert [required_lmax("thermal", lam) for lam in lams] == expected
        assert max(expected) == HARD_CAP

    @pytest.mark.parametrize("lam", [275.857, 399.99])
    def test_fixed_row_end_drops_no_tail_that_counts(self, lam):
        # the Poisson cutoff sums a fixed row of counts 0..3 * cap; the mass
        # beyond it is so far below 1e-12 that no tail compared with 1e-12 moves
        beyond = gammainc(3 * HARD_CAP + 1, lam)  # P(X > 3 * cap)
        assert 0.0 <= beyond < 1e-12 * 2.0**-60

    @pytest.mark.parametrize(
        "family,lam,error,message",
        [
            pytest.param(
                "poisson", float("nan"), ParameterError, _MEAN_ERROR + "nan", id="poisson-nan"
            ),
            pytest.param(
                "thermal", -0.5, ParameterError, _MEAN_ERROR + "-0.5", id="thermal--0.5"
            ),
            pytest.param(
                "poisson", float("inf"), ParameterError, _MEAN_ERROR + "inf", id="poisson-inf"
            ),
            pytest.param(  # at the cap
                "poisson", 400.0, TruncationError,
                "Poisson tail at mean 400.0 stays above 1e-12 up to the hard cap 400",
                id="poisson-400.0",
            ),
            pytest.param(  # tail above the bound at the cap
                "poisson", 399.0, TruncationError,
                "Poisson tail at mean 399.0 stays above 1e-12 up to the hard cap 400",
                id="poisson-399.0",
            ),
            pytest.param(  # just past the cap
                "thermal", 14.05, TruncationError,
                "thermal tail at mean 14.05 needs a cutoff of 401, beyond the hard cap 400",
                id="thermal-14.05",
            ),
            pytest.param(  # lam / (1 + lam) rounds to one
                "thermal", 1e17, TruncationError,
                "thermal tail at mean 1e+17 needs a cutoff of inf, beyond the hard cap 400",
                id="thermal-1e+17",
            ),
        ],
    )
    def test_array_cutoffs_raise_the_scalar_errors(self, family, lam, error, message):
        with pytest.raises(error) as raised:
            required_lmax(family, lam)
        assert str(raised.value) == message


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
        # no unit detects 10 000 idlers at a mass above double precision;
        # the series over so many accepted counts stops with that mass
        thd, big = DetectionStrategy.threshold(), DetectionStrategy.accept_up_to(MAX_ACCEPTED_COUNT)
        pump = PumpProfile((0.5, 0.8, 1.1, 1.4))
        for source in ("poisson", "thermal"):
            spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.85, n_units=4, source=source)
            expected = output_distribution(spec, pump, thd)
            got = output_distribution(spec, pump, big)
            np.testing.assert_allclose(got.probs, expected.probs, rtol=1e-14, atol=0.0)
            assert got.truncation_mass == pytest.approx(expected.truncation_mass, rel=1e-13)
            lam = np.array([pump.lambdas])
            assert p1_profile_batch(spec, big, lam) == pytest.approx(
                p1_profile_batch(spec, thd, lam), rel=1e-14, abs=0.0
            )

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
            assert batch == single_photon_prob(spec, pump, strategy)
            assert batch == output_distribution(spec, pump, strategy).probs[1]

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("key", ["spd", "upto:2", "thd", "set:1,3"])
    def test_batch_row_matches_row_alone(self, source, key):
        # every cell is a closed form of its own mean; a shared series
        # cutoff, set by the partner at the search bound, once added terms
        # worth up to 7e-13
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=4, source=source)
        strategy = DetectionStrategy.parse(key)
        profile = np.full(4, 1.0)
        partner = np.full(4, OptimizerSettings().lambda_upper)
        alone = p1_profile_batch(spec, strategy, profile[None, :])[0]
        first = p1_profile_batch(spec, strategy, np.stack([profile, partner]))[0]
        last = p1_profile_batch(spec, strategy, np.stack([partner, profile]))[1]
        assert first == alone
        assert last == alone

    def test_length_mismatch(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        with pytest.raises(ParameterError):
            output_distribution(spec, PumpProfile((0.5, 0.5)), DetectionStrategy.threshold())

    def test_i_max_validation(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError):
            output_distribution(spec, PumpProfile((0.5,)), DetectionStrategy.threshold(), i_max=0)

    def test_large_i_max_pads_zeros(self):
        # a larger i_max moves the mass beyond i_max into the new entries
        # and keeps the others; past the float range they are zeros
        spec = MultiplexerSpec(v_r=0.93, v_b=0.89, v_d=0.91, n_units=2, source="thermal")
        pump = PumpProfile((1.1, 0.9))
        strategy = DetectionStrategy.explicit({1, 3})
        narrow = output_distribution(spec, pump, strategy, i_max=12)
        wide = output_distribution(spec, pump, strategy, i_max=4000)
        assert wide.probs[:13].tolist() == narrow.probs.tolist()
        assert math.fsum(wide.probs[13:]) == pytest.approx(narrow.truncation_mass, rel=1e-13)
        assert wide.truncation_mass == 0.0
        assert 13 < np.flatnonzero(wide.probs)[-1] < 1000

    def test_memory_follows_series_cutoff(self):
        # the per-count tables stop where the mass leaves the float range
        # (about 130 counts here), not at i_max
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
        # the cutoff rule bounds only the search grids: a thermal mean of 20
        # needs a cutoff of 566, past the cap of 400, yet it evaluates, and
        # a search up to that mean refuses
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1, source="thermal")
        thd = DetectionStrategy.threshold()
        dist = output_distribution(spec, PumpProfile((20.0,)), thd)
        assert dist.probs.sum() + dist.truncation_mass == pytest.approx(1.0, abs=1e-13)
        assert dist.truncation_mass > 0.0
        assert dist.probs[1] == p1_profile_batch(spec, thd, np.array([[20.0]]))[0]
        with pytest.raises(TruncationError, match="needs a cutoff of 566"):
            optimize_pump(spec, thd, OptimizerSettings(lambda_upper=20.0))


class TestCountTableBudget:
    """``output_distribution``'s per-count tables stay within a fixed cell budget."""

    @staticmethod
    def refused_peak(spec, lam, strategy):
        """tracemalloc peak of an evaluation that must refuse the pump."""
        output_distribution(spec, PumpProfile.uniform(0.5, spec.n_units), strategy)  # warm caches
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError, match="mean kept-photon number"):
                output_distribution(spec, PumpProfile.uniform(lam, spec.n_units), strategy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("key", ["spd", "thd", "upto:10000"])
    def test_very_bright_pump_is_refused_before_any_table(self, source, key):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source=source)
        assert self.refused_peak(spec, 1e300, DetectionStrategy.parse(key)) < 1_000_000

    def test_units_by_counts_just_past_the_budget(self):
        # the kept-photon mean alone puts units x counts past the budget;
        # at 0.98 of that mean the counts still fit and evaluate
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2)
        lam = model_statistics._COUNT_CELLS / (2 * transmission_vector(spec).max())
        spd = DetectionStrategy.single_photon()
        assert self.refused_peak(spec, lam, spd) < 1_000_000
        dist = output_distribution(spec, PumpProfile.uniform(0.98 * lam, 2), spd)
        assert dist.probs.sum() + dist.truncation_mass == pytest.approx(1.0, abs=1e-12)

    def test_counts_by_width_past_the_budget(self):
        # Poisson 1e4 under upto:10000 needs about 9700 counts of 9700
        # accepted widths; Poisson 1e3 needs about 1200 of 1200
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2)
        strategy = DetectionStrategy.accept_up_to(10_000)
        assert self.refused_peak(spec, 1e4, strategy) < 1_000_000
        dist = output_distribution(spec, PumpProfile.uniform(1e3, 2), strategy)
        assert dist.probs.sum() + dist.truncation_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("key", ["spd", "thd", "upto:3", "set:2,5"])
    def test_blocked_arms_evaluate_without_warnings(self, source, key):
        # past lam v_d ~ 1e16 a thermal unit's chance of no pair with a detected
        # idler and a lost signal rounds to zero, and its log is -inf; the suite
        # runs with warnings as errors, so a stray one fails here
        strategy = DetectionStrategy.parse(key)
        for v_b, lam in itertools.product((0.0, 1e-300), (1e200, 1e308)):
            spec = MultiplexerSpec(v_r=0.9, v_b=v_b, v_d=0.5, n_units=2, source=source)
            pump = PumpProfile.uniform(lam, 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if v_b * lam > 1e7:  # kept photons at a mean of 1e8
                    with pytest.raises(TruncationError, match="mean kept-photon number"):
                        output_distribution(spec, pump, strategy)
                    continue
                dist = output_distribution(spec, pump, strategy)
                assert dist.probs[0] == 1.0
                assert dist.probs[1] == single_photon_prob(spec, pump, strategy)
                assert dist.probs.sum() + dist.truncation_mass == 1.0


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


# Uncut enumeration oracle.  A thermal source with a rational mean has a
# rational pmf, so with rational losses every outcome of a unit has a
# rational probability; Poisson weights are floats summed by fsum.  Each
# unit's pair numbers run to a far cutoff whose source tail is below
# _FAR_TAIL, far below 1e-13 of every compared value.
# Fields: (strategy, accepted counts or None for threshold, v_r, v_t, v_b,
# v_d, pump means, i_max)
_ENUMERATION_CASES = [
    ("spd", {1}, "0.9", "0.985", "0.8", "0.85", ("1/7", "1/6", "1/9"), 10),
    ("thd", None, "0.95", "0.97", "0.9", "0.7", ("1/8", "1/7", "1/10"), 3),
    ("upto:2", {1, 2}, "0.85", "0.985", "0.92", "0.8", ("1/4", "1/5"), 10),
    ("set:1,3", {1, 3}, "0.9", "0.99", "0.85", "0.75", ("1/6", "1/6", "1/9"), 10),
    ("spd", {1}, "0.8", "0.985", "0.9", "0.9", ("1/8", "0", "1/7"), 2),
]
_FAR_TAIL = 1e-40


def _pair_numbers(source, lam):
    """Pair-number pmf up to a cutoff whose tail is below _FAR_TAIL: Fractions
    for thermal, floats for Poisson."""
    if lam == 0:
        return [1]
    if source == "thermal":
        ratio = lam / (1 + lam)
        l_max = 0
        while ratio ** (l_max + 1) >= _FAR_TAIL:
            l_max += 1
        return [lam**l / (1 + lam) ** (l + 1) for l in range(l_max + 1)]
    terms = [math.exp(-lam) * lam**l / math.factorial(l) for l in range(80)]
    l_max = next(l for l in range(80) if math.fsum(terms[l + 1 :]) < _FAR_TAIL)
    return terms[: l_max + 1]


def _binomial(n, k, p):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def _unit_outcomes(source, lam, v_d, v, accepted):
    """(no admission, {photons out: admission with that many}) of one unit.

    Sums every (pairs, detected idlers, surviving signals) outcome: the
    detector and the arm thin the same pairs independently, and the
    signal photons that survive the arm are the unit's output.
    """
    add = sum if source == "thermal" else math.fsum
    quiet, out = [], defaultdict(list)
    for pairs, p in enumerate(_pair_numbers(source, lam)):
        admitted = []
        for d in range(pairs + 1):
            weight = p * _binomial(pairs, d, v_d)
            (admitted if (d >= 1 if accepted is None else d in accepted) else quiet).append(weight)
        if admitted:
            admitted = add(admitted)
            for k in range(pairs + 1):
                out[k].append(admitted * _binomial(pairs, k, v))
    return add(quiet), {k: add(weights) for k, weights in out.items()}


def _enumerate(units, i_max):
    """Output probabilities 0..i_max and the mass beyond i_max, from every joint outcome.

    Walks every joint pattern of admitted and quiet units: the admitted
    unit of lowest index wins and delivers its photons; no admission
    delivers none.
    """
    exact = not isinstance(units[0][0], float)
    add = sum if exact else math.fsum
    probs = [[] for _ in range(i_max + 1)]
    beyond = []
    for pattern in itertools.product((False, True), repeat=len(units)):
        rest = math.prod(
            (add(out.values()) if admitted else quiet)
            for unit, ((quiet, out), admitted) in enumerate(zip(units, pattern))
            if unit != (pattern.index(True) if True in pattern else None)
        )
        if True not in pattern:
            probs[0].append(rest)
            continue
        for k, weight in units[pattern.index(True)][1].items():
            (probs[k] if k <= i_max else beyond).append(rest * weight)
    return [float(add(terms)) for terms in probs], float(add(beyond))


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
        units = [_unit_outcomes(source, lam, v_d, v, accepted) for lam, v in zip(lams, arms)]
        probs, beyond = _enumerate(units, i_max)

        spec = MultiplexerSpec(
            v_r=float(v_r), v_t=float(v_t), v_b=float(v_b), v_d=float(v_d),
            n_units=n, source=source,
        )
        dist = output_distribution(
            spec, PumpProfile(tuple(map(float, lams))), DetectionStrategy.parse(key), i_max=i_max
        )
        np.testing.assert_allclose(dist.probs, probs, rtol=1e-13, atol=0.0)
        assert dist.truncation_mass == pytest.approx(beyond, rel=1e-13, abs=0.0)
