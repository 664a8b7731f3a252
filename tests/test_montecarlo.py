import dataclasses
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from asmux.exceptions import ParameterError, TruncationError
from asmux.montecarlo import (
    McComparison,
    McSettings,
    VALIDATION_CORPUS,
    _poisson_hazard,
    _thin,
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

    def test_kept_results_hold_only_their_counts(self):
        # a caller may keep many comparisons: no view of the run's totals,
        # no per-instance dict
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=2)
        comparison = compare_with_analytic(spec, PumpProfile((0.5, 0.7)), SPD, QUICK)
        assert comparison.result.counts.base is None
        assert comparison.result.counts.size == QUICK.max_count + 1
        assert not hasattr(comparison, "__dict__")
        assert not hasattr(comparison.result, "__dict__")

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

    def test_memory_follows_pair_groups_not_accepted_count(self):
        # no trial detects more photons than its pair groups allow, so the
        # detection table stops there however large the accepted counts
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3, source="thermal")
        pump = PumpProfile((5.0,) * 3)
        mc = McSettings(trials=1_000_000, seed=11)
        tracemalloc.start()
        try:
            wide = simulate(spec, pump, DetectionStrategy.accept_up_to(10_000), mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000
        # about 80 pair groups at this pump and trial count
        narrow = simulate(spec, pump, DetectionStrategy.accept_up_to(400), mc)
        assert np.array_equal(wide.counts, narrow.counts)
        assert wide.overflow == narrow.overflow

    def test_bright_thermal_pump_completes(self):
        # about a thousand pair-number groups per unit at lambda = 50
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3, source="thermal")
        mc = McSettings(trials=1_000_000_000, seed=5)
        result = simulate(spec, PumpProfile((50.0,) * 3), SPD, mc)
        assert result.counts.sum() + result.overflow == mc.trials

    def test_bright_poisson_pump_refused_before_any_draw(self, monkeypatch):
        # about 1e5 pair groups, each re-summing a series of about 1e5 terms
        import asmux.montecarlo

        def no_draws(*args):
            raise AssertionError("drew pairs before refusing the pump")

        monkeypatch.setattr(asmux.montecarlo, "_pair_histogram", no_draws)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        start = time.perf_counter()
        with pytest.raises(TruncationError, match="2048 pair-number groups"):
            simulate(spec, PumpProfile((1e5,)), SPD, McSettings(trials=1000, seed=1))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "source,admitted,refused", [("thermal", 58.0, 59.0), ("poisson", 1690.0, 1700.0)]
    )
    def test_largest_mean_decides_the_pair_group_bound(
        self, monkeypatch, source, admitted, refused
    ):
        # the documented edges at 1e9 trials; the other unit's mean is small
        import asmux.montecarlo

        class Drawing(Exception):
            pass

        def drawing(*args):
            raise Drawing

        monkeypatch.setattr(asmux.montecarlo, "_pair_histogram", drawing)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source=source)
        mc = McSettings(trials=1_000_000_000)
        with pytest.raises(Drawing):
            simulate(spec, PumpProfile((0.5, admitted)), SPD, mc)
        with pytest.raises(TruncationError):
            simulate(spec, PumpProfile((0.5, refused)), SPD, mc)


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


def full_walk_thin(rng, groups, p, cap):
    """Reference thinning: one binomial layer per photon, to the largest group."""
    table = np.zeros((len(groups), cap + 1), dtype=np.int64)
    table[:, 0] = groups
    for photon in range(len(groups) - 1):
        below_cap = table[photon + 1 :, :cap]
        moved = rng.binomial(below_cap, p)
        below_cap -= moved
        table[photon + 1 :, 1:] += moved
    return table


def array_walk_thin(rng, groups, p, cap):
    """Reference thinning: one array binomial call per layer, up to the first layer with no trial below the cap."""
    table = np.zeros((len(groups), cap + 1), dtype=np.int64)
    table[:, 0] = groups
    for photon in range(len(groups) - 1):
        below_cap = table[photon + 1 :, :cap]
        if not np.count_nonzero(below_cap):
            break
        moved = rng.binomial(below_cap, p)
        below_cap -= moved
        table[photon + 1 :, 1:] += moved
    return table


class CountingDraws:
    """A generator that counts its array and scalar ``binomial`` calls."""

    def __init__(self, rng):
        self.rng, self.array_calls, self.scalar_calls = rng, 0, 0

    def binomial(self, n, p):
        if np.ndim(n):
            self.array_calls += 1
        else:
            self.scalar_calls += 1
        return self.rng.binomial(n, p)


# group vectors with empty groups inside and at the end, dense or sparse, so
# walks switch to scalar draws early, late or not at all
GROUP_VECTORS = st.lists(
    st.one_of(st.just(0), st.integers(1, 50), st.integers(1, 2**40)), min_size=1, max_size=40
)
KEEP_CHANCES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
)
DENSE = [1000] * 30  # 29 draws in the first layer: array calls first
SPARSE = [0, 4, 0, 0, 7, 0, 0, 0, 2]  # scalar draws from the start
WIDE = [0] * 38 + [3, 5]  # 2 draws, but 468 cells at cap 12


class TestThin:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        groups=GROUP_VECTORS,
        trailing=st.integers(0, 5),
        p=KEEP_CHANCES,
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_early_stop_matches_the_full_walk(self, groups, trailing, p, data, seed):
        groups = groups + [0] * trailing
        cap = data.draw(st.integers(1, len(groups)), label="cap")
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_thin(ours, groups, p, cap), full_walk_thin(reference, groups, p, cap))
        # a skipped layer is binomial(0, p), which draws nothing
        assert ours.random() == reference.random()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        groups=GROUP_VECTORS,
        p=KEEP_CHANCES,
        cap=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(groups=DENSE, p=0.9, cap=3, seed=5)
    @example(groups=DENSE, p=0.5, cap=12, seed=6)
    @example(groups=SPARSE, p=0.5, cap=2, seed=7)
    @example(groups=WIDE, p=0.5, cap=12, seed=8)
    def test_same_table_and_stream_as_the_array_walk(self, groups, p, cap, seed):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_thin(ours, groups, p, cap), array_walk_thin(reference, groups, p, cap))
        assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "groups,cap,array_calls", [(DENSE, 3, True), (SPARSE, 3, False), (WIDE, 12, True)]
    )
    def test_examples_reach_both_sides_of_the_crossover(self, groups, cap, array_calls):
        rng = CountingDraws(np.random.default_rng(5))
        _thin(rng, groups, 0.5, cap)
        assert bool(rng.array_calls) is array_calls
        assert rng.scalar_calls > 0

    def test_stops_at_the_first_layer_without_a_trial_below_the_cap(self):
        rng = CountingDraws(np.random.default_rng(3))
        _thin(rng, [0, 5, 0, 0, 0, 0, 0], 1.0, 1)
        assert rng.array_calls + rng.scalar_calls == 1


def array_pair_histogram(rng, trials, lam, family):
    """Reference pair histogram: a numpy vector, each Poisson hazard summed afresh."""
    groups = []
    remaining = trials
    while remaining:
        if family is SourceFamily.POISSON:
            hazard = _poisson_hazard(lam, len(groups))
        else:
            hazard = 1.0 / (1.0 + lam)
        drawn = int(rng.binomial(remaining, hazard))
        groups.append(drawn)
        remaining -= drawn
    return np.array(groups, dtype=np.int64)


def array_table_simulate(spec, pump, strategy, mc):
    """Reference sampler on numpy tables: (counts, overflow).

    Every unit's histogram and thinning tables are arrays summed by
    numpy, and every thinning layer is one array call (the tables and the
    stream of the walk that draws small layers one cell at a time).
    """
    rng = np.random.default_rng(mc.seed)
    detect_cap = 1 if strategy.is_threshold else max(strategy.accepted) + 1
    accepted = strategy.accept_mask(np.arange(detect_cap + 1))
    totals = np.zeros(mc.max_count + 2, dtype=np.int64)
    pending = mc.trials
    for lam_k, v_k in zip(pump.lambdas, transmission_vector(spec)):
        pairs = array_pair_histogram(rng, pending, lam_k, spec.source)
        cap = min(detect_cap, pairs.size)
        admitted = array_walk_thin(rng, pairs, spec.v_d, cap)[:, accepted[: cap + 1]].sum(axis=1)
        cap = min(mc.max_count + 1, admitted.size)
        totals[: cap + 1] += array_walk_thin(rng, admitted, v_k, cap).sum(axis=0)
        pending -= int(admitted.sum())
        if pending == 0:
            break
    totals[0] += pending
    return totals[: mc.max_count + 1], int(totals[mc.max_count + 1])


@st.composite
def sampled_runs(draw):
    """A spec, pump, strategy and settings over the sampler's dim and moderate range."""
    n_units = draw(st.integers(1, 12), label="n_units")
    losses = st.floats(0.0, 1.0)
    spec = MultiplexerSpec(
        v_r=draw(losses), v_b=draw(losses), v_d=draw(losses), v_t=draw(losses),
        n_units=n_units, source=draw(st.sampled_from(["poisson", "thermal"])),
    )
    means = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    pump = PumpProfile(tuple(draw(st.lists(means, min_size=n_units, max_size=n_units))))
    strategy = draw(st.one_of(
        st.sampled_from(["spd", "thd"]),
        st.integers(1, 6).map(lambda k: f"upto:{k}"),
        st.sets(st.integers(1, 8), min_size=1, max_size=3).map(
            lambda counts: "set:" + ",".join(map(str, sorted(counts)))
        ),
    ))
    mc = McSettings(
        trials=draw(st.integers(1000, 10**6)),
        seed=draw(st.integers(0, 2**32 - 1)),
        max_count=draw(st.integers(1, 10)),
    )
    return spec, pump, DetectionStrategy.parse(strategy), mc


# a dim pump whose walks all start in lists, and a bright one whose detection
# walks start on array layers and switch to lists mid-walk
DIM_RUN = (
    MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3),
    PumpProfile((0.05, 0.1, 0.2)),
    DetectionStrategy.parse("spd"),
    McSettings(trials=1000, seed=12, max_count=3),
)
SWITCHING_RUN = (
    MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=4, source="thermal"),
    PumpProfile((3.0, 2.5, 0.0, 1.0)),
    DetectionStrategy.parse("upto:5"),
    McSettings(trials=10**6, seed=13, max_count=10),
)


class TestSimulateAgainstArrayTables:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(run=sampled_runs())
    @example(run=DIM_RUN)
    @example(run=SWITCHING_RUN)
    def test_same_counts_as_the_array_table_sampler(self, run):
        result = simulate(*run)
        counts, overflow = array_table_simulate(*run)
        assert np.array_equal(result.counts, counts)
        assert result.overflow == overflow

    def test_examples_start_in_lists_and_switch_mid_walk(self, monkeypatch):
        import asmux.montecarlo

        thin = asmux.montecarlo._thin

        def walks(run):
            """(array calls, scalar calls) of each thinning walk of ``run``."""
            calls = []

            def counting_thin(rng, groups, p, cap):
                counting = CountingDraws(rng)
                rows = thin(counting, groups, p, cap)
                calls.append((counting.array_calls, counting.scalar_calls))
                return rows

            monkeypatch.setattr(asmux.montecarlo, "_thin", counting_thin)
            simulate(*run)
            return calls

        dim = walks(DIM_RUN)
        assert sum(scalar for _, scalar in dim) and not sum(array for array, _ in dim)
        assert any(array and scalar for array, scalar in walks(SWITCHING_RUN))

    def test_each_hazard_is_summed_once_per_run(self, monkeypatch):
        # the mc-oracle anchor case: 32 units at mean 1.0 walk the same series
        import asmux.montecarlo

        sums, walked = [], []
        hazard, histogram = asmux.montecarlo._poisson_hazard, asmux.montecarlo._pair_histogram

        def counting_hazard(lam, pairs):
            sums.append(pairs)
            return hazard(lam, pairs)

        def recording_histogram(*args):
            groups = histogram(*args)
            walked.append(len(groups))
            return groups

        monkeypatch.setattr(asmux.montecarlo, "_poisson_hazard", counting_hazard)
        monkeypatch.setattr(asmux.montecarlo, "_pair_histogram", recording_histogram)
        spec = MultiplexerSpec(v_r=0.95, v_b=0.90, v_d=0.98, n_units=32)
        pump, strategy = PumpProfile.uniform(1.0, 32), DetectionStrategy.parse("upto:2")
        simulate(spec, pump, strategy, McSettings(trials=200_000, seed=3232))
        assert len(walked) > 1
        assert sums == list(range(max(walked)))


def stream_digest(result):
    """SHA-256 of the counts and then the overflow, as little-endian int64."""
    return hashlib.sha256(np.append(result.counts, result.overflow).astype("<i8").tobytes()).hexdigest()


# recorded with the full thinning walk; the seeds are frozen, so are the counts
FROZEN_CORPUS_DIGESTS = (
    "6a7f456df0c4237cf58f0c36436a3804e6c5bdd3e1d01ffd0df2e45da05e47a2",
    "95e1c72ecc707dcb6ea3af5502ccde71b8b6e65036005c2cb98f00ea826c2378",
    "fb2ac1dc663945167c2fc2021576c2fcf2be425cb12ec1b9027bf6e7868d92a6",
    "87f8b10a7cb7a5d67e121ef52beab1ae3d31186d56d13b03ecfd8a3748263232",
    "0f22cddce7b95bd4aabd5e3972b2737d40463cfe1c0e75168c21e23ea6b9781a",
    "379f4e3eace86ceeae4f918564cdd384f05f249a82b099ee01845921bf1de538",
    "5eb8b3da8e67487ed90b24efba8847b6efce2821078702b939780251fb717fec",
    "66d37f71ef5013fcb747f7d1adaff2e5672769e6f87d73ed0f8c7f6099eb3f5a",
    "2f02e1869608750188c7bea86a674dc09e7151cdb38ca0b763b910386501c057",
    "5bd8ec2f7d0151d362b5ec5bbbdcbdd0581d95aca52ba8e84ca6afb2ed1b30ac",
    "9ad1b770a604e73fae264afe333aebdf94776828cdaf0c45eb3fb0655519b961",
    "5c6d87a959ea657b7f463241f06f21ec51c984b017e159ecf693fdc62aaf485a",
    "0fcfedacec01d19524e5e1084967cd8288bc007fab15bc7b53fba3ff96895ae9",
    "36a77dc3e713ebe972988c2da81b9614dc6ef64cbd98c2521549e5baa96729a6",
    "a73686d44cfb88bc13805c1b9e630d9fedd36ba0749d424c0097d1afbb2a857f",
    "ae5614c54c36d753299de4b386e9cdd7db85c14bb4c20b624c1213debd86237b",
    "537f0d162384800ac43163bfa6ca62a59a1cb68ad4345174ed779031b1a08711",
    "41b423d3ee82a15cb34fd867a6717bc745b526a4eb3348113e912f6d97e2c9fd",
    "7f562ed804f4ddb13f068747a44a3afa90e9359192c56a0f8a7230f375753b60",
    "d0efc09bc92be01cf221aed868310628e34f61510994df12aba657a9eddc3659",
)
# mc-oracle's anchor case: 32 units, upto:2, mean 1.0 on every unit; recorded
# with one array call per thinning layer, its seed fixed before the first run
FROZEN_MANY_UNITS_DIGEST = "8c42975d979c83b0774d33319447ed402a4d7906c1ae430f3bb08ba3d4ce28a9"
FROZEN_BRIGHT_DIGESTS = {
    ("thermal", 14.0): "ba76ffe59f93ec11a6d3246df4a3729cf1a0adf48563c033558d3ebb4c5e9888",
    ("poisson", 150.0): "393ef6038daa132f5ce416b0d39265fc107ddcc15ab3555ae5eeba8aa13f03a4",
}


class TestFrozenStreams:
    """Seeded counts are part of the contract: a faster sampler draws the same stream."""

    @pytest.mark.parametrize("index", range(len(VALIDATION_CORPUS)))
    def test_corpus_case(self, index):
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[index])
        result = simulate(spec, pump, strategy, McSettings(trials=1_000_000, seed=seed))
        assert stream_digest(result) == FROZEN_CORPUS_DIGESTS[index]

    def test_many_units(self):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.90, v_d=0.98, n_units=32)
        pump, strategy = PumpProfile.uniform(1.0, 32), DetectionStrategy.parse("upto:2")
        result = simulate(spec, pump, strategy, McSettings(trials=200_000, seed=3232))
        assert stream_digest(result) == FROZEN_MANY_UNITS_DIGEST

    @pytest.mark.parametrize("source,lam", list(FROZEN_BRIGHT_DIGESTS))
    def test_bright_pump(self, source, lam):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=4, source=source)
        result = simulate(spec, PumpProfile((lam,) * 4), SPD, McSettings(trials=10_000_000, seed=0))
        assert stream_digest(result) == FROZEN_BRIGHT_DIGESTS[source, lam]


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
        # a Poisson mean of 1e5 would walk about 1e5 pair groups
        import asmux.montecarlo

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the model refused the input")

        monkeypatch.setattr(asmux.montecarlo, "simulate", no_sampling)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(TruncationError):
            compare_with_analytic(spec, PumpProfile((1e5,)), SPD, McSettings(trials=1000))

    @pytest.mark.parametrize(
        "source,lams", [("poisson", (1690.0, 1700.0)), ("thermal", (58.0, 59.0))]
    )
    def test_largest_mean_decides_the_refusal(self, monkeypatch, source, lams):
        # the sampler's pair-group bound at 1e9 trials: the admitted mean
        # reaches the draws, the refused one neither runs the model nor
        # draws; the other unit's mean is small
        import asmux.montecarlo

        class Drawing(Exception):
            pass

        def drawing(*args):
            raise Drawing

        def no_model(*args, **kwargs):
            raise AssertionError("ran the model before refusing the input")

        monkeypatch.setattr(asmux.montecarlo, "_pair_histogram", drawing)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source=source)
        mc = McSettings(trials=1_000_000_000)
        admitted, refused = lams
        with pytest.raises(Drawing):
            compare_with_analytic(spec, PumpProfile((0.5, admitted)), SPD, mc)
        monkeypatch.setattr(asmux.montecarlo, "output_distribution", no_model)
        with pytest.raises(TruncationError, match="2048 pair-number groups"):
            compare_with_analytic(spec, PumpProfile((0.5, refused)), SPD, mc)

    def test_bright_thermal_pump_compares(self):
        # past the per-unit grid's cutoff, well within the sampler's bound
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source="thermal")
        mc = McSettings(trials=1000, seed=3)
        comparison = compare_with_analytic(spec, PumpProfile((0.5, 50.0)), SPD, mc)
        assert comparison.result.counts.sum() + comparison.result.overflow == mc.trials
        assert comparison.within(4.0)


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

    # each was truncated or parsed: 1500.7 ran 1500 trials, seed 2.5 ran the
    # stream of seed 2, "7" that of seed 7, and max_count 2.5 kept 2 buckets
    @pytest.mark.parametrize(
        "name,value",
        [
            ("trials", 1500.7),
            ("trials", 2000.0),
            ("trials", "2000"),
            ("seed", 2.5),
            ("seed", "7"),
            ("seed", np.float64(7.0)),
            ("seed", math.nan),
            ("max_count", 2.5),
            ("max_count", "3"),
        ],
    )
    def test_only_integers_accepted(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be an integer, got "):
            McSettings(**{name: value})

    def test_numpy_integers_draw_the_same_stream(self):
        spec, pump, strategy, seed = corpus_case(VALIDATION_CORPUS[2])
        plain = McSettings(trials=20_000, seed=seed, max_count=4)
        ours = McSettings(trials=np.int64(20_000), seed=np.uint32(seed), max_count=np.int8(4))
        assert ours == plain
        assert {type(getattr(ours, name)) for name in ("trials", "seed", "max_count")} == {int}
        assert stream_digest(simulate(spec, pump, strategy, ours)) == stream_digest(
            simulate(spec, pump, strategy, plain)
        )
