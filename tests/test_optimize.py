import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asmux.optimize
from asmux.exceptions import ParameterError, TruncationError
from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import (
    OptimizationMode,
    OptimizerSettings,
    find_optimal_n,
    optimize_pump,
    optimize_sizes,
    optimize_scaled_reference,
    optimize_uniform,
    stability_interval,
    strategy_scan,
)
from asmux.statistics import (
    DEFAULT_TRUNCATION,
    DetectionStrategy,
    PumpProfile,
    p1_profile_batch,
    single_photon_prob,
    source_pmf,
)

SPD = DetectionStrategy.single_photon()


def grid_scan_oracle(spec, strategy, coarse=0.01, fine=1e-4, span=5.0):
    """Brute-force maximization of the canonical evaluator over one mean.

    Two-stage scan: a coarse pass over [0, span] and a fine pass at
    step ``fine`` around the coarse winner, both through the canonical
    single-profile evaluator.
    """
    def value(lam):
        return single_photon_prob(spec, PumpProfile.uniform(lam, spec.n_units), strategy)

    xs = np.arange(0.0, span + coarse / 2, coarse)
    vals = [value(x) for x in xs]
    k = int(np.argmax(vals))
    lo = max(xs[k] - coarse, 0.0)
    hi = min(xs[k] + coarse, span)
    xs_fine = np.arange(lo, hi + fine / 2, fine)
    vals_fine = [value(x) for x in xs_fine]
    kf = int(np.argmax(vals_fine))
    return float(xs_fine[kf]), float(vals_fine[kf])


class TestOptimizePump:
    def test_single_unit_matches_grid_scan(self):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.85, n_units=1)
        lam_star, p_star = grid_scan_oracle(spec, SPD)
        report = optimize_pump(spec, SPD)
        assert report.best_pump.lambdas[0] == pytest.approx(lam_star, abs=1e-3)
        assert report.best_p1 == pytest.approx(p_star, abs=1e-6)
        assert report.best_p1 >= p_star - 1e-6

    def test_reported_p1_reproducible_from_profile(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=5)
        report = optimize_pump(spec, SPD)
        again = single_photon_prob(spec, report.best_pump, SPD)
        assert abs(again - report.best_p1) <= 1e-12

    def test_upper_bound_flagged(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.98, n_units=4)
        capped = optimize_pump(spec, SPD, OptimizerSettings(lambda_upper=0.3))
        assert capped.upper_bound_hit
        assert max(capped.best_pump.lambdas) == pytest.approx(0.3, abs=1e-12)
        assert not optimize_pump(spec, SPD).upper_bound_hit


class TestOptimizeUniform:
    def test_lossless_single_unit_calculus(self):
        # the one-unit lossless objective lam * exp(-lam) peaks at lam = 1
        spec = MultiplexerSpec(v_r=1.0, v_b=1.0, v_d=1.0, n_units=1, v_t=1.0)
        report = optimize_uniform(spec, SPD)
        assert report.best_pump.lambdas[0] == pytest.approx(1.0, abs=1e-4)
        assert report.best_p1 == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_constant_profile(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=6)
        report = optimize_uniform(spec, SPD)
        assert len(set(report.best_pump.lambdas)) == 1
        assert report.mode is OptimizationMode.UNIFORM


class TestDominance:
    @pytest.mark.parametrize(
        "v_r,v_b,v_d,n",
        [(0.99, 0.98, 0.9, 10), (0.9, 0.85, 0.8, 6), (0.8, 0.8, 0.85, 5)],
    )
    def test_search_space_ordering(self, v_r, v_b, v_d, n):
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=n)
        per_unit = optimize_pump(spec, SPD).best_p1
        uniform = optimize_uniform(spec, SPD).best_p1
        scaled = optimize_scaled_reference(spec, SPD).best_p1
        assert per_unit >= uniform - 1e-6
        assert per_unit >= scaled - 1e-6


class TestScaledReference:
    def test_lossless_equals_uniform(self):
        spec = MultiplexerSpec(v_r=1.0, v_b=1.0, v_d=1.0, n_units=4, v_t=1.0)
        uni = optimize_uniform(spec, SPD)
        ref = optimize_scaled_reference(spec, SPD)
        assert ref.best_p1 == pytest.approx(uni.best_p1, abs=1e-9)
        assert not ref.upper_bound_hit

    def test_bound_clamp_flagged(self):
        # deep chain: 1 / V_n blows past the search bound and must be clamped
        spec = MultiplexerSpec(v_r=0.8, v_b=0.8, v_d=0.9, n_units=30)
        report = optimize_scaled_reference(spec, SPD)
        assert report.upper_bound_hit
        assert max(report.best_pump.lambdas) <= OptimizerSettings().lambda_upper + 1e-12

    def test_profile_scales_inversely_with_transmission(self):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=5)
        report = optimize_scaled_reference(spec, SPD)
        lams = np.array(report.best_pump.lambdas)
        # unclamped entries grow monotonically along the chain (loss grows)
        assert np.all(np.diff(lams[:-1]) >= -1e-12)

    def test_rescaled_profile_trails_free_optimization(self):
        # mid-loss regime: the one-parameter rescaling gives away more
        # than 1e-3 of probability against the free per-unit search
        spec = MultiplexerSpec(v_r=0.85, v_b=0.85, v_d=0.9, n_units=1)
        search = find_optimal_n(spec, SPD, n_ref=40)
        at_opt = spec.with_units(search.n_opt)
        free = search.p1_max
        rescaled = optimize_scaled_reference(at_opt, SPD).best_p1
        assert free - rescaled > 1e-3


class TestBlockedArms:
    """Arms that transmit nothing: v_b = 0 blocks all of them, v_r = 0 all but the first."""

    @pytest.mark.parametrize("mode", list(OptimizationMode))
    @pytest.mark.parametrize("v_r,v_b", [(0.9, 0.0), (0.0, 0.9)])
    def test_every_mode_reports_a_valid_profile(self, mode, v_r, v_b):
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=0.9, n_units=1)
        upper = OptimizerSettings().lambda_upper
        result = find_optimal_n(spec, SPD, n_ref=6, mode=mode)
        for report in result.reports:
            lams = np.array(report.best_pump.lambdas)
            assert np.all((lams >= 0.0) & (lams <= upper))
            again = single_photon_prob(spec.with_units(report.n_units), report.best_pump, SPD)
            assert abs(again - report.best_p1) <= 1e-12
        if v_b == 0.0:
            assert np.all(result.p1_by_n == 0.0)
        else:  # only the first arm delivers, through a router from N = 2 on
            assert np.allclose(result.p1_by_n[1:], result.p1_by_n[1], rtol=0.0, atol=1e-9)
            assert 0.0 < result.p1_by_n[1] < result.p1_by_n[0]

    def test_rescaled_mean_on_a_blocked_arm_is_the_bound(self):
        spec = MultiplexerSpec(v_r=0.0, v_b=0.9, v_d=0.9, n_units=3)
        report = optimize_scaled_reference(spec, SPD)
        lams = report.best_pump.lambdas
        assert lams[0] > 0.0
        assert lams[1:] == (OptimizerSettings().lambda_upper,) * 2
        assert report.upper_bound_hit


def brute_force_p1(spec, strategy, upper):
    """Best per-unit P1 found without the chain factorization the DP rests on.

    Whole profiles are scored through ``p1_profile_batch``: first a dense
    grid over every unit's mean, then coordinate ascent, each pass
    rescanning one mean on a window 20 times narrower than the last.
    """
    n = spec.n_units
    axis = np.linspace(0.0, upper, 101 if n == 2 else 21)
    mesh = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    best = mesh[np.argmax(p1_profile_batch(spec, strategy, mesh))]
    width = upper
    while width > 1e-8:
        for _ in range(n):
            for unit in range(n):
                trial = np.repeat(best[None, :], 201, axis=0)
                trial[:, unit] = np.clip(best[unit] + np.linspace(-width, width, 201), 0.0, upper)
                best = trial[np.argmax(p1_profile_batch(spec, strategy, trial))]
        width /= 20.0
    return single_photon_prob(spec, PumpProfile(tuple(best)), strategy)


class TestDpOptimality:
    """The backward DP reaches the unit-wise optimum that brute force finds."""

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("strategy", ["spd", "thd", "upto:2", "set:1,3"])
    def test_dp_not_below_brute_force(self, source, strategy):
        rng = np.random.default_rng(sum(map(ord, source + strategy)))
        strat = DetectionStrategy.parse(strategy)
        settings = OptimizerSettings(lambda_upper=2.0)
        for _ in range(3):
            v_r, v_d, v_b = rng.uniform(0.8, 0.99), rng.uniform(0.8, 0.98), rng.uniform(0.8, 0.98)
            spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1, source=source)
            for report in optimize_sizes(spec, strat, [2, 3], settings):
                brute = brute_force_p1(spec.with_units(report.n_units), strat, 2.0)
                assert report.best_p1 >= brute - 1e-10, (v_r, v_d, v_b, report.n_units)


class TestWork:
    def test_scaled_reference_builds_pmf_rows_only_in_the_reported_pass(self, monkeypatch):
        # The one-parameter search at n_ref = 100 and (v_r, v_d, v_b) =
        # (0.9, 0.85, 0.8) reads closed forms (one_photon_terms) at every
        # grid scalar and slope root step.  Only the reported pass builds
        # pair-number pmf rows: at most one 28-term row per unit of each
        # size, 5050 * 28 = 141,400 entries.
        reporting, entries = [], []
        report_batch = asmux.optimize._reported_p1_batch

        def counting_pmf(family, lams, l_max):
            assert reporting, "a pmf row outside the reported pass"
            entries.append(np.size(lams) * (l_max + 1))
            return source_pmf(family, lams, l_max)

        def reported_p1_batch(*args):
            reporting.append(True)
            try:
                return report_batch(*args)
            finally:
                reporting.pop()

        monkeypatch.setattr(asmux.optimize, "source_pmf", counting_pmf)
        monkeypatch.setattr(asmux.optimize, "_reported_p1_batch", reported_p1_batch)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        find_optimal_n(spec, SPD, n_ref=100, mode="scaled-reference")
        assert 0 < sum(entries) <= 5050 * 28

    def test_uniform_refines_every_size_in_a_few_batched_steps(self, monkeypatch):
        # one pmf call each for the grid, the bracket ends, each slope root
        # step and the reported values
        calls = []

        def counting_pmf(family, lams, l_max):
            calls.append(np.size(lams))
            return source_pmf(family, lams, l_max)

        monkeypatch.setattr(asmux.optimize, "source_pmf", counting_pmf)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        find_optimal_n(spec, SPD, n_ref=100, mode="uniform")
        assert len(calls) <= 12

    @pytest.mark.parametrize(
        "mode,builds",
        [("per-unit", set()), ("uniform", {"_lift"}), ("scaled-reference", {"one_photon_terms"})],
        ids=["per-unit", "uniform", "scaled-reference"],
    )
    def test_each_mode_builds_only_the_tables_it_reads(self, monkeypatch, mode, builds):
        # the uniform slope weights (_lift) and the scaled-reference closed
        # forms (one_photon_terms) are built only by the mode that reads them
        calls = {name: 0 for name in ("one_photon_terms", "_lift")}
        for name in calls:
            original = getattr(asmux.optimize, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(asmux.optimize, name, counting)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        optimize_sizes(spec, SPD, range(1, 31), mode=mode)
        assert {name for name, count in calls.items() if count} == builds

    def test_slope_root_ends_a_lane_at_an_exact_root(self, monkeypatch):
        # a secant step of size 4 lands on a zero slope; bisecting that lane
        # to xtol took 18 more single-lane calls (26 in all)
        calls = []
        scalar_p1 = asmux.optimize._scalar_p1

        def counting(*args, **kwargs):
            calls.append(1)
            return scalar_p1(*args, **kwargs)

        monkeypatch.setattr(asmux.optimize, "_scalar_p1", counting)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        find_optimal_n(spec, SPD, n_ref=100, mode="scaled-reference")
        assert len(calls) <= 9


class TestBatchInvariance:
    @pytest.mark.parametrize("mode", list(OptimizationMode))
    def test_size_alone_matches_size_in_batch(self, mode):
        # a size's optimum must not depend on which other sizes share its pass
        rng = np.random.default_rng(14)
        for _ in range(3):
            spec = MultiplexerSpec(
                v_r=rng.uniform(0.8, 0.99),
                v_b=rng.uniform(0.8, 0.98),
                v_d=rng.uniform(0.7, 0.98),
                n_units=1,
                source=str(rng.choice(["poisson", "thermal"])),
            )
            strategy = DetectionStrategy.parse(str(rng.choice(["spd", "upto:2", "thd", "set:1,3"])))
            batch = optimize_sizes(spec, strategy, range(1, 61), mode=mode)
            for n in (7, 27, 44, 60):
                (alone,) = optimize_sizes(spec, strategy, [n], mode=mode)
                lams = np.array(alone.best_pump.lambdas)
                assert np.max(np.abs(lams - batch[n - 1].best_pump.lambdas)) <= 1e-10


class TestFindOptimalN:
    def test_monotone_curve_and_smallest_n(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=1)
        result = find_optimal_n(spec, SPD, n_ref=40)
        curve = result.p1_by_n
        assert np.all(np.diff(curve) >= -1e-3)
        reference = curve[-1]
        assert reference - curve[result.n_opt - 1] < 1e-3
        if result.n_opt > 1:
            assert reference - curve[result.n_opt - 2] >= 1e-3
        assert result.p1_max == curve[result.n_opt - 1]

    def test_modes_agree_on_sizes(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=1)
        per_unit = find_optimal_n(spec, SPD, n_ref=40)
        uniform = find_optimal_n(spec, SPD, n_ref=40, mode="uniform")
        assert per_unit.n_opt <= uniform.n_opt
        assert per_unit.p1_max >= uniform.p1_max - 1e-6

    def test_n_ref_validation(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError):
            find_optimal_n(spec, SPD, n_ref=1)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_validation(self, monkeypatch, threshold):
        # an all-False saturation mask would report n_opt = 1; the check
        # comes before any optimization
        def no_search(*args, **kwargs):
            raise AssertionError("optimized before checking the threshold")

        monkeypatch.setattr(asmux.optimize, "optimize_sizes", no_search)
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError, match="threshold must be positive and finite"):
            find_optimal_n(spec, SPD, n_ref=20, threshold=threshold)


class TestStrategyScan:
    def test_scan_stops_after_decline_and_ranks(self):
        # low transmission regime: accepting two counts beats single-photon
        spec = MultiplexerSpec(v_r=0.8, v_b=0.8, v_d=0.85, n_units=1)
        entries = strategy_scan(spec, n_ref=30)
        keys = [e.strategy.key for e in entries]
        assert "thd" in keys
        assert entries[0].strategy.key == "upto:2"
        # ceilings evaluated: 1, 2, then 3 (which declines and stops the scan)
        accept_keys = {k for k in keys if k != "thd"}
        assert accept_keys == {"spd", "upto:2", "upto:3"}
        p1s = [e.p1_max for e in entries]
        assert p1s == sorted(p1s, reverse=True)

    def test_high_transmission_prefers_single_photon(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=1)
        entries = strategy_scan(spec, n_ref=40)
        assert entries[0].strategy.key == "spd"
        thd_entry = next(e for e in entries if e.strategy.key == "thd")
        assert entries[0].p1_max > thd_entry.p1_max

    @pytest.mark.parametrize("max_accept", [0, -3])
    def test_max_accept_validation(self, monkeypatch, max_accept):
        # with no ceiling to raise, the scan would rank threshold detection alone
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking max_accept")

        monkeypatch.setattr(asmux.optimize, "find_optimal_n", no_search)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError, match="max_accept must be >= 1"):
            strategy_scan(spec, n_ref=10, max_accept=max_accept)

    def test_single_photon_beats_threshold_once_multiplexed(self):
        # from two units on, single-photon heralding dominates threshold
        # detection in the low-loss regime (at N = 1 the threshold detector
        # wins slightly by admitting multi-pair events; MC-verified)
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.9, n_units=1)
        thd = DetectionStrategy.threshold()
        for n in (2, 4, 8, 16):
            spec_n = spec.with_units(n)
            p_spd = optimize_pump(spec_n, SPD).best_p1
            p_thd = optimize_pump(spec_n, thd).best_p1
            assert p_spd > p_thd


def sequential_interval(
    spec, strategy, pump, baseline_p1, resolution=1e-4, trunc=DEFAULT_TRUNCATION,
    evaluate=p1_profile_batch,
):
    """Reference walk: each edge alone, one single-profile P1 call per shift.

    This is the former implementation of ``stability_interval``; it
    returns ``(delta_minus, delta_plus, empty)``.
    """
    base = pump.as_array()

    def p1_at(delta):
        shifted = np.clip(base + delta, 0.0, None)
        return float(evaluate(spec, strategy, shifted[None, :], trunc)[0])

    if p1_at(0.0) < baseline_p1:
        return 0.0, 0.0, True

    def edge(sign):
        lo, hi = 0.0, resolution
        while p1_at(sign * hi) >= baseline_p1:
            lo = hi
            if hi >= 10.0:
                return sign * lo
            hi *= 2.0
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if p1_at(sign * mid) >= baseline_p1:
                lo = mid
            else:
                hi = mid
        return sign * lo if lo else 0.0

    return edge(-1.0), edge(+1.0), False


WALK_STRATEGIES = [DetectionStrategy.parse(key) for key in ("spd", "upto:2", "thd", "set:1,3")]


class TestStabilityInterval:
    def test_closed_form_single_unit(self):
        # objective lam * exp(-lam) * v_b; with baseline at 95% of the peak the
        # feasible shift solves (1 + d) * exp(-d) = 0.95 on each side
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=1)
        peak = math.exp(-1.0) * 0.9
        baseline = 0.95 * peak

        def g(d):
            return (1.0 + d) * math.exp(-d)

        def solve(sign):
            lo, hi = 0.0, 2.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if g(sign * mid) >= 0.95:
                    lo = mid
                else:
                    hi = mid
            return sign * lo

        interval = stability_interval(spec, SPD, PumpProfile((1.0,)), baseline)
        assert not interval.empty
        assert interval.delta_minus == pytest.approx(solve(-1.0), abs=2e-4)
        assert interval.delta_plus == pytest.approx(solve(+1.0), abs=2e-4)

    def test_empty_interval_flagged(self):
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=1)
        interval = stability_interval(spec, SPD, PumpProfile((1.0,)), baseline_p1=0.99)
        assert interval.empty
        assert (interval.delta_minus, interval.delta_plus) == (0.0, 0.0)

    def test_baseline_held_everywhere_stops_doubling(self):
        # P1 >= 0 at every shift, so each side doubles until it passes 10
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=1)
        interval = stability_interval(spec, SPD, PumpProfile((1.0,)), baseline_p1=0.0)
        assert not interval.empty
        assert interval.delta_minus <= -10.0
        assert interval.delta_plus >= 10.0

    @pytest.mark.parametrize("resolution", [0.0, -0.01, math.nan, math.inf])
    def test_resolution_validation(self, monkeypatch, resolution):
        # a zero step never doubles past zero and a negative one inverts the
        # interval; both are refused before any P1 evaluation
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated P1 before checking the resolution")

        monkeypatch.setattr(asmux.optimize, "p1_profile_batch", no_evaluation)
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=1)
        with pytest.raises(ParameterError, match="resolution must be positive and finite"):
            stability_interval(spec, SPD, PumpProfile((1.0,)), 0.3, resolution=resolution)

    def test_nan_baseline_refused(self, monkeypatch):
        # every comparison with NaN is false, which gave a non-empty [0, 0]
        def no_evaluation(*args, **kwargs):
            raise AssertionError("evaluated P1 before checking the baseline")

        monkeypatch.setattr(asmux.optimize, "p1_profile_batch", no_evaluation)
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=3)
        with pytest.raises(ParameterError, match="baseline_p1 must not be NaN"):
            stability_interval(spec, SPD, PumpProfile((0.5, 0.6, 0.7)), math.nan)

    @pytest.mark.parametrize("baseline,empty", [(math.inf, True), (-math.inf, False)])
    def test_infinite_baselines(self, baseline, empty):
        # +inf is never reached; -inf is held at every shift
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=3)
        interval = stability_interval(spec, SPD, PumpProfile((0.5, 0.6, 0.7)), baseline)
        assert interval.empty is empty
        assert empty or (interval.delta_minus <= -10.0 and interval.delta_plus >= 10.0)

    def test_resolution_below_float_spacing_terminates(self, monkeypatch):
        # the bisection ends at adjacent floats instead of repeating its midpoint
        calls = []
        evaluate = asmux.optimize.p1_profile_batch

        def counted(*args, **kwargs):
            calls.append(None)
            if len(calls) > 5000:
                raise AssertionError("bisection does not terminate")
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(asmux.optimize, "p1_profile_batch", counted)
        spec = MultiplexerSpec(v_r=0.99, v_b=0.9, v_d=1.0, n_units=1)
        baseline = 0.95 * math.exp(-1.0) * 0.9
        coarse = stability_interval(spec, SPD, PumpProfile((1.0,)), baseline)
        fine = stability_interval(spec, SPD, PumpProfile((1.0,)), baseline, resolution=1e-300)
        assert fine.delta_minus == pytest.approx(coarse.delta_minus, abs=2e-4)
        assert fine.delta_plus == pytest.approx(coarse.delta_plus, abs=2e-4)
        for delta in (fine.delta_minus, fine.delta_plus):
            shifted = PumpProfile((max(1.0 + delta, 0.0),))
            assert single_photon_prob(spec, shifted, SPD) >= baseline

    def test_interval_endpoints_keep_baseline(self):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=8)
        per_unit = optimize_pump(spec, SPD)
        baseline = optimize_uniform(spec, SPD).best_p1
        interval = stability_interval(spec, SPD, per_unit.best_pump, baseline)
        assert not interval.empty
        for delta in (interval.delta_minus, interval.delta_plus):
            shifted = PumpProfile(
                tuple(max(x + delta, 0.0) for x in per_unit.best_pump.lambdas)
            )
            assert single_photon_prob(spec, shifted, SPD) >= baseline - 1e-9

    def test_failed_first_step_gives_positive_zero(self):
        # P1 rises with the pump here, so the first shift down already fails;
        # the endpoint is +0.0, which output files print as 0.0, never -0.0
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        pump = PumpProfile.uniform(0.1, 3)
        baseline = float(p1_profile_batch(spec, SPD, pump.as_array()[None, :])[0])
        interval = stability_interval(spec, SPD, pump, baseline)
        assert not interval.empty
        assert interval.delta_minus == 0.0
        assert math.copysign(1.0, interval.delta_minus) == 1.0
        assert interval.delta_plus > 0.0


class TestLockstepWalk:
    """The batched walk against the former one-shift-per-call walk."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        source=st.sampled_from(["poisson", "thermal"]),
        strategy=st.sampled_from(WALK_STRATEGIES),
        losses=st.tuples(st.floats(0.8, 0.99), st.floats(0.8, 0.98), st.floats(0.8, 0.98)),
        pump=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
        level=st.one_of(st.just(1.0), st.floats(0.0, 1.2)),
        # a power of two makes bracket widths hit the resolution exactly
        resolution=st.one_of(
            st.floats(-300.0, math.log10(0.3)).map(lambda e: 10.0 ** e),
            st.integers(-40, -2).map(lambda k: 2.0 ** k),
        ),
    )
    def test_same_interval_as_sequential_walk(
        self, source, strategy, losses, pump, level, resolution
    ):
        # the baseline runs from 0 to above P1 at zero shift, exactly at it
        # included; the resolution from 1e-300 to 0.3
        v_r, v_b, v_d = losses
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=len(pump), source=source)
        profile = PumpProfile(tuple(pump))
        baseline = level * float(p1_profile_batch(spec, strategy, profile.as_array()[None, :])[0])
        try:
            expected = sequential_interval(spec, strategy, profile, baseline, resolution)
        except TruncationError as error:
            with pytest.raises(TruncationError) as raised:
                stability_interval(spec, strategy, profile, baseline, resolution)
            assert str(raised.value) == str(error)
            return
        interval = stability_interval(spec, strategy, profile, baseline, resolution)
        # repr tells -0.0 from +0.0
        assert repr((interval.delta_minus, interval.delta_plus, interval.empty)) == repr(expected)

    def test_same_truncation_error_as_sequential_walk(self):
        # every shift holds a zero baseline, so the + edge doubles until the
        # mean 1 + 13.1072 needs a cutoff of 403, beyond the cap of 400
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=2, source="thermal")
        pump = PumpProfile((1.0, 1.0))
        with pytest.raises(TruncationError) as reference:
            sequential_interval(spec, SPD, pump, 0.0)
        with pytest.raises(TruncationError) as raised:
            stability_interval(spec, SPD, pump, 0.0)
        assert str(raised.value) == str(reference.value)
        assert "mean 14.1072 needs a cutoff of 403" in str(raised.value)

    def test_call_count_against_sequential_walk(self, monkeypatch):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=8)
        pump = optimize_pump(spec, SPD).best_pump
        baseline = optimize_uniform(spec, SPD).best_p1
        calls = {"sequential": 0, "lockstep": 0}

        def counter(name):
            def counted(*args, **kwargs):
                calls[name] += 1
                return p1_profile_batch(*args, **kwargs)
            return counted

        expected = sequential_interval(spec, SPD, pump, baseline, evaluate=counter("sequential"))
        monkeypatch.setattr(asmux.optimize, "p1_profile_batch", counter("lockstep"))
        interval = stability_interval(spec, SPD, pump, baseline)
        assert (interval.delta_minus, interval.delta_plus, interval.empty) == expected
        # each edge takes 12 doubling steps and 11 bisection levels: one shift
        # per call that is 1 + 2 * (12 + 11) = 47 calls, in lockstep with three
        # levels per call 1 + 12 + 4 = 17
        assert (calls["sequential"], calls["lockstep"]) == (47, 17)


class TestSettingsValidation:
    def test_invariants(self):
        for upper in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="lambda_upper must be > 0"):
                OptimizerSettings(lambda_upper=upper)
        assert OptimizerSettings(lambda_upper=1e-3).lambda_upper == 1e-3

    @pytest.mark.parametrize("sizes", [[], [0, 3]])
    def test_sizes_must_be_positive_and_nonempty(self, sizes):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError, match="sizes must be a nonempty set"):
            optimize_sizes(spec, SPD, sizes)
