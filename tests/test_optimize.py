import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asmux.optimize
import asmux.statistics
from asmux.exceptions import ParameterError, TruncationError
from asmux.multiplexer import MultiplexerSpec, transmission_vector
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
    DetectionStrategy,
    PumpProfile,
    output_distribution,
    p1_profile_batch,
    single_photon_prob,
    source_pmf,
)

SPD = DetectionStrategy.single_photon()
TINY = float(np.finfo(float).tiny)


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
        assert single_photon_prob(spec, report.best_pump, SPD) == report.best_p1

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

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("upper", [1e-300, 1e-12, 1e-9])
    def test_per_unit_reaches_uniform_at_small_bounds(self, source, upper):
        # the bound's own cutoff is 0 pairs, below the one count spd accepts
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3, source=source)
        settings = OptimizerSettings(lambda_upper=upper)
        uniform = optimize_uniform(spec, SPD, settings).best_p1
        assert uniform > 0.0
        assert optimize_pump(spec, SPD, settings).best_p1 >= uniform

    def test_per_unit_grid_reaches_the_smallest_accepted_count(self):
        # the bound's cutoff is 1 pair; the grid cached for spd at the same
        # bound stops there and must not serve a strategy that needs 2
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        settings = OptimizerSettings(lambda_upper=1e-7)
        optimize_pump(spec, SPD, settings)
        strategy = DetectionStrategy.parse("set:2,28")
        uniform = optimize_uniform(spec, strategy, settings).best_p1
        assert uniform > 0.0
        assert optimize_pump(spec, strategy, settings).best_p1 >= uniform


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
            assert again == report.best_p1
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


def outer_product_stages(chain):
    """The per-unit DP with each stage table built as an outer product plus adds."""
    l_max = asmux.statistics.required_lmax(chain.family, chain.upper)
    w = asmux.statistics.acceptance_weights(chain.strategy, chain.v_d, l_max)
    through = asmux.statistics.transmit_one_weights(chain.v_through, l_max) * w
    last = asmux.statistics.transmit_one_weights(chain.v_last, l_max) * w
    grid = np.linspace(0.0, chain.upper, asmux.optimize._GRID_POINTS)
    pmf = source_pmf(chain.family, grid, l_max)
    step = grid[1] - grid[0]
    quiet = 1.0 - pmf @ w
    t_through = through @ pmf.T
    t_last = last @ pmf.T
    sizes = chain.sizes
    lam = np.zeros((sizes.size, int(sizes[-1])))
    carry = np.zeros(sizes.size)
    for unit in range(int(sizes[-1]) - 1, -1, -1):
        first = int(np.searchsorted(sizes, unit + 1))
        k = sizes.size - first
        tail = carry[first:]
        vals = np.multiply.outer(tail, quiet)
        joins = int(sizes[first] == unit + 1)
        if joins:
            vals[0] += t_last[first]
        if joins < k:
            vals[joins:] += t_through[unit]
        rows = np.arange(k)
        best = vals.argmax(axis=1)
        x = grid[best]
        f = vals[rows, best]
        y0 = vals[rows, np.maximum(best - 1, 0)]
        y2 = vals[rows, np.minimum(best + 1, grid.size - 1)]
        den = y0 - 2.0 * f + y2
        refine = np.flatnonzero((best > 0) & (best < grid.size - 1) & (den < 0.0))
        if refine.size:
            vertex = x[refine] + 0.5 * step * (y0[refine] - y2[refine]) / den[refine]
            vertex = np.clip(vertex, 0.0, chain.upper)
            weights = np.empty((refine.size, l_max + 1))
            joined = int(joins and refine[0] == 0)
            if joined:
                weights[0] = last[first]
            if joined < refine.size:
                weights[joined:] = through[unit]
            p = source_pmf(chain.family, vertex, l_max)
            f_vertex = np.einsum("rl,rl->r", p, weights) + (1.0 - p @ w) * tail[refine]
            better = f_vertex > f[refine]
            x[refine[better]] = vertex[better]
            f[refine[better]] = f_vertex[better]
        lam[first:, unit] = x
        carry[first:] = f
    return lam


class TestStageProduct:
    """Each DP stage table as one product on the unit's value rows equals the outer product."""

    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    @pytest.mark.parametrize("strategy", ["spd", "upto:2", "thd", "set:1,3", "set:2,28"])
    def test_same_bits_as_outer_product_stages(self, monkeypatch, source, strategy):
        # single sizes are one-row stages; sets with gaps have sizes join
        # mid-pass; at the bound 0.3 rows on the bound share stages with
        # refined ones; at the headline point the thermal one-photon
        # weights hold subnormals, which the DP sets to zero and this
        # reference keeps; at v_b = 1e-310 every weight is subnormal,
        # and the DP keeps them all
        strat = DetectionStrategy.parse(strategy)
        cases = [
            (MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1, source=source), settings, sizes)
            for v_r, v_b, v_d in ((0.95, 0.85, 0.9), (0.99, 0.98, 0.98))
            for settings in map(OptimizerSettings, (0.3, 2.0, 5.0, 12.0))
            for sizes in ([1], [7], [60], [3, 17, 44], range(1, 101))
        ]
        opaque = MultiplexerSpec(v_r=0.99, v_b=1e-310, v_d=0.98, n_units=1, source=source)
        cases += [(opaque, OptimizerSettings(upper), [3, 17, 44]) for upper in (0.3, 5.0)]
        product = [optimize_sizes(spec, strat, sizes, settings) for spec, settings, sizes in cases]
        monkeypatch.setattr(asmux.optimize, "_per_unit_profiles", outer_product_stages)
        for (spec, settings, sizes), reports in zip(cases, product):
            reference = optimize_sizes(spec, strat, sizes, settings)
            assert [(r.best_pump.lambdas, r.best_p1) for r in reports] == [
                (r.best_pump.lambdas, r.best_p1) for r in reference
            ], (spec, settings.lambda_upper, sizes)


class TestArmWeights:
    def test_no_subnormal_at_the_headline_point(self):
        # at v_d = 0.98 the thermal one-photon weights underflow past the
        # smallest normal float; the DP's weights hold zeros there instead
        spec = MultiplexerSpec(v_r=0.99, v_b=0.98, v_d=0.98, n_units=100, source="thermal")
        l_max = asmux.statistics.required_lmax(spec.source, OptimizerSettings().lambda_upper)
        w = asmux.statistics.acceptance_weights(SPD, spec.v_d, l_max)
        v = transmission_vector(spec)
        raw = asmux.statistics.transmit_one_weights(v, l_max) * w
        tiny = np.finfo(float).tiny
        normal = raw >= tiny
        assert np.any((raw > 0.0) & ~normal)
        weights = asmux.optimize._arm_weights(v, w, l_max)
        assert not np.any((weights != 0.0) & (np.abs(weights) < tiny))
        assert np.array_equal(weights[normal], raw[normal])
        assert np.all(weights[~normal] == 0.0)

    def test_a_row_of_subnormals_stays(self):
        # a near-opaque arm has no normal entry beside which its subnormals
        # vanish, and zeroing them would zero its one-photon chance
        l_max = asmux.statistics.required_lmax("thermal", OptimizerSettings().lambda_upper)
        w = asmux.statistics.acceptance_weights(SPD, 0.98, l_max)
        v = np.array([1e-310, 0.98])
        raw = asmux.statistics.transmit_one_weights(v, l_max) * w
        weights = asmux.optimize._arm_weights(v, w, l_max)
        assert np.any(raw[0] > 0.0)
        assert np.array_equal(weights[0], raw[0])
        assert np.any((raw[1] > 0.0) & (weights[1] == 0.0))


def count_slope_calls(monkeypatch) -> list:
    """Count the slope calls of each search: the ``_scalar_p1`` calls that pass ``cols``.

    Each call adds to the last entry of the returned list, so append a 0
    before each search to count its calls alone.
    """
    calls = []
    scalar_p1 = asmux.optimize._scalar_p1
    signature = inspect.signature(scalar_p1)

    def counting(*args, **kwargs):
        calls[-1] += signature.bind(*args, **kwargs).arguments.get("cols") is not None
        return scalar_p1(*args, **kwargs)

    monkeypatch.setattr(asmux.optimize, "_scalar_p1", counting)
    return calls


class TestWork:
    def test_no_evaluator_builds_a_pmf_row(self, monkeypatch):
        # p1_profile_batch, the reported pass and output_distribution are
        # closed forms; only the per-unit search grid builds pair-number
        # pmf rows, and the uniform and scaled-reference searches build none
        evaluating, searched = [], []
        asmux.optimize._grid_tables.cache_clear()  # the per-unit grid is built under the guard

        def guarded_pmf(family, lams, l_max):
            assert not evaluating, "a pmf row inside an evaluator"
            searched.append(np.size(lams))
            return source_pmf(family, lams, l_max)

        def evaluator(fn):
            def guarded(*args, **kwargs):
                evaluating.append(True)
                try:
                    return fn(*args, **kwargs)
                finally:
                    evaluating.pop()
            return guarded

        monkeypatch.setattr(asmux.statistics, "source_pmf", guarded_pmf)
        monkeypatch.setattr(asmux.optimize, "source_pmf", guarded_pmf)
        for module, name in (
            (asmux.statistics, "output_distribution"),
            (asmux.statistics, "p1_profile_batch"),
            (asmux.optimize, "p1_profile_batch"),
            (asmux.optimize, "_reported_p1"),
        ):
            monkeypatch.setattr(module, name, evaluator(getattr(module, name)))
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        for mode in ("uniform", "scaled-reference"):
            find_optimal_n(spec, SPD, n_ref=100, mode=mode)
        assert searched == []
        for source in ("poisson", "thermal"):
            spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=6, source=source)
            for key in ("spd", "upto:2", "thd", "set:1,3"):
                strategy = DetectionStrategy.parse(key)
                for mode in OptimizationMode:
                    report = optimize_sizes(spec, strategy, [6], mode=mode)[0]
                    stability_interval(spec, strategy, report.best_pump, report.best_p1)
                    asmux.statistics.output_distribution(spec, report.best_pump, strategy)
        assert searched  # the guard was installed where the searches read it

    def test_uniform_refines_every_size_in_a_few_batched_steps(self, monkeypatch):
        # one P1 call for the grid, one for the bracket ends and one for
        # each slope root step, every size in the same call
        calls = []
        scalar_p1 = asmux.optimize._scalar_p1

        def counting(*args, **kwargs):
            calls.append(1)
            return scalar_p1(*args, **kwargs)

        monkeypatch.setattr(asmux.optimize, "_scalar_p1", counting)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        find_optimal_n(spec, SPD, n_ref=100, mode="uniform")
        assert 3 <= len(calls) <= 5

    @pytest.mark.parametrize(
        "mode,builds",
        [
            ("per-unit", {"grid"}),
            ("uniform", {"one_photon_terms"}),
            ("scaled-reference", {"one_photon_terms"}),
        ],
        ids=["per-unit", "uniform", "scaled-reference"],
    )
    def test_each_mode_builds_only_the_tables_it_reads(self, monkeypatch, mode, builds):
        # only the per-unit search builds a grid, cut at the pair-number
        # series cutoff; the one-parameter searches read closed forms
        # (one_photon_terms).  Only calls made while a search runs count:
        # the reported P1 of the profiles is evaluated after it.
        calls = {"one_photon_terms": 0}
        searching = []
        original = asmux.statistics.one_photon_terms

        def counting(*args, **kwargs):
            calls["one_photon_terms"] += bool(searching)
            return original(*args, **kwargs)

        def marking(search):
            def run(*args, **kwargs):
                searching.append(search)
                try:
                    return search(*args, **kwargs)
                finally:
                    searching.pop()

            return run

        for module in (asmux.optimize, asmux.statistics):
            monkeypatch.setattr(module, "one_photon_terms", counting)
        for name in ("_per_unit_profiles", "_scalar_profiles"):
            monkeypatch.setattr(asmux.optimize, name, marking(getattr(asmux.optimize, name)))
        asmux.optimize._grid_tables.cache_clear()
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        optimize_sizes(spec, SPD, range(1, 31), mode=mode)
        calls["grid"] = asmux.optimize._grid_tables.cache_info().misses
        assert {name for name, count in calls.items() if count} == builds

    @pytest.mark.parametrize("mode", ["uniform", "scaled-reference"])
    def test_one_closed_form_call_per_p1_batch(self, monkeypatch, mode):
        # the through arms and the last arms share one one_photon_terms call,
        # on the grid and in the root solve alike
        batches = []
        calls = [0]
        terms = asmux.optimize.one_photon_terms

        def counting(*args, **kwargs):
            calls[0] += 1
            return terms(*args, **kwargs)

        batch = asmux.optimize._scalar_p1_batch

        def recording(chain, xs, cols):
            before = calls[0]
            out = batch(chain, xs, cols)
            batches.append((cols is not None, calls[0] - before))
            return out

        monkeypatch.setattr(asmux.optimize, "one_photon_terms", counting)
        monkeypatch.setattr(asmux.optimize, "_scalar_p1_batch", recording)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        for key in ("spd", "upto:2"):
            for sizes in ([7], range(1, 101)):  # the grid of 100 sizes takes several batches
                batches.clear()
                optimize_sizes(spec, DetectionStrategy.parse(key), sizes, mode=mode)
                assert {slope for slope, _ in batches} == {False, True}
                assert [n for _, n in batches] == [1] * len(batches)

    def test_slope_root_ends_a_lane_at_an_exact_root(self, monkeypatch):
        # a secant step that lands on a zero slope ends its lane; bisecting
        # that lane to xtol took 18 more single-lane calls (26 in all)
        calls = []
        scalar_p1 = asmux.optimize._scalar_p1

        def counting(*args, **kwargs):
            calls.append(1)
            return scalar_p1(*args, **kwargs)

        monkeypatch.setattr(asmux.optimize, "_scalar_p1", counting)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1)
        find_optimal_n(spec, SPD, n_ref=100, mode="scaled-reference")
        assert len(calls) <= 5

    # the largest and the summed slope calls of one search over the corpus
    # below, per mode and bound; a bound of 0.3 puts kinks in the brackets,
    # and at 300 most optima sit in the first two cells of the grid
    SLOPE_CALL_BUDGETS = {
        ("uniform", 5.0): (5, 81),
        ("scaled-reference", 5.0): (5, 88),
        ("scaled-reference", 0.3): (4, 37),
        ("uniform", 300.0): (12, 131),
        ("scaled-reference", 300.0): (11, 118),
    }

    @pytest.mark.parametrize("mode,upper", list(SLOPE_CALL_BUDGETS), ids=str)
    def test_slope_calls_per_search_within_budget(self, monkeypatch, mode, upper):
        # counts, not timings: each slope call evaluates every open lane
        # at once, so the calls set a search's cost at small sizes
        calls = count_slope_calls(monkeypatch)
        settings = OptimizerSettings(lambda_upper=upper)
        for source in ("poisson", "thermal"):
            for v_r, v_d, v_b in ((0.99, 0.98, 0.98), (0.8, 0.9, 0.95)):
                spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1, source=source)
                for key in ("spd", "upto:2", "set:2,28"):
                    for sizes in ([30], range(1, 61)):
                        calls.append(0)
                        optimize_sizes(spec, DetectionStrategy.parse(key), sizes, settings, mode)
        most, total = self.SLOPE_CALL_BUDGETS[(mode, upper)]
        assert max(calls) <= most and sum(calls) <= total, calls
        assert min(calls) >= 1, calls  # the bracket ends take one slope call

    @pytest.mark.parametrize("mode", ["uniform", "scaled-reference"])
    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    def test_single_size_searches_take_at_most_four_slope_calls(self, monkeypatch, source, mode):
        # the vertex of the grid parabola seeds the root in the call that
        # reads the bracket ends; unseeded, five calls were common here.  At
        # (0.99, 0.98, 0.98), 10 of these 80 searches take five, all at 30
        # or 60 units with an optimum below 0.16, where the vertex misses
        # the root by about 4% of a cell
        calls = count_slope_calls(monkeypatch)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1, source=source)
        for key in ("spd", "upto:2", "upto:3", "thd", "set:1,3"):
            for n in (1, 7, 30, 60):
                calls.append(0)
                optimize_sizes(spec, DetectionStrategy.parse(key), [n], mode=mode)
        assert 1 <= min(calls) and max(calls) <= 4, calls


class TestKinks:
    """Scaled-reference P1 has a kink where each arm reaches the bound."""

    def test_second_maximum_beside_a_kink(self):
        # the bracket around the grid maximum holds a kink at x = 0.51003
        # and a local maximum on either side; the higher one is at 0.50926
        spec = MultiplexerSpec(v_r=0.8, v_b=0.95, v_d=0.9, n_units=11, source="thermal")
        strategy = DetectionStrategy.parse("upto:2")
        (report,) = optimize_sizes(spec, strategy, [11], mode="scaled-reference")
        xs = np.linspace(0.498, 0.518, 20_001)
        upper = OptimizerSettings().lambda_upper
        profiles = np.minimum(xs[:, None] / transmission_vector(spec), upper)
        scan = p1_profile_batch(spec, strategy, profiles)
        assert abs(report.best_p1 - scan.max()) <= 1e-12
        assert report.best_p1 >= scan.max() - 1e-15

    @pytest.mark.parametrize("n", [12, 34])
    def test_maximum_on_a_kink(self, n):
        # P1 rises until arm 2 reaches the bound and falls after: the
        # optimum is the kink itself, where a stop beside it loses P1
        spec = MultiplexerSpec(v_r=0.8, v_b=0.95, v_d=0.9, n_units=n, source="thermal")
        strategy = DetectionStrategy.parse("set:2,28")
        upper = 0.3
        settings = OptimizerSettings(lambda_upper=upper)
        (report,) = optimize_sizes(spec, strategy, [n], settings, "scaled-reference")
        v = transmission_vector(spec)
        assert report.best_pump.lambdas[1] == pytest.approx(upper, rel=1e-15, abs=0.0)
        assert report.best_pump.lambdas[0] * v[0] == pytest.approx(upper * v[1], rel=1e-15, abs=0.0)
        for h in (1e-12, 1e-9, 1e-6, 1e-3):
            for x in (upper * v[1] - h, upper * v[1] + h):
                pump = PumpProfile(tuple(np.minimum(x / v, upper).tolist()))
                assert single_photon_prob(spec, pump, strategy) <= report.best_p1, (h, x)


class TestSeededRoot:
    """The vertex of the grid parabola seeds each slope root, and the optimum stays put."""

    @staticmethod
    def assert_scan_maximum(source, point, key, n, upper, mode):
        # the report against 20 001 points over the grid cells on either
        # side of it, as TestKinks scans
        v_r, v_b, v_d = point
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=n, source=source)
        strategy = DetectionStrategy.parse(key)
        (report,) = optimize_sizes(spec, strategy, [n], OptimizerSettings(upper), mode)
        v = transmission_vector(spec) if mode == "scaled-reference" else np.ones(n)
        j = np.argmax(v)  # the arm of the smallest rescaled mean
        assert report.best_pump.lambdas[j] < upper or mode == "uniform"
        x = report.best_pump.lambdas[j] * v[j]  # the scalar, read off that arm
        cell = upper / 512
        xs = np.linspace(max(x - cell, 0.0), min(x + cell, upper), 20_001)
        scan = p1_profile_batch(spec, strategy, np.minimum(xs[:, None] / v, upper))
        assert abs(report.best_p1 - scan.max()) <= 1e-12
        assert report.best_p1 >= scan.max() - 1e-15

    @pytest.mark.parametrize("mode", ["uniform", "scaled-reference"])
    @pytest.mark.parametrize("n", [1, 30])
    @pytest.mark.parametrize("key", ["spd", "upto:2", "thd", "set:1,3"])
    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    def test_seeded_optimum_is_the_scan_maximum(self, source, key, n, mode):
        self.assert_scan_maximum(source, (0.9, 0.8, 0.85), key, n, 5.0, mode)

    @pytest.mark.parametrize(
        "source,point,key,n,upper,mode",
        [
            # P1 still rises at the bound: the grid maximum is its last point, unseeded
            ("poisson", (0.9, 0.8, 0.85), "spd", 7, 0.3, "uniform"),
            # the vertex, 0.51010, is past the kink at 0.51003, and the higher
            # maximum, 0.50926, lies in the piece before it, which has no seed
            ("thermal", (0.8, 0.95, 0.9), "upto:2", 11, 5.0, "scaled-reference"),
            # the same at a bound of 0.3: vertex 0.28094, kink 0.28073, optimum 0.28062
            ("poisson", (0.95, 0.95, 0.85), "thd", 12, 0.3, "scaled-reference"),
            # P1 peaks on the kink at 0.25265; the vertex seeds the falling piece after it
            ("poisson", (0.9, 0.95, 0.85), "set:2,28", 20, 0.3, "scaled-reference"),
            # a seeded interior optimum, 0.14466, at a bound of 0.3
            ("thermal", (0.99, 0.98, 0.98), "thd", 30, 0.3, "uniform"),
        ],
        ids=["grid-edge", "vertex-past-a-kink", "vertex-past-a-kink-0.3", "kink-peak", "bound-0.3"],
    )
    def test_edge_cases_of_the_seed(self, source, point, key, n, upper, mode):
        self.assert_scan_maximum(source, point, key, n, upper, mode)


PAST_THE_CUTOFF = [("thermal", 20.0), ("thermal", 1e3), ("poisson", 300.0), ("poisson", 1e3)]


class TestBoundsPastTheSeriesCutoff:
    """Only the per-unit grid cuts the pair-number series, so only it has a ceiling."""

    @pytest.mark.parametrize("source,upper", PAST_THE_CUTOFF)
    @pytest.mark.parametrize("mode", ["uniform", "scaled-reference"])
    def test_one_parameter_search_evaluates(self, source, upper, mode):
        # past a Poisson mean of 700 the closed forms take their log path
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=1, source=source)
        settings = OptimizerSettings(lambda_upper=upper)
        for key in ("spd", "thd", "upto:2", "set:1,30,35"):
            strategy = DetectionStrategy.parse(key)
            for report in optimize_sizes(spec, strategy, [1, 2, 5, 20, 60], settings, mode):
                pump = report.best_pump
                dist = output_distribution(spec.with_units(report.n_units), pump, strategy)
                assert dist.probs[1] == report.best_p1
                assert report.upper_bound_hit == (max(pump.lambdas) >= upper)

    def test_one_parameter_optimum_holds_at_a_large_bound(self):
        # the optimum sits in the scalar grid's first cell, [0, 39.06], where
        # the slope at the far end is -3e-15; the first two cells are
        # tabulated again until the maximum leaves them
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3)
        default = optimize_uniform(spec, SPD).best_p1  # 0.577 at a mean of 0.993
        wide = optimize_uniform(spec, SPD, OptimizerSettings(lambda_upper=1e4)).best_p1
        assert abs(wide - default) <= 1e-12

    @pytest.mark.parametrize(
        "upper,p1_tol",
        [(300.0, 1e-14), (1e4, 1e-14), (1e8, 1e-14), (1e10, 1e-6), (1e11, 1e-4), (1e12, 1e-2)],
    )
    @pytest.mark.parametrize("mode", ["uniform", "scaled-reference"])
    @pytest.mark.parametrize("source", ["poisson", "thermal"])
    def test_one_parameter_optimum_holds_at_very_large_bounds(self, source, mode, upper, p1_tol):
        # the mean is resolved to the root's tolerance, 1e-12 of the bound,
        # so from 1e10 P1 falls short by about the square of that; at 1e11
        # the cells of the last grid must get narrower than the tolerance
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=3, source=source)
        (default,) = optimize_sizes(spec, SPD, [3], mode=mode)
        (wide,) = optimize_sizes(spec, SPD, [3], OptimizerSettings(lambda_upper=upper), mode)
        lam, lam_default = wide.best_pump.lambdas[0], default.best_pump.lambdas[0]
        assert abs(lam - lam_default) <= 1e-12 * upper
        assert abs(wide.best_p1 - default.best_p1) <= p1_tol

    @pytest.mark.parametrize("source,upper", PAST_THE_CUTOFF)
    def test_per_unit_search_refuses(self, source, upper):
        # on every call, since the cached grid keeps no exception
        spec = MultiplexerSpec(v_r=0.9, v_b=0.8, v_d=0.85, n_units=3, source=source)
        for _ in range(2):
            with pytest.raises(TruncationError):
                optimize_pump(spec, SPD, OptimizerSettings(lambda_upper=upper))


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

    def test_chain_arms_are_the_arms_of_each_size(self):
        # the all-sizes tables read the arm law that transmission_vector reads,
        # so a reported P1 re-evaluates from the profile bit for bit
        sizes = np.arange(1, 201)
        for v_r in np.linspace(0.5, 0.999, 15):
            for v_b in (0.8, 0.9, 0.98, 1.0):
                spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=0.9, n_units=1)
                chain = asmux.optimize._Chain(
                    spec, SPD, OptimizerSettings(), sizes, OptimizationMode.PER_UNIT
                )
                for n in sizes.tolist():
                    v = transmission_vector(spec.with_units(n))
                    assert v[:-1].tolist() == chain.v_through[: n - 1].tolist()
                    assert v[-1] == chain.v_last[n - 1], (v_r, v_b, n)


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
        # a float or a string was truncated or parsed: 7.9 searched sizes 1-7
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError, match="n_ref must be in"):
            find_optimal_n(spec, SPD, n_ref=1)
        for n_ref in (7.9, np.float64(5.0), "5"):
            with pytest.raises(ParameterError, match="n_ref must be an integer, got "):
                find_optimal_n(spec, SPD, n_ref=n_ref)

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf])
    def test_threshold_validation(self, monkeypatch, threshold):
        # an all-False saturation mask would report n_opt = 1; the check
        # comes before any optimization
        def no_search(*args, **kwargs):
            raise AssertionError("optimized before checking the threshold")

        monkeypatch.setattr(asmux.optimize, "_search", no_search)
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=1)
        with pytest.raises(ParameterError, match="threshold must be positive and finite"):
            find_optimal_n(spec, SPD, n_ref=20, threshold=threshold)


class TestSizeReports:
    """A size search keeps its arrays; its reports read as the tuple optimize_sizes returns."""

    @pytest.fixture(params=[(m, s) for m in OptimizationMode for s in ("poisson", "thermal")])
    def searched(self, request):
        mode, source = request.param
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=1, source=source)
        result = find_optimal_n(spec, SPD, n_ref=20, mode=mode)
        return spec, mode, result, optimize_sizes(spec, SPD, range(1, 21), mode=mode)

    def test_each_report_is_the_one_optimize_sizes_builds(self, searched):
        _, _, result, direct = searched
        assert type(direct) is tuple
        for i, report in enumerate(direct):
            assert result.reports[i] == report
            pump = result.reports[i].best_pump
            assert pump == PumpProfile(pump.lambdas) and hash(pump) == hash(report.best_pump)
            assert all(type(x) is float for x in pump.lambdas)
        assert result.reports == direct and direct == result.reports
        assert result.strategy == SPD

    def test_indexing_slicing_and_iteration_behave_as_the_tuple(self, searched):
        _, _, result, direct = searched
        reports = result.reports
        assert len(reports) == len(direct) == 20
        assert list(reports) == list(direct)
        assert list(reversed(reports)) == list(reversed(direct))
        for i in (-1, -7, -20, 0, 19):
            assert reports[i] == direct[i]
        for part in (slice(2, 7), slice(None, None, -3), slice(-5, None), slice(30, None)):
            assert type(reports[part]) is tuple
            assert reports[part] == direct[part]
        for i in (20, -21):
            with pytest.raises(IndexError):
                reports[i]
        with pytest.raises(TypeError):
            reports[1.0]
        assert direct[3] in reports and reports.index(direct[3]) == 3

    def test_p1_by_n_is_a_copy_of_the_reported_values(self, searched):
        _, _, result, _ = searched
        values = [r.best_p1 for r in result.reports]
        curve = result.p1_by_n
        assert curve.tolist() == values
        curve[:] = -1.0
        assert result.p1_by_n.tolist() == values
        assert [r.best_p1 for r in result.reports] == values
        assert result.p1_max == values[result.n_opt - 1]

    def test_results_of_one_search_compare_and_hash_as_with_a_tuple(self, searched):
        spec, mode, result, _ = searched
        again = find_optimal_n(spec, SPD, n_ref=20, mode=mode)
        as_tuple = dataclasses.replace(result, reports=tuple(result.reports))
        assert again == result == as_tuple
        assert hash(again) == hash(result) == hash(as_tuple)
        assert repr(again) == repr(result) == repr(as_tuple)
        assert as_tuple.p1_by_n.tolist() == result.p1_by_n.tolist()
        assert as_tuple.strategy == result.strategy == SPD
        assert find_optimal_n(spec, DetectionStrategy.threshold(), n_ref=20, mode=mode) != result

    def test_stored_arrays_are_read_only(self, searched):
        _, _, result, _ = searched
        before = (result.reports[3], result.p1_by_n.tolist(), hash(result))
        for name in ("sizes", "lam", "p1", "hit"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(result.reports, name)[3] = 0
        assert (result.reports[3], result.p1_by_n.tolist(), hash(result)) == before

    @pytest.mark.parametrize("mode", list(OptimizationMode))
    @pytest.mark.parametrize("bad", [math.nan, -1e-300, math.inf])
    def test_a_search_that_yields_a_bad_mean_raises(self, monkeypatch, mode, bad):
        # a search checks every mean at once, before any report is read
        name = "_per_unit_profiles" if mode is OptimizationMode.PER_UNIT else "_scalar_profiles"
        search = getattr(asmux.optimize, name)

        def spoiled(*args, **kwargs):
            lam = search(*args, **kwargs)
            lam[-1, 2] = bad
            return lam

        monkeypatch.setattr(asmux.optimize, name, spoiled)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=1)
        match = "input mean photon numbers must be finite and >= 0"
        with pytest.raises(ParameterError, match=match):
            find_optimal_n(spec, SPD, n_ref=6, mode=mode)
        with pytest.raises(ParameterError, match=match):
            optimize_sizes(spec, SPD, [4], mode=mode)
        with pytest.raises(ParameterError, match=match):
            PumpProfile((0.5, bad))


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

    # a float ceiling was truncated (2.5 ran as 2), a string was parsed
    @pytest.mark.parametrize("max_accept", [0, -3, 2.5, np.float64(2.0), "2", math.nan])
    def test_max_accept_validation(self, monkeypatch, max_accept):
        # with no ceiling to raise, the scan would rank threshold detection alone
        def no_search(*args, **kwargs):
            raise AssertionError("searched before checking max_accept")

        monkeypatch.setattr(asmux.optimize, "find_optimal_n", no_search)
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        fault = ">= 1" if isinstance(max_accept, int) else "an integer"
        with pytest.raises(ParameterError, match=f"max_accept must be {fault}, got "):
            strategy_scan(spec, n_ref=10, max_accept=max_accept)

    def test_numpy_integer_ceiling_scans_as_int(self):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        ours = strategy_scan(spec, n_ref=10, max_accept=np.int64(2))
        plain = strategy_scan(spec, n_ref=10, max_accept=2)
        assert [(r.strategy, r.n_opt, r.p1_max) for r in ours] == [
            (r.strategy, r.n_opt, r.p1_max) for r in plain
        ]

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
    spec, strategy, pump, baseline_p1, resolution=1e-4, evaluate=p1_profile_batch
):
    """Reference walk: each edge alone, one single-profile P1 call per shift.

    This is the former implementation of ``stability_interval``; it
    returns ``(delta_minus, delta_plus, empty)``.
    """
    base = pump.as_array()

    def p1_at(delta):
        shifted = np.clip(base + delta, 0.0, None)
        return float(evaluate(spec, strategy, shifted[None, :])[0])

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


def recorder(sizes):
    """``p1_profile_batch`` that appends each call's profile count to ``sizes``."""
    def recorded(spec, strategy, lam_matrix):
        sizes.append(len(lam_matrix))
        return p1_profile_batch(spec, strategy, lam_matrix)
    return recorded


class TestStabilityWalk:
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
        expected = sequential_interval(spec, strategy, profile, baseline, resolution)
        interval = stability_interval(spec, strategy, profile, baseline, resolution)
        # repr tells -0.0 from +0.0
        assert repr((interval.delta_minus, interval.delta_plus, interval.empty)) == repr(expected)

    def test_call_count_against_sequential_walk(self, monkeypatch):
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=8)
        pump = optimize_pump(spec, SPD).best_pump
        baseline = optimize_uniform(spec, SPD).best_p1
        sequential, batched = [], []
        expected = sequential_interval(spec, SPD, pump, baseline, evaluate=recorder(sequential))
        monkeypatch.setattr(asmux.optimize, "p1_profile_batch", recorder(batched))
        interval = stability_interval(spec, SPD, pump, baseline)
        assert (interval.delta_minus, interval.delta_plus, interval.empty) == expected
        # each edge takes 12 doubling steps and 11 bisection levels: one shift
        # per call that is 1 + 2 * (12 + 11) = 47 calls.  Batched, one call
        # tests zero and both ladders (1 + 2 * 18 rungs from 1e-4 up to 13.1),
        # and each edge then bisects alone with three levels per call,
        # 1 + 4 + 4 = 9
        assert (len(sequential), len(batched)) == (47, 9)
        assert batched[0] == 37

    def test_smallest_subnormal_resolution(self, monkeypatch):
        # the ladder doubles 2^-1074 up to 2^4 = 16: 1079 rungs per edge, all
        # in the first call
        spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=4, source="thermal")
        pump = optimize_pump(spec, SPD).best_pump
        baseline = optimize_uniform(spec, SPD).best_p1
        expected = sequential_interval(spec, SPD, pump, baseline, resolution=5e-324)
        batched = []
        monkeypatch.setattr(asmux.optimize, "p1_profile_batch", recorder(batched))
        interval = stability_interval(spec, SPD, pump, baseline, resolution=5e-324)
        assert repr((interval.delta_minus, interval.delta_plus, interval.empty)) == repr(expected)
        assert not interval.empty
        assert batched[0] == 1 + 2 * 1079


class TestSettingsValidation:
    def test_invariants(self):
        for upper in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match="lambda_upper must be > 0"):
                OptimizerSettings(lambda_upper=upper)
        assert OptimizerSettings(lambda_upper=1e-3).lambda_upper == 1e-3

    @pytest.mark.parametrize("upper", [5e-324, 2.4e-312, np.nextafter(TINY, 0.0)])
    def test_subnormal_bound_is_refused(self, upper):
        # a slope root's tolerance, 1e-12 of the bound, underflowed to 0 and
        # a scaled-reference search never returned
        with pytest.raises(ParameterError, match="the smallest normal float"):
            OptimizerSettings(lambda_upper=upper)

    @pytest.mark.parametrize("mode", list(OptimizationMode))
    def test_search_at_the_smallest_normal_bound_returns(self, mode):
        settings = OptimizerSettings(lambda_upper=TINY)
        for source in ("poisson", "thermal"):
            spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1, source=source)
            for key in ("spd", "thd", "upto:2", "set:2,28"):
                strategy = DetectionStrategy.parse(key)
                for report in optimize_sizes(spec, strategy, [1, 3, 20], settings, mode):
                    pump = report.best_pump
                    dist = output_distribution(spec.with_units(report.n_units), pump, strategy)
                    assert dist.probs[1] == report.best_p1
                    assert max(pump.lambdas) <= TINY

    # past numpy's index range (2**63 - 1 on 64 bits) a size used to raise OverflowError;
    # a float was truncated (2.5 searched size 2), and a string raised a bare TypeError
    @pytest.mark.parametrize(
        "sizes",
        [[], [0, 3], [3, 10**20], [-(10**20)], [2**63 - 1], [2.5], [np.float64(3.7)], ["3"]],
    )
    def test_sizes_must_be_positive_and_nonempty(self, sizes):
        spec = MultiplexerSpec(v_r=0.9, v_b=0.9, v_d=0.9, n_units=1)
        if all(isinstance(n, int) for n in sizes):
            message = "sizes must be a nonempty set"
        else:
            message = "each size in sizes must be an integer, got "
        with pytest.raises(ParameterError, match=message):
            optimize_sizes(spec, SPD, sizes)
