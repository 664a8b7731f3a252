"""Property tests of the model and the all-sizes optimizer over random models."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from asmux.multiplexer import MultiplexerSpec, SourceFamily, transmission_vector
from asmux.optimize import (
    OptimizationMode,
    OptimizerSettings,
    _Chain,
    _rescaled,
    _scalar_p1,
    find_optimal_n,
    optimize_sizes,
)
from asmux.statistics import (
    DetectionStrategy,
    PumpProfile,
    acceptance_weights,
    one_photon_terms,
    output_distribution,
    p1_profile_batch,
    required_lmax,
    single_photon_prob,
    source_pmf,
    transmit_one_weights,
)

DETECTION = st.one_of(
    st.just(DetectionStrategy.single_photon()),
    st.just(DetectionStrategy.threshold()),
    st.integers(2, 4).map(DetectionStrategy.accept_up_to),
    st.sets(st.integers(1, 4), min_size=1).map(DetectionStrategy.explicit),
)


@st.composite
def models(draw):
    """A random loss point, source family, strategy and reference size."""
    spec = MultiplexerSpec(
        v_r=draw(st.floats(0.8, 0.99)),
        v_b=draw(st.floats(0.8, 0.98)),
        v_d=draw(st.floats(0.8, 0.98)),
        n_units=1,
        v_t=draw(st.floats(0.9, 1.0)),
        source=draw(st.sampled_from(["poisson", "thermal"])),
    )
    return spec, draw(DETECTION), draw(st.integers(2, 8))


# a fixed example set keeps the suite reproducible from run to run
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(models(), st.floats(0.3, 5.0), st.data())
def test_all_sizes_pass_matches_single_size_and_canonical(model, upper, data):
    # low bounds put many means on the bound, where the cells share one pmf row
    spec, strategy, n_ref = model
    bounds = OptimizerSettings(lambda_upper=upper)
    n = data.draw(st.integers(1, n_ref))
    for mode in OptimizationMode:
        search = find_optimal_n(spec, strategy, bounds, n_ref=n_ref, mode=mode)
        (single,) = optimize_sizes(spec, strategy, [n], bounds, mode)
        assert abs(search.p1_by_n[n - 1] - single.best_p1) <= 1e-12
        for report in search.reports:
            dist = output_distribution(spec.with_units(report.n_units), report.best_pump, strategy)
            assert float(dist.probs[1]) == report.best_p1


@PROPERTY
@given(models())
def test_per_unit_dominates_restricted_modes(model):
    spec, strategy, n_ref = model
    per_unit = find_optimal_n(spec, strategy, n_ref=n_ref).p1_by_n
    for mode in ("uniform", "scaled-reference"):
        restricted = find_optimal_n(spec, strategy, n_ref=n_ref, mode=mode).p1_by_n
        assert np.all(per_unit >= restricted - 1e-9)


@st.composite
def pumped_models(draw):
    """A random loss point and source family with a pump profile of 1-8 units."""
    spec, strategy, _ = draw(models())
    lambdas = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8).filter(any))
    return spec.with_units(len(lambdas)), PumpProfile(tuple(lambdas)), strategy


@PROPERTY
@given(pumped_models(), st.integers(1, 10))
def test_distribution_completes_to_one(model, i_max):
    spec, pump, strategy = model
    dist = output_distribution(spec, pump, strategy, i_max=i_max)
    assert np.all(dist.probs >= 0.0)
    assert abs(float(dist.probs.sum()) + dist.truncation_mass - 1.0) <= 1e-12


@PROPERTY
@given(models(), st.sampled_from(list(OptimizationMode)), pumped_models())
def test_closed_form_evaluators_agree(model, mode, pumped):
    # a p1_profile_batch row, the reported P1, single_photon_prob and
    # output_distribution's probs[1] are one closed form summed over the
    # units in one order, so they agree bit for bit; every distribution
    # completes to one
    spec, strategy, n_ref = model
    reports = optimize_sizes(spec, strategy, range(1, n_ref + 1), mode=mode)
    cases = [(spec.with_units(r.n_units), r.best_pump, strategy, r.best_p1) for r in reports]
    cases.append(pumped + (None,))
    for spec_n, pump, strat, reported in cases:
        row = float(p1_profile_batch(spec_n, strat, pump.as_array()[None, :])[0])
        dist = output_distribution(spec_n, pump, strat)
        assert float(dist.probs[1]) == row
        assert single_photon_prob(spec_n, pump, strat) == row
        if reported is not None:
            assert reported == row
        assert dist.truncation_mass >= 0.0
        assert abs(float(dist.probs.sum()) + dist.truncation_mass - 1.0) <= 1e-13


@PROPERTY
@given(pumped_models())
def test_threshold_equals_accept_up_to_series_cutoff(model):
    # the two differ only where a unit detects more idlers than the series
    # cutoff of its mean, whose mass is within the policy's tail bound
    spec, pump, _ = model
    l_max = required_lmax(spec.source, max(pump.lambdas))
    thd = output_distribution(spec, pump, DetectionStrategy.threshold())
    upto = output_distribution(spec, pump, DetectionStrategy.accept_up_to(l_max))
    assert np.allclose(thd.probs, upto.probs, rtol=0.0, atol=1e-12)
    assert abs(thd.truncation_mass - upto.truncation_mass) <= 1e-12


def _scalar_profile(spec, mode, x, upper):
    """The one-parameter profile at scalar ``x``, as the optimizer builds it."""
    if mode == "uniform":
        return PumpProfile.uniform(x, spec.n_units)
    with np.errstate(divide="ignore"):  # an arm that transmits nothing takes the bound
        lams = np.minimum(x / transmission_vector(spec), upper) if x > 0.0 else np.zeros(spec.n_units)
    return PumpProfile(tuple(lams.tolist()))


@PROPERTY
@given(
    models(),
    st.integers(1, 30),
    st.sampled_from([("uniform", 5.0), ("scaled-reference", 5.0), ("scaled-reference", 0.3)]),
)
def test_scalar_optimum_is_a_local_maximum(model, n, mode_upper):
    # P1 at nearby scalars, evaluated by the model itself and not by the
    # optimizer's slope, never beats the reported optimum; a low bound
    # puts kinks, where arms reach the bound, near the scaled optimum
    spec, strategy, _ = model
    spec = spec.with_units(n)
    mode, upper = mode_upper
    (report,) = optimize_sizes(spec, strategy, [n], OptimizerSettings(upper), mode)
    # the arm that transmits most is the last to reach the bound
    v = transmission_vector(spec) if mode == "scaled-reference" else np.ones(n)
    x = report.best_pump.lambdas[int(np.argmax(v))] * v.max()
    for h in (1e-6, 1e-4, 1e-2):
        for nearby in (x - h, x + h):
            pump = _scalar_profile(spec, mode, min(max(nearby, 0.0), upper), upper)
            assert single_photon_prob(spec, pump, strategy) <= report.best_p1 + 1e-14, (h, nearby - x)


# (v_r, v_b, v_d), source, strategy, a bound and a larger one
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(st.floats(0.8, 0.99), st.floats(0.8, 0.98), st.floats(0.8, 0.98)),
    st.sampled_from(["poisson", "thermal"]),
    st.sampled_from(["spd", "upto:2", "thd", "set:1,3", "set:2,28", "upto:6"]),
    st.lists(st.floats(-1.0, 308.25), min_size=2, max_size=2).map(sorted),
)
# each of these fell short at the larger bound on a linear grid
@example((0.99, 0.98, 0.98), "poisson", "set:2,28", [math.log10(12.0), math.log10(300.0)])
@example((0.9, 0.85, 0.8), "poisson", "set:2,28", [math.log10(12.0), 4.0])
@example((0.9, 0.85, 0.8), "thermal", "upto:6", [math.log10(12.0), 4.0])
@example((0.99, 0.98, 0.98), "poisson", "spd", [math.log10(5.0), 300.0])
@example((0.9, 0.9, 0.9), "poisson", "spd", [math.log10(5.0), 13.0])
def test_uniform_optimum_never_falls_as_the_bound_grows(point, source, key, exponents):
    # every profile within the smaller bound is within the larger one, so
    # the larger bound's optimum is at least as high.  Scaled-reference
    # profiles are capped at the bound, so their family changes with it
    v_r, v_b, v_d = point
    spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1, source=source)
    strategy = DetectionStrategy.parse(key)
    low, high = (OptimizerSettings(10.0**e) for e in exponents)
    narrow = optimize_sizes(spec, strategy, range(1, 41), low, "uniform")
    wide = optimize_sizes(spec, strategy, range(1, 41), high, "uniform")
    for a, b in zip(narrow, wide):
        assert b.best_p1 >= a.best_p1 - 2e-15, (a.n_units, a.best_p1, b.best_p1)


# ----------------------------------------------------------------------
# closed-form one-photon terms against the cut pair-number series
# ----------------------------------------------------------------------

KERNEL_DETECTION = st.sampled_from(["spd", "upto:2", "set:1,3", "set:1,2,3,4", "thd"]).map(
    DetectionStrategy.parse
)


def cut_series_terms(family, strategy, v_d, lam, v, l_max):
    """P(J in A) and t = P(J in A, K = 1) from the pmf row cut at ``l_max``, then their slopes."""
    family = SourceFamily.coerce(family)
    admit = acceptance_weights(strategy, v_d, l_max)
    one = transmit_one_weights(np.array([v]), l_max)[0] * admit
    pmf = source_pmf(family, lam, l_max)
    # the derivative of the cut row: Poisson pmf'_l = pmf_{l-1} - pmf_l,
    # thermal (l pmf_{l-1} / (1 + lam) - pmf_l) / (1 + lam)
    before = np.concatenate(([0.0], pmf[:-1]))
    if family is SourceFamily.POISSON:
        d_pmf = before - pmf
    else:
        d_pmf = (np.arange(l_max + 1) * before / (1.0 + lam) - pmf) / (1.0 + lam)
    values = [float(pmf @ admit), float(pmf @ one)]
    slopes = [float(d_pmf @ admit), float(d_pmf @ one)]
    return values, slopes


def reference_cutoff(family, lam):
    # twenty terms past the first count whose source tail is below 1e-16:
    # at a tiny mean that count is one or two pairs, and its dropped tail,
    # though below 1e-16, is not small next to the terms themselves
    if lam == 0.0:
        needed = 0
    elif family == "thermal":  # the tail beyond l is (lam / (1 + lam))^(l+1)
        needed = max(math.ceil(math.log(1e-16) / math.log(lam / (1.0 + lam))) - 1, 0)
    else:  # P(X > l) = P(l + 1, lam)
        needed = int(np.flatnonzero(gammainc(np.arange(401) + 1.0, lam) <= 1e-16)[0])
    return needed + 20


@PROPERTY
@given(
    st.sampled_from(["poisson", "thermal"]),
    KERNEL_DETECTION,
    st.floats(0.0, 5.0),
    st.floats(0.0, 1.0),
    st.floats(0.3, 1.0),
)
def test_one_photon_terms_match_the_cut_series(family, strategy, lam, v, v_d):
    l_max = reference_cutoff(family, lam)
    values, slopes = cut_series_terms(family, strategy, v_d, lam, v, l_max)
    got = one_photon_terms(family, strategy, v_d, lam, v, slope=True)
    for (g_value, g_slope), value, slope in zip(got, values, slopes):
        # below the normal float range only an absolute error is left
        assert abs(g_value - value) <= 1e-13 * value + 1e-300
        # the pmf path forms a slope as a difference of two sums of its size
        assert abs(g_slope - slope) <= 1e-12 * (abs(slope) + value) + 1e-300


@pytest.mark.parametrize(
    "family,lam,key",
    [
        ("poisson", 150.0, "upto:400"),
        ("poisson", 240.0, "upto:400"),
        ("poisson", 150.0, "set:200,230,260"),
        ("poisson", 240.0, "set:200,230,260"),
        ("thermal", 14.0, "upto:400"),
    ],
)
def test_one_photon_terms_past_the_factorial_range(family, lam, key):
    # accepted counts past 170 have 1/j! below the float range; the
    # reference sums the pmf to 1000 pairs, past the mass of every count
    strategy = DetectionStrategy.parse(key)
    for v in (0.0, 0.01, 0.3, 1.0):
        for v_d in (0.5, 0.9, 1.0):
            values, slopes = cut_series_terms(family, strategy, v_d, lam, v, 1000)
            got = one_photon_terms(family, strategy, v_d, lam, v, slope=True)
            for (g_value, g_slope), value, slope in zip(got, values, slopes):
                assert abs(g_value - value) <= 1e-13 * value + 1e-300
                assert abs(g_slope - slope) <= 1e-12 * (abs(slope) + value) + 1e-300


@pytest.mark.parametrize("key", ["spd", "upto:3", "set:700,800,900", "upto:1000"])
def test_one_photon_terms_past_the_normal_range_of_the_decay(key):
    # at a Poisson mean of 800, e^-800 is below the float range; both
    # sides then carry an exponent rounding of about 800 ulps
    strategy = DetectionStrategy.parse(key)
    for v in (0.0, 0.01, 0.3, 1.0):
        for v_d in (0.5, 0.9):
            values, _ = cut_series_terms("poisson", strategy, v_d, 800.0, v, 1400)
            got = one_photon_terms("poisson", strategy, v_d, 800.0, v)
            for value, g_value in zip(values, got):
                assert abs(g_value[0] - value) <= 1e-11 * value + 1e-300


@pytest.mark.parametrize("family", ["poisson", "thermal"])
@pytest.mark.parametrize("key", ["spd", "upto:2", "set:1,3", "set:2,3", "thd"])
def test_one_photon_terms_at_edge_cells(family, key):
    # (lam, v) = (0, 0), (0, 1), (0.7, 0), (0.7, 1), at v_d below and at one
    strategy = DetectionStrategy.parse(key)
    single = 1.0 if strategy.is_threshold or 1 in strategy.accepted else 0.0
    lam = np.array([0.0, 0.0, 0.7, 0.7])
    v = np.array([0.0, 1.0, 0.0, 1.0])
    one_pair = 0.7 * math.exp(-0.7) if family == "poisson" else 0.7 / 1.7**2
    for v_d in (0.8, 1.0):
        admit, t = one_photon_terms(family, strategy, v_d, lam, v, slope=True)
        # no pair: nothing admitted or delivered, at the slopes of one pair
        assert admit[:, :2].tolist() == [[0.0, 0.0], [v_d * single] * 2]
        assert t[:, :2].tolist() == [[0.0, 0.0], [0.0, v_d * single]]
        # an arm that transmits nothing delivers nothing
        assert t[:, 2].tolist() == [0.0, 0.0]
        # a lossless arm delivers one photon from exactly one pair
        assert t[0, 3] == pytest.approx(v_d * single * one_pair, rel=1e-15, abs=0.0)


ONE_CALL_DETECTION = st.sampled_from(["spd", "thd", "upto:2", "set:1,3", "set:2,28"]).map(
    DetectionStrategy.parse
)
# Poisson means at and past 700 take the closed forms' log path
ONE_CALL_MEAN = st.one_of(st.floats(0.0, 5.0), st.floats(700.0, 2000.0))


def _arms(data, n: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))


def _bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@PROPERTY
@given(
    st.sampled_from(["poisson", "thermal"]),
    ONE_CALL_DETECTION,
    st.floats(0.3, 1.0),
    st.lists(ONE_CALL_MEAN, min_size=1, max_size=5),
    st.integers(1, 6),
    st.booleans(),
    st.data(),
)
def test_one_photon_terms_over_joined_arms_match_separate_calls(
    family, strategy, v_d, lams, n, slope, data
):
    # the one-parameter searches read the through arms and the last arms in
    # one call: as columns of one row shared by every mean (the grid), or
    # of one row per mean whose last column is that mean's own last arm
    lam = np.array(lams)
    through, own = _arms(data, n), _arms(data, lam.size)
    last = _arms(data, data.draw(st.integers(1, 4)))

    def terms(lam, v):
        return np.stack(one_photon_terms(family, strategy, v_d, lam, v, slope))

    apart = terms(lam[:, None], through)
    joined = terms(lam[:, None], np.concatenate([through, last]))
    assert _bits(joined[..., :n], joined[..., n:]) == _bits(apart, terms(lam[:, None], last))
    rows = np.empty((lam.size, n + 1))
    rows[:, :-1] = through
    rows[:, -1] = own
    joined = terms(lam[:, None], rows)
    assert _bits(joined[..., :n], joined[..., n]) == _bits(apart, terms(lam, own))


@pytest.mark.parametrize("family", ["poisson", "thermal"])
@pytest.mark.parametrize("mode", [OptimizationMode.UNIFORM, OptimizationMode.SCALED_REFERENCE])
def test_slope_calls_read_the_grid_values(family, mode):
    # a slope call evaluates every arm of its lanes at the lane's means; a
    # scaled-reference grid reads each capped cell from its arm's values on
    # the bound.  Both give the same P1 bit for bit, and a lane whose every
    # arm is on the bound has a slope of exactly 0.
    sizes = np.array([1, 2, 3, 7, 12])
    cols = np.arange(sizes.size)
    for key in ("spd", "thd", "upto:2", "set:1,3", "set:2,28"):
        strategy = DetectionStrategy.parse(key)
        # every arm open; every arm past the first blocked; every arm blocked
        for v_r, v_b in ((0.9, 0.8), (0.0, 0.8), (0.9, 0.0)):
            spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=0.85, n_units=1, source=family)
            for upper in (0.3, 5.0, 2000.0, 1e8):
                chain = _Chain(spec, strategy, OptimizerSettings(upper), sizes, mode)
                # grid points, a tiny scalar, and the kinks where an arm reaches the bound
                kinks = upper * np.concatenate([chain.v_through, chain.v_last])
                xs = np.concatenate([np.linspace(0.0, upper, 9), [1e-12 * upper], kinks])
                table = _scalar_p1(chain, xs)
                lanes = _scalar_p1(chain, np.repeat(xs, sizes.size), np.tile(cols, xs.size))
                assert _bits(lanes[:, 0]) == _bits(table.reshape(-1)), (key, v_r, v_b, upper)
                if mode is OptimizationMode.SCALED_REFERENCE:
                    arms = [
                        np.append(chain.v_through[: n - 1], last)
                        for n, last in zip(sizes, chain.v_last)
                    ]
                    on_bound = np.array(
                        [np.all(_rescaled(x, v, upper) == upper) for x in xs for v in arms]
                    )
                    assert on_bound.any()  # x = upper puts every arm on the bound
                    assert np.all(lanes[on_bound, 1] == 0.0), (key, v_r, v_b, upper)
