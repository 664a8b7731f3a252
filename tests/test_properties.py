"""Property tests of the model and the all-sizes optimizer over random models."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asmux.multiplexer import MultiplexerSpec, transmission_vector
from asmux.optimize import OptimizationMode, OptimizerSettings, find_optimal_n, optimize_sizes
from asmux.statistics import (
    DetectionStrategy,
    PumpProfile,
    TruncationPolicy,
    output_distribution,
    required_lmax,
    single_photon_prob,
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
            assert abs(float(dist.probs[1]) - report.best_p1) <= 1e-10


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
@given(pumped_models(), st.integers(1, 10), st.sampled_from([1e-12, 1e-10, 1e-8, 5e-7]))
def test_distribution_completes_to_one(model, i_max, tail_epsilon):
    spec, pump, strategy = model
    trunc = TruncationPolicy(tail_epsilon=tail_epsilon)
    dist = output_distribution(spec, pump, strategy, i_max=i_max, trunc=trunc)
    assert np.all(dist.probs >= 0.0)
    assert abs(float(dist.probs.sum()) + dist.truncation_mass - 1.0) <= 1e-12
    # each entry is a lower bound, and truncation_mass covers what it misses
    reference = output_distribution(spec, pump, strategy, i_max=i_max).probs
    assert np.all(dist.probs <= reference + 1e-15)
    assert np.all(reference <= dist.probs + dist.truncation_mass)


@PROPERTY
@given(pumped_models())
def test_threshold_equals_accept_up_to_series_cutoff(model):
    # no unit can detect more pairs than the series cutoff keeps
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
@given(models(), st.integers(1, 30), st.sampled_from(["uniform", "scaled-reference"]))
def test_scalar_optimum_is_a_local_maximum(model, n, mode):
    # P1 at nearby scalars, evaluated by the model itself and not by the
    # optimizer's slope, never beats the reported optimum
    spec, strategy, _ = model
    spec = spec.with_units(n)
    upper = OptimizerSettings().lambda_upper
    (report,) = optimize_sizes(spec, strategy, [n], mode=mode)
    # the arm that transmits most is the last to reach the bound
    v = transmission_vector(spec) if mode == "scaled-reference" else np.ones(n)
    x = report.best_pump.lambdas[int(np.argmax(v))] * v.max()
    for h in (1e-6, 1e-4, 1e-2):
        for nearby in (x - h, x + h):
            pump = _scalar_profile(spec, mode, min(max(nearby, 0.0), upper), upper)
            assert single_photon_prob(spec, pump, strategy) <= report.best_p1 + 1e-14, (h, nearby - x)
