"""Property tests of the all-sizes optimizer over random models."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import find_optimal_n, optimize_pump
from asmux.statistics import DetectionStrategy, output_distribution

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
@given(models(), st.data())
def test_all_sizes_pass_matches_single_size_and_canonical(model, data):
    spec, strategy, n_ref = model
    search = find_optimal_n(spec, strategy, n_ref=n_ref)
    n = data.draw(st.integers(1, n_ref))
    single = optimize_pump(spec.with_units(n), strategy)
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
