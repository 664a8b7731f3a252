"""Every count a caller passes goes through one rule, ``multiplexer._integer``.

A float, a numpy float or a string is refused even when it holds a whole
number, and so is NaN, with a message that names the fault; a Python or
numpy integer gives the result the Python int gives.  Each of these used
to be truncated or parsed into a count the caller did not pass.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asmux.exceptions import ParameterError
from asmux.experiments import fixed_n_curve
from asmux.montecarlo import McSettings
from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import find_optimal_n, optimize_sizes, strategy_scan
from asmux.statistics import (
    MAX_ACCEPTED_COUNT,
    DetectionStrategy,
    PumpProfile,
    acceptance_weights,
    output_distribution,
)

SPEC = MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=2)
SPD = DetectionStrategy.single_photon()

# entry point: (name in its message, integers it accepts, call with one count)
ENTRY_POINTS = {
    "MultiplexerSpec": (
        "n_units",
        st.integers(1, 40),
        lambda n: MultiplexerSpec(v_r=0.9, v_b=0.85, v_d=0.9, n_units=n),
    ),
    "PumpProfile.uniform": ("n_units", st.integers(1, 40), lambda n: PumpProfile.uniform(0.5, n)),
    "DetectionStrategy.accept_up_to": (
        "maximum accepted count",
        st.integers(1, MAX_ACCEPTED_COUNT),
        DetectionStrategy.accept_up_to,
    ),
    "DetectionStrategy.explicit": (
        "each accepted count",
        st.integers(1, MAX_ACCEPTED_COUNT),
        lambda j: DetectionStrategy.explicit([1, j]),
    ),
    "output_distribution": (
        "i_max",
        st.integers(1, 30),
        lambda i: output_distribution(SPEC, PumpProfile((0.5, 0.7)), SPD, i_max=i).probs.tolist(),
    ),
    "acceptance_weights": (
        "l_max",
        st.integers(0, 60),
        lambda l_max: acceptance_weights(DetectionStrategy.accept_up_to(3), 0.9, l_max).tolist(),
    ),
    "McSettings.trials": ("trials", st.integers(1000, 2**63 - 1), lambda n: McSettings(trials=n)),
    "McSettings.seed": ("seed", st.integers(0, 2**63 - 1), lambda n: McSettings(seed=n)),
    "McSettings.max_count": ("max_count", st.integers(1, 100), lambda n: McSettings(max_count=n)),
    "optimize_sizes": (
        "each size in sizes",
        st.integers(1, 4),
        lambda n: optimize_sizes(SPEC, SPD, [n]),
    ),
    "fixed_n_curve": (
        "each size in n_range",
        st.integers(1, 4),
        lambda n: fixed_n_curve(SPEC, SPD, ["uniform"], [n]),
    ),
    "find_optimal_n": ("n_ref", st.integers(2, 5), lambda n: find_optimal_n(SPEC, SPD, n_ref=n)),
    "strategy_scan": (
        "max_accept",
        st.integers(1, 3),
        lambda m: strategy_scan(SPEC, n_ref=3, max_accept=m),
    ),
}

WHOLE = st.integers(-5, 2**53)
NOT_INTEGERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()),
    WHOLE.map(float),
    WHOLE.map(np.float64),
    WHOLE.map(str),
    st.just(math.nan),
    st.just(math.inf),
)
NUMPY_INTEGERS = st.sampled_from([np.int64, np.uint64, np.int16, np.uint8])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(value=NOT_INTEGERS)
@example(value=2.5)
@example(value="3")
def test_a_value_that_is_not_an_integer_is_refused_by_name(entry, value):
    name, _, call = ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_numpy_integer_gives_the_python_int_result(entry, data):
    _, integers, call = ENTRY_POINTS[entry]
    value = data.draw(integers, label="value")
    dtype = data.draw(NUMPY_INTEGERS, label="dtype")
    assume(value <= np.iinfo(dtype).max)
    assert call(dtype(value)) == call(value)


def test_integers_out_of_range_keep_their_range_messages():
    with pytest.raises(ParameterError, match="pump profile must contain at least one value"):
        PumpProfile.uniform(0.5, 0)
    with pytest.raises(ParameterError, match="maximum accepted count must be in"):
        DetectionStrategy.accept_up_to(0)
    with pytest.raises(ParameterError, match="accepted counts must be >= 1"):
        DetectionStrategy.explicit([0, 1])
    with pytest.raises(ParameterError, match="i_max must be in"):
        output_distribution(SPEC, PumpProfile((0.5, 0.7)), SPD, i_max=0)
    with pytest.raises(ParameterError, match="l_max must be >= 0, got -1"):
        acceptance_weights(SPD, 0.9, -1)
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        McSettings(seed=-1)


def test_a_duplicate_does_not_hide_a_float():
    # a set would merge 1.0 into 1 before any check saw it
    with pytest.raises(ParameterError, match="each accepted count must be an integer, got 1.0"):
        DetectionStrategy.explicit([1, 1.0])

