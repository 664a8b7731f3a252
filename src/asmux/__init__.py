"""Exact photon-number statistics and pump optimization for heralded
single-photon sources built on an asymmetric (chained) spatial multiplexer
with photon-number-resolving heralding detectors."""

import os
import sys

# one BLAS thread unless the environment sets a count: the per-unit search's
# small products gain no time from more, and round the same on any core count
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("MKL_NUM_THREADS", "1")

from .exceptions import ParameterError, TruncationError
from .experiments import (
    Axis,
    ResultRow,
    SweepGrid,
    fixed_n_curve,
    reproduce_table1,
    run_sweep,
    stability_report,
    vb_crossover,
    write_csv,
    write_json,
)
from .montecarlo import McResult, McSettings, compare_with_analytic, simulate
from .multiplexer import MultiplexerSpec, SourceFamily, transmission_vector
from .optimize import (
    OptimalSizeResult,
    OptimizationMode,
    OptimizationReport,
    OptimizerSettings,
    StabilityInterval,
    find_optimal_n,
    optimize_pump,
    optimize_scaled_reference,
    optimize_sizes,
    optimize_uniform,
    stability_interval,
    strategy_scan,
)
from .statistics import (
    DetectionStrategy,
    OutputDistribution,
    PumpProfile,
    output_distribution,
    single_photon_prob,
)

__version__ = "0.1.0"

__all__ = [
    "ParameterError",
    "TruncationError",
    "MultiplexerSpec",
    "SourceFamily",
    "transmission_vector",
    "DetectionStrategy",
    "PumpProfile",
    "OutputDistribution",
    "output_distribution",
    "single_photon_prob",
    "OptimizationMode",
    "OptimizerSettings",
    "OptimizationReport",
    "OptimalSizeResult",
    "StabilityInterval",
    "optimize_sizes",
    "optimize_pump",
    "optimize_uniform",
    "optimize_scaled_reference",
    "find_optimal_n",
    "strategy_scan",
    "stability_interval",
    "McSettings",
    "McResult",
    "simulate",
    "compare_with_analytic",
    "Axis",
    "SweepGrid",
    "ResultRow",
    "reproduce_table1",
    "fixed_n_curve",
    "stability_report",
    "vb_crossover",
    "run_sweep",
    "write_csv",
    "write_json",
    "__version__",
]
