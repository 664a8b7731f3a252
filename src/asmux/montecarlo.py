"""Direct stochastic simulation of the multiplexed source.

Each trial draws the physical process end to end: pair generation in
every unit, detector thinning of the idler counts, priority routing to
the accepted unit with the smallest index, and binomial loss along that
unit's arm.  Units after the winner cannot change a trial's output, so
they are not drawn for it.  Frequencies of the output photon number
estimate the same distribution the analytic model computes, so the two
implementations validate each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ParameterError
from .multiplexer import MultiplexerSpec, SourceFamily, transmission_vector
from .statistics import (
    DEFAULT_TRUNCATION,
    DetectionStrategy,
    PumpProfile,
    TruncationPolicy,
    output_distribution,
)

__all__ = [
    "McSettings",
    "McResult",
    "McComparison",
    "simulate",
    "compare_with_analytic",
    "expected_exceedances",
    "VALIDATION_CORPUS",
    "corpus_case",
]


@dataclass(frozen=True)
class McSettings:
    """Trial budget and seeding for the stochastic run.

    Trials are split into fixed-size chunks, each driven by its own
    spawned random stream; merged counts are therefore independent of
    execution order and bit-identical for a fixed seed.
    """

    trials: int = 10_000_000
    seed: int = 0
    max_count: int = 10
    chunk_trials: int = 500_000

    def __post_init__(self) -> None:
        if int(self.trials) < 1_000:
            raise ParameterError(f"trials must be >= 1000, got {self.trials}")
        if int(self.max_count) < 1:
            raise ParameterError(f"max_count must be >= 1, got {self.max_count}")
        if int(self.chunk_trials) < 1:
            raise ParameterError("chunk_trials must be positive")
        for name in ("trials", "max_count", "chunk_trials"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(eq=False)
class McResult:
    """Counts of output photon numbers 0..max_count plus the overflow bucket."""

    counts: np.ndarray
    overflow: int
    trials: int
    seed: int

    @property
    def estimates(self) -> np.ndarray:
        return self.counts / self.trials

    @property
    def std_errors(self) -> np.ndarray:
        p = self.estimates
        return np.sqrt(p * (1.0 - p) / self.trials)


def _simulate_chunk(
    rng: np.random.Generator,
    size: int,
    lam: np.ndarray,
    v_arm: np.ndarray,
    v_d: float,
    strategy: DetectionStrategy,
    family: SourceFamily,
    max_count: int,
) -> np.ndarray:
    """Tally the output photon numbers of ``size`` trials, unit by unit.

    Priority goes to the admitted unit with the smallest index, so once
    a trial has a winner no later unit can change its output.  Each unit
    is therefore drawn only for the trials still pending; trials are
    exchangeable, so only their number needs to be carried.  Trials
    that no unit admits leave the output empty.
    """
    counts = np.zeros(max_count + 2, dtype=np.int64)
    pending = size
    for lam_k, v_k in zip(lam, v_arm):
        if family is SourceFamily.POISSON:
            pairs = rng.poisson(lam_k, size=pending)
        else:
            # thermal pair numbers are geometric on {0, 1, ...}
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


def simulate(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    mc: McSettings = McSettings(),
) -> McResult:
    """Estimate the output photon-number probabilities by direct sampling."""
    if len(pump) != spec.n_units:
        raise ParameterError(
            f"pump profile has {len(pump)} entries but the spec has {spec.n_units} units"
        )
    lam = pump.as_array()
    v_arm = transmission_vector(spec)

    n_full, remainder = divmod(mc.trials, mc.chunk_trials)
    sizes = [mc.chunk_trials] * n_full + ([remainder] if remainder else [])
    streams = np.random.SeedSequence(mc.seed).spawn(len(sizes))

    totals = np.zeros(mc.max_count + 2, dtype=np.int64)
    for seq, size in zip(streams, sizes):
        rng = np.random.default_rng(seq)
        totals += _simulate_chunk(
            rng, size, lam, v_arm, spec.v_d, strategy, spec.source, mc.max_count
        )
    return McResult(
        counts=totals[: mc.max_count + 1],
        overflow=int(totals[mc.max_count + 1]),
        trials=mc.trials,
        seed=mc.seed,
    )


@dataclass(eq=False)
class McComparison:
    """Side-by-side of sampled frequencies and the analytic distribution."""

    result: McResult
    analytic: np.ndarray

    @property
    def deviations(self) -> np.ndarray:
        return np.abs(self.result.estimates - self.analytic)

    @property
    def analytic_std_errors(self) -> np.ndarray:
        p = self.analytic
        return np.sqrt(p * (1.0 - p) / self.result.trials)

    def within(self, n_sigma: float, count_slack: float = 10.0) -> bool:
        """True when every estimate sits within ``n_sigma`` standard errors.

        The additive slack of a few expected counts keeps buckets whose
        analytic probability is essentially zero from failing on a
        single stray sample.
        """
        tolerance = n_sigma * self.analytic_std_errors + count_slack / self.result.trials
        return bool(np.all(self.deviations <= tolerance))


def compare_with_analytic(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    mc: McSettings = McSettings(),
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> McComparison:
    """Run the sampler and pair it with the analytic distribution."""
    result = simulate(spec, pump, strategy, mc)
    dist = output_distribution(spec, pump, strategy, i_max=mc.max_count, trunc=trunc)
    return McComparison(result=result, analytic=dist.probs)


def expected_exceedances(buckets: int, n_sigma: float) -> float:
    """Expected number of buckets beyond ``n_sigma`` when the model is right.

    Each bucket's standardized deviation is about normal, so it exceeds
    ``n_sigma`` with probability ``erfc(n_sigma / sqrt(2))``; a gate over
    many buckets has no multiple-comparison control beyond this figure.
    """
    return buckets * math.erfc(n_sigma / math.sqrt(2.0))


# Fixed regression corpus: heterogeneous sizes, strategies and sources
# spanning the loss ranges of interest, with frozen per-case seeds.
# Fields: (v_r, v_t, v_b, v_d, n_units, source, strategy, lambdas, seed)
VALIDATION_CORPUS: tuple[tuple, ...] = (
    (0.99, 0.985, 0.98, 0.98, 2, "poisson", "spd", (0.40, 0.70), 1001),
    (0.95, 0.985, 0.90, 0.90, 3, "poisson", "thd", (0.30, 0.50, 0.80), 1002),
    (0.90, 0.985, 0.85, 0.80, 4, "poisson", "upto:2", (0.20, 0.40, 0.60, 0.90), 1003),
    (0.85, 0.985, 0.80, 0.85, 5, "poisson", "set:1,3", (0.50,) * 5, 1004),
    (0.99, 0.985, 0.98, 0.90, 6, "poisson", "spd", (0.30, 0.40, 0.50, 0.65, 0.80, 1.00), 1005),
    (0.80, 0.985, 0.80, 0.80, 8, "poisson", "thd", (0.90, 1.10, 1.30, 1.40, 1.40, 1.30, 1.10, 0.90), 1006),
    (0.98, 0.990, 0.95, 0.95, 1, "poisson", "spd", (1.20,), 1007),
    (0.92, 0.970, 0.88, 0.86, 7, "poisson", "upto:3", (0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85), 1008),
    (0.96, 0.985, 0.93, 0.92, 4, "poisson", "spd", (0.61, 0.66, 0.72, 0.79), 1009),
    (0.88, 0.985, 0.83, 0.97, 5, "poisson", "set:2", (0.80, 0.85, 0.90, 0.95, 1.00), 1010),
    (0.94, 0.985, 0.90, 0.84, 6, "poisson", "upto:2", (0.45, 0.50, 0.55, 0.60, 0.70, 0.85), 1011),
    (0.99, 0.985, 0.80, 0.80, 10, "poisson", "spd", (0.30, 0.32, 0.35, 0.38, 0.42, 0.47, 0.53, 0.60, 0.68, 0.77), 1012),
    (0.91, 0.975, 0.87, 0.89, 3, "poisson", "thd", (1.00, 0.70, 0.40), 1013),
    (0.97, 0.985, 0.96, 0.93, 5, "poisson", "spd", (0.55, 0.58, 0.62, 0.67, 0.73), 1014),
    (0.89, 0.985, 0.92, 0.81, 4, "poisson", "set:1,2,4", (0.70, 0.80, 0.90, 1.00), 1015),
    (0.95, 0.985, 0.90, 0.90, 3, "thermal", "spd", (0.30, 0.45, 0.60), 1016),
    (0.90, 0.985, 0.85, 0.85, 4, "thermal", "thd", (0.50, 0.60, 0.70, 0.80), 1017),
    (0.99, 0.985, 0.98, 0.95, 5, "thermal", "upto:2", (0.35, 0.40, 0.45, 0.50, 0.55), 1018),
    (0.86, 0.985, 0.82, 0.88, 6, "thermal", "spd", (0.90, 0.95, 1.00, 1.05, 1.10, 1.15), 1019),
    (0.93, 0.985, 0.89, 0.91, 2, "thermal", "set:1,3", (1.10, 0.90), 1020),
)


def corpus_case(
    entry: tuple,
) -> tuple[MultiplexerSpec, PumpProfile, DetectionStrategy, int]:
    """Materialize one corpus row into model objects plus its seed."""
    v_r, v_t, v_b, v_d, n_units, source, strategy, lambdas, seed = entry
    spec = MultiplexerSpec(
        v_r=v_r, v_b=v_b, v_d=v_d, n_units=n_units, v_t=v_t, source=source
    )
    return spec, PumpProfile(tuple(lambdas)), DetectionStrategy.parse(strategy), seed
