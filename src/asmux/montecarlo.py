"""Direct stochastic simulation of the multiplexed source.

The sampler draws the physical process end to end: pair generation in
every unit, detector thinning of the idler counts, priority routing to
the accepted unit with the smallest index, and binomial loss along that
unit's arm.  Trials are independent and identically distributed, so
only the number of trials in each group matters, never which trials
they are: every stage is drawn as binomial splits of group counts
(Davis, "The computer generation of multinomial random variates",
CSDA 16, 1993).  Frequencies of the output photon number estimate the
same distribution the analytic model computes, so the two
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
    _validate_pump,
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

_MAX_TRIALS = np.iinfo(np.int64).max
# expected counts added to every bucket's tolerance in McComparison.within
_COUNT_SLACK = 10.0


@dataclass(frozen=True)
class McSettings:
    """Trial budget and seeding for the stochastic run.

    One random stream seeded with ``seed`` drives the whole run, so the
    counts are bit-identical for a fixed seed.
    """

    trials: int = 10_000_000
    seed: int = 0
    max_count: int = 10

    def __post_init__(self) -> None:
        if not 1_000 <= int(self.trials) <= _MAX_TRIALS:
            raise ParameterError(
                f"trials must be in [1000, {_MAX_TRIALS}], got {self.trials}"
            )
        if int(self.seed) < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if int(self.max_count) < 1:
            raise ParameterError(f"max_count must be >= 1, got {self.max_count}")
        for name in ("trials", "seed", "max_count"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(eq=False)
class McResult:
    """Counts of output photon numbers 0..max_count plus the overflow bucket."""

    counts: np.ndarray
    overflow: int
    trials: int

    @property
    def estimates(self) -> np.ndarray:
        return self.counts / self.trials


def _poisson_hazard(lam: float, pairs: int) -> float:
    """P(X = pairs | X >= pairs) for X ~ Poisson(lam).

    Its inverse is sum_m lam^m pairs! / (pairs + m)!, a series of
    positive terms; it is summed until the rest cannot change it, which
    is past the peak and with terms shrinking at least twofold.
    """
    total = term = 1.0
    m = 0
    while True:
        m += 1
        term *= lam / (pairs + m)
        total += term
        if pairs + m >= 2.0 * lam and term <= total * 2.0**-54:
            return 1.0 / total


def _pair_histogram(
    rng: np.random.Generator, trials: int, lam: float, family: SourceFamily
) -> np.ndarray:
    """Number of the ``trials`` trials with 0, 1, 2, ... pairs.

    Drawn as a chain of conditional binomials: of the trials with at
    least l pairs, each has exactly l with the hazard probability.  At
    ``lam == 0`` the first hazard is 1, so every trial has 0 pairs.
    """
    groups = []
    remaining = trials
    while remaining:
        if family is SourceFamily.POISSON:
            hazard = _poisson_hazard(lam, len(groups))
        else:
            # the geometric law is memoryless: the same hazard at every step
            hazard = 1.0 / (1.0 + lam)
        drawn = int(rng.binomial(remaining, hazard))
        groups.append(drawn)
        remaining -= drawn
    return np.array(groups, dtype=np.int64)


def _thin(rng: np.random.Generator, groups: np.ndarray, p: float, cap: int) -> np.ndarray:
    """Keep each photon with probability ``p``, by group counts.

    ``groups[l]`` trials carry l photons.  Entry ``[l, k]`` of the
    result counts those of them that keep min(kept, cap) photons.  Each
    photon is one binomial layer: photon j exists in the rows l > j,
    and each trial there below the cap gains it with probability ``p``.
    """
    table = np.zeros((groups.size, cap + 1), dtype=np.int64)
    table[:, 0] = groups
    for photon in range(groups.size - 1):
        below_cap = table[photon + 1 :, :cap]
        moved = rng.binomial(below_cap, p)
        below_cap -= moved
        table[photon + 1 :, 1:] += moved
    return table


def simulate(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    mc: McSettings = McSettings(),
) -> McResult:
    """Estimate the output photon-number probabilities by direct sampling.

    Units are drawn in priority order for the trials that no earlier
    unit admitted; no later unit can change the output of an admitted
    trial.  For each unit the pending trials are split by pair number,
    each pair-number group by its detected count, and the admitted ones
    by the photons that survive their arm.  Every detected count above
    the largest accepted one is rejected (threshold detection accepts
    every count above zero), so the detected count stops one past it (at
    1 for threshold); every output count above ``max_count`` lands in
    the overflow bucket, so the output count stops there.  Trials that
    no unit admits count as zero output photons.
    """
    _validate_pump(spec, pump)
    rng = np.random.default_rng(mc.seed)
    detect_cap = 1 if strategy.is_threshold else max(strategy.accepted) + 1
    accepted = strategy.accept_mask(np.arange(detect_cap + 1))
    totals = np.zeros(mc.max_count + 2, dtype=np.int64)
    pending = mc.trials
    for lam_k, v_k in zip(pump.lambdas, transmission_vector(spec)):
        pairs = _pair_histogram(rng, pending, lam_k, spec.source)
        # no trial carries as many photons as there are pair groups, so in
        # both tables a higher cap adds only empty columns (binomial(0, p)
        # draws nothing)
        cap = min(detect_cap, pairs.size)
        admitted = _thin(rng, pairs, spec.v_d, cap)[:, accepted[: cap + 1]].sum(axis=1)
        cap = min(mc.max_count + 1, admitted.size)
        totals[: cap + 1] += _thin(rng, admitted, v_k, cap).sum(axis=0)
        pending -= int(admitted.sum())
        if pending == 0:
            break
    totals[0] += pending
    return McResult(
        counts=totals[: mc.max_count + 1],
        overflow=int(totals[mc.max_count + 1]),
        trials=mc.trials,
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

    def within(self, n_sigma: float) -> bool:
        """True when every estimate sits within ``n_sigma`` standard errors.

        The additive slack of a few expected counts keeps buckets whose
        analytic probability is essentially zero from failing on a
        single stray sample.
        """
        tolerance = n_sigma * self.analytic_std_errors + _COUNT_SLACK / self.result.trials
        return bool(np.all(self.deviations <= tolerance))


def compare_with_analytic(
    spec: MultiplexerSpec,
    pump: PumpProfile,
    strategy: DetectionStrategy,
    mc: McSettings = McSettings(),
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> McComparison:
    """Pair the sampler with the model, run first so that a refused input costs no sampling."""
    dist = output_distribution(spec, pump, strategy, i_max=mc.max_count, trunc=trunc)
    return McComparison(result=simulate(spec, pump, strategy, mc), analytic=dist.probs)


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
