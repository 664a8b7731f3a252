"""Direct stochastic simulation of the multiplexed source.

The sampler draws the physical process end to end and shares nothing
with the analytic model but its inputs: pair generation in every unit
(Poisson or geometric), detector thinning of the idler counts, admission
by the detection strategy, priority to the admitted unit with the
smallest index, and binomial loss along that unit's arm.  Trials are
independent and identically distributed, so the law of the bucket
counts depends only on how many trials fall in each group, never on
which ones: the sampler carries group counts, not trials, and draws
every stage as binomial splits of a count (Davis, "The computer
generation of multinomial random variates", CSDA 16, 1993).
:func:`simulate` walks the units, and :func:`_thin` draws each thinning
walk.  Frequencies of the output photon number estimate the same
distribution the analytic model computes, so the two implementations
validate each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

import numpy as np

from .exceptions import TruncationError
from .multiplexer import MultiplexerSpec, SourceFamily, _integer, transmission_vector
from .statistics import (
    DetectionStrategy,
    PumpProfile,
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
# pair-number groups one unit may walk (one per pair count); each costs a
# hazard and a binomial layer of every thinning table
_MAX_PAIR_GROUPS = 2048
# largest chance allowed that some trial needs more groups than that
_WALK_RISK = 2.0**-20
# nonzero cells of a thinning layer at which _thin starts to draw one cell
# at a time.  Measured with numpy 2.4.6 on 2 vCPUs: an array binomial call
# costs 6.6-7.1 us at 1 to 8 cells (its argument checks; 13 us in the
# machine's slow phase), and an array layer with its count and two updates
# 11 us; a scalar call costs 0.5 us, about 0.7 us with the list walk's own
# steps.  So an array layer costs about 16 scalar draws.  The switch is one
# way, and a layer may draw up to twice the cells of the one before, so it
# sits at half that; whole walks timed at 4, 8, 16, 32 and 64 were fastest
# at 8.
_SCALAR_LAYER_DRAWS = 8


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
        trials = f"trials must be in [1000, {_MAX_TRIALS}], got {self.trials}"
        seed = f"seed must be >= 0, got {self.seed}"
        max_count = f"max_count must be >= 1, got {self.max_count}"
        for name, low, high, message in (
            ("trials", 1_000, _MAX_TRIALS + 1, trials),
            ("seed", 0, math.inf, seed),  # a seed selects a frozen stream
            ("max_count", 1, math.inf, max_count),
        ):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low, high, message))


@dataclass(eq=False, slots=True)
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


def _check_pair_groups(family: SourceFamily, pump: PumpProfile, trials: int) -> None:
    """Refuse a pump that may walk more than ``_MAX_PAIR_GROUPS`` pair-number groups.

    Raises :class:`TruncationError` when the largest mean gives the
    ``trials`` a chance above ``_WALK_RISK`` of drawing G pairs or more
    in one unit: the union bound ``trials * P(X >= G)``, with the
    geometric tail (lam / (1 + lam))^G of a thermal source, or for a
    Poisson one the Chernoff bound e^-lam (e lam / G)^G, valid for
    G >= lam (and 1 below it).  Tails grow with the mean, so the largest
    mean decides.  At 1e9 trials this admits thermal means up to about 58
    and Poisson means up to about 1690; a thermal mean of 50 walks about
    1050 to 1300 groups.
    """
    g = _MAX_PAIR_GROUPS
    lam = max(pump.lambdas)
    if lam == 0.0:
        return
    if family is SourceFamily.THERMAL:
        log_tail = -g * math.log1p(1.0 / lam)
    else:
        log_tail = g - lam - g * math.log(g / lam) if lam < g else 0.0
    if math.log(trials) + log_tail > math.log(_WALK_RISK):
        raise TruncationError(
            f"mean {lam} may need more than {g} pair-number groups at {trials} trials"
        )


def _pair_histogram(
    rng: np.random.Generator,
    trials: int,
    lam: float,
    family: SourceFamily,
    hazards: dict[float, list[float]],
) -> list[int]:
    """Number of the ``trials`` trials with 0, 1, 2, ... pairs.

    Drawn as a chain of conditional binomials: of the trials with at
    least l pairs, each has exactly l with the hazard probability.  At
    ``lam == 0`` the first hazard is 1, so every trial has 0 pairs.
    ``hazards[lam][l]`` holds the Poisson hazard of l pairs once some
    unit of the run has walked that far; the caller keeps the dict for
    one run, so a mean shared by many units sums each series once.
    """
    groups = []
    remaining = trials
    if family is SourceFamily.POISSON:
        known = hazards.setdefault(lam, [])
    else:
        # the geometric law is memoryless: the same hazard at every step
        hazard = 1.0 / (1.0 + lam)
    while remaining:
        if family is SourceFamily.POISSON:
            if len(known) == len(groups):
                known.append(_poisson_hazard(lam, len(groups)))
            hazard = known[len(groups)]
        drawn = rng.binomial(remaining, hazard)
        groups.append(drawn)
        remaining -= drawn
    return groups


def _thin(rng: np.random.Generator, groups: list[int], p: float, cap: int) -> list[list[int]]:
    """Keep each photon with probability ``p``, by group counts.

    ``groups[l]`` trials carry l photons.  Entry ``[l][k]`` of the
    result counts those of them that keep min(kept, cap) photons.  Each
    photon is one binomial layer: photon j exists in the rows l > j,
    and each trial there below the cap gains it with probability ``p``.
    The walk stops at the first layer with no trial below the cap: every
    later layer would be ``binomial(0, p)``, which draws nothing from
    ``rng``, so the counts and the stream are those of the full walk.

    A layer with more than ``_SCALAR_LAYER_DRAWS`` nonzero cells below
    the cap is one array ``binomial`` call on a numpy table.  From the
    first layer with at most that many, the walk goes on in Python lists,
    one scalar call per nonzero cell, which skips the array call's fixed
    cost; a walk whose first layer is that small (the usual case on a dim
    pump) never builds the table, and one that switches mid-walk converts
    its table to lists once.  The array call runs the same routine on
    each cell in C order (row, then kept count) from the counts before
    the layer, and draws nothing for an empty cell; the scalar walk keeps
    that order and those counts, so the table and the stream are the
    same.
    """
    first = 1  # layer j covers the rows first = j + 1 onwards
    draws = len(groups) - 1 - groups[1:].count(0)  # the first layer's: column 0 only
    if draws <= _SCALAR_LAYER_DRAWS:
        rows = [[trials] + [0] * cap for trials in groups]
    else:
        table = np.zeros((len(groups), cap + 1), dtype=np.int64)
        table[:, 0] = groups
        while first < len(groups):
            below_cap = table[first:, :cap]
            draws = np.count_nonzero(below_cap)
            if draws <= _SCALAR_LAYER_DRAWS:
                break
            moved = rng.binomial(below_cap, p)
            below_cap -= moved
            table[first:, 1:] += moved
            first += 1
        rows = table.tolist()
    # the rest one cell at a time, over the rows that still hold a trial
    # below the cap; along a row, each cell is read before the trials
    # moved out of the cell to its left land in it
    binomial = rng.binomial
    live = range(first, len(groups))
    while True:
        live = [
            photons for photons in live if photons >= first and rows[photons][cap] < groups[photons]
        ]
        if not live:
            return rows
        top = min(first, cap)  # no trial has kept more photons than the walk has passed
        for photons in live:
            row = rows[photons]
            moved = 0
            for kept in range(top):
                n = row[kept]
                drawn = binomial(n, p) if n else 0
                row[kept] = n - drawn + moved
                moved = drawn
            row[top] += moved
        first += 1


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

    A unit walks one pair-number group per pair count up to the largest
    it draws, L, so the number of draws depends on N and L, not on the
    number of trials.  Each thinning walk stops once no trial below its
    cap is left (:func:`_thin`): the detection walk a few photons past
    the cap, the arm-loss walk at the last admitted group.  A unit's
    tables hold a few L x (cap + 1) counts with cap <= L + 1, so there is
    no chunking and no memory bound to set, and a large ``max_count``
    costs only its result array.  A dim unit stays in Python ints from
    its pair histogram to the running totals: its walks start in lists,
    and each Poisson hazard is summed once per run and mean.  On a bright
    pump the pair histograms (:func:`_pair_histogram`) are most of the
    cost.  A pump that may need more than 2048 groups
    (:func:`_check_pair_groups`) raises
    :class:`~asmux.exceptions.TruncationError` before any draw.
    """
    _validate_pump(spec, pump)
    _check_pair_groups(spec.source, pump, mc.trials)
    rng = np.random.default_rng(mc.seed)
    detect_cap = 1 if strategy.is_threshold else max(strategy.accepted) + 1
    accepted = strategy.accept_mask(np.arange(detect_cap + 1)).tolist()
    hazards: dict[float, list[float]] = {}
    totals = [0] * (mc.max_count + 2)
    pending = mc.trials
    for lam_k, v_k in zip(pump.lambdas, transmission_vector(spec)):
        pairs = _pair_histogram(rng, pending, lam_k, spec.source, hazards)
        # a trial in group l carries l photons, fewer than there are groups up
        # to the last nonempty one, so in both tables a higher cap adds only
        # empty columns, and the groups past the last admitted one add only
        # empty rows (binomial(0, p) draws nothing)
        cap = min(detect_cap, len(pairs))
        admitted = [0] * len(pairs)
        for count, column in enumerate(zip(*_thin(rng, pairs, spec.v_d, cap))):
            if accepted[count]:
                admitted = list(map(add, admitted, column))
        while len(admitted) > 1 and not admitted[-1]:
            admitted.pop()
        cap = min(mc.max_count + 1, len(admitted))
        for count, column in enumerate(zip(*_thin(rng, admitted, v_k, cap))):
            totals[count] += sum(column)
        pending -= sum(admitted)
        if pending == 0:
            break
    totals[0] += pending
    return McResult(
        counts=np.array(totals[: mc.max_count + 1], dtype=np.int64),
        overflow=totals[mc.max_count + 1],
        trials=mc.trials,
    )


@dataclass(eq=False, slots=True)
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
) -> McComparison:
    """Pair the sampler with the model, run first so that a refused input costs no sampling.

    A pump that :func:`simulate` would refuse for its pair-number groups
    (:func:`_check_pair_groups`) raises
    :class:`~asmux.exceptions.TruncationError` here, before the model
    runs and before any draw.  The per-unit search grid's series cutoff
    plays no part: a thermal mean of 50, past that cutoff, compares.
    """
    _check_pair_groups(spec.source, pump, mc.trials)
    dist = output_distribution(spec, pump, strategy, i_max=mc.max_count)
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
