"""Maximization of the single-photon probability over pump settings.

Three search spaces are supported: one mean photon number per unit, a
single mean shared by all units, and a single mean rescaled per unit by
the inverse arm transmission.  Every optimizer solves a whole set of
system sizes in one pass.  Arm ``n`` transmits ``v_b v_t v_r^(n-1)`` in
every system larger than ``n``; only the last arm, which skips the
through port (``v_b v_r^(N-1)``), depends on the size N.  So one table
of through arms and one of last arms, over a grid of pump means, serve
every size.

* Per-unit: P1 factorizes along the router chain, and the chance that
  the tail of the chain delivers does not depend on the pumps before
  it, so the tail can be maximized first.  One backward pass over the
  units carries the optimal tail value of every size still open; each
  stage is a grid argmax refined by the vertex of the parabola through
  the best grid point and its neighbours.  This dynamic program is
  exact up to the stage refinement.
* Uniform and scaled-reference: running products and sums over the
  units give P1 for every grid value and every size at once; each
  size's grid maximum is then refined by a golden-section search,
  vectorized over sizes.  A uniform scalar needs one pmf row for all
  units.  A rescaled mean ``x / V_n`` grows along the chain and is
  capped at the upper bound, so every capped cell shares the bound's
  pmf row; only the other cells get one of their own, and the
  refinement of a size reads only the arms of that size.  The
  refinement forms each cell's values on its own, so near a flat
  optimum its comparisons do not depend on which sizes share a batch.

Reported probabilities are evaluated once for all sizes together, from
the units of each size only and with the series cutoff
:func:`~asmux.statistics.output_distribution` uses for each profile
(one cutoff search for all profiles), so every report re-evaluates to
its ``best_p1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

from .exceptions import ParameterError
from .multiplexer import MultiplexerSpec, SourceFamily, transmission_vector
from .statistics import (
    DEFAULT_TRUNCATION,
    DetectionStrategy,
    PumpProfile,
    TruncationPolicy,
    _validate_pump,
    acceptance_weights,
    p1_profile_batch,
    required_lmax,
    series_cutoffs,
    source_pmf,
    transmit_one_weights,
)

__all__ = [
    "OptimizationMode",
    "OptimizerSettings",
    "OptimizationReport",
    "OptimalSizeResult",
    "StrategyScanEntry",
    "StabilityInterval",
    "optimize_sizes",
    "optimize_pump",
    "optimize_uniform",
    "optimize_scaled_reference",
    "find_optimal_n",
    "strategy_scan",
    "stability_interval",
]

_GRID_POINTS = 1001
_SCALAR_GRID = 513
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# pair-number pmf cells per batch of profiles; bounds the memory of the tables
_CHUNK_CELLS = 1 << 20


class OptimizationMode(str, Enum):
    PER_UNIT = "per-unit"
    UNIFORM = "uniform"
    SCALED_REFERENCE = "scaled-reference"

    @classmethod
    def coerce(cls, value: "OptimizationMode | str") -> "OptimizationMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            raise ParameterError(f"unknown optimization mode {value!r}") from None


@dataclass(frozen=True)
class OptimizerSettings:
    """Upper search bound on the pump mean photon numbers; the lower one is 0."""

    lambda_upper: float = 5.0

    def __post_init__(self) -> None:
        if not self.lambda_upper > 0.0:
            raise ParameterError(f"lambda_upper must be > 0, got {self.lambda_upper!r}")


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one optimization at one system size.

    ``upper_bound_hit`` is set when any entry of ``best_pump`` sits on
    ``lambda_upper``, so the unconstrained optimum may lie beyond it.
    """

    best_pump: PumpProfile
    best_p1: float
    strategy: DetectionStrategy
    n_units: int
    mode: OptimizationMode = OptimizationMode.PER_UNIT
    upper_bound_hit: bool = False


@dataclass(frozen=True)
class OptimalSizeResult:
    """Result of the search over the number of multiplexed units."""

    n_opt: int
    p1_max: float
    reports: tuple[OptimizationReport, ...]

    @property
    def p1_by_n(self) -> np.ndarray:
        return np.array([r.best_p1 for r in self.reports])


@dataclass(frozen=True)
class StrategyScanEntry:
    strategy: DetectionStrategy
    n_opt: int
    p1_max: float
    result: "OptimalSizeResult | None" = None


@dataclass(frozen=True)
class StabilityInterval:
    """Largest shared shift of all means that keeps the target probability."""

    delta_minus: float
    delta_plus: float
    empty: bool = False


# ----------------------------------------------------------------------
# tables shared by every size
# ----------------------------------------------------------------------

@lru_cache(maxsize=16)
def _grid_tables(
    family: SourceFamily, l_max: int, upper: float, points: int
) -> tuple[np.ndarray, np.ndarray]:
    grid = np.linspace(0.0, upper, points)
    pmf = source_pmf(family, grid, l_max)
    grid.flags.writeable = False
    pmf.flags.writeable = False
    return grid, pmf


class _Chain:
    """Arm weights of every requested size, on one series cutoff.

    ``through`` holds the one-photon weights of the arms 1..n_max-1 that
    pass a router's through port, ``last`` those of the last arm of each
    size in ``sizes``; both already include the admission weights.
    ``quiet_capped``, ``through_capped`` and ``last_capped`` are the
    no-admission and one-photon values at a mean on the upper bound.
    """

    def __init__(
        self,
        spec: MultiplexerSpec,
        strategy: DetectionStrategy,
        settings: OptimizerSettings,
        trunc: TruncationPolicy,
        sizes: np.ndarray,
    ) -> None:
        self.sizes = sizes
        self.family = spec.source
        self.upper = settings.lambda_upper
        self.l_max = required_lmax(spec.source, self.upper, trunc)
        self.w = acceptance_weights(strategy, spec.v_d, self.l_max)
        self.v_through = transmission_vector(spec.with_units(int(sizes[-1])))[:-1]
        self.v_last = spec.v_b * spec.v_r ** (sizes - 1.0)
        self.through = transmit_one_weights(self.v_through, self.l_max) * self.w
        self.last = transmit_one_weights(self.v_last, self.l_max) * self.w
        # formed as the values of a cell with its own pmf row
        capped = source_pmf(self.family, self.upper, self.l_max)
        self.quiet_capped = float(_quiet(capped, self.w))
        self.through_capped = np.einsum("nl,l->n", self.through, capped)
        self.last_capped = np.einsum("nl,l->n", self.last, capped)


# ----------------------------------------------------------------------
# per-unit mode: backward dynamic program over the units
# ----------------------------------------------------------------------

def _per_unit_profiles(chain: _Chain) -> np.ndarray:
    """Optimal per-unit profiles, one zero-padded row per size.

    Maximizing unit ``n`` with every later unit already optimal is a
    one-dimensional search of "this unit delivers one photon" plus "this
    unit stays quiet and the tail of the chain delivers", so a single
    last-to-first pass reaches the optimum.  The pass carries one tail
    value per size larger than the current unit; a size joins at its
    last unit with an empty tail.
    """
    grid, pmf = _grid_tables(chain.family, chain.l_max, chain.upper, _GRID_POINTS)
    step = grid[1] - grid[0]
    quiet = 1.0 - pmf @ chain.w  # (G,)
    t_through = chain.through @ pmf.T  # (n_max-1, G)
    t_last = chain.last @ pmf.T  # (sizes, G)
    sizes = chain.sizes
    lam = np.zeros((sizes.size, int(sizes[-1])))
    carry = np.zeros(sizes.size)
    table = np.empty((sizes.size, grid.size))
    for unit in range(int(sizes[-1]) - 1, -1, -1):
        first = int(np.searchsorted(sizes, unit + 1))  # sizes[first:] > unit
        k = sizes.size - first
        tail = carry[first:]
        vals = np.multiply.outer(tail, quiet, out=table[:k])  # one row per open size
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
            # the joining size, if refined, is the first refined row
            weights = np.empty((refine.size, chain.l_max + 1))
            joined = int(joins and refine[0] == 0)
            if joined:
                weights[0] = chain.last[first]
            if joined < refine.size:
                weights[joined:] = chain.through[unit]
            p = source_pmf(chain.family, vertex, chain.l_max)
            f_vertex = np.einsum("rl,rl->r", p, weights) + (
                1.0 - p @ chain.w
            ) * tail[refine]
            better = f_vertex > f[refine]
            x[refine[better]] = vertex[better]
            f[refine[better]] = f_vertex[better]
        lam[first:, unit] = x
        carry[first:] = f
    return lam


# ----------------------------------------------------------------------
# uniform and scaled-reference modes: one free scalar per size
# ----------------------------------------------------------------------

def _in_batches(n: int, cells_per_item: int, fn) -> np.ndarray:
    """``fn`` over slices of ``range(n)`` of at most ``_CHUNK_CELLS`` cells, concatenated."""
    step = max(1, _CHUNK_CELLS // cells_per_item)
    return np.concatenate([fn(slice(s, s + step)) for s in range(0, n, step)])


def _quiet(pmf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``1 - pmf @ w`` with one dot product per row.

    A matrix-vector product may round a row differently with the rows
    around it; a dot product per row does not, so each value depends on
    its own mean only.
    """
    return 1.0 - (pmf[..., None, :] @ w)[..., 0]


def _rescaled(x: np.ndarray, v: np.ndarray, upper: float) -> np.ndarray:
    """Means ``x / v`` capped at ``upper``: zero at x = 0, and the cap where v = 0 < x."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = x / v
    return np.where(x > 0.0, np.minimum(lam, upper), 0.0)


def _capped_cells(
    chain: _Chain,
    lam: np.ndarray,
    arm: np.ndarray,
    weights: np.ndarray,
    at_cap: np.ndarray,
    live: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """No-admission and one-photon values of cells at means ``lam`` <= upper.

    The cells at position ``j`` of the last axis use weight row
    ``weights[arm[j]]``, whose values at the upper bound are
    ``at_cap[arm[j]]``.  Cells on the bound share those values; a pmf row
    is computed only for the other ``live`` cells.  Cells that are not
    live get the capped values and must go unread.
    """
    free = lam < chain.upper
    if live is not None:
        free &= live
    cells = free.nonzero()
    pmf = source_pmf(chain.family, lam[cells], chain.l_max)
    quiet = np.full(lam.shape, chain.quiet_capped)
    quiet[cells] = _quiet(pmf, chain.w)
    t = np.empty(lam.shape)
    t[...] = at_cap[arm]
    t[cells] = np.einsum("cl,cl->c", pmf, weights[arm[cells[-1]]])
    return quiet, t


def _scalar_p1(
    chain: _Chain, scaled: bool, xs: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """P1 of the one-parameter profiles at scalars ``xs``.

    Without ``cols`` the result is a (len(xs), len(sizes)) table over
    every size; with ``cols``, scalar ``xs[i]`` is taken at size
    ``sizes[cols[i]]`` only.
    """
    n_arms = chain.v_through.size + chain.sizes.size
    row = chain.l_max + 1
    # per scalar, scaled: up to a pmf row and a gathered weight row per
    # arm; uniform: one pmf row and a value per arm
    cells = 2 * n_arms * row if scaled else n_arms + row
    return _in_batches(
        xs.size,
        cells,
        lambda part: _scalar_p1_batch(
            chain, scaled, xs[part], None if cols is None else cols[part]
        ),
    )


def _scalar_p1_batch(
    chain: _Chain, scaled: bool, xs: np.ndarray, cols: np.ndarray | None
) -> np.ndarray:
    # The arms before the last one do not depend on the size: their
    # running no-admission products and one-photon sums serve every size.
    n_through = chain.v_through.size
    if cols is None:  # every size
        rows, x, pick = np.arange(xs.size)[:, None], xs[:, None], np.arange(chain.sizes.size)
    else:  # xs[i] at size sizes[cols[i]], which reads the arms before its last only
        rows, x, pick = np.arange(xs.size), xs, cols
    at = chain.sizes[pick] - 1
    if scaled:
        arms = np.arange(n_through)
        quiet, t = _capped_cells(
            chain,
            _rescaled(xs[:, None], chain.v_through, chain.upper),
            arms,
            chain.through,
            chain.through_capped,
            None if cols is None else arms < at[:, None],
        )
        _, t_last = _capped_cells(
            chain,
            _rescaled(x, chain.v_last[pick], chain.upper),
            pick,
            chain.last,
            chain.last_capped,
        )
    else:  # one mean for every unit, so one pmf row per scalar
        pmf = source_pmf(chain.family, xs, chain.l_max)
        if cols is None:  # the table: BLAS products
            quiet = 1.0 - pmf @ chain.w
            t = pmf @ chain.through.T  # (K, n_through)
            t_last = pmf @ chain.last.T
        else:
            # Near a flat optimum the refinement compares values that
            # differ in their last bits, so each cell is its own dot
            # product, rounded the same in any batch.
            quiet = _quiet(pmf, chain.w)
            t = np.einsum("kl,nl->kn", pmf, chain.through)
            t_last = np.einsum("kl,kl->k", pmf, chain.last[cols])
        quiet = np.broadcast_to(quiet[:, None], (xs.size, n_through))
    prefix = np.ones((xs.size, n_through + 1))
    np.cumprod(quiet, axis=1, out=prefix[:, 1:])
    head = np.zeros((xs.size, n_through + 1))
    np.cumsum(prefix[:, :-1] * t, axis=1, out=head[:, 1:])
    return head[rows, at] + prefix[rows, at] * t_last


def _golden_max(f, a: np.ndarray, b: np.ndarray, xtol: float = 1e-6):
    """Golden-section maximization on every interval [a_i, b_i] at once.

    ``f`` maps a vector of points, one per interval, to their values.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.max(b - a) > xtol:
        left = fc > fd  # the maximum lies in [a, d]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_probe = f(probe)
        c, fc = np.where(left, probe, keep), np.where(left, f_probe, f_keep)
        d, fd = np.where(left, keep, probe), np.where(left, f_keep, f_probe)
    x = 0.5 * (a + b)
    return x, f(x)


def _scalar_profiles(chain: _Chain, scaled: bool) -> np.ndarray:
    """Best one-parameter profile of every size, one zero-padded row per size."""
    sizes = chain.sizes
    grid = np.linspace(0.0, chain.upper, _SCALAR_GRID)
    table = _scalar_p1(chain, scaled, grid)
    cols = np.arange(sizes.size)
    k = np.argmax(table, axis=0)
    a = grid[np.maximum(k - 1, 0)]
    b = grid[np.minimum(k + 1, grid.size - 1)]
    x, fx = _golden_max(lambda xs: _scalar_p1(chain, scaled, xs, cols), a, b)
    best = np.where(fx > table[k, cols], x, grid[k])

    n_max = int(sizes[-1])
    lam = np.zeros((sizes.size, n_max))
    if scaled:
        lam[:, :-1] = _rescaled(best[:, None], chain.v_through, chain.upper)
        last = _rescaled(best, chain.v_last, chain.upper)
    else:
        lam[:, :-1] = best[:, None]
        last = best
    lam[:, :-1] *= np.arange(n_max - 1) < (sizes[:, None] - 1)
    lam[cols, sizes - 1] = last
    return lam


# ----------------------------------------------------------------------
# public optimizers
# ----------------------------------------------------------------------

def _reported_p1(chain: _Chain, lam: np.ndarray, trunc: TruncationPolicy) -> np.ndarray:
    """P1 of each zero-padded profile (one row per size) at its size.

    Each profile's pair-number series is cut where
    :func:`~asmux.statistics.output_distribution` cuts it, so both agree
    to rounding.  That cutoff never exceeds the chain's, whose weights
    are elementwise in the pair number and so serve truncated.  Only the
    units of each size get a pmf row; the padding never fires and
    delivers nothing.
    """
    return _in_batches(
        lam.shape[0],
        # a pmf row and a gathered weight row per unit
        2 * lam.shape[1] * (chain.l_max + 1),
        lambda part: _reported_p1_batch(chain, lam, part, trunc),
    )


def _reported_p1_batch(
    chain: _Chain, lam: np.ndarray, part: slice, trunc: TruncationPolicy
) -> np.ndarray:
    lam, sizes = lam[part], chain.sizes[part]
    cutoffs = series_cutoffs(chain.family, lam.max(axis=1), trunc)
    keep = int(cutoffs.max()) + 1
    row, unit = np.nonzero(np.arange(lam.shape[1]) < sizes[:, None])
    last = unit == sizes[row] - 1  # one per row, in row order
    pmf = source_pmf(chain.family, lam[row, unit], keep - 1)  # (units, keep)
    pmf *= np.arange(keep) <= cutoffs[row, None]
    weights = np.empty(pmf.shape)
    weights[~last] = chain.through[unit[~last], :keep]
    weights[last] = chain.last[part, :keep]
    t = np.zeros(lam.shape)
    t[row, unit] = np.einsum("cl,cl->c", pmf, weights)
    quiet = np.ones(lam.shape)
    quiet[row, unit] = pmf @ (1.0 - chain.w[:keep])
    prefix = np.ones(lam.shape)
    np.cumprod(quiet[:, :-1], axis=1, out=prefix[:, 1:])
    return np.einsum("sn,sn->s", prefix, t)


def optimize_sizes(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    sizes: Iterable[int],
    settings: OptimizerSettings | None = None,
    mode: OptimizationMode | str = OptimizationMode.PER_UNIT,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> tuple[OptimizationReport, ...]:
    """Maximize the single-photon probability at every size in ``sizes``.

    All sizes are solved in one pass; the work grows with the largest
    size, not with the number of sizes.  Reports come in ascending size
    order, one per distinct size.  ``spec.n_units`` is ignored.
    """
    settings = settings or OptimizerSettings()
    mode = OptimizationMode.coerce(mode)
    sizes = np.unique(np.asarray(list(sizes), dtype=int))
    if sizes.size == 0 or sizes[0] < 1:
        raise ParameterError("sizes must be a nonempty set of positive unit counts")
    chain = _Chain(spec, strategy, settings, trunc, sizes)
    if mode is OptimizationMode.PER_UNIT:
        lam = _per_unit_profiles(chain)
    else:
        lam = _scalar_profiles(chain, scaled=mode is OptimizationMode.SCALED_REFERENCE)
    p1 = _reported_p1(chain, lam, trunc)
    reports = []
    for row, n, value in zip(lam, sizes.tolist(), p1.tolist()):
        profile = row[:n]
        reports.append(
            OptimizationReport(
                best_pump=PumpProfile(tuple(profile.tolist())),
                best_p1=value,
                strategy=strategy,
                n_units=n,
                mode=mode,
                upper_bound_hit=bool(np.any(profile >= settings.lambda_upper)),
            )
        )
    return tuple(reports)


def optimize_pump(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> OptimizationReport:
    """Maximize the single-photon probability over per-unit pump means."""
    (report,) = optimize_sizes(
        spec, strategy, [spec.n_units], settings, OptimizationMode.PER_UNIT, trunc
    )
    return report


def optimize_uniform(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> OptimizationReport:
    """Maximize the single-photon probability over one shared pump mean.

    The report carries the constant profile.
    """
    (report,) = optimize_sizes(
        spec, strategy, [spec.n_units], settings, OptimizationMode.UNIFORM, trunc
    )
    return report


def optimize_scaled_reference(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> OptimizationReport:
    """Maximize over one mean rescaled per unit by the inverse arm transmission.

    The profile ``lam / V_n`` compensates arm loss with a fixed functional
    form; the single free scalar is line-searched.  Entries that would
    exceed the upper bound are clamped there and the report flags it.
    """
    (report,) = optimize_sizes(
        spec, strategy, [spec.n_units], settings, OptimizationMode.SCALED_REFERENCE, trunc
    )
    return report


def find_optimal_n(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
    n_ref: int = 100,
    threshold: float = 1e-3,
    mode: OptimizationMode | str = OptimizationMode.PER_UNIT,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> OptimalSizeResult:
    """Smallest unit count whose optimum sits within ``threshold`` of saturation.

    Optimizes every size from 1 to ``n_ref`` in one pass, takes the value
    at ``n_ref`` as the saturated reference and returns the first size
    whose optimum comes within ``threshold`` of it.  ``spec.n_units`` is
    ignored; the scan sets its own sizes.
    """
    if int(n_ref) < 2:
        raise ParameterError(f"n_ref must be >= 2, got {n_ref}")
    if not 0.0 < threshold < math.inf:
        raise ParameterError(f"threshold must be positive and finite, got {threshold!r}")
    reports = optimize_sizes(spec, strategy, range(1, int(n_ref) + 1), settings, mode, trunc)
    p_by_n = np.array([r.best_p1 for r in reports])
    reference = float(p_by_n[-1])
    n_opt = int(np.argmax(reference - p_by_n < threshold)) + 1
    return OptimalSizeResult(
        n_opt=n_opt, p1_max=float(p_by_n[n_opt - 1]), reports=reports
    )


def strategy_scan(
    spec: MultiplexerSpec,
    settings: OptimizerSettings | None = None,
    mode: OptimizationMode | str = OptimizationMode.PER_UNIT,
    n_ref: int = 100,
    threshold: float = 1e-3,
    max_accept: int = 6,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> list[StrategyScanEntry]:
    """Scan accept-up-to strategies and threshold detection, best first.

    Raises the accepted-count ceiling one step at a time and stops as
    soon as the achievable maximum drops below the previous ceiling's;
    threshold detection is always evaluated alongside.
    """
    if int(max_accept) < 1:
        raise ParameterError(f"max_accept must be >= 1, got {max_accept}")
    entries: list[StrategyScanEntry] = []
    previous = -np.inf
    for j in range(1, int(max_accept) + 1):
        strat = DetectionStrategy.accept_up_to(j)
        result = find_optimal_n(
            spec, strat, settings, n_ref=n_ref, threshold=threshold, mode=mode, trunc=trunc
        )
        entries.append(StrategyScanEntry(strat, result.n_opt, result.p1_max, result))
        if result.p1_max < previous:
            break
        previous = result.p1_max
    thd = DetectionStrategy.threshold()
    result = find_optimal_n(
        spec, thd, settings, n_ref=n_ref, threshold=threshold, mode=mode, trunc=trunc
    )
    entries.append(StrategyScanEntry(thd, result.n_opt, result.p1_max, result))
    entries.sort(key=lambda e: -e.p1_max)
    return entries


def stability_interval(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    optimal_pump: PumpProfile,
    baseline_p1: float,
    resolution: float = 1e-4,
    trunc: TruncationPolicy = DEFAULT_TRUNCATION,
) -> StabilityInterval:
    """Largest shared shift of every pump mean that keeps P1 at or above baseline.

    The same additive shift is applied to all units (entries clamped at
    zero) and each side of zero is bisected to ``resolution``.  If the
    unshifted profile does not reach the baseline the interval is empty.
    """
    if not 0.0 < resolution < math.inf:
        raise ParameterError(f"resolution must be positive and finite, got {resolution!r}")
    base = _validate_pump(spec, optimal_pump)

    def p1_at(delta: float) -> float:
        shifted = np.clip(base + delta, 0.0, None)
        return float(p1_profile_batch(spec, strategy, shifted[None, :], trunc)[0])

    if p1_at(0.0) < baseline_p1:
        return StabilityInterval(0.0, 0.0, empty=True)

    def edge(sign: float) -> float:
        # double the shift while it holds (up to 10), then bisect the last step
        lo, hi = 0.0, resolution
        while p1_at(sign * hi) >= baseline_p1:
            lo = hi
            if hi >= 10.0:
                return sign * lo
            hi *= 2.0
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # a resolution finer than the float spacing
                break
            if p1_at(sign * mid) >= baseline_p1:
                lo = mid
            else:
                hi = mid
        return sign * lo if lo else 0.0  # +0.0, not -0.0, when no shift holds

    return StabilityInterval(delta_minus=edge(-1.0), delta_plus=edge(+1.0))
