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
  size's grid maximum is then refined by a root solve of the slope of
  P1 on the grid points around it, vectorized over sizes, with the
  product rule on the running products.  A uniform scalar needs one
  pair-number pmf row for all units: P1 is linear in it, so the slope
  takes the same row and one more weight table per arm, which only this
  mode builds.  In the scaled-reference mode every unit has its own
  mean, and a unit's two numbers, its admission probability and its
  chance of admission with one photon out, are read in closed form with
  their slopes (:func:`~asmux.statistics.one_photon_terms`), so the
  search builds no pmf rows.  A rescaled mean ``x / V_n`` grows along
  the chain and is capped at the upper bound, so every capped cell
  shares the values on the bound, which only this mode builds, and adds
  no slope; only the other cells are evaluated, and the refinement of a
  size reads only the arms of that size.  A root of the slope moves with
  rounding by about eps |f'| / |f''|, so the optimum does not depend on
  which sizes share a batch.

Reported probabilities are evaluated once for all sizes together, from
the units of each size only and with the series cutoff
:func:`~asmux.statistics.output_distribution` uses for each profile
(:func:`~asmux.statistics.series_cutoffs`, the one cutoff rule, on all
profiles at once), so every report re-evaluates to its ``best_p1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
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
    one_photon_terms,
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
# bracket width, relative to the upper bound, at which a slope root stops
_XTOL = 1e-12
# pair-number pmf cells per batch of profiles; bounds the memory of the tables
_CHUNK_CELLS = 1 << 20
# bisection levels of a stability edge tested per P1 call
_BISECT_DEPTH = 3


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
        if not 0.0 < self.lambda_upper < math.inf:
            raise ParameterError(f"lambda_upper must be > 0 and finite, got {self.lambda_upper!r}")


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

    @property
    def strategy(self) -> DetectionStrategy:
        """The detection strategy of every report."""
        return self.reports[0].strategy


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
    size in ``sizes``; both already include the admission weights ``w``.
    The per-unit and uniform searches and every reported P1 read them.
    Each one-parameter mode builds its own tables on first read: the
    uniform mode the slope weights ``lifted``, the scaled-reference mode
    the closed-form values on the upper bound, ``capped``.  The
    scaled-reference search reads no weight row: its values are closed
    forms (:meth:`terms`).
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
        self.strategy = strategy
        self.v_d = spec.v_d
        self.upper = settings.lambda_upper
        self.l_max = required_lmax(spec.source, self.upper, trunc)
        self.w = acceptance_weights(strategy, spec.v_d, self.l_max)
        self.v_through = transmission_vector(spec.with_units(int(sizes[-1])))[:-1]
        self.v_last = spec.v_b * spec.v_r ** (sizes - 1.0)
        self.through = transmit_one_weights(self.v_through, self.l_max) * self.w
        self.last = transmit_one_weights(self.v_last, self.l_max) * self.w

    @cached_property
    def lifted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`_lift` of ``through``, ``last`` and ``w``, for the uniform slope."""
        return tuple(_lift(self.family, a) for a in (self.through, self.last, self.w))

    @cached_property
    def capped(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Values at a mean on the upper bound, for the scaled-reference search.

        The no-admission value, and the one-photon values of the through
        arms and of the last arms.
        """
        admit, t = self.terms(self.upper, np.concatenate([self.v_through, self.v_last]))
        t_through, t_last = np.split(t[0], [self.v_through.size])
        return 1.0 - float(admit[0, 0]), t_through, t_last

    def terms(self, lam: np.ndarray, v: np.ndarray, slope: bool = False):
        """:func:`~asmux.statistics.one_photon_terms` of this chain's units."""
        return one_photon_terms(
            self.family, self.strategy, self.v_d, lam, v, self.l_max, slope
        )


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


def _lift(family: SourceFamily, a: np.ndarray) -> np.ndarray:
    """Weights ``b`` with which :func:`_slope` differentiates ``pmf @ a`` in the mean.

    Poisson: pmf'_l = pmf_{l-1} - pmf_l, so b_l = a_{l+1}.  Thermal:
    pmf'_l = (l pmf_{l-1} / (1 + lam) - pmf_l) / (1 + lam), so
    b_l = (l + 1) a_{l+1}.  Both take a_{L+1} = 0: the slope is that of
    the truncated sum.
    """
    b = np.zeros_like(a)
    b[..., :-1] = a[..., 1:]
    if family is SourceFamily.THERMAL:
        b[..., :-1] *= np.arange(1.0, a.shape[-1])
    return b


def _slope(family: SourceFamily, lam, value: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """d(pmf @ a)/d lam from ``value = pmf @ a`` and ``lifted = pmf @ _lift(a)``."""
    if family is SourceFamily.POISSON:
        return lifted - value
    g = 1.0 / (1.0 + lam)
    return g * (g * lifted - value)


def _rescaled(x: np.ndarray, v: np.ndarray, upper: float) -> np.ndarray:
    """Means ``x / v`` capped at ``upper``: zero at x = 0, and the cap where v = 0 < x."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = x / v
    return np.where(x > 0.0, np.minimum(lam, upper), 0.0)


def _capped_cells(
    chain: _Chain,
    x: np.ndarray,
    v: np.ndarray,
    capped: np.ndarray,
    live: np.ndarray | None = None,
    slope: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """No-admission and one-photon values of rescaled cells.

    The cell at position ``j`` of the last axis is an arm that transmits
    ``v[j]``, at mean ``x / v[j]`` (see :func:`_rescaled`); ``capped[j]``
    is its one-photon value on the upper bound (see ``_Chain.capped``).
    Cells on the bound share the values there; only the other ``live``
    cells are evaluated, in closed form
    (:func:`~asmux.statistics.one_photon_terms`), so no cell needs a pmf
    row.  Cells that are not live get the capped values and must go
    unread.  Each result has a leading axis holding the values and, with
    ``slope``, their derivatives in ``x``: zero on the bound and on an
    arm that transmits nothing.
    """
    lam = _rescaled(x, v, chain.upper)
    free = lam < chain.upper
    if live is not None:
        free &= live
    cells = free.nonzero()
    v = v[cells[-1]]
    admit, t_free = chain.terms(lam[cells], v, slope)
    quiet = np.zeros((1 + slope,) + lam.shape)
    t = np.zeros((1 + slope,) + lam.shape)
    quiet[0] = chain.capped[0]
    t[0] = capped
    quiet[0][cells] = 1.0 - admit[0]
    t[0][cells] = t_free[0]
    if slope:
        rate = np.divide(1.0, v, out=np.zeros(v.shape), where=v > 0.0)  # d lam / dx
        quiet[1][cells] = -rate * admit[1]
        t[1][cells] = rate * t_free[1]
    return quiet, t


def _scalar_p1(
    chain: _Chain,
    scaled: bool,
    xs: np.ndarray,
    cols: np.ndarray | None = None,
    slope: bool = False,
) -> np.ndarray:
    """P1 of the one-parameter profiles at scalars ``xs``.

    Without ``cols`` the result is a (len(xs), len(sizes)) table over
    every size; with ``cols``, scalar ``xs[i]`` is taken at size
    ``sizes[cols[i]]`` only, and ``slope`` adds a second column with the
    derivative of P1 in the scalar.
    """
    n_arms = chain.v_through.size + chain.sizes.size
    # per scalar, scaled: about eight closed-form terms per arm, twice as
    # many with the slope; uniform: one pmf row and a value (and a slope)
    # per arm
    cells = 8 * (1 + slope) * n_arms if scaled else (1 + slope) * n_arms + chain.l_max + 1
    return _in_batches(
        xs.size,
        cells,
        lambda part: _scalar_p1_batch(
            chain, scaled, xs[part], None if cols is None else cols[part], slope
        ),
    )


def _scalar_p1_batch(
    chain: _Chain, scaled: bool, xs: np.ndarray, cols: np.ndarray | None, slope: bool
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
        _, capped, capped_last = chain.capped
        live = None if cols is None else np.arange(n_through) < at[:, None]
        quiet, t = _capped_cells(chain, xs[:, None], chain.v_through, capped, live, slope)
        _, t_last = _capped_cells(chain, x, chain.v_last[pick], capped_last[pick], slope=slope)
    else:  # one mean for every unit, so one pmf row per scalar
        pmf = source_pmf(chain.family, xs, chain.l_max)
        lam = xs[:, None]

        def values(weights, lifted):
            value = pmf @ weights.T
            if not slope:
                return value[None]
            return np.stack([value, _slope(chain.family, lam, value, pmf @ lifted.T)])

        through_lifted, last_lifted, w_lifted = chain.lifted
        t = values(chain.through, through_lifted)
        t_last = values(chain.last, last_lifted)[:, rows, pick]
        quiet = -values(chain.w[None], w_lifted[None])
        quiet[0] += 1.0
        quiet = np.broadcast_to(quiet, t.shape)
    prefix = np.ones((xs.size, n_through + 1))
    np.cumprod(quiet[0], axis=1, out=prefix[:, 1:])
    head = np.zeros((xs.size, n_through + 1))
    np.cumsum(prefix[:, :-1] * t[0], axis=1, out=head[:, 1:])
    p1 = head[rows, at] + prefix[rows, at] * t_last[0]
    if not slope:
        return p1
    # product rule: d prefix = prefix * (running sum of d quiet / quiet),
    # where quiet >= pmf_0 > 0 unless it rounds to zero
    run = np.zeros((xs.size, n_through + 1))
    np.cumsum(
        np.divide(quiet[1], quiet[0], out=np.zeros(t[0].shape), where=quiet[0] != 0.0),
        axis=1,
        out=run[:, 1:],
    )
    np.cumsum(prefix[:, :-1] * (run[:, :-1] * t[0] + t[1]), axis=1, out=head[:, 1:])
    d_p1 = head[rows, at] + prefix[rows, at] * (run[rows, at] * t_last[0] + t_last[1])
    return np.stack([p1, d_p1], axis=-1)


def _slope_root(fdf, lo: np.ndarray, hi: np.ndarray, xtol: float):
    """Maximize on every interval [lo_i, hi_i] at once from the sign of the slope.

    ``fdf(xs, lanes)`` gives the value and the slope, as two columns, of
    interval ``lanes[i]`` at ``xs[i]``.  A zero slope counts as not
    rising.  An interval that is not rising at ``lo``, or still rising at
    ``hi``, keeps that end.  On the others the point where the slope
    stops rising is bracketed to ``xtol`` by regula falsi with the
    Illinois step (an end kept twice in a row has its slope halved), and
    by bisection while the end that is not rising has a zero slope, as
    on the plateau where every rescaled mean is capped; the point is then
    the linear root of the slope in the last bracket.  A secant step that
    lands on a zero slope ends its interval there.  Returns the points
    and, for each, the value at the kept end or the larger one at the
    ends of the last bracket.
    """
    n = lo.size
    lanes = np.arange(n)
    ends = fdf(np.concatenate([lo, hi]), np.concatenate([lanes, lanes]))
    (f_lo, d_lo), (f_hi, d_hi) = ends[:n].T, ends[n:].T
    x = np.where(d_lo > 0.0, hi, lo)
    fx = np.where(d_lo > 0.0, f_hi, f_lo)
    lanes = np.flatnonzero((d_lo > 0.0) & ~(d_hi > 0.0))
    lo, hi, f_lo, f_hi, d_lo, d_hi = (a[lanes] for a in (lo, hi, f_lo, f_hi, d_lo, d_hi))
    moved = np.zeros(lanes.size)  # +1 if the last step moved lo, -1 if hi
    while lanes.size:
        secant = d_hi < 0.0
        xs = np.where(secant, lo + (hi - lo) * d_lo / (d_lo - d_hi), 0.5 * (lo + hi))
        xs = np.clip(xs, lo + 0.5 * xtol, hi - 0.5 * xtol)
        f, d = fdf(xs, lanes).T
        up = d > 0.0
        d_hi = np.where(up & (moved > 0.0), 0.5 * d_hi, d_hi)
        d_lo = np.where(~up & (moved < 0.0), 0.5 * d_lo, d_lo)
        lo, f_lo, d_lo = np.where(up, xs, lo), np.where(up, f, f_lo), np.where(up, d, d_lo)
        hi, f_hi, d_hi = np.where(up, hi, xs), np.where(up, f_hi, f), np.where(up, d_hi, d)
        moved = np.where(up, 1.0, -1.0)
        # a secant step onto a zero slope is the root: the hi end it
        # replaced was falling, so the bracket holds no plateau
        root = secant & (d == 0.0)
        done = (hi - lo <= xtol) | root
        if done.any():
            end = lanes[done]
            # the slope's linear root: a smooth function of the bracket,
            # unlike a choice of end by value
            x[end] = np.where(root, xs, lo + (hi - lo) * d_lo / (d_lo - d_hi))[done]
            fx[end] = np.maximum(f_lo, f_hi)[done]
            keep = ~done
            lanes, moved = lanes[keep], moved[keep]
            lo, hi, f_lo, f_hi, d_lo, d_hi = (a[keep] for a in (lo, hi, f_lo, f_hi, d_lo, d_hi))
    return x, fx


def _scalar_profiles(chain: _Chain, scaled: bool) -> np.ndarray:
    """Best one-parameter profile of every size, one zero-padded row per size."""
    sizes = chain.sizes
    grid = np.linspace(0.0, chain.upper, _SCALAR_GRID)
    table = _scalar_p1(chain, scaled, grid)
    cols = np.arange(sizes.size)
    k = np.argmax(table, axis=0)
    x, fx = _slope_root(
        lambda xs, lanes: _scalar_p1(chain, scaled, xs, lanes, slope=True),
        grid[np.maximum(k - 1, 0)],
        grid[np.minimum(k + 1, grid.size - 1)],
        _XTOL * chain.upper,
    )
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
) -> list[OptimalSizeResult]:
    """Size searches of accept-up-to strategies and threshold detection, best first.

    Raises the accepted-count ceiling one step at a time and stops as
    soon as the achievable maximum drops below the previous ceiling's;
    threshold detection is always evaluated alongside.
    """
    if int(max_accept) < 1:
        raise ParameterError(f"max_accept must be >= 1, got {max_accept}")

    def search(strategy: DetectionStrategy) -> OptimalSizeResult:
        return find_optimal_n(
            spec, strategy, settings, n_ref=n_ref, threshold=threshold, mode=mode, trunc=trunc
        )

    results = [search(DetectionStrategy.accept_up_to(1))]
    for j in range(2, int(max_accept) + 1):
        results.append(search(DetectionStrategy.accept_up_to(j)))
        if results[-1].p1_max < results[-2].p1_max:
            break
    results.append(search(DetectionStrategy.threshold()))
    results.sort(key=lambda r: -r.p1_max)
    return results


def _check_resolution(resolution: float) -> None:
    if not 0.0 < resolution < math.inf:
        raise ParameterError(f"resolution must be positive and finite, got {resolution!r}")


def _bisection_mid(lo: float, hi: float, resolution: float) -> float | None:
    """Midpoint the bisection of [lo, hi] tests next, or None once it stops.

    It stops at width ``resolution``, or when the midpoint is not
    strictly inside (a resolution finer than the float spacing).
    """
    mid = 0.5 * (lo + hi)
    return mid if hi - lo > resolution and lo < mid < hi else None


def _midpoints(lo: float, hi: float, resolution: float) -> list[float]:
    """Every midpoint the bisection of [lo, hi] may test in its next _BISECT_DEPTH steps."""
    mids, level = [], [(lo, hi)]
    for _ in range(_BISECT_DEPTH):
        below = []
        for a, b in level:
            mid = _bisection_mid(a, b, resolution)
            if mid is not None:
                mids.append(mid)
                below += [(a, mid), (mid, b)]
        level = below
    return mids


def _edge_walk(resolution: float):
    """One edge's search for the largest shift magnitude that holds the baseline.

    A generator: it yields the magnitudes to test next and is sent
    whether each held.  The shift doubles while it holds (up to 10);
    the last step is then bisected to ``resolution``.  It returns the
    largest magnitude found to hold.
    """
    lo, hi = 0.0, resolution
    while (yield [hi])[0]:
        lo = hi
        if hi >= 10.0:
            return lo
        hi *= 2.0
    while mids := _midpoints(lo, hi, resolution):
        held = dict(zip(mids, (yield mids)))
        for _ in range(_BISECT_DEPTH):
            mid = _bisection_mid(lo, hi, resolution)
            if mid is None:
                break
            if held[mid]:
                lo = mid
            else:
                hi = mid
    return lo


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

    Both edges walk in lockstep: one :func:`p1_profile_batch` call tests
    the next doubling step of each, or for a bisecting edge every
    midpoint of its next _BISECT_DEPTH levels, of which it follows one
    path.  So each edge takes the decisions it would take walking alone,
    one shift per call.  Shifts down only lower the means, and midpoints
    lie inside brackets already tested, so only a doubling step up can
    exceed the series cutoff cap, at the step where a lone walk would.
    """
    _check_resolution(resolution)
    if math.isnan(baseline_p1):
        raise ParameterError("baseline_p1 must not be NaN")
    base = _validate_pump(spec, optimal_pump)

    def held_at(deltas: list[float]) -> list[bool]:
        shifted = np.clip(base + np.array(deltas)[:, None], 0.0, None)
        return (p1_profile_batch(spec, strategy, shifted, trunc) >= baseline_p1).tolist()

    if not held_at([0.0])[0]:
        return StabilityInterval(0.0, 0.0, empty=True)

    walks = {sign: _edge_walk(resolution) for sign in (-1.0, +1.0)}
    tests = {sign: next(walk) for sign, walk in walks.items()}
    ends = {}
    while tests:
        held = held_at([sign * x for sign, xs in tests.items() for x in xs])
        for sign, xs in list(tests.items()):
            outcome, held = held[: len(xs)], held[len(xs):]
            try:
                tests[sign] = walks[sign].send(outcome)
            except StopIteration as stop:
                del tests[sign]
                ends[sign] = sign * stop.value if stop.value else 0.0  # +0.0, never -0.0
    return StabilityInterval(delta_minus=ends[-1.0], delta_plus=ends[+1.0])
