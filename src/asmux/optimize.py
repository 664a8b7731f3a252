"""Maximization of the single-photon probability over pump settings.

Three search spaces are supported: one mean photon number per unit, a
single mean shared by all units, and a single mean rescaled per unit by
the inverse arm transmission.  Every optimizer solves a whole set of
system sizes in one pass.  Arm ``n`` transmits the same in every
system larger than ``n``; only the last arm, which skips the through
port, depends on the size N (:mod:`~asmux.multiplexer`).  So one table
of through arms and one of last arms, over a grid of pump means, serve
every size.

* Per-unit: P1 factorizes along the router chain, and the chance that
  the tail of the chain delivers does not depend on the pumps before
  it, so the tail can be maximized first.  One backward pass over the
  units carries the optimal tail value of every size still open; each
  stage is a grid argmax refined by the vertex of the parabola through
  the best grid point and its neighbours.  A stage's table is one
  product of the open sizes' coefficients (the carried tail, and 1 on
  the arm the unit feeds) on three grid rows of the unit: no admission,
  the through arm's one photon, and the last arm's of a size ending
  there.  A spare coefficient row keeps every product at two rows or
  more, so none goes to ``gemv``, which rounds differently.  This
  dynamic program is exact up to the stage refinement.
* Uniform and scaled-reference: running products and sums over the
  units give P1 for every grid value and every size at once, on one
  grid uniform in ``x / (2 + x)``, whose cells around the optimum keep
  their width at any bound; each size's grid maximum is then refined by
  a root solve of the slope of P1 on the grid points around it,
  vectorized over sizes, with the product rule on the running products
  (:func:`_scalar_profiles`).  The solve starts from the vertex of the
  parabola through the grid maximum and its neighbours, read with the
  bracket ends, takes Anderson-Björck steps and stops once a Newton step
  is within a tolerance relative to the grid cells around it: three or
  four slope evaluations per single-size search at any bound, the
  bracket ends included.  In
  scaled-reference mode arm ``n`` reaches the upper bound at
  ``x = lambda_upper * V_n``, where the slope jumps, so each bracket is
  split at these kinks first; every piece is smooth, and the best piece
  wins, or the kink itself when P1 peaks on it.  A unit's two numbers,
  its admission probability and its chance of admission with one photon
  out, are read in closed form with their slopes
  (:func:`~asmux.statistics.one_photon_terms`), at mean ``x`` on every
  arm (uniform) or ``x / V_n`` (scaled-reference), so neither search
  builds a pmf row.  One closed-form call covers the through arms and
  the last arms, which follow them as further columns: every size's
  last arm on the grid, each lane's own in the root solve.  Every cell
  is evaluated on its own, so a cell's bits do not depend on the cells
  beside it.  A rescaled mean grows along the chain and is capped at
  the upper bound, where it adds no slope.  Only a scaled-reference grid
  skips the capped cells, in its one call: it evaluates the cells below
  the bound, then each arm once on the bound, whose values the arm's
  capped cells share.  A slope call evaluates every arm of its batch in
  either mode.  No batch reads an arm past the last arm of its largest
  size.  A root of the slope moves with rounding by about
  eps |f'| / |f''|, so the optimum does not depend on which sizes share
  a batch.

Reported probabilities are evaluated once for all sizes together, in
closed form from the units of each size only, as
:func:`~asmux.statistics.single_photon_prob` evaluates them, so every
report re-evaluates to its ``best_p1`` bit for bit.  Only the per-unit
search grid cuts the pair-number series, at the cutoff of the upper
bound (:func:`~asmux.statistics.required_lmax`); a per-unit upper bound
whose series that rule cannot cut, or a strategy that accepts no count
within its hard cap, raises :class:`~asmux.exceptions.TruncationError`.
The one-parameter searches have no such ceiling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ParameterError, TruncationError
from .multiplexer import MultiplexerSpec, SourceFamily, _COUNT_LIMIT, _arms, _integer
from .statistics import (
    DetectionStrategy,
    PumpProfile,
    _L_HARD_CAP,
    _chain,
    _chain_p1,
    _check_means,
    _validate_pump,
    acceptance_weights,
    one_photon_terms,
    p1_profile_batch,
    required_lmax,
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
# the one-parameter grid: _SCALAR_GRID points uniform in x / (_WARP + x)
# (_scalar_profiles).  Its cells widen as (_WARP + x)**2, so they keep their
# width around the optima, which lay below x = 2.1 on every spec tried, at
# any bound.  At the default bound its closed-form cells stay below those of
# a 513-point linear grid in both modes
_SCALAR_GRID = 377
_WARP = 2.0
# tolerance of a slope root, relative to (_SCALAR_GRID - 1) / 2 times the
# width of its grid bracket: the Newton step at which it stops, or failing
# that the bracket width.  On a linear grid over [0, upper] it is
# _XTOL * upper
_XTOL = 1e-12
_TINY = float(np.finfo(float).tiny)
# closed-form cells per batch of one-parameter profiles: bounds the memory of the
# tables, and keeps a batch's temporaries near the size of a core's cache
_CHUNK_CELLS = 1 << 18
# bisection levels of a stability edge tested per P1 call
_BISECT_DEPTH = 3
# relative offset that puts a point strictly on one side of a kink x = upper * V_n
_NUDGE = 4.0 * np.finfo(float).eps


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
        # below it the search grids' cells are subnormal, with fewer bits than a
        # double, and a slope root's tolerance, at least this, is wider than the grid
        if self.lambda_upper < _TINY:
            raise ParameterError(
                f"lambda_upper must be >= {_TINY!r}, the smallest normal float, "
                f"got {self.lambda_upper!r}"
            )


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


class _SizeReports(Sequence):
    """The reports of a size search, kept as its read-only arrays; one is built when read."""

    def __init__(self, sizes, lam, p1, hit, strategy: DetectionStrategy, mode: OptimizationMode):
        for array in (sizes, lam, p1, hit):
            array.flags.writeable = False
        self.sizes, self.lam, self.p1, self.hit = sizes, lam, p1, hit
        self.strategy, self.mode = strategy, mode

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, index):
        i = range(self.sizes.size)[index]  # an int, or a range for a slice
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        n = int(self.sizes[i])
        pump = PumpProfile(tuple(self.lam[i, :n].tolist()))
        return OptimizationReport(
            pump, float(self.p1[i]), self.strategy, n, self.mode, bool(self.hit[i])
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, _SizeReports)) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class OptimalSizeResult:
    """Result of the search over the number of multiplexed units.

    ``reports`` has one report per size, in ascending size order.  From
    :func:`find_optimal_n` it is a read-only sequence that builds a report
    when one is read, and slices, compares and hashes as a tuple.
    """

    n_opt: int
    p1_max: float
    reports: Sequence[OptimizationReport]

    @property
    def p1_by_n(self) -> np.ndarray:
        if isinstance(self.reports, _SizeReports):
            return self.reports.p1.copy()
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
    family: SourceFamily, upper: float, floor: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """The per-unit search grid's series cutoff, means and pmf rows.

    The cutoff is that of the upper bound, and at least ``floor``, the
    smallest count the strategy accepts.  At a small bound the source
    tail falls below the cutoff's tolerance before that count, and so
    does P1; a grid cut there holds no admitted count, so every mean on
    it scores a P1 of 0 and the search returns zeros.
    """
    # raises on every call: no exception is cached
    l_max = max(required_lmax(family, upper), floor)
    grid = np.linspace(0.0, upper, _GRID_POINTS)
    pmf = source_pmf(family, grid, l_max)
    grid.flags.writeable = False
    pmf.flags.writeable = False
    return l_max, grid, pmf


class _Chain:
    """Arm transmissions of every requested size, and their closed-form values.

    ``v_through`` holds the transmissions of the arms 1..n_max-1 that pass
    a router's through port, ``v_last`` that of the last arm of each size
    in ``sizes``, from the arm law ``transmission_vector`` reads.  Unit values
    are closed forms, read through :meth:`terms` only; ``scaled`` marks the
    scaled-reference mode.
    """

    def __init__(
        self,
        spec: MultiplexerSpec,
        strategy: DetectionStrategy,
        settings: OptimizerSettings,
        sizes: np.ndarray,
        mode: OptimizationMode,
    ) -> None:
        self.sizes = sizes
        self.scaled = mode is OptimizationMode.SCALED_REFERENCE
        self.family = spec.source
        self.strategy = strategy
        self.v_d = spec.v_d
        self.upper = settings.lambda_upper
        through, last = _arms(spec, int(sizes[-1]))
        self.v_through, self.v_last = through[:-1], last[sizes - 1]

    def terms(self, lam: np.ndarray, v: np.ndarray, slope: bool = False):
        """:func:`~asmux.statistics.one_photon_terms` of this chain's units."""
        return one_photon_terms(self.family, self.strategy, self.v_d, lam, v, slope)


# ----------------------------------------------------------------------
# per-unit mode: backward dynamic program over the units
# ----------------------------------------------------------------------

def _arm_weights(v: np.ndarray, w: np.ndarray, l_max: int) -> np.ndarray:
    """Chance that ``l`` pairs give an admission and one photon through each arm ``v``.

    At a high detector efficiency the product underflows to subnormals,
    on which BLAS runs several times slower.  They are set to zero in the
    rows whose largest entry is at least 2**53 times the smallest normal
    float, where each is below half an ulp of that entry; a row of tiny
    entries only (a near-opaque arm) keeps them.
    """
    weights = transmit_one_weights(v, l_max) * w
    weights[(weights < _TINY) & (weights.max(axis=1, keepdims=True) >= 2.0**53 * _TINY)] = 0.0
    return weights


def _per_unit_profiles(chain: _Chain) -> np.ndarray:
    """Optimal per-unit profiles, one zero-padded row per size.

    Maximizing unit ``n`` with every later unit already optimal is a
    one-dimensional search of "this unit delivers one photon" plus "this
    unit stays quiet and the tail of the chain delivers", so a single
    last-to-first pass reaches the optimum.  The pass carries one tail
    value per size larger than the current unit; a size joins at its
    last unit with an empty tail.  The stage tables are pair-number pmf
    rows on a grid, cut at the cutoff of the upper bound
    (:func:`~asmux.statistics.required_lmax`, which may raise) or at the
    strategy's smallest accepted count if that is larger (one above the
    cutoff's hard cap raises :class:`TruncationError`), against
    arm weights whose negligible subnormals are zero (:func:`_arm_weights`).

    Each unit's grid values are three rows: no admission, its through
    arm's one photon, and the last arm's one photon of the size that
    ends there (zero where none does).  A stage table is one product of
    the open sizes' coefficients on these rows: the carried tail on the
    first, and 1 on the arm the unit feeds.  BLAS ``gemm`` sums the
    terms in order from zero, so each cell rounds ``tail * quiet`` and
    then adds the arm, as an outer product and an add would.  The
    product always holds a spare first row, which no stage reads: numpy
    sends a one-row product to ``gemv``, which rounds differently.  A
    second spare row, after the open sizes, lets one gather of the flat
    table read every row's best cell and both its neighbours; a best
    cell on the grid's edge reads a neighbour from the row beside it,
    and is not refined.

    A row is refined when its best cell is interior and the parabola
    through it opens downward.
    """
    strategy = chain.strategy
    floor = 1 if strategy.is_threshold else min(strategy.accepted)
    if floor > _L_HARD_CAP:
        raise TruncationError(
            f"strategy {strategy.key} accepts no count up to the per-unit search grid's "
            f"hard cap {_L_HARD_CAP}"
        )
    l_max, grid, pmf = _grid_tables(chain.family, chain.upper, floor)
    w = acceptance_weights(strategy, chain.v_d, l_max)
    sizes = chain.sizes
    n_max = int(sizes[-1])
    # one row per unit's through arm, a zero one for the last unit, which
    # has none, then one per size's last arm
    arms = _arm_weights(np.concatenate([chain.v_through, (0.0,), chain.v_last]), w, l_max)
    through, last = arms[:n_max], arms[n_max:]
    step = grid[1] - grid[0]
    basis = np.zeros((n_max, 3, grid.size))  # per unit: quiet, through arm, last arm
    basis[:, 0] = 1.0 - pmf @ w
    np.matmul(through[:-1], pmf.T, out=basis[:-1, 1])
    basis[sizes - 1, 2] = last @ pmf.T
    # row 1 + i is size sizes[i]: its tail and its arm, the last one until it has joined
    coef = np.zeros((sizes.size + 1, 3))
    coef[1:, 2] = 1.0
    lam = np.zeros((sizes.size, n_max))
    # rows 1 + i are size sizes[first + i], between the two spare rows
    table = np.zeros((sizes.size + 2, grid.size))
    flat = table.reshape(-1)
    interior = np.ones(grid.size, dtype=bool)  # grid cells with a neighbour on each side
    interior[[0, -1]] = False
    # flat cells before, at and after column 0 of each size row
    around = grid.size * np.arange(1, sizes.size + 1) + np.arange(-1, 2)[:, None]
    ends = np.arange(1, n_max + 1)  # unit + 1
    firsts = np.searchsorted(sizes, ends)  # sizes[first:] > unit
    joining = (sizes[firsts] == ends).tolist()
    firsts = firsts.tolist()
    for unit in range(n_max - 1, -1, -1):
        first, joins = firsts[unit], int(joining[unit])
        k = sizes.size - first
        tail = coef[first + 1 :, 0]
        np.matmul(coef[first:, : 2 + joins], basis[unit, : 2 + joins], out=table[: k + 1])
        best = table[1 : k + 1].argmax(axis=1)
        y0, f, y2 = flat[around[:, :k] + best]
        x = grid[best]
        den = y0 - 2.0 * f + y2
        refine = (interior[best] & (den < 0.0)).nonzero()[0]
        if refine.size:
            # within half a step of an interior grid point, so inside [0, upper]
            vertex = x[refine] + 0.5 * step * (y0[refine] - y2[refine]) / den[refine]
            p = source_pmf(chain.family, vertex, l_max)
            # summed row by row by einsum, not by gemv, which rounds differently
            arm = np.einsum("rl,l->r", p, through[unit])
            if joins and refine[0] == 0:  # the joining size, row 0, feeds the last arm
                arm[0] = np.einsum("l,l->", p[0], last[first])
            f_vertex = arm + (1.0 - p @ w) * tail[refine]
            better = f_vertex > f[refine]
            won = refine[better]
            x[won] = vertex[better]
            f[won] = f_vertex[better]
        lam[first:, unit] = x
        tail[:] = f
        if joins:  # the joining size feeds the through arm from now on
            coef[first + 1, 1:] = (1.0, 0.0)
    return lam


# ----------------------------------------------------------------------
# uniform and scaled-reference modes: one free scalar per size
# ----------------------------------------------------------------------

def _in_batches(n: int, cells_per_item: int, fn) -> np.ndarray:
    """``fn`` over slices of ``range(n)`` of at most ``_CHUNK_CELLS`` cells, concatenated."""
    step = max(1, _CHUNK_CELLS // cells_per_item)
    return np.concatenate([fn(slice(s, s + step)) for s in range(0, n, step)])


def _rescaled(x: np.ndarray, v: np.ndarray, upper: float) -> np.ndarray:
    """Means ``x / v`` capped at ``upper``: zero at x = 0, and the cap where v = 0 < x."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = x / v
    return np.where(x > 0.0, np.minimum(lam, upper), 0.0)


def _capped_cells(chain: _Chain, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """No-admission and one-photon values of the scaled-reference grid's cells.

    A cell is an arm of the row ``v``, shared by every scalar of the
    column ``x``, at mean ``x / v`` (see :func:`_rescaled`).  The cells
    on the upper bound share their arm's values there, so one closed-form
    call (:func:`~asmux.statistics.one_photon_terms`) evaluates the cells
    below the bound and, after them, each arm once on the bound.  Each
    result has a leading axis of one, which holds the values.
    """
    lam = _rescaled(x, v, chain.upper)
    cells = (lam < chain.upper).nonzero()
    free = cells[0].size
    admit, t_all = chain.terms(
        np.append(lam[cells], np.full(v.size, chain.upper)), np.append(v[cells[1]], v)
    )
    quiet, t = np.empty((2, 1) + lam.shape)
    quiet[0] = 1.0 - admit[0, free:]
    t[0] = t_all[0, free:]
    quiet[0][cells] = 1.0 - admit[0, :free]
    t[0][cells] = t_all[0, :free]
    return quiet, t


def _scalar_p1(chain: _Chain, xs: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """P1 of the one-parameter profiles at scalars ``xs``.

    Without ``cols`` the result is a (len(xs), len(sizes)) table over
    every size; with ``cols``, scalar ``xs[i]`` is taken at size
    ``sizes[cols[i]]`` only, and a second column holds the derivative of
    P1 in the scalar.
    """
    n_arms = chain.v_through.size + chain.sizes.size
    # about eight closed-form terms per arm and scalar, twice as many with the slope
    return _in_batches(
        xs.size,
        8 * (1 + (cols is not None)) * n_arms,
        lambda part: _scalar_p1_batch(chain, xs[part], None if cols is None else cols[part]),
    )


def _scalar_p1_batch(chain: _Chain, xs: np.ndarray, cols: np.ndarray | None) -> np.ndarray:
    # The arms before the last one do not depend on the size: their
    # running no-admission products and one-photon sums serve every size.
    # One closed-form call reads them and, in the columns after them, the
    # last arms: every size's, or each lane's own.
    slope = cols is not None
    if not slope:  # every size, on one row of arms shared by every scalar
        rows, pick = np.arange(xs.size)[:, None], np.arange(chain.sizes.size)
    else:  # xs[i] at size sizes[cols[i]], on a row of arms of its own
        rows, pick = np.arange(xs.size), cols
    at = chain.sizes[pick] - 1
    n_through = int(at.max())  # no arm past the largest size's is read
    if not slope:
        v = np.concatenate([chain.v_through[:n_through], chain.v_last[pick]])
    else:
        v = np.empty((xs.size, n_through + 1))
        v[:, :-1] = chain.v_through[:n_through]
        v[:, -1] = chain.v_last[pick]
    if chain.scaled and not slope:
        quiet, t = _capped_cells(chain, xs[:, None], v)
    else:  # every cell at its own mean
        lam = _rescaled(xs[:, None], v, chain.upper) if chain.scaled else xs[:, None]
        admit, t = chain.terms(lam, v, slope)
        quiet = -admit
        quiet[0] += 1.0
        if chain.scaled:  # d lam / dx: 1 / v below the bound where v > 0, and 0 elsewhere
            rate = np.divide(1.0, v, out=np.zeros(v.shape), where=(lam < chain.upper) & (v > 0.0))
            quiet[1] *= rate
            t[1] *= rate
    t_last = t[..., n_through] if slope else t[..., n_through:]
    t, quiet = t[..., :n_through], quiet[..., :n_through]
    head, prefix = _chain(quiet[0], t[0])
    p1 = head[rows, at] + prefix[rows, at] * t_last[0]
    if not slope:
        return p1
    # product rule: d prefix = prefix * (running sum of d quiet / quiet),
    # where quiet >= P(no pair) > 0 unless it rounds to zero
    run = np.zeros((xs.size, n_through + 1))
    np.cumsum(
        np.divide(quiet[1], quiet[0], out=np.zeros(t[0].shape), where=quiet[0] != 0.0),
        axis=1,
        out=run[:, 1:],
    )
    np.cumsum(prefix[:, :-1] * (run[:, :-1] * t[0] + t[1]), axis=1, out=head[:, 1:])
    d_p1 = head[rows, at] + prefix[rows, at] * (run[rows, at] * t_last[0] + t_last[1])
    return np.stack([p1, d_p1], axis=-1)


def _slope_root(fdf, lo: np.ndarray, hi: np.ndarray, xtol: np.ndarray, seed: np.ndarray):
    """Maximize on every interval [lo_i, hi_i] at once from the sign of the slope.

    ``fdf(xs, lanes)`` gives the value and the slope, as two columns, of
    interval ``lanes[i]`` at ``xs[i]``; the slope must be continuous inside
    each interval.  A zero slope counts as not rising.  An interval that
    is not rising at ``lo``, or still rising at ``hi``, keeps that end.
    On the others the point where the slope stops rising is bracketed by
    regula falsi with the Anderson-Björck step: an end kept twice in a
    row has its slope scaled by ``1 - d_new / d_old`` (halved if that is
    not positive), so the steps converge superlinearly from either side.
    While the end that is not rising has a zero slope, as on the plateau
    where every rescaled mean is capped, the step bisects instead.  Each
    interval has its own tolerance, ``xtol[i]``, and every step lands at
    least ``xtol / 2`` inside the bracket.  A lane stops once
    the Newton step from its newest secant point, on the chord of the two
    unscaled end slopes, is within ``xtol``, at the point that step
    reaches; or once its bracket is narrower than ``xtol``, at the linear
    root of the slope across it.  Returns the points and, for each, the
    value at the kept end or the larger one at the ends of the last
    bracket.

    ``seed[i]`` guesses the root of interval ``i``, or is NaN for none.  A
    seed at least ``xtol / 2`` inside its interval is read in the call
    that reads the ends.  On an interval that brackets a root it then
    replaces the end on its side, as a first step would, and leaves the
    Anderson-Björck state that step would; it is no secant step, so no
    lane stops at it.  A close guess so saves the steps that would reach it.
    """
    n = lo.size
    lanes = np.arange(n)
    seeded = np.flatnonzero((lo + 0.5 * xtol < seed) & (seed < hi - 0.5 * xtol))
    ends = fdf(np.concatenate([lo, hi, seed[seeded]]), np.concatenate([lanes, lanes, seeded]))
    (f_lo, d_lo), (f_hi, d_hi) = ends[:n].T, ends[n : 2 * n].T
    f, d = np.full((2, n), np.nan)  # at the seed, NaN on a lane without one
    f[seeded], d[seeded] = ends[2 * n :].T
    x = np.where(d_lo > 0.0, hi, lo)
    fx = np.where(d_lo > 0.0, f_hi, f_lo)
    live = (d_lo > 0.0) & ~(d_hi > 0.0)
    up, down = d > 0.0, d <= 0.0  # the seed replaces lo or hi; neither without one
    lo, f_lo, d_lo = np.where(up, seed, lo), np.where(up, f, f_lo), np.where(up, d, d_lo)
    hi, f_hi, d_hi = np.where(down, seed, hi), np.where(down, f, f_hi), np.where(down, d, d_hi)
    moved = 1.0 * up - down  # +1 if the last step moved lo, -1 if hi
    lanes = np.flatnonzero(live)
    lo, hi, f_lo, f_hi, d_lo, d_hi, moved, xtol = (
        a[lanes] for a in (lo, hi, f_lo, f_hi, d_lo, d_hi, moved, xtol)
    )
    s_lo, s_hi = d_lo, d_hi  # the slopes the secant reads, scaled on an end kept again
    while lanes.size:
        secant = d_hi < 0.0
        xs = np.where(secant, lo + (hi - lo) * s_lo / (s_lo - s_hi), 0.5 * (lo + hi))
        xs = np.clip(xs, lo + 0.5 * xtol, hi - 0.5 * xtol)
        f, d = fdf(xs, lanes).T
        up = d > 0.0
        side = np.where(up, 1.0, -1.0)
        # Anderson-Björck: a secant step that replaces the same end again
        # scales the kept end's slope; the end it replaces was the newest
        # point, so its slope is unscaled
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = 1.0 - d / np.where(up, d_lo, d_hi)
        scale = np.where(secant & (side == moved), np.where(scale > 0.0, scale, 0.5), 1.0)
        s_hi = np.where(up, scale * s_hi, d)
        s_lo = np.where(up, d, scale * s_lo)
        lo, f_lo, d_lo = np.where(up, xs, lo), np.where(up, f, f_lo), np.where(up, d, d_lo)
        hi, f_hi, d_hi = np.where(up, hi, xs), np.where(up, f_hi, f), np.where(up, d_hi, d)
        moved = side
        # after a secant step the end that is not rising is falling or a
        # root, so the bracket holds no plateau and the chord is finite
        step = d * (hi - lo) / (d_lo - d_hi)
        newton = secant & (np.abs(step) <= xtol)
        done = newton | (hi - lo <= xtol)
        if done.any():
            end = lanes[done]
            # both are smooth functions of the bracket, unlike a choice of end by value
            x[end] = np.where(
                newton, np.clip(xs + step, lo, hi), lo + (hi - lo) * d_lo / (d_lo - d_hi)
            )[done]
            fx[end] = np.maximum(f_lo, f_hi)[done]
            keep = ~done
            lanes, moved, xtol = lanes[keep], moved[keep], xtol[keep]
            lo, hi, f_lo, f_hi, d_lo, d_hi, s_lo, s_hi = (
                a[keep] for a in (lo, hi, f_lo, f_hi, d_lo, d_hi, s_lo, s_hi)
            )
    return x, fx


def _split_at_kinks(chain: _Chain, lo: np.ndarray, hi: np.ndarray):
    """Split the bracket [lo_i, hi_i] of each size ``sizes[i]`` where the slope of P1 jumps.

    In scaled-reference mode arm ``n`` reaches the upper bound at
    ``x = lambda_upper * V_n`` and stops adding slope; the uniform mode
    has no kinks.  Returns the ends of every piece, in order of size and
    then of ``x``; the ends nudged into the piece by ``_NUDGE``, where its
    one-sided slopes are read; and the column of each piece's size.
    Pieces between kinks closer than two nudges read the same point at
    both ends.
    """
    cols = np.arange(chain.sizes.size)
    if not chain.scaled:
        return lo, hi, lo, hi, cols
    through = np.arange(chain.v_through.size) < chain.sizes[:, None] - 1
    kink = chain.upper * np.column_stack([np.where(through, chain.v_through, np.nan), chain.v_last])
    # NaN, an arm past the size, is never inside
    inside = (lo[:, None] < kink * (1.0 - _NUDGE)) & (kink * (1.0 + _NUDGE) < hi[:, None])
    if not inside.any():
        return lo, hi, lo, hi, cols
    col, arm = inside.nonzero()
    kink = kink[col, arm]
    starts = np.lexsort((np.append(lo, kink), np.append(cols, col)))
    ends = np.lexsort((np.append(kink, hi), np.append(col, cols)))
    return (
        np.append(lo, kink)[starts],
        np.append(kink, hi)[ends],
        np.append(lo, kink * (1.0 + _NUDGE))[starts],
        np.append(kink * (1.0 - _NUDGE), hi)[ends],
        np.append(cols, col)[starts],
    )


def _scalar_profiles(chain: _Chain) -> np.ndarray:
    """Best one-parameter profile of every size, one zero-padded row per size.

    Every size is tabulated once, on a grid of G = ``_SCALAR_GRID`` points
    uniform in u = x / (s + x), s = ``_WARP``, from 0 to the upper bound:
    x = s u / (1 - u), and its last point is the bound itself.  A cell at
    x is at most (s + x)**2 / (s (G - 1)) wide whatever the bound, and at
    most 1.4 times its width at the default bound, so a large bound adds
    cells far from the optimum, not width to the cells around it.

    Each size's grid maximum is refined on the grid bracket around it,
    split at its kinks (:func:`_split_at_kinks`); the best piece wins, if
    it beats that grid maximum.  Where the maximum is interior and the
    parabola in u through it and its two neighbours opens downward, the
    parabola's vertex seeds the root of the piece that holds it
    (:func:`_slope_root`), in the call that reads the pieces' ends.  The
    vertex typically misses the root by a few percent of a cell or less,
    so a single-size search takes three or four slope calls, not five.
    Each root's tolerance is ``_XTOL * (G - 1) / 2`` times the width of
    its size's grid bracket, and at least the smallest normal float, so
    it too follows the cells around the optimum, not the bound.
    """
    sizes = chain.sizes
    cols = np.arange(sizes.size)
    upper = chain.upper

    def warp(t):  # x = s u / (1 - u) at u = t upper / (s + upper), s = _WARP
        return t * upper / (1.0 + (1.0 - t) * (upper / _WARP))

    t = np.linspace(0.0, 1.0, _SCALAR_GRID)
    grid = warp(t)
    table = _scalar_p1(chain, grid)
    k = np.argmax(table, axis=0)
    near = np.clip(k + np.arange(-1, 2)[:, None], 0, grid.size - 1)
    lo, peak_x, hi = grid[near]
    y0, peak_f, y2 = table[near, cols]
    den = y0 - 2.0 * peak_f + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        apex = t[k] + 0.5 * t[1] * (y0 - y2) / den
    # within half a cell of an interior maximum where the parabola opens downward
    apex = np.where((near[0] < k) & (k < near[2]) & (den < 0.0), apex, np.nan)
    vertex = warp(apex)
    xtol = np.maximum(_XTOL * (0.5 * (_SCALAR_GRID - 1)) * (hi - lo), _TINY)
    lo, hi, inner_lo, inner_hi, piece_cols = _split_at_kinks(chain, lo, hi)
    x, fx = _slope_root(
        lambda xs, lanes: _scalar_p1(
            chain, np.clip(xs, inner_lo[lanes], inner_hi[lanes]), piece_cols[lanes]
        ),
        lo,
        hi,
        xtol[piece_cols],
        vertex[piece_cols],  # a vertex outside its piece seeds none
    )
    # the best piece of each size: the first of its column by falling value
    order = np.lexsort((-fx, piece_cols))
    pick = order[np.searchsorted(piece_cols[order], cols)]
    best = np.where(fx[pick] > peak_f, x[pick], peak_x)

    n_max = int(sizes[-1])
    lam = np.zeros((sizes.size, n_max))
    if chain.scaled:
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

def _reported_p1(chain: _Chain, lam: np.ndarray) -> np.ndarray:
    """P1 of each zero-padded profile (one row per size) at its size.

    Closed forms over a (sizes, n_max) matrix of arm transmissions: the
    through arms, then each size's last arm.  A padded unit has mean 0,
    so it is never admitted, delivers nothing and leaves the sum over the
    units in order unchanged (:func:`~asmux.statistics._chain_p1`).  Each
    row is evaluated on its own, so batches of rows bound the memory.
    """

    def batch(part: slice) -> np.ndarray:
        v = np.zeros(lam[part].shape)
        v[:, :-1] = chain.v_through
        v[np.arange(v.shape[0]), chain.sizes[part] - 1] = chain.v_last[part]
        return _chain_p1(chain.family, chain.strategy, chain.v_d, lam[part], v)

    # about a dozen closed-form temporaries per unit
    return _in_batches(lam.shape[0], 16 * lam.shape[1], batch)


def _search(spec, strategy, sizes, settings, mode) -> _SizeReports:
    """:func:`optimize_sizes`, its reports kept as arrays until one is read."""
    settings = settings or OptimizerSettings()
    mode = OptimizationMode.coerce(mode)
    message = f"sizes must be a nonempty set of unit counts in [1, {_COUNT_LIMIT})"
    sizes = [_integer(n, "each size in sizes", 1, _COUNT_LIMIT, message) for n in sizes]
    if not sizes:
        raise ParameterError(message)
    sizes = np.unique(np.asarray(sizes, dtype=int))
    chain = _Chain(spec, strategy, settings, sizes, mode)
    if mode is OptimizationMode.PER_UNIT:
        lam = _per_unit_profiles(chain)
    else:
        lam = _scalar_profiles(chain)
    _check_means(lam)  # the check PumpProfile makes, once for every profile
    p1 = _reported_p1(chain, lam)
    hit = (lam >= settings.lambda_upper).any(axis=1)  # the padding is 0, below the bound
    return _SizeReports(sizes, lam, p1, hit, strategy, mode)


def optimize_sizes(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    sizes: Iterable[int],
    settings: OptimizerSettings | None = None,
    mode: OptimizationMode | str = OptimizationMode.PER_UNIT,
) -> tuple[OptimizationReport, ...]:
    """Maximize the single-photon probability at every size in ``sizes``.

    All sizes are solved in one pass; the work grows with the largest
    size, not with the number of sizes.  Reports come in ascending size
    order, one per distinct size, as a tuple.  ``spec.n_units`` is ignored.
    """
    return tuple(_search(spec, strategy, sizes, settings, mode))


def optimize_pump(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
) -> OptimizationReport:
    """Maximize the single-photon probability over per-unit pump means."""
    (report,) = optimize_sizes(spec, strategy, [spec.n_units], settings, OptimizationMode.PER_UNIT)
    return report


def optimize_uniform(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
) -> OptimizationReport:
    """Maximize the single-photon probability over one shared pump mean.

    The report carries the constant profile.
    """
    (report,) = optimize_sizes(spec, strategy, [spec.n_units], settings, OptimizationMode.UNIFORM)
    return report


def optimize_scaled_reference(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
) -> OptimizationReport:
    """Maximize over one mean rescaled per unit by the inverse arm transmission.

    The profile ``lam / V_n`` compensates arm loss with a fixed functional
    form; the single free scalar is line-searched.  Entries that would
    exceed the upper bound are clamped there and the report flags it.
    """
    (report,) = optimize_sizes(
        spec, strategy, [spec.n_units], settings, OptimizationMode.SCALED_REFERENCE
    )
    return report


def find_optimal_n(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
    n_ref: int = 100,
    threshold: float = 1e-3,
    mode: OptimizationMode | str = OptimizationMode.PER_UNIT,
) -> OptimalSizeResult:
    """Smallest unit count whose optimum sits within ``threshold`` of saturation.

    Optimizes every size from 1 to ``n_ref`` in one pass, takes the value
    at ``n_ref`` as the saturated reference and returns the first size
    whose optimum comes within ``threshold`` of it.  ``spec.n_units`` is
    ignored; the scan sets its own sizes.
    """
    message = f"n_ref must be in [2, {_COUNT_LIMIT}), got {n_ref}"
    n_ref = _integer(n_ref, "n_ref", 2, _COUNT_LIMIT, message)
    if not 0.0 < threshold < math.inf:
        raise ParameterError(f"threshold must be positive and finite, got {threshold!r}")
    reports = _search(spec, strategy, range(1, n_ref + 1), settings, mode)
    p_by_n = reports.p1
    n_opt = int(np.argmax(p_by_n[-1] - p_by_n < threshold)) + 1
    return OptimalSizeResult(n_opt=n_opt, p1_max=float(p_by_n[n_opt - 1]), reports=reports)


def strategy_scan(
    spec: MultiplexerSpec,
    settings: OptimizerSettings | None = None,
    mode: OptimizationMode | str = OptimizationMode.PER_UNIT,
    n_ref: int = 100,
    threshold: float = 1e-3,
    max_accept: int = 6,
) -> list[OptimalSizeResult]:
    """Size searches of accept-up-to strategies and threshold detection, best first.

    Raises the accepted-count ceiling one step at a time and stops as
    soon as the achievable maximum drops below the previous ceiling's;
    threshold detection is always evaluated alongside.
    """
    message = f"max_accept must be >= 1, got {max_accept}"
    max_accept = _integer(max_accept, "max_accept", 1, math.inf, message)

    def search(strategy: DetectionStrategy) -> OptimalSizeResult:
        return find_optimal_n(
            spec, strategy, settings, n_ref=n_ref, threshold=threshold, mode=mode
        )

    results = [search(DetectionStrategy.accept_up_to(1))]
    for j in range(2, max_accept + 1):
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


def stability_interval(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    optimal_pump: PumpProfile,
    baseline_p1: float,
    resolution: float = 1e-4,
) -> StabilityInterval:
    """Largest shared shift of every pump mean that keeps P1 at or above baseline.

    The same additive shift is applied to all units (entries clamped at
    zero) and each side of zero is bisected to ``resolution``.  If the
    unshifted profile does not reach the baseline the interval is empty.

    One :func:`p1_profile_batch` call tests the zero shift and every
    rung of both doubling ladders (``resolution`` doubled up to the first
    rung >= 10).  Each edge then bisects the bracket below its first
    failed rung alone, one call per _BISECT_DEPTH levels: the call tests
    every midpoint those levels may reach, and the edge follows one path.
    P1 is a closed form at every shift, so a row's value does not depend
    on the rows that share its call.
    """
    _check_resolution(resolution)
    if math.isnan(baseline_p1):
        raise ParameterError("baseline_p1 must not be NaN")
    base = _validate_pump(spec, optimal_pump)

    def held_at(deltas: list[float]) -> list[bool]:
        shifted = np.clip(base + np.array(deltas)[:, None], 0.0, None)
        return (p1_profile_batch(spec, strategy, shifted) >= baseline_p1).tolist()

    ladder = [resolution]
    while ladder[-1] < 10.0:
        ladder.append(2.0 * ladder[-1])
    held = held_at([0.0, *(-x for x in ladder), *ladder])
    if not held[0]:
        return StabilityInterval(0.0, 0.0, empty=True)
    ends = []
    for sign, rungs in ((-1.0, held[1 : len(ladder) + 1]), (+1.0, held[len(ladder) + 1 :])):
        if all(rungs):
            lo = ladder[-1]
        else:
            k = rungs.index(False)
            lo, hi = (ladder[k - 1] if k else 0.0), ladder[k]
            while mids := _midpoints(lo, hi, resolution):
                outcome = dict(zip(mids, held_at([sign * x for x in mids])))
                for _ in range(_BISECT_DEPTH):
                    mid = _bisection_mid(lo, hi, resolution)
                    if mid is None:
                        break
                    lo, hi = (mid, hi) if outcome[mid] else (lo, mid)
        ends.append(sign * lo if lo else 0.0)  # +0.0, never -0.0
    return StabilityInterval(delta_minus=ends[0], delta_plus=ends[1])
