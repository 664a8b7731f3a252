"""Parameter sweeps and reference result sets.

Every operation emits self-contained :class:`ResultRow` records: a row
carries all loss parameters, the strategy, the mode and the optimized
pump profile, so any row can be re-evaluated or re-run on its own.  CSV
and JSON writers embed the resolved configuration; timing lives outside
the data files so outputs are byte-stable for a fixed configuration.
"""
from __future__ import annotations

import csv
import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import ParameterError
from .multiplexer import MultiplexerSpec, _COUNT_LIMIT, _integer
from .optimize import (
    OptimizationMode,
    OptimizationReport,
    OptimizerSettings,
    _check_resolution,
    find_optimal_n,
    optimize_pump,
    optimize_sizes,
    stability_interval,
)
from .statistics import DetectionStrategy, PumpProfile, _validate_pump, single_photon_prob

__all__ = [
    "Axis",
    "SweepGrid",
    "ResultRow",
    "TABLE1_VR",
    "TABLE1_VD",
    "TABLE1_VB",
    "reproduce_table1",
    "fixed_n_curve",
    "stability_report",
    "vb_crossover",
    "run_sweep",
    "write_csv",
    "write_json",
    "read_csv",
]

TABLE1_VR = (0.90, 0.95, 0.99)
TABLE1_VD = (0.80, 0.85, 0.90, 0.92, 0.94, 0.96, 0.98)
TABLE1_VB = (0.80, 0.90, 0.98)

_AXIS_NAMES = ("v_r", "v_d", "v_b")
_DEFAULT_RANGES = {"v_r": (0.80, 0.99), "v_d": (0.80, 0.98), "v_b": (0.80, 0.98)}


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name plus an inclusive start/stop/step range."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.name not in _AXIS_NAMES:
            raise ParameterError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        finite = all(map(math.isfinite, (self.start, self.stop, self.step)))
        if not finite or self.step <= 0 or self.stop < self.start:
            raise ParameterError(f"bad axis range {self.start}:{self.stop}:{self.step}")
        if not self._count() < _COUNT_LIMIT:
            raise ParameterError(f"axis {self.name} has too many cells: step {self.step}")

    def _count(self) -> float:
        return np.floor((self.stop - self.start) / self.step + 1e-9) + 1

    def values(self) -> np.ndarray:
        return np.round(self.start + self.step * np.arange(int(self._count())), 10)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep over up to two loss parameters.

    The remaining parameters of {v_r, v_d, v_b} take fixed values; the
    router through-transmission defaults to 0.985 and can be pinned via
    ``v_t``.  Swept axes must stay inside the supported loss ranges.
    """

    axes: tuple[Axis, ...]
    fixed: tuple[tuple[str, float], ...]
    strategies: tuple[DetectionStrategy, ...] = (DetectionStrategy.single_photon(),)
    modes: tuple[OptimizationMode, ...] = (OptimizationMode.PER_UNIT,)
    v_t: float = 0.985
    source: str = "poisson"

    def __post_init__(self) -> None:
        if len(self.axes) > 2:
            raise ParameterError("a sweep supports at most two axes")
        axis_names = [a.name for a in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ParameterError("axis names must be distinct")
        fixed_names = [k for k, _ in self.fixed]
        covered = set(axis_names) | set(fixed_names)
        if covered != set(_AXIS_NAMES):
            missing = set(_AXIS_NAMES) - covered
            raise ParameterError(f"grid must pin every loss parameter; missing {missing}")
        for axis in self.axes:
            lo, hi = _DEFAULT_RANGES[axis.name]
            if axis.start < lo - 1e-12 or axis.stop > hi + 1e-12:
                raise ParameterError(f"axis {axis.name} outside supported range [{lo}, {hi}]")
        if not self.strategies or not self.modes:
            raise ParameterError("grid needs at least one strategy and one mode")

    def cells(self) -> list[dict[str, float]]:
        """All parameter combinations, row-major in axis order."""
        names = [axis.name for axis in self.axes]
        return [
            {**dict(self.fixed), **dict(zip(names, map(float, point)))}
            for point in itertools.product(*(axis.values() for axis in self.axes))
        ]


@dataclass
class ResultRow:
    """One optimization outcome, self-contained and re-runnable.

    The compared fields are the file columns, in order.  Only size-search
    rows (the sweep and the reference table) set ``wall_time_s``, the
    search's wall time, which the benchmark reads as the sweep's per-cell
    latency; it is not compared, so no output file holds it.
    """

    v_r: float
    v_t: float
    v_b: float
    v_d: float
    source: str
    strategy: str
    mode: str
    n_units: int
    n_opt: int | None
    p1: float
    lambda_uniform: float | None
    lambdas: tuple[float, ...]
    wall_time_s: float = field(default=0.0, compare=False)
    delta_minus: float | None = None
    delta_plus: float | None = None
    baseline_p1: float | None = None

    def spec(self) -> MultiplexerSpec:
        return MultiplexerSpec(
            v_r=self.v_r,
            v_b=self.v_b,
            v_d=self.v_d,
            n_units=self.n_units,
            v_t=self.v_t,
            source=self.source,
        )

    def reevaluate(self) -> float:
        """Single-photon probability recomputed from the stored profile."""
        return single_photon_prob(
            self.spec(), PumpProfile(self.lambdas), DetectionStrategy.parse(self.strategy)
        )


_COLUMNS = tuple(f for f in fields(ResultRow) if f.compare)
CSV_COLUMNS = tuple(f.name for f in _COLUMNS)


def _row_from_report(
    spec: MultiplexerSpec, report: OptimizationReport, n_opt: int | None = None
) -> ResultRow:
    lambdas = report.best_pump.lambdas
    uniform = lambdas[0] if report.mode is OptimizationMode.UNIFORM else None
    return ResultRow(
        v_r=spec.v_r,
        v_t=spec.v_t,
        v_b=spec.v_b,
        v_d=spec.v_d,
        source=spec.source.value,
        strategy=report.strategy.key,
        mode=report.mode.value,
        n_units=report.n_units,
        n_opt=n_opt,
        p1=report.best_p1,
        lambda_uniform=uniform,
        lambdas=lambdas,
    )


def _search_row(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    mode: OptimizationMode,
    settings: OptimizerSettings,
    n_ref: int,
    threshold: float,
) -> ResultRow:
    started = time.perf_counter()
    result = find_optimal_n(spec, strategy, settings, n_ref=n_ref, threshold=threshold, mode=mode)
    row = _row_from_report(spec, result.reports[result.n_opt - 1], result.n_opt)
    row.wall_time_s = time.perf_counter() - started
    return row


def reproduce_table1(
    settings: OptimizerSettings | None = None,
    combos: Sequence[tuple[float, float, float]] | None = None,
    n_ref: int = 100,
    threshold: float = 1e-3,
) -> list[ResultRow]:
    """Optimal size and probability for the reference loss-parameter table.

    Runs the size search for every (v_r, v_d, v_b) combination under the
    single-photon strategy, once per pump mode, and returns two rows per
    combination (per-unit and uniform).  ``combos`` restricts the scan to
    a subset of (v_r, v_d, v_b) triples.
    """
    if combos is None:
        combos = [
            (v_r, v_d, v_b) for v_r in TABLE1_VR for v_d in TABLE1_VD for v_b in TABLE1_VB
        ]
    spd = DetectionStrategy.single_photon()
    rows: list[ResultRow] = []
    for v_r, v_d, v_b in combos:
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1)
        for mode in (OptimizationMode.PER_UNIT, OptimizationMode.UNIFORM):
            rows.append(_search_row(spec, spd, mode, settings, n_ref, threshold))
    return rows


def fixed_n_curve(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    modes: Sequence[OptimizationMode],
    n_range: Iterable[int],
    settings: OptimizerSettings | None = None,
) -> list[ResultRow]:
    """Optimized probability at each fixed unit count, per pump mode.

    Each mode solves all sizes in one pass.  Rows are ordered mode-major,
    then by size.
    """
    message = "n_range must contain positive sizes"
    sizes = [_integer(n, "each size in n_range", 1, math.inf, message) for n in n_range]
    if not sizes:
        raise ParameterError(message)
    rows: list[ResultRow] = []
    for mode in modes:
        reports = optimize_sizes(spec, strategy, sizes, settings, mode)
        rows.extend(_row_from_report(spec, r) for r in reports)
    return rows


def stability_report(
    spec: MultiplexerSpec,
    strategy: DetectionStrategy,
    settings: OptimizerSettings | None = None,
    n_ref: int = 100,
    threshold: float = 1e-3,
    resolution: float = 1e-4,
) -> ResultRow:
    """Tolerable shared pump deviation around the per-unit optimum.

    Both pump modes are compared at the uniform mode's optimal size, so
    the baseline is the best the identical-mean source can do at all.
    The row carries the per-unit maximum as ``p1``, the uniform maximum
    as ``baseline_p1`` and the shift interval endpoints.
    """
    _check_resolution(resolution)  # before the searches it would waste
    uniform_search = find_optimal_n(
        spec,
        strategy,
        settings,
        n_ref=n_ref,
        threshold=threshold,
        mode=OptimizationMode.UNIFORM,
    )
    n_star = uniform_search.n_opt
    baseline = uniform_search.p1_max
    spec_star = spec.with_units(n_star)
    report = optimize_pump(spec_star, strategy, settings)
    interval = stability_interval(
        spec_star, strategy, report.best_pump, baseline, resolution=resolution
    )
    row = _row_from_report(spec_star, report, n_star)
    row.delta_minus = interval.delta_minus
    row.delta_plus = interval.delta_plus
    row.baseline_p1 = baseline
    return row


# vb_crossover: the low-loss corner grid, the v_b bracket and its
# bisection tolerance, and the saturated size of both optima
_CROSSOVER_V_R = (0.80, 0.82, 0.84)
_CROSSOVER_V_D = (0.80, 0.85, 0.90)
_CROSSOVER_BRACKET = (0.80, 0.90)
_CROSSOVER_TOL = 0.005
_CROSSOVER_N_SAT = 60


def vb_crossover(settings: OptimizerSettings | None = None) -> float:
    """Largest v_b at which accepting two counts still beats single-photon.

    Bisects v_b on the sign of the best advantage of the {1,2} strategy
    over single-photon detection across a low-loss corner grid, with
    both optima taken per-unit at a saturated size.  The advantage
    region survives longest at the lowest v_r and v_d, so a small corner
    grid stands in for the full surface.
    """
    spd = DetectionStrategy.single_photon()
    s12 = DetectionStrategy.accept_up_to(2)

    def max_advantage(v_b: float) -> float:
        best = -np.inf
        for v_r in _CROSSOVER_V_R:
            for v_d in _CROSSOVER_V_D:
                spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=_CROSSOVER_N_SAT)
                p_12 = optimize_pump(spec, s12, settings).best_p1
                p_spd = optimize_pump(spec, spd, settings).best_p1
                best = max(best, p_12 - p_spd)
        return best

    lo, hi = _CROSSOVER_BRACKET
    adv_lo = max_advantage(lo)
    adv_hi = max_advantage(hi)
    if adv_lo < 0.0 or adv_hi > 0.0:
        raise ParameterError(
            f"bracket [{lo}, {hi}] does not straddle the crossover "
            f"(advantages {adv_lo:.4f}, {adv_hi:.4f})"
        )
    while hi - lo > _CROSSOVER_TOL:
        mid = 0.5 * (lo + hi)
        if max_advantage(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# sweep driver with incremental, resumable output
# ----------------------------------------------------------------------

def _job_key(spec: MultiplexerSpec, strategy: str, mode: str) -> tuple:
    """What a sweep job computes: every loss parameter, the source, the strategy and the mode."""
    return spec.v_r, spec.v_t, spec.v_b, spec.v_d, spec.source, strategy, mode


def run_sweep(
    grid: SweepGrid,
    settings: OptimizerSettings | None = None,
    n_ref: int = 100,
    threshold: float = 1e-3,
    out_csv: str | Path | None = None,
    config: dict | None = None,
    resume: bool = True,
    threads: int = 1,
) -> list[ResultRow]:
    """Optimize every (cell, strategy, mode) job of the grid, in grid order.

    When ``out_csv`` is given, finished rows are appended immediately so
    an interrupted sweep can resume: jobs whose row already appears in
    the file are skipped, and a last row cut short by the interruption
    is dropped and redone.  A file whose embedded configuration differs
    from ``config`` in any key but ``config``, ``out`` and ``resume``,
    or that holds a malformed row or a row of a job the grid does not
    run, is refused and left as it is.  Jobs run one after another in
    this process (each takes milliseconds); ``threads`` is accepted for
    older callers and ignored.
    """
    jobs = [
        (MultiplexerSpec(**cell, n_units=1, v_t=grid.v_t, source=grid.source), strategy, mode)
        for cell in grid.cells()
        for strategy in grid.strategies
        for mode in map(OptimizationMode.coerce, grid.modes)
    ]
    keys = [_job_key(spec, strategy.key, mode.value) for spec, strategy, mode in jobs]
    path = None if out_csv is None else Path(out_csv)
    done = _resumed_rows(path, config, set(keys)) if resume and path and path.exists() else None

    handle = None
    if path is not None:
        if done is None:
            write_csv([], path, config)
        handle = open(path, "a", newline="")
        writer = csv.writer(handle)
    rows: list[ResultRow] = []
    try:
        for key, (spec, strategy, mode) in zip(keys, jobs):
            row = done.get(key) if done else None
            if row is None:
                row = _search_row(spec, strategy, mode, settings, n_ref, threshold)
                if handle is not None:
                    writer.writerow(_csv_record(row))
                    handle.flush()
            rows.append(row)
    finally:
        if handle is not None:
            handle.close()
    return rows


def _resumed_rows(path: Path, config: dict | None, keys: set) -> dict[tuple, ResultRow] | None:
    """The rows of a sweep CSV by job key, readied for appending; None without a column header.

    A file whose leading comment lines differ from those ``config``
    would write, other than in the keys that name the run's files or
    its resume flag, whose columns differ, or that holds a malformed row
    or a row whose job key is not in ``keys``, is refused untouched.  A
    record is complete when it ends in a newline and has one field per
    column; an incomplete last record, left by an interrupted write, is
    cut off once every other row has passed.
    """
    lines = path.read_bytes().splitlines(keepends=True)
    records = [line for line in lines if not line.startswith(b"#")]
    if not records:
        return None
    comments = lines[: lines.index(records[0])]
    expected = _config_lines(config).encode().splitlines(keepends=True)
    if _computed_lines(comments) != _computed_lines(expected):
        raise ParameterError(f"{path} was written with another configuration; not resuming")
    if not records[0].endswith(b"\n"):  # the header was cut short
        return None
    last = lines[-1]
    torn = len(records) > 1 and not last.startswith(b"#") and (
        not last.endswith(b"\n") or len(_fields(last)) != len(CSV_COLUMNS)
    )
    rows = _parse_lines(path, lines[:-1] if torn else lines)
    done = {_job_key(r.spec(), r.strategy, r.mode): r for r in rows}
    if not done.keys() <= keys:
        raise ParameterError(f"{path} holds a row of a job this sweep does not run; not resuming")
    if torn:
        with open(path, "r+b") as handle:
            handle.truncate(sum(map(len, lines[:-1])))
    return done


# embedded-config keys that say where a run reads and writes or whether
# it resumes, not what it computes; resuming ignores them
_RUN_KEYS = frozenset({b"config", b"out", b"resume"})


def _computed_lines(lines: list[bytes]) -> list[bytes]:
    """The embedded-config lines whose keys select what is computed."""
    return [
        line for line in lines if line[2:].partition(b" = ")[0] not in _RUN_KEYS
    ]


def _fields(line: bytes) -> list[str]:
    return next(csv.reader([line.decode("utf-8", "replace")]), [])


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _fmt(value) -> str:
    """The text of a column value; ``_READERS`` reads it back."""
    if value is None:
        return ""
    if isinstance(value, (tuple, list)):
        return ";".join(map(_fmt, value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _optional(read):
    return lambda text: read(text) if text else None


# the reader of each column's text, by its field's annotation (a string:
# this module postpones the evaluation of annotations)
_READERS = {
    "float": float,
    "int": int,
    "str": str,
    "float | None": _optional(float),
    "int | None": _optional(int),
    "tuple[float, ...]": lambda text: tuple(float(x) for x in text.split(";") if x),
}


def _csv_record(row: ResultRow) -> list[str]:
    return [_fmt(getattr(row, col)) for col in CSV_COLUMNS]


def _config_lines(config: dict | None) -> str:
    """The leading comment lines that embed ``config`` in a CSV file."""
    return "".join(
        f"# {key} = {json.dumps(config[key], sort_keys=True)}\n" for key in sorted(config or {})
    )


def write_csv(rows: Sequence[ResultRow], path: str | Path, config: dict | None = None) -> None:
    """Write rows with the documented fixed column order.

    The resolved configuration is embedded as leading comment lines so
    the file is self-describing.
    """
    with open(path, "w", newline="") as handle:
        handle.write(_config_lines(config))
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(_csv_record(row))


def read_csv(path: str | Path) -> list[ResultRow]:
    """Load rows written by :func:`write_csv` (comment lines are skipped).

    Every record is checked: a wrong column header or field count, a
    non-numeric field, an unknown strategy or mode, or a bad value that
    :meth:`ResultRow.reevaluate` reads (the losses, the source, the pump
    means or their count) raises :class:`ParameterError` naming the line.
    """
    return _parse_lines(path, Path(path).read_bytes().splitlines(keepends=True))


def _parse_lines(path: str | Path, lines: list[bytes]) -> list[ResultRow]:
    """The rows of a file's ``lines``, checked as :func:`read_csv` documents."""
    data = [(n, line) for n, line in enumerate(lines, start=1) if not line.startswith(b"#")]
    if data and _fields(data[0][1]) != list(CSV_COLUMNS):
        raise ParameterError(f"{path} line {data[0][0]}: expected the columns {CSV_COLUMNS}")
    rows: list[ResultRow] = []
    for lineno, line in data[1:]:
        try:
            rows.append(_parse_record(_fields(line)))
        except (ValueError, ParameterError) as err:
            raise ParameterError(f"{path} line {lineno}: {err}") from None
    return rows


def _parse_record(values: list[str]) -> ResultRow:
    if len(values) != len(CSV_COLUMNS):
        raise ParameterError(f"{len(values)} fields, expected {len(CSV_COLUMNS)}")
    rec = dict(zip(CSV_COLUMNS, values))
    DetectionStrategy.parse(rec["strategy"])
    OptimizationMode(rec["mode"])
    row = ResultRow(**{f.name: _READERS[f.type](rec[f.name]) for f in _COLUMNS})
    _validate_pump(row.spec(), PumpProfile(row.lambdas))  # the checks reevaluate() makes
    return row


def write_json(rows: Sequence[ResultRow], path: str | Path, config: dict | None = None) -> None:
    """Write rows plus the resolved configuration as one JSON document."""
    data = [{col: getattr(row, col) for col in CSV_COLUMNS} for row in rows]  # lambdas as a list
    _dump_json({"config": config or {}, "rows": data}, path)


def _dump_json(payload: dict, path: str | Path) -> None:
    """Write ``payload`` as indented, key-sorted JSON ending in a newline."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
