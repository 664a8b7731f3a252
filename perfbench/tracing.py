"""Span tracer for the traced benchmark run.

``Tracer.install`` replaces each public function named in ``TARGETS`` at
every module attribute that binds it (the home module, the modules that
import it by name, the package namespace and the benchmark's own
workload module), because calls inside the package resolve through
module globals.  Each call records a span (name, start, end, parent) in
memory; the spans are aggregated and written once when the pass ends.
Self time is a span's duration minus the durations of its child spans.

Spans are recorded only in the process that installed the tracer: the
sweep's pool workers inherit the wrappers but call straight through.
"""
from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TARGETS = {
    "statistics": (
        "p1_profile_batch",
        "source_pmf",
        "required_lmax",
        "output_distribution",
        "single_photon_prob",
        "p1_uniform_grid",
        "acceptance_weights",
    ),
    "multiplexer": ("transmission_vector",),
    "optimize": (
        "find_optimal_n",
        "optimize_pump",
        "optimize_uniform",
        "optimize_scaled_reference",
        "stability_interval",
    ),
    "montecarlo": ("simulate", "compare_with_analytic"),
    "experiments": ("run_sweep", "read_csv"),
}

# single-size optimisations; the per-optimisation ratios divide by their calls
OPTIMIZATIONS = ("optimize.optimize_pump", "optimize.optimize_uniform", "optimize.optimize_scaled_reference")
OPTIMIZE_CALLERS = OPTIMIZATIONS + ("optimize.find_optimal_n",)

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [
    ("statistics.p1_profile_batch.calls", "count", "lower"),
    ("statistics.p1_profile_batch.busy_s", "s", "lower"),
    ("statistics.p1_profile_batch.profiles", "count", "lower"),
    ("statistics.source_pmf.calls", "count", "lower"),
    ("statistics.source_pmf.busy_s", "s", "lower"),
    ("statistics.source_pmf.cells", "count", "lower"),
    ("statistics.required_lmax.calls", "count", "lower"),
    ("statistics.required_lmax.busy_s", "s", "lower"),
    ("statistics.required_lmax.mean_lmax", "count", "lower"),
    ("statistics.output_distribution.calls", "count", "lower"),
    ("statistics.output_distribution.busy_s", "s", "lower"),
    ("statistics.output_distribution.cube_bytes", "B", "lower"),
    ("statistics.single_photon_prob.calls", "count", "lower"),
    ("statistics.p1_uniform_grid.calls", "count", "lower"),
    ("statistics.p1_uniform_grid.busy_s", "s", "lower"),
    ("statistics.p1_uniform_grid.points", "count", "lower"),
    ("statistics.acceptance_weights.calls", "count", "lower"),
    ("statistics.acceptance_weights.hit_ratio", "ratio", "higher"),
]
for _fn in ("find_optimal_n", "optimize_pump", "optimize_uniform", "optimize_scaled_reference"):
    PER_LAYER += [
        (f"optimize.{_fn}.calls", "count", "lower"),
        (f"optimize.{_fn}.busy_s", "s", "lower"),
        (f"optimize.{_fn}.self_s", "s", "lower"),
    ]
PER_LAYER += [
    ("optimize.stability_interval.calls", "count", "lower"),
    ("optimize.stability_interval.busy_s", "s", "lower"),
    ("optimize.profiles_per_optimization", "count", "lower"),
    ("optimize.canonical_evals_per_optimization", "count", "lower"),
    ("optimize.kernel_share", "ratio", "higher"),
    ("montecarlo.simulate.calls", "count", "lower"),
    ("montecarlo.simulate.busy_s", "s", "lower"),
    ("montecarlo.simulate.trials", "count", "higher"),
    ("montecarlo.compare_with_analytic.calls", "count", "lower"),
    ("montecarlo.compare_with_analytic.busy_s", "s", "lower"),
    ("montecarlo.compare_with_analytic.self_s", "s", "lower"),
    ("montecarlo.draws_issued", "count", "lower"),
    ("montecarlo.useful_draw_ratio", "ratio", "higher"),
    ("montecarlo.worst_z_max", "sigma", "lower"),
    ("experiments.run_sweep.calls", "count", "lower"),
    ("experiments.run_sweep.busy_s", "s", "lower"),
    ("experiments.run_sweep.self_s", "s", "lower"),
    ("experiments.read_csv.calls", "count", "lower"),
    ("experiments.read_csv.busy_s", "s", "lower"),
    ("experiments.read_csv.rows", "count", "lower"),
    ("experiments.out_bytes", "B", "lower"),
    ("multiplexer.transmission_vector.calls", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.children_cpu_s", "s", "lower"),
    ("process.cpu_per_wall", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """In-memory spans plus the per-call counts taken at the same boundaries."""

    def __init__(self, expected_units_examined, worst_z) -> None:
        self._examined = expected_units_examined
        self._worst_z = worst_z
        self._pid = os.getpid()
        self.names: list[str] = []
        self.spans: list[tuple | None] = []  # (name index, start, end, parent index)
        self._stack: list[int] = []
        self.extra: dict[int, float] = {}  # span index -> work count of that call
        self.totals: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.uncounted: set[str] = set()  # calls whose arguments no longer match
        self._originals: dict[str, object] = {}
        self._restore: list[tuple] = []
        self._cache = None
        self._cache_before = None

    # -- installation -----------------------------------------------------
    def install(self, extra_modules=()) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "asmux" or n.startswith("asmux.")]
        modules += list(extra_modules)
        for home, names in TARGETS.items():
            home_mod = importlib.import_module(f"asmux.{home}")
            for fname in names:
                orig = getattr(home_mod, fname, None)
                full = f"{home}.{fname}"
                if not callable(orig):
                    self.missing.append(full)
                    continue
                self._originals[full] = orig
                wrapper = self._wrap(full, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        stats = importlib.import_module("asmux.statistics")
        cached = getattr(stats, "_acceptance_weights_cached", None)
        if cached is not None and hasattr(cached, "cache_info"):
            self._cache = cached
            self._cache_before = cached.cache_info()

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()
        if self._cache is not None:
            after = self._cache.cache_info()
            self.totals["cache_hits"] = after.hits - self._cache_before.hits
            self.totals["cache_misses"] = after.misses - self._cache_before.misses

    def _wrap(self, full: str, orig):
        index = len(self.names)
        self.names.append(full)
        measure = _MEASURES.get(full)
        signature = inspect.signature(orig) if measure else None
        spans, stack, clock, pid = self.spans, self._stack, time.perf_counter, self._pid
        before = _BEFORE.get(full)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return orig(*args, **kwargs)
            bound = None
            pre = None
            if measure:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before:
                    pre = before(bound.arguments)
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)
            if measure:
                try:
                    measure(self, me, bound.arguments, result, pre)
                except (KeyError, TypeError, AttributeError, ValueError):
                    self.uncounted.add(full)
            return result

        return wrapper

    # -- aggregation ------------------------------------------------------
    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer values from the recorded spans, plus notes on gaps."""
        spans = [s for s in self.spans if s is not None]
        n = len(spans)
        names = self.names
        child_sum = np.zeros(n)
        in_opt = np.zeros(n, dtype=bool)  # below a single-size optimisation or size search
        in_optimize = np.zeros(n, dtype=bool)  # below any optimize.* span
        in_stat = np.zeros(n, dtype=bool)  # below a statistics.* span
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        nested_same = np.zeros(n, dtype=bool)
        active: dict[int, list[int]] = defaultdict(list)
        for i, (idx, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_sum[parent] += end - start
                pname = names[spans[parent][0]]
                in_opt[i] = in_opt[parent] or pname in OPTIMIZE_CALLERS
                in_optimize[i] = in_optimize[parent] or pname.startswith("optimize.")
                in_stat[i] = in_stat[parent] or pname.startswith("statistics.")
            # a span nested in a same-name span is already inside its busy time
            p = parent
            while p >= 0:
                if spans[p][0] == idx:
                    nested_same[i] = True
                    break
                p = spans[p][3]
        kernel_s = 0.0
        optimize_s = 0.0
        profiles = 0.0
        canonical = 0
        for i, (idx, start, end, parent) in enumerate(spans):
            name = names[idx]
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_sum[i]
            if not nested_same[i]:
                busy[name] += dur
            if name.startswith("statistics.") and in_optimize[i] and not in_stat[i]:
                kernel_s += dur
            if name.startswith("optimize.") and not in_optimize[i]:
                optimize_s += dur
            if in_opt[i]:
                if name in ("statistics.p1_profile_batch", "statistics.p1_uniform_grid"):
                    profiles += self.extra.get(i, 0.0)
                elif name == "statistics.output_distribution":
                    canonical += 1

        notes = [f"{m} not found in the package; its metrics read 0" for m in self.missing]
        notes += [f"{m}: arguments not recognised; its work counts are partial" for m in sorted(self.uncounted)]
        t = self.totals
        out: dict[str, float] = {}
        for home, fnames in TARGETS.items():
            for fname in fnames:
                full = f"{home}.{fname}"
                out[f"{full}.calls"] = float(calls.get(full, 0))
                out[f"{full}.busy_s"] = busy.get(full, 0.0)
                out[f"{full}.self_s"] = self_s.get(full, 0.0)
        out["statistics.p1_profile_batch.profiles"] = t["statistics.p1_profile_batch.profiles"]
        out["statistics.source_pmf.cells"] = t["statistics.source_pmf.cells"]
        lmax_calls = calls.get("statistics.required_lmax", 0)
        out["statistics.required_lmax.mean_lmax"] = (
            t["statistics.required_lmax.lmax_sum"] / lmax_calls if lmax_calls else 0.0
        )
        out["statistics.output_distribution.cube_bytes"] = t["statistics.output_distribution.cube_bytes"]
        out["statistics.p1_uniform_grid.points"] = t["statistics.p1_uniform_grid.points"]
        lookups = t["cache_hits"] + t["cache_misses"]
        if self._cache is None:
            notes.append("acceptance_weights has no inspectable cache; hit_ratio reads 0")
        elif not lookups:
            notes.append("acceptance_weights cache was not consulted; hit_ratio reads 0")
        out["statistics.acceptance_weights.hit_ratio"] = t["cache_hits"] / lookups if lookups else 0.0

        optimizations = sum(calls.get(name, 0) for name in OPTIMIZATIONS)
        if optimizations:
            out["optimize.profiles_per_optimization"] = profiles / optimizations
            out["optimize.canonical_evals_per_optimization"] = canonical / optimizations
        else:
            notes.append("no single-size optimisation ran; per-optimisation ratios read 0")
            out["optimize.profiles_per_optimization"] = 0.0
            out["optimize.canonical_evals_per_optimization"] = 0.0
        if optimize_s:
            out["optimize.kernel_share"] = kernel_s / optimize_s
        else:
            notes.append("no optimize span ran; kernel_share reads 0")
            out["optimize.kernel_share"] = 0.0

        out["montecarlo.simulate.trials"] = t["montecarlo.simulate.trials"]
        out["montecarlo.draws_issued"] = t["montecarlo.draws_issued"]
        if t["montecarlo.draws_issued"]:
            out["montecarlo.useful_draw_ratio"] = t["montecarlo.useful_draws"] / t["montecarlo.draws_issued"]
        else:
            notes.append("no Monte Carlo trials ran; useful_draw_ratio and worst_z_max read 0")
            out["montecarlo.useful_draw_ratio"] = 0.0
        out["montecarlo.worst_z_max"] = t["montecarlo.worst_z_max"]
        out["experiments.read_csv.rows"] = t["experiments.read_csv.rows"]
        out["experiments.out_bytes"] = t["experiments.out_bytes"]
        return out, notes

    def write_spans(self, path: Path, origin: float) -> None:
        """All spans as CSV: name, start and end (seconds from ``origin``), parent row."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("name", "start_s", "end_s", "parent"))
            for idx, start, end, parent in (s for s in self.spans if s is not None):
                writer.writerow(
                    (self.names[idx], f"{start - origin:.9f}", f"{end - origin:.9f}", parent)
                )


# ----------------------------------------------------------------------
# per-call counts, taken after the span closes
# ----------------------------------------------------------------------

def _profiles(tr: Tracer, me, a, result, pre) -> None:
    shape = np.shape(a["lam_matrix"])
    count = float(np.prod(shape[:-1])) if len(shape) > 1 else 1.0
    tr.extra[me] = count
    tr.totals["statistics.p1_profile_batch.profiles"] += count


def _cells(tr: Tracer, me, a, result, pre) -> None:
    tr.totals["statistics.source_pmf.cells"] += float(np.size(a["lams"])) * (int(a["l_max"]) + 1)


def _lmax(tr: Tracer, me, a, result, pre) -> None:
    tr.totals["statistics.required_lmax.lmax_sum"] += float(result)


def _cube(tr: Tracer, me, a, result, pre) -> None:
    spec, pump = a["spec"], a["pump"]
    required_lmax = tr._originals["statistics.required_lmax"]
    l_max = required_lmax(spec.source, float(max(pump.lambdas)), a["trunc"])
    tr.totals["statistics.output_distribution.cube_bytes"] += (
        8.0 * (int(a["i_max"]) + 1) * spec.n_units * (l_max + 1)
    )


def _points(tr: Tracer, me, a, result, pre) -> None:
    count = float(np.size(a["lam_grid"]))
    tr.extra[me] = count
    tr.totals["statistics.p1_uniform_grid.points"] += count


def _trials(tr: Tracer, me, a, result, pre) -> None:
    spec, mc = a["spec"], a["mc"]
    tr.totals["montecarlo.simulate.trials"] += mc.trials
    tr.totals["montecarlo.draws_issued"] += float(mc.trials) * spec.n_units
    tr.totals["montecarlo.useful_draws"] += mc.trials * tr._examined(spec, a["pump"], a["strategy"])


def _worst(tr: Tracer, me, a, result, pre) -> None:
    tr.totals["montecarlo.worst_z_max"] = max(tr.totals["montecarlo.worst_z_max"], tr._worst_z(result))


def _rows(tr: Tracer, me, a, result, pre) -> None:
    tr.totals["experiments.read_csv.rows"] += len(result)


def _csv_size(a) -> int:
    path = a.get("out_csv")
    return Path(path).stat().st_size if path is not None and Path(path).exists() else 0


def _out_bytes(tr: Tracer, me, a, result, pre) -> None:
    tr.totals["experiments.out_bytes"] += _csv_size(a) - pre


_MEASURES = {
    "statistics.p1_profile_batch": _profiles,
    "statistics.source_pmf": _cells,
    "statistics.required_lmax": _lmax,
    "statistics.output_distribution": _cube,
    "statistics.p1_uniform_grid": _points,
    "montecarlo.simulate": _trials,
    "montecarlo.compare_with_analytic": _worst,
    "experiments.read_csv": _rows,
    "experiments.run_sweep": _out_bytes,
}
_BEFORE = {"experiments.run_sweep": _csv_size}
