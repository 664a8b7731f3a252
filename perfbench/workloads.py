"""Workload plans, their execution and their output checks.

A plan is the finite, seed-determined list of steps one pass of a
workload runs.  A step is one call into the package's public API and
yields one or more ops (a size search, a fixed-size optimisation or
stability interval, a Monte Carlo case, or a sweep cell).  The plan
is built here; the package only ever sees the generated inputs.

Every check is a pure function of the recorded step results, so the
smoke test can corrupt a result and show that the check flags it.
See README.md for why each workload exists and which layers it moves.
"""
from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import asmux
from asmux import experiments, montecarlo
from asmux.experiments import TABLE1_VB, TABLE1_VD, TABLE1_VR, Axis, SweepGrid, run_sweep
from asmux.montecarlo import VALIDATION_CORPUS, McSettings, compare_with_analytic, corpus_case
from asmux.multiplexer import MultiplexerSpec
from asmux.optimize import (
    find_optimal_n,
    optimize_pump,
    optimize_scaled_reference,
    optimize_uniform,
    stability_interval,
)
from asmux.statistics import DetectionStrategy, PumpProfile, output_distribution

WORKLOADS = ("size-search", "fixed-size", "mc-oracle", "sweep")
MODES = ("per-unit", "uniform", "scaled-reference")
HEADLINE = (0.99, 0.98, 0.98)  # (v_r, v_d, v_b)

# Acceptance targets of the reference table (criterion 1 of the test
# suite): (v_r, v_d, v_b) -> (p1 per-unit, n_opt per-unit, n_opt
# tolerance, uniform pump mean at the uniform optimum).
GOLDEN = {
    (0.99, 0.98, 0.98): (0.935, 16, 1, 0.667),
    (0.90, 0.80, 0.80): (0.622, 13, 1, 0.859),
    (0.95, 0.90, 0.90): (0.771, 14, 1, 0.719),
    (0.99, 0.80, 0.80): (0.732, 23, 2, 0.344),
    (0.90, 0.90, 0.90): (0.716, 12, 1, 0.868),
}
GOLDEN_P1_TOL = 0.002
GOLDEN_LAMBDA_TOL = 0.005

DOMINANCE_TOL = 1e-9  # per-unit P1 >= max(uniform, scaled-reference) - tol
REEVAL_TOL = 1e-10  # reported P1 vs. re-evaluation of the reported profile
NORMALIZATION_TOL = 1e-8  # |probs.sum() + truncation_mass - 1|

# Monte Carlo gate: 5 sigma per bucket.  The family-wise false-alarm
# bound over every compared bucket of a pass is printed with each run.
MC_SIGMA = 5.0

FIXED_STRATEGIES = ("spd", "upto:2", "upto:3", "thd", "set:1,3")
LARGE_N_STRATEGIES = ("spd", "upto:2", "thd")
SWEEP_AXIS = Axis("v_d", 0.80, 0.98, 0.02)


def optimizer_settings() -> dict:
    """Keyword for the reduced search budget the acceptance suite uses.

    Empty when the package no longer defines one, so the optimizers run
    with their own defaults.
    """
    settings = getattr(experiments, "EXPERIMENT_SETTINGS", None)
    return {} if settings is None else {"settings": settings}


@dataclass(frozen=True)
class Scale:
    """Size knobs of the plans; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    n_ref: int
    fixed_specs: int
    fixed_n_max: int
    corpus_cases: int
    large_n_cases: int
    large_n_range: tuple[int, int]
    mc_trials: int
    sweep_axis: Axis
    sweep_n_ref: int


FULL = Scale(
    n_ref=100,
    fixed_specs=60,
    fixed_n_max=60,
    corpus_cases=len(VALIDATION_CORPUS),
    large_n_cases=4,
    large_n_range=(12, 32),
    mc_trials=200_000,
    sweep_axis=SWEEP_AXIS,
    sweep_n_ref=30,
)
TINY = Scale(
    n_ref=6,
    fixed_specs=2,
    fixed_n_max=5,
    corpus_cases=2,
    large_n_cases=1,
    large_n_range=(12, 12),
    mc_trials=2_000,
    sweep_axis=Axis("v_d", 0.80, 0.82, 0.02),
    sweep_n_ref=4,
)


@dataclass
class Step:
    """One call into the package; ``ops`` is how many ops it counts for."""

    kind: str
    params: dict
    ops: int = 1


@dataclass
class StepRecord:
    """What one executed step returned, the latency of each of its ops, and
    when the whole step started and how long it took (set by the caller
    that timed it)."""

    step: Step
    result: object
    latencies_s: list[float]
    wall_s: float = 0.0
    started: float = 0.0


@dataclass
class Plan:
    workload: str
    seed: int
    scale: Scale
    steps: list[Step] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.steps)


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------

def _strata(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """Latin-hypercube column: one uniform draw per equal stratum, shuffled."""
    edges = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
    return rng.permutation(edges)


def make_plan(workload: str, seed: int, scale: Scale = FULL) -> Plan:
    """The seed-determined steps of one pass of ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    plan = Plan(workload, int(seed), scale)
    if workload == "size-search":
        # The headline point plus one point for each pairing of the other
        # two v_r and v_b values, so every pass holds the same mix of
        # loss levels.  Each of these four takes its v_d from one of the
        # two lower thirds of the v_d values, in a seeded 2x2 Latin
        # square: each v_r and each v_b meets each third once.  The
        # plan's mean P1 and its cost, and the median per-unit search
        # (the middle op of a pass), then vary little from seed to seed.
        strata = [s for s in np.array_split(np.array(TABLE1_VD), 3) if HEADLINE[1] not in s]
        v_rs = [v for v in TABLE1_VR if v != HEADLINE[0]]
        v_bs = [v for v in TABLE1_VB if v != HEADLINE[2]]
        flip = int(rng.integers(2))
        points = [HEADLINE] + [
            (float(v_r), float(rng.choice(strata[(i + j + flip) % 2])), float(v_b))
            for i, v_r in enumerate(v_rs) for j, v_b in enumerate(v_bs)
        ]
        for point in points:
            for mode in MODES:
                plan.steps.append(Step("search", {"point": point, "mode": mode}))
    elif workload == "fixed-size":
        k = scale.fixed_specs
        # Sizes spread evenly over 1..fixed_n_max, thermal and Poisson in
        # turn by size, in one shuffled order that is the same for every
        # seed.  Peak memory depends on the largest thermal system and on
        # the allocator's history, so it then does not vary by seed; the
        # seed draws the losses and pairs the strategies with the sizes.
        sizes = np.linspace(1, scale.fixed_n_max, k).round().astype(int)
        sources = np.array(["thermal" if (k - 1 - r) % 2 == 0 else "poisson" for r in range(k)])
        order = np.random.default_rng(0).permutation(k)
        sizes, sources = sizes[order], sources[order]
        v_r = _strata(rng, 0.80, 0.99, k)
        v_d = _strata(rng, 0.80, 0.98, k)
        v_b = _strata(rng, 0.80, 0.98, k)
        strategies = rng.permutation(
            [FIXED_STRATEGIES[i % len(FIXED_STRATEGIES)] for i in range(k)]
        )
        for i in range(k):
            spec = dict(
                v_r=float(v_r[i]), v_d=float(v_d[i]), v_b=float(v_b[i]),
                n_units=int(sizes[i]), source=str(sources[i]),
            )
            for kind in ("per-unit", "uniform", "scaled-reference", "stability"):
                plan.steps.append(
                    Step(kind, {"spec": spec, "strategy": str(strategies[i]), "index": i})
                )
    elif workload == "mc-oracle":
        for entry in VALIDATION_CORPUS[: scale.corpus_cases]:
            spec, pump, strategy, case_seed = corpus_case(entry)
            plan.steps.append(Step("mc", _mc_params(
                spec, pump, strategy, case_seed + int(seed), scale.mc_trials, "corpus"
            )))
        lo, hi = scale.large_n_range
        k = scale.large_n_cases
        # An anchor case at N = hi comes first: upto:2 at v_d = 0.98 and
        # lambda = 1.0, the sampler's largest working set on these ranges,
        # so peak memory does not vary by seed (only its stream does).
        # The other cases sit at the centres of equal strata of [lo, hi),
        # each with its own strategy, so the tail of the latency
        # distribution does not vary by seed either; the seed draws their
        # order, losses, pump means and sampler streams.
        centres = lo + (hi - 1 - lo) * (np.arange(k - 1) + 0.5) / max(k - 1, 1)
        others = [
            (int(round(c)), LARGE_N_STRATEGIES[i % len(LARGE_N_STRATEGIES)])
            for i, c in enumerate(centres)
        ]
        cases = [(hi, "upto:2")] + [others[int(i)] for i in rng.permutation(k - 1)]
        v_r = _strata(rng, 0.80, 0.99, k - 1)
        v_d = _strata(rng, 0.80, 0.98, k - 1)
        v_b = _strata(rng, 0.80, 0.98, k - 1)
        for i, (n_units, strategy) in enumerate(cases):
            if i == 0:
                spec = MultiplexerSpec(v_r=0.95, v_b=0.90, v_d=0.98, n_units=n_units)
                pump = PumpProfile.uniform(1.0, n_units)
            else:
                spec = MultiplexerSpec(
                    v_r=float(v_r[i - 1]), v_b=float(v_b[i - 1]), v_d=float(v_d[i - 1]),
                    n_units=n_units,
                )
                pump = PumpProfile(tuple(float(x) for x in rng.uniform(0.3, 1.0, n_units)))
            mc_seed = int(rng.integers(2**31))
            plan.steps.append(Step("mc", _mc_params(
                spec, pump, DetectionStrategy.parse(strategy), mc_seed, scale.mc_trials, "large-n"
            )))
    else:  # sweep
        # one sweep per Table-1 v_r, each paired with a different v_b in
        # seeded order (a Latin square), for the same reason as above
        cells = len(scale.sweep_axis.values())
        for v_r, v_b in zip(TABLE1_VR, rng.permutation(TABLE1_VB)):
            plan.steps.append(Step(
                "sweep",
                {
                    "v_r": float(v_r),
                    "v_b": float(v_b),
                    "axis": scale.sweep_axis,
                    "n_ref": scale.sweep_n_ref,
                    "cells": cells,
                },
                ops=cells,
            ))
    return plan


def _mc_params(spec, pump, strategy, seed, trials, family) -> dict:
    return {
        "spec": spec, "pump": pump, "strategy": strategy,
        "mc": McSettings(trials=trials, seed=int(seed)), "family": family,
    }


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

def run_step(plan: Plan, step: Step, done: dict, scratch: Path) -> StepRecord:
    """Execute ``step``; ``done`` maps earlier steps of this pass to results."""
    started = time.perf_counter()
    if step.kind == "search":
        v_r, v_d, v_b = step.params["point"]
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1)
        res = find_optimal_n(
            spec, DetectionStrategy.single_photon(), n_ref=plan.scale.n_ref,
            mode=step.params["mode"], **optimizer_settings(),
        )
        elapsed = time.perf_counter() - started
        result = {
            "n_opt": int(res.n_opt),
            "p1_max": float(res.p1_max),
            "p1_by_n": tuple(float(x) for x in res.p1_by_n),
            "lambdas": tuple(res.reports[res.n_opt - 1].best_pump.lambdas),
        }
        return StepRecord(step, result, [elapsed])
    if step.kind in ("per-unit", "uniform", "scaled-reference"):
        spec = MultiplexerSpec(**step.params["spec"])
        strategy = DetectionStrategy.parse(step.params["strategy"])
        fn = {
            "per-unit": optimize_pump,
            "uniform": optimize_uniform,
            "scaled-reference": optimize_scaled_reference,
        }[step.kind]
        report = fn(spec, strategy, **optimizer_settings())
        elapsed = time.perf_counter() - started
        result = {"p1": float(report.best_p1), "lambdas": tuple(report.best_pump.lambdas)}
        return StepRecord(step, result, [elapsed])
    if step.kind == "stability":
        index = step.params["index"]
        per_unit = done[("per-unit", index)]
        uniform = done[("uniform", index)]
        interval = stability_interval(
            MultiplexerSpec(**step.params["spec"]),
            DetectionStrategy.parse(step.params["strategy"]),
            PumpProfile(per_unit["lambdas"]),
            uniform["p1"],
        )
        elapsed = time.perf_counter() - started
        result = {
            "delta_minus": float(interval.delta_minus),
            "delta_plus": float(interval.delta_plus),
            "empty": bool(interval.empty),
        }
        return StepRecord(step, result, [elapsed])
    if step.kind == "mc":
        p = step.params
        comparison = compare_with_analytic(p["spec"], p["pump"], p["strategy"], p["mc"])
        return StepRecord(step, comparison, [time.perf_counter() - started])
    if step.kind == "sweep":
        return _run_sweep_step(step, scratch)
    raise ValueError(f"unknown step kind {step.kind!r}")


def sweep_threads() -> int:
    """Worker count for the sweep: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def busy_processes(workload: str) -> int:
    """Processes a workload keeps busy at once."""
    return sweep_threads() if workload == "sweep" else 1


def _run_sweep_step(step: Step, scratch: Path) -> StepRecord:
    p = step.params
    grid = SweepGrid(axes=(p["axis"],), fixed=(("v_r", p["v_r"]), ("v_b", p["v_b"])))
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch))
    try:
        out_csv = workdir / "sweep.csv"
        threads = sweep_threads()
        started = time.perf_counter()
        rows = run_sweep(grid, n_ref=p["n_ref"], out_csv=out_csv, threads=threads)
        fresh_s = time.perf_counter() - started
        written = out_csv.read_bytes()
        resumed = run_sweep(grid, n_ref=p["n_ref"], out_csv=out_csv, threads=threads)
        after_resume = out_csv.read_bytes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # per-cell latency is the worker's own wall time for the cell; a
    # row without one falls back to the call's share per worker
    fallback = fresh_s * min(threads, max(len(rows), 1)) / max(len(rows), 1)
    latencies = [getattr(r, "wall_time_s", 0.0) or fallback for r in rows]
    result = {
        "csv": written,
        "csv_after_resume": after_resume,
        "returned": [float(r.p1) for r in rows],
        "returned_on_resume": [float(r.p1) for r in resumed],
    }
    return StepRecord(step, result, latencies)


def warm_up(workload: str, scratch: Path) -> None:
    """One small call per public function the workload drives.

    Fills lazy imports and caches that every later call shares, so the
    set-up cost counts in ``setup_s`` and not in the first op.
    """
    spd = DetectionStrategy.single_photon()
    kw = optimizer_settings()
    if workload == "size-search":
        v_r, v_d, v_b = HEADLINE
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=1)
        for mode in MODES:
            find_optimal_n(spec, spd, n_ref=3, mode=mode, **kw)
    elif workload == "fixed-size":
        for source in ("poisson", "thermal"):
            spec = MultiplexerSpec(v_r=0.95, v_b=0.9, v_d=0.9, n_units=3, source=source)
            report = optimize_pump(spec, spd, **kw)
            baseline = optimize_uniform(spec, spd, **kw).best_p1
            optimize_scaled_reference(spec, spd, **kw)
            stability_interval(spec, spd, report.best_pump, baseline)
    elif workload == "mc-oracle":
        spec, pump, strategy, case_seed = corpus_case(VALIDATION_CORPUS[0])
        compare_with_analytic(spec, pump, strategy, McSettings(trials=1_000, seed=case_seed))
    else:
        grid = SweepGrid(axes=(Axis("v_d", 0.90, 0.90, 0.02),), fixed=(("v_r", 0.99), ("v_b", 0.98)))
        workdir = Path(tempfile.mkdtemp(prefix="warmup-", dir=scratch))
        try:
            run_sweep(grid, n_ref=3, out_csv=workdir / "warmup.csv")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _reevaluate(spec: MultiplexerSpec, lambdas, strategy, p1: float) -> str | None:
    """Re-evaluate a reported profile through the canonical evaluator."""
    dist = output_distribution(spec, PumpProfile(tuple(lambdas)), strategy)
    norm = abs(float(dist.probs.sum()) + float(dist.truncation_mass) - 1.0)
    if norm > NORMALIZATION_TOL:
        return f"normalization off by {norm:.2e}"
    if not abs(float(dist.probs[1]) - p1) <= REEVAL_TOL:
        return f"reported p1 {p1!r} re-evaluates to {float(dist.probs[1])!r}"
    return None


def check_pass(plan: Plan, records: list[StepRecord]) -> list[list[str]]:
    """Failure messages per step of one complete pass (empty list = passed)."""
    failures: list[list[str]] = [[] for _ in records]
    if plan.workload == "size-search":
        _check_size_search(plan, records, failures)
    elif plan.workload == "fixed-size":
        _check_fixed_size(records, failures)
    elif plan.workload == "mc-oracle":
        for rec, fail in zip(records, failures):
            if not rec.result.within(MC_SIGMA):
                fail.append(f"MC case beyond {MC_SIGMA} sigma (z={worst_z(rec.result):.2f})")
    else:
        for rec, fail in zip(records, failures):
            fail.extend(_check_sweep(rec))
    return failures


def _check_size_search(plan: Plan, records, failures) -> None:
    spd = DetectionStrategy.single_photon()
    by_point: dict[tuple, dict[str, int]] = {}
    for i, rec in enumerate(records):
        point, mode = rec.step.params["point"], rec.step.params["mode"]
        by_point.setdefault(point, {})[mode] = i
        res = rec.result
        v_r, v_d, v_b = point
        spec = MultiplexerSpec(v_r=v_r, v_b=v_b, v_d=v_d, n_units=res["n_opt"])
        if len(res["p1_by_n"]) != plan.scale.n_ref:
            failures[i].append(f"p1_by_n has {len(res['p1_by_n'])} sizes")
        if not 1 <= res["n_opt"] <= plan.scale.n_ref:
            failures[i].append(f"n_opt {res['n_opt']} out of range")
            continue
        if res["p1_by_n"][res["n_opt"] - 1] != res["p1_max"]:
            failures[i].append("p1_max differs from p1_by_n at n_opt")
        msg = _reevaluate(spec, res["lambdas"], spd, res["p1_max"])
        if msg:
            failures[i].append(msg)
    for point, modes in by_point.items():
        if "per-unit" not in modes:
            continue
        i = modes["per-unit"]
        per_unit = np.array(records[i].result["p1_by_n"])
        for other in ("uniform", "scaled-reference"):
            if other in modes:
                gap = float(np.max(np.array(records[modes[other]].result["p1_by_n"]) - per_unit))
                if gap > DOMINANCE_TOL:
                    failures[i].append(f"{other} beats per-unit by {gap:.2e} at some N")
        if plan.scale.n_ref != 100 or point not in GOLDEN:
            continue
        p1_target, n_target, n_tol, lam_target = GOLDEN[point]
        res = records[i].result
        if abs(res["p1_max"] - p1_target) > GOLDEN_P1_TOL or abs(res["n_opt"] - n_target) > n_tol:
            failures[i].append(
                f"golden row {point}: p1={res['p1_max']:.6f} n_opt={res['n_opt']} "
                f"(target {p1_target}±{GOLDEN_P1_TOL}, {n_target}±{n_tol})"
            )
        if "uniform" in modes:
            u = modes["uniform"]
            lam = records[u].result["lambdas"][0]
            if abs(lam - lam_target) > GOLDEN_LAMBDA_TOL:
                failures[u].append(f"golden row {point}: uniform mean {lam:.4f} (target {lam_target})")


def _check_fixed_size(records, failures) -> None:
    by_spec: dict[int, dict[str, int]] = {}
    for i, rec in enumerate(records):
        by_spec.setdefault(rec.step.params["index"], {})[rec.step.kind] = i
        if rec.step.kind == "stability":
            r = rec.result
            if not r["delta_minus"] <= 0.0 <= r["delta_plus"]:
                failures[i].append(
                    f"stability interval [{r['delta_minus']}, {r['delta_plus']}] does not contain 0"
                )
            continue
        msg = _reevaluate(
            MultiplexerSpec(**rec.step.params["spec"]),
            rec.result["lambdas"],
            DetectionStrategy.parse(rec.step.params["strategy"]),
            rec.result["p1"],
        )
        if msg:
            failures[i].append(msg)
    for kinds in by_spec.values():
        if "per-unit" not in kinds:
            continue
        i = kinds["per-unit"]
        best_other = max(
            (records[kinds[k]].result["p1"] for k in ("uniform", "scaled-reference") if k in kinds),
            default=-math.inf,
        )
        gap = best_other - records[i].result["p1"]
        if gap > DOMINANCE_TOL:
            failures[i].append(f"per-unit optimum below a restricted mode by {gap:.2e}")


def csv_rows(data: bytes) -> list[dict]:
    """Data rows of a sweep CSV (comment lines skipped)."""
    lines = [ln for ln in data.decode("utf-8").splitlines(True) if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("".join(lines))))


def _check_sweep(rec: StepRecord) -> list[str]:
    p, r = rec.step.params, rec.result
    out = []
    rows = csv_rows(r["csv"])
    if len(rows) != p["cells"]:
        out.append(f"CSV holds {len(rows)} rows, expected {p['cells']}")
    if r["csv_after_resume"] != r["csv"]:
        out.append("resume call changed the CSV")
    if len(r["returned"]) != p["cells"] or r["returned_on_resume"] != r["returned"]:
        out.append("resume call returned different rows")
    for row in rows:
        try:
            spec = MultiplexerSpec(
                v_r=float(row["v_r"]), v_b=float(row["v_b"]), v_d=float(row["v_d"]),
                n_units=int(row["n_units"]), v_t=float(row["v_t"]), source=row["source"],
            )
            lambdas = [float(x) for x in row["lambdas"].split(";") if x]
            msg = _reevaluate(spec, lambdas, DetectionStrategy.parse(row["strategy"]), float(row["p1"]))
        except (KeyError, ValueError, asmux.ParameterError) as exc:
            msg = f"unreadable CSV row: {exc}"
        if msg:
            out.append(msg)
    return out


def fingerprint(rec: StepRecord):
    """Comparable value of a step result; passes of one plan must agree on it."""
    r = rec.result
    if isinstance(r, montecarlo.McComparison):
        return (tuple(r.result.counts.tolist()), int(r.result.overflow), tuple(r.analytic.tolist()))
    if isinstance(r, dict) and "csv" in r:
        return (r["csv"], tuple(r["returned"]))
    return tuple(sorted(r.items()))


# ----------------------------------------------------------------------
# quality and Monte Carlo summaries
# ----------------------------------------------------------------------

def p1_values(records: list[StepRecord]) -> list[float]:
    """Every optimum P1 the pass produced, one per (spec, N).

    Size searches contribute their whole P1-by-N curve, so a threshold
    flip at the saturation boundary cannot move the mean.  The
    Monte Carlo workload optimises nothing; it contributes the analytic
    P1 of each case.
    """
    out: list[float] = []
    for rec in records:
        r = rec.result
        if isinstance(r, montecarlo.McComparison):
            out.append(float(r.analytic[1]))
        elif rec.step.kind == "search":
            out.extend(r["p1_by_n"])
        elif rec.step.kind in ("per-unit", "uniform", "scaled-reference"):
            out.append(r["p1"])
        elif rec.step.kind == "sweep":
            out.extend(float(row["p1"]) for row in csv_rows(r["csv"]))
    return out


def worst_z(comparison) -> float:
    return float(np.max(
        comparison.deviations / np.maximum(comparison.analytic_std_errors, 1e-300)
    ))


def mc_false_alarm_bound(buckets: int, sigma: float = MC_SIGMA) -> float:
    """Bonferroni bound on P(any bucket beyond sigma) under the null."""
    return buckets * math.erfc(sigma / math.sqrt(2.0))


def _detect_pmf(family: str, mean: float, j: int) -> float:
    """P(j photons detected in one unit).

    The detector thins a Poisson source to Poisson and a thermal one to
    thermal at mean ``lam * v_d``, so this needs none of the package's
    truncated series.
    """
    if family == "poisson":
        return math.exp(-mean) * mean**j / math.factorial(j)
    return (mean / (1.0 + mean)) ** j / (1.0 + mean)


def expected_units_examined(spec: MultiplexerSpec, pump: PumpProfile, strategy) -> float:
    """E[units drawn before (and including) the first admitted one].

    A lazy sampler that stops at the first admitted unit draws this
    many units per trial; the eager one draws all N.
    """
    family = getattr(spec.source, "value", spec.source)
    no_fire = []
    for lam in pump.lambdas:
        mean = lam * spec.v_d
        if strategy.is_threshold:
            herald = 1.0 - _detect_pmf(family, mean, 0)
        else:
            herald = sum(_detect_pmf(family, mean, j) for j in strategy.accepted)
        no_fire.append(1.0 - herald)
    prefix = np.concatenate(([1.0], np.cumprod(no_fire)[:-1]))
    return float(prefix.sum())
