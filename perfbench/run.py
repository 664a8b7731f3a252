#!/usr/bin/env python3
"""Benchmark of the asmux package: one workload, one seed, one run.

    python3 perfbench/run.py --workload size-search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else.  A run repeats whole
passes of the workload's seed-determined plan until ``--seconds`` have
elapsed, checks every result, and prints the metrics by name with their
units.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"  # spans and temporary sweep files; ignored by git
SETUP_SAMPLES = 3  # this process plus two fresh probe processes
PROBE_TIMEOUT_S = 150

# Speed calibration (see SpeedMeter): every reported time is scaled to
# the speed at which the calibration kernel takes REFERENCE_S.
REFERENCE_S = 0.025
CALIBRATION_LOOP = 300_000
CALIBRATE_EVERY_S = 1.0
SETUP_CALIBRATIONS = 4

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test plan sizes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import the package, build the plan and make one warm-up call.

    Everything here counts in ``setup_s``.
    """
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "asmux" / "__init__.py").is_file():
        raise SetupError(f"no asmux package under {src}")
    sys.path.insert(0, str(src))
    import asmux
    import asmux.cli  # noqa: F401  (the CLI layer is only measured by its import)

    if Path(asmux.__file__).resolve().parent != (src / "asmux").resolve():
        raise SetupError(f"asmux imported from {asmux.__file__}, not from {src}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    scale = workloads.TINY if args.tiny else workloads.FULL
    plan = workloads.make_plan(args.workload, args.seed, scale)
    OUT.mkdir(parents=True, exist_ok=True)
    workloads.warm_up(args.workload, OUT)
    return time.perf_counter() - started, workloads, plan


def calibration_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop that calls no package code."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - started


def parallel_calibration(copies: int) -> float:
    """Mean kernel time of ``copies`` forked processes running it at once."""
    children = []
    try:
        for _ in range(copies):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: time the kernel, report, exit without cleanup
                status = 1
                try:
                    os.close(read_end)
                    os.write(write_end, repr(calibration_kernel()).encode())
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        times = []
        for _, read_end in children:
            with os.fdopen(read_end) as pipe:
                times.append(float(pipe.read()))
    finally:
        for pid, _ in children:
            os.waitpid(pid, 0)
    return statistics.fmean(times)


class SpeedMeter:
    """Tracks the machine's speed while a run measures.

    On a shared host the same code runs up to twice as slow in phases
    that last from seconds to minutes, so a raw time mostly says which
    phase a run fell in.  Between steps the meter times the calibration
    kernel once per CALIBRATE_EVERY_S elapsed since its last timing.
    ``scale_between`` converts a raw time to the reference speed at
    which the calibration kernel takes REFERENCE_S, using the timings
    that bracket the interval measured; ``scale`` does so with the mean
    kernel time over the whole run.  A workload that keeps ``parallel``
    processes busy is calibrated by as many copies of the kernel running
    at once, because the machine's speed for two busy CPUs drifts apart
    from its speed for one.  The kernel shares no code with the package,
    so a change to the package moves the scaled times as much as the raw
    ones.
    """

    def __init__(self, parallel: int = 1):
        self.parallel = parallel
        self.samples: list[float] = []
        self.taken_at: list[float] = []  # perf_counter when each sample ended

    def sample(self) -> None:
        if self.parallel > 1:
            self.samples.append(parallel_calibration(self.parallel))
        else:
            self.samples.append(calibration_kernel())
        self.taken_at.append(time.perf_counter())

    def scale_between(self, start: float, end: float) -> float:
        """Scale for an interval: the last timing before it and the first after it."""
        before = max(bisect.bisect_right(self.taken_at, start) - 1, 0)
        after = min(bisect.bisect_left(self.taken_at, end), len(self.samples) - 1)
        return 2.0 * REFERENCE_S / (self.samples[before] + self.samples[after])

    def tick(self) -> None:
        if not self.taken_at:
            self.sample()
            return
        for _ in range(int((time.perf_counter() - self.taken_at[-1]) / CALIBRATE_EVERY_S)):
            self.sample()

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


def run_pass(wl, plan, deadline=None, meter=None):
    """One pass over the plan: step records and failure messages per step.

    With a ``deadline`` the pass starts no step after it, so a run
    overshoots its length by at most one step.  A ``meter`` is ticked
    before every step, outside the step's timing.
    """
    records, errors, done = [], [], {}
    for step in plan.steps:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if meter is not None:
            meter.tick()
        started = time.perf_counter()
        try:
            rec = wl.run_step(plan, step, done, OUT)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            records.append(wl.StepRecord(step, None, []))
            errors.append([f"{step.kind} raised {type(exc).__name__}: {exc}"])
            continue
        rec.started = started
        rec.wall_s = time.perf_counter() - started
        done[(step.kind, step.params.get("index"))] = rec.result
        records.append(rec)
        errors.append([])
    return records, errors


def judge(wl, plan, passes):
    """Failed ops over all passes.

    The first pass is checked in full; every later pass must reproduce
    it exactly (the plan and the package are deterministic).
    """
    first, first_errors = passes[0]
    ok = [i for i, rec in enumerate(first) if rec.result is not None and not first_errors[i]]
    checks = wl.check_pass(plan, [first[i] for i in ok])
    for i, msgs in zip(ok, checks):
        first_errors[i].extend(msgs)
    failed = 0
    messages = []
    for p, (records, errors) in enumerate(passes):
        for i, rec in enumerate(records):
            bad = list(first_errors[i]) if p else errors[i]
            if p and not bad:
                bad = list(errors[i])
                if not bad and wl.fingerprint(rec) != wl.fingerprint(first[i]):
                    bad.append("result differs from the first pass")
            if bad:
                failed += rec.step.ops
                messages.extend(f"pass {p} step {i} ({rec.step.kind}): {m}" for m in bad)
    return failed, messages


def step_means(plan, passes, meter=None):
    """Each step's wall time and each op's latency, as means over the run.

    With a ``meter`` every sample is first scaled to the reference speed
    by the calibration timings that bracket its step.  Averaging each
    step over all its repeats in the run (the partial last pass
    included) spreads it over the run; the percentiles are then taken
    over the ops of the plan, each counted once.
    """
    walls = [[] for _ in plan.steps]
    lats = [[] for _ in plan.steps]
    for records, _ in passes:
        for i, rec in enumerate(records):
            if rec.result is not None:
                k = 1.0 if meter is None else meter.scale_between(rec.started, rec.started + rec.wall_s)
                walls[i].append(k * rec.wall_s)
                lats[i].append([k * x for x in rec.latencies_s])
    ran = [i for i in range(len(plan.steps)) if walls[i]]
    step_wall = {i: statistics.fmean(walls[i]) for i in ran}
    op_latency = [statistics.fmean(col) for i in ran for col in zip(*lats[i])]
    return step_wall, op_latency


def cpu_times():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes, one after the other."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def calibrated_setup(raw_s: float) -> dict:
    """A set-up time, raw and at the reference speed measured right after it."""
    meter = SpeedMeter()
    for _ in range(SETUP_CALIBRATIONS):
        meter.sample()
    return {"setup_s": raw_s * meter.scale, "raw_s": raw_s}


def provenance(args, measured_s: float, passes: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "asmux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds_requested": args.seconds,
        "seconds_measured": round(measured_s, 3),
        "passes": passes,
    }


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def describe(step) -> str:
    p = step.params
    if step.kind == "search":
        return f"{p['mode']} search at (v_r, v_d, v_b)={p['point']}"
    if step.kind == "mc":
        return f"{p['family']} case N={p['spec'].n_units} {p['strategy'].key}"
    if step.kind == "sweep":
        return f"sweep v_r={p['v_r']} v_b={p['v_b']}, {step.ops} cells"
    return step.kind


def report_failures(messages: list[str]) -> None:
    for m in messages[:20]:
        print(f"# FAILED {m}")
    if len(messages) > 20:
        print(f"# ... {len(messages) - 20} more failures")


def run_timed(args, wl, plan, setup_main: dict) -> None:
    import numpy as np

    meter = SpeedMeter(wl.busy_processes(args.workload))
    cpu0, kids0 = cpu_times()
    started = time.perf_counter()
    passes = [run_pass(wl, plan, meter=meter)]
    first_pass_s = time.perf_counter() - started
    deadline = started + args.seconds
    while time.perf_counter() < deadline:
        passes.append(run_pass(wl, plan, deadline, meter))
    meter.sample()
    wall = time.perf_counter() - started
    scale = meter.scale
    cpu1, kids1 = cpu_times()
    rss = peak_rss_mb()  # before the probes, which are children too

    failed, messages = judge(wl, plan, passes)
    attempted = sum(rec.step.ops for records, _ in passes for rec in records)
    raw_wall, raw_latencies = step_means(plan, passes)
    step_wall, latencies = step_means(plan, passes, meter)
    # ops per second of one pass at the plan's mix, each step timed by its
    # mean; the partial last pass would otherwise weigh the mix by where
    # the deadline happened to cut it
    pass_ops = sum(plan.steps[i].ops for i in step_wall)
    pass_s = sum(step_wall.values())
    first = [rec for rec in passes[0][0] if rec.result is not None]
    p1 = wl.p1_values(first)
    setup_runs = [setup_main] + setup_probes(args)
    setups = [r["setup_s"] for r in setup_runs]

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (pass_ops / pass_s if pass_s else 0.0, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies) if latencies else 0.0, "ms"),
        "op_p90_ms": (1e3 * float(np.percentile(latencies, 90)) if latencies else 0.0, "ms"),
        "p1_mean": (statistics.fmean(p1) if p1 else 0.0, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    print("# provenance " + json.dumps(provenance(args, wall, len(passes)), sort_keys=True))
    print(f"# {args.workload} seed={args.seed}: {attempted} ops in {wall:.3f} s; "
          f"the plan has {len(plan.steps)} steps, the last of {len(passes)} passes may be "
          f"partial; the first pass took {first_pass_s:.3f} s")
    print(f"# speed: {len(meter.samples)} calibrations, mean {statistics.fmean(meter.samples):.5f} s "
          f"(min {min(meter.samples):.5f}, max {max(meter.samples):.5f}) against {REFERENCE_S} s: "
          f"the run's mean gives a factor {scale:.4f}; each step's times are scaled by the timings "
          f"just before and after it")
    print(f"# raw: op_p50 {1e3 * statistics.median(raw_latencies or [0.0]):.6g} ms, pass "
          f"{sum(raw_wall.values()):.4f} s, set-up "
          + ", ".join(f"{r['raw_s']:.4f}" for r in setup_runs) + " s")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name.startswith("op_p"):
            extra = f" (over the {len(latencies)} ops of the plan, each the mean of its repeats)"
        elif name == "ops_per_s":
            extra = f" ({pass_ops} ops of one pass in {pass_s:.3f} s of step means; {attempted} ops run)"
        elif name == "setup_s":
            extra = " (median of " + ", ".join(f"{s:.4f}" for s in setups) + ", each at its own speed)"
        elif name == "p1_mean":
            extra = f" (over {len(p1)} optima of the first pass)"
        print(f"# {name} = {value:.6g} {unit}{extra}")
    print(f"# failed_ratio = {failed / attempted:.6g} 1 ({failed} of {attempted} ops)")
    print(f"# cpu_s = {cpu1 - cpu0:.3f} s, children_cpu_s = {kids1 - kids0:.3f} s")
    if args.workload == "mc-oracle":
        trials = sum(rec.step.params["mc"].trials for records, _ in passes for rec in records)
        buckets = sum(len(rec.result.analytic) for rec in first)
        print(f"# trials_per_s = {trials / wall:.6g} 1/s ({trials} trials)")
        print(f"# mc gate {wl.MC_SIGMA} sigma over {buckets} buckets: family-wise "
              f"false-alarm bound {wl.mc_false_alarm_bound(buckets):.2e} per run")
    if len(plan.steps) <= 30:
        for i, rec in enumerate(passes[0][0]):
            print(f"# first pass step {i}: {describe(rec.step)}: "
                  f"{1e3 * sum(rec.latencies_s):.1f} ms")
    report_failures(messages)
    emit(failed == 0, attempted, failed, metrics)


def run_traced(args, wl, plan) -> None:
    """One untraced pass, then the same pass traced; per-layer metrics.

    The machine's speed is sampled before, between and after the two
    passes (outside the CPU accounting), so that the tracing overhead
    compares the passes at the same speed.
    """
    import tracing

    speed = [SpeedMeter(wl.busy_processes(args.workload)) for _ in range(3)]
    for _ in range(SETUP_CALIBRATIONS):
        speed[0].sample()
    cpu0, kids0 = cpu_times()
    started = time.perf_counter()
    untraced = run_pass(wl, plan)
    wall_plain = time.perf_counter() - started
    cpu1, kids1 = cpu_times()
    for _ in range(SETUP_CALIBRATIONS):
        speed[1].sample()

    tracer = tracing.Tracer(wl.expected_units_examined, wl.worst_z)
    tracer.install(extra_modules=[wl])
    try:
        origin = time.perf_counter()
        traced = run_pass(wl, plan)
        wall_traced = time.perf_counter() - origin
    finally:
        tracer.uninstall()
    for _ in range(SETUP_CALIBRATIONS):
        speed[2].sample()
    kernel = [statistics.fmean(m.samples) for m in speed]
    plain_at_speed = wall_plain / (kernel[0] + kernel[1])
    traced_at_speed = wall_traced / (kernel[1] + kernel[2])

    failed, messages = judge(wl, plan, [untraced, traced])
    values, notes = tracer.metrics()
    values["process.cpu_s"] = cpu1 - cpu0
    values["process.children_cpu_s"] = kids1 - kids0
    values["process.cpu_per_wall"] = (cpu1 - cpu0 + kids1 - kids0) / wall_plain
    values["trace.overhead_ratio"] = traced_at_speed / plain_at_speed - 1.0
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_file, origin)

    print("# provenance " + json.dumps(provenance(args, wall_plain + wall_traced, 2), sort_keys=True))
    print(f"# {args.workload} seed={args.seed}: one untraced pass ({wall_plain:.3f} s) and one "
          f"traced pass ({wall_traced:.3f} s) of {len(plan.steps)} steps; "
          f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    print("# process.* metrics come from the untraced pass; all others from the traced one")
    print(f"# trace overhead: raw {wall_traced / wall_plain - 1.0:+.4f}; calibration kernel "
          f"{kernel[0]:.5f}, {kernel[1]:.5f}, {kernel[2]:.5f} s before, between and after the passes")
    if args.workload == "sweep":
        print("# spans inside the sweep's pool workers are not collected: "
              "their time shows only as experiments.run_sweep self time")
    for note in notes:
        print(f"# note: {note}")
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        metrics[name] = (float(values.get(name, 0.0)), unit)
        print(f"# {name} = {metrics[name][0]:.6g} {unit}")
    report_failures(messages)
    emit(failed == 0, 2 * plan.ops, failed, metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(BENCH))
    try:
        setup_raw, wl, plan = setup(args)
        setup_main = calibrated_setup(setup_raw)
        if args.setup_probe:
            print(json.dumps(setup_main))
            return 0
        if args.trace:
            run_traced(args, wl, plan)
        else:
            run_timed(args, wl, plan, setup_main)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
