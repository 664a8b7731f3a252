"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload prints every metric listed in BENCHMARK.json
with its unit, and that the output checks flag corrupted results.
"""
from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result, stdout = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert f"# {m['name']} = " in stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)
    assert "# provenance " in stdout
    if trace and workload == "sweep":
        assert "not collected" in stdout


def _first_pass(workload: str, tmp_path: Path):
    plan = wl.make_plan(workload, 3, wl.TINY)
    done, records = {}, []
    for step in plan.steps:
        rec = wl.run_step(plan, step, done, tmp_path)
        done[(step.kind, step.params.get("index"))] = rec.result
        records.append(rec)
    assert not any(wl.check_pass(plan, records)), "clean results must pass"
    return plan, records


def _replace(records, i, result):
    out = list(records)
    out[i] = dataclasses.replace(records[i], result=result)
    return out


def test_nudged_p1_is_flagged(tmp_path):
    plan, records = _first_pass("size-search", tmp_path)
    res = dict(records[0].result)
    n = res["n_opt"]
    res["p1_max"] += 1e-6
    res["p1_by_n"] = res["p1_by_n"][: n - 1] + (res["p1_max"],) + res["p1_by_n"][n:]
    assert wl.check_pass(plan, _replace(records, 0, res))[0]

    plan, records = _first_pass("fixed-size", tmp_path)
    res = dict(records[1].result)  # the uniform optimum of the first spec
    res["p1"] += 1e-6
    assert wl.check_pass(plan, _replace(records, 1, res))[1]


def test_dropped_csv_row_is_flagged(tmp_path):
    plan, records = _first_pass("sweep", tmp_path)
    res = dict(records[0].result)
    lines = res["csv"].splitlines(True)
    res["csv"] = b"".join(lines[:-1])
    res["csv_after_resume"] = res["csv"]
    assert wl.check_pass(plan, _replace(records, 0, res))[0]


def test_shifted_mc_count_is_flagged(tmp_path):
    plan, records = _first_pass("mc-oracle", tmp_path)
    comparison = records[0].result
    trials = comparison.result.trials
    k = int(comparison.analytic.argmax())
    p = float(comparison.analytic[k])
    comparison.result.counts[k] += int(round(10 * math.sqrt(trials * p * (1 - p))))
    assert wl.check_pass(plan, records)[0]


def test_family_wise_false_alarm_bound():
    assert wl.mc_false_alarm_bound(20 * 11) < 1e-3


def test_step_means_weigh_each_op_once():
    import run

    plan = wl.Plan("size-search", 0, wl.TINY, [wl.Step("a", {}), wl.Step("b", {}, ops=2)])

    def rec(step, wall, lats):
        return wl.StepRecord(step, {}, lats, wall)

    a, b = plan.steps
    passes = [
        ([rec(a, 1.0, [1.0]), rec(b, 4.0, [1.0, 3.0])], [[], []]),
        ([rec(a, 3.0, [3.0])], [[]]),  # partial last pass
    ]
    step_wall, latencies = run.step_means(plan, passes)
    assert step_wall == {0: 2.0, 1: 4.0}
    assert latencies == [2.0, 1.0, 3.0]


def test_parallel_calibration_reaps_its_children():
    import os

    import run

    assert run.parallel_calibration(2) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
