"""BLAS runs on one thread unless the environment says otherwise, so the
per-unit reports do not depend on the number of cores.

pytest has imported numpy already, so each case runs in a fresh process.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asmux

SRC = Path(asmux.__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the thermal `thd` optimum at (v_r, v_d, v_b) = (0.95, 0.90, 0.90) whose
# size-30 lambda_29 rounds to 0x1.a1cdf1cce7292p+1 under two OpenBLAS threads
# and to 0x1.a1cdf1cce7700p+1 under one (numpy 2.4.6 on a 2-core x86 machine)
PINNED = """
import sys
from asmux import DetectionStrategy, MultiplexerSpec, optimize_sizes
from asmux.cli import main

spec = MultiplexerSpec(v_r=0.95, v_b=0.90, v_d=0.90, n_units=1, source="thermal")
report = optimize_sizes(spec, DetectionStrategy.parse("thd"), range(1, 101))[29]
print(report.best_pump.lambdas[28].hex(), report.best_p1.hex())
for argv in (
    ["find-n", "--v-r", "0.99", "--v-d", "0.98", "--v-b", "0.98", "--out", "find-n.csv"],
    ["table1", "--rows", "0.99,0.98,0.98;0.95,0.90,0.90;0.90,0.80,0.80", "--out", "table1.csv"],
    ["sweep", "--v-r", "0.95", "--v-b", "0.90", "--source", "thermal", "--strategies", "thd",
     "--axis", "v_d=0.80:0.98:0.02", "--out", "sweep.csv"],
):
    if main(argv) != 0:
        sys.exit(argv[0])
"""


def python(code, openblas_threads=None, cwd=None):
    """Standard output of ``code`` in a fresh interpreter.

    The BLAS thread variables are unset, but ``OPENBLAS_NUM_THREADS`` is
    ``openblas_threads`` when given.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("imports,openblas_threads,expected", [
    ("import asmux", None, ["1", "1", "1"]),
    ("import asmux", "3", ["3", "1", "1"]),  # a setting made before wins
    ("import numpy; import asmux", None, [None, None, None]),  # numpy keeps its own
])
def test_one_blas_thread_by_default(imports, openblas_threads, expected):
    probe = f"import os; {imports}; print([os.environ.get(k) for k in {THREAD_VARS!r}])"
    assert python(probe, openblas_threads) == f"{expected}\n"


def test_same_bits_unset_and_one_thread(tmp_path):
    out = {}
    for setting in (None, "1"):
        workdir = tmp_path / str(setting)
        workdir.mkdir()
        out[setting] = python(PINNED, setting, cwd=workdir).splitlines()[0]
    assert out[None] == out["1"]
    for name in ("find-n.csv", "table1.csv", "sweep.csv"):
        assert (tmp_path / "None" / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name
