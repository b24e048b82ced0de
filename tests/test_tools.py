"""Smoke runs of the timing tools: each reaches into the plan, the factor and the compile."""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(tool: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / tool), *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_dense_crossover_times_both_kernels():
    header, row = _run("dense_crossover.py", "50")
    assert header == "n,kl,ku,plan_setup_us,sparse_us,band_us,band/sparse"
    n, kl, ku, *times = row.split(",")
    assert n == "50" and 0 < int(kl) < 49 and 0 < int(ku) < 49
    assert all(math.isfinite(float(t)) and float(t) > 0 for t in times)


def test_dense_crossover_splits_a_pvcurve_iteration():
    lines = _run("dense_crossover.py", "pvcurve")
    assert lines[:2] == ["n=100 kl=14 ku=14", "stage,us"]
    stages = dict(line.split(",") for line in lines[2:])
    assert list(stages) == ["stamp", "assemble", "factor", "iteration"]
    assert all(float(t) > 0 for t in stages.values())


def test_stage_times_reports_every_stage():
    lines = _run("stage_times.py", "1")
    assert lines[:3] == ["copies: 23 of 24 feeder blocks copied", "distinct: 23 of 24 feeder blocks copied",
                         "fastest of 1 rounds, ms"]
    stages = [line.split() for line in lines[4:]]
    assert [s[0] for s in stages] == ["parse_transmission", "parse_feeder_doc", "build_combined", "validate",
                                      "build_index_map", "initial_state", "CompiledCircuit", "Newton", "solution.json",
                                      "tear", "devices"]
    assert all(float(t) > 0 for s in stages for t in s[1:])

