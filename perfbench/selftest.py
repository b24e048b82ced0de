"""Self-test of the benchmark: BENCHMARK.json, tracer coverage, seed handling.

    python3 perfbench/selftest.py

1. BENCHMARK.json names the workloads and metrics this code prints.
2. Installing the tracer fails loudly when a wrapped name is gone.
3. For two seeds, every workload runs a short traced run: each op passes
   its check and the traced op records a span for every layer the
   workload is expected to use (run.py exits non-zero otherwise).
4. The coupling order a seed picks does not change the answers: POI |V|
   of direct-k24 and gsn-k24 agree across the seeds within 1e-9 pu, and
   GSN takes the same epochs and inner iterations.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import E2E, TRACE_EXTRA
from tracer import PER_LAYER, Tracer
from workloads import BENCH, ROOT, WORK, WORKLOADS, load_program

SEEDS = (11, 12)
SAME_ANSWER_TOL = 1e-9


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # gsn-k24-w2 is runnable by hand but not gated (see README.md)
    gated = {w.name: w.why for w in WORKLOADS.values() if w.name != "gsn-k24-w2"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == gated
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER + TRACE_EXTRA)


def check_missing_name_fails() -> None:
    prog = load_program()
    saved = prog.cli.poi_voltages
    del prog.cli.poi_voltages
    try:
        Tracer().install()
    except AttributeError as exc:
        assert "tandem.cli.poi_voltages" in str(exc)
    else:
        raise AssertionError("tracer installed although tandem.cli.poi_voltages is gone")
    finally:
        prog.cli.poi_voltages = saved


def traced_run(workload: str, seed: int) -> dict:
    """One short traced run; returns the last op's POI |V| and GSN epoch record."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload} seed {seed}: {proc.stdout[-2000:]}"
    out = WORK / workload / "out"
    if not (out / "solution.json").exists():
        return {}
    solution = json.loads((out / "solution.json").read_text())
    report = json.loads((out / "report.json").read_text())
    return {
        "poi": {n["bus"]: n["vm"] for n in solution["nodes"] if n["phase"] == "p"},
        "epochs": report.get("epochs"),
        "inner": sorted(sum(e.values()) for e in report.get("inner_iterations", [])),
    }


def main() -> None:
    check_benchmark_json()
    check_missing_name_fails()
    seen: dict[str, list[dict]] = {}
    for seed in SEEDS:
        for name in WORKLOADS:
            seen.setdefault(name, []).append(traced_run(name, seed))
            print(f"ok  {name} seed {seed}", flush=True)
    for name in ("direct-k24", "gsn-k24"):
        a, b = seen[name]
        worst = max(abs(a["poi"][bus] - b["poi"][bus]) for bus in a["poi"])
        assert a["poi"].keys() == b["poi"].keys() and worst <= SAME_ANSWER_TOL, (name, worst)
        assert a["epochs"] == b["epochs"] and a["inner"] == b["inner"], name
        print(f"ok  {name} answers independent of coupling order (max |dV| {worst:.1e})")
    print("selftest passed")


if __name__ == "__main__":
    main()
