"""Regenerate the correctness references in perfbench/ref.

    python3 perfbench/make_refs.py

Writes the direct solve's POI |V| for case27 + 24 feeder_medium (coupling
order of seed 0) and the pvcurve.csv of the pvcurve-stressed sweep.  Run
it only when a change is meant to move the answers, and say so in the
change: the references are what every benchmark op is checked against.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

from workloads import REF, WORK, WORKLOADS, Capture, load_program


def _run(prog, workload, capture):
    work = WORK / "make_refs" / workload.name
    out = work / "out"
    case, coupling = workload.make_inputs(prog, 0, work)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = prog.cli.main(workload.argv(case, coupling, out))
    if rc != 0:
        raise SystemExit(f"{workload.name}: exit code {rc}")
    return out, capture.last


def main() -> None:
    prog = load_program()
    capture = Capture(prog.cli)
    REF.mkdir(exist_ok=True)

    out, (net, _x, report) = _run(prog, WORKLOADS["direct-k24"], capture)
    solution = json.loads((out / "solution.json").read_text())
    poi_buses = {p.transmission_bus for p in net.ports}
    ref = {
        "case": "case27.m + 24 x feeder_medium.json, one per PQ bus, solve --solver direct",
        "poi_vm": {str(n["bus"]): n["vm"] for n in solution["nodes"] if n["bus"] in poi_buses},
        "gen_modes": {str(k): v for k, v in report.gen_modes.items()},
        "gen_q_fixed": {str(k): v for k, v in report.gen_q_fixed.items()},
    }
    (REF / "poi_direct_k24.json").write_text(json.dumps(ref, indent=1) + "\n")

    out, _ = _run(prog, WORKLOADS["pvcurve-stressed"], capture)
    shutil.copyfile(out / "pvcurve.csv", REF / "pvcurve_stressed.csv")
    print(f"wrote {REF / 'poi_direct_k24.json'} and {REF / 'pvcurve_stressed.csv'}")


if __name__ == "__main__":
    main()
