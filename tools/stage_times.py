#!/usr/bin/env python3
"""Time the set-up, solve and output stages of a direct k=24 solve, stage by stage.

    PYTHONPATH=src python tools/stage_times.py [rounds]

Two cases, case27 with ``feeder_medium`` on each of its 24 PQ buses:
``copies`` (every feeder at scale 1) and ``distinct`` (24 distinct load
scales).  Every feeder block is a tile of its document's one template,
the scales carried by the tile, so in both cases 23 of the 24 blocks
copy an earlier block's template.  For each case the script prints the
share of copied feeder blocks, read from the combined network's tiles,
and, per stage, the fastest of ``rounds`` (default 15) in-process runs,
the stages interleaved round by round:

- ``parse_transmission``: ``case27.m`` to its network;
- ``parse_feeder_doc``: ``feeder_medium.json`` to its document, once,
  as the command line reads each distinct feeder file once;
- ``build_combined``: parsed inputs to the combined network;
- ``validate`` and ``build_index_map`` on it;
- ``initial_state``: the start vector from the case voltages;
- ``CompiledCircuit``: the compile of the direct solve;
- Newton on the compiled circuit (``solve_direct`` with the circuit);
- ``solution.json`` text: ``solution_json(network, imap, x)``;
- ``tear``: the GSN partition into transmission and feeder side;
- ``devices``: the first read of the combined network's six device
  tuples, which ``build_combined`` leaves to be built from the tiles
  when read (no stage above reads them).

BLAS is pinned to one thread, as in ``perfbench``.  Both cases parse the
same files, so the two parse stages differ only by noise.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

from tandem.gsn import tear  # noqa: E402
from tandem.ingest import CouplingEntry, CouplingMap, build_combined, parse_feeder_doc, parse_transmission  # noqa: E402
from tandem.netmodel import DEVICES, BusKind, Network, build_index_map, initial_state, validate  # noqa: E402
from tandem.newton import SolverOptions, solve_direct  # noqa: E402
from tandem.results import solution_json  # noqa: E402
from tandem.stamping import CompiledCircuit  # noqa: E402

DATA = Path(__file__).resolve().parents[1] / "src" / "tandem" / "data"
STAGES = ("parse_transmission", "parse_feeder_doc", "build_combined", "validate", "build_index_map", "initial_state",
          "CompiledCircuit", "Newton", "solution.json", "tear", "devices")


def cases() -> dict:
    """Name -> (transmission network, coupling map, feeder documents)."""
    tnet = parse_transmission(DATA / "case27.m")
    pq = sorted(b.id for b in tnet.buses if b.kind is BusKind.PQ)
    docs = {"feeder_medium.json": parse_feeder_doc(DATA / "feeder_medium.json")}
    scales = {"copies": [1.0] * len(pq), "distinct": [0.8 + 0.01 * k for k in range(len(pq))]}
    return {name: (tnet, CouplingMap([CouplingEntry("feeder_medium.json", bus, s) for bus, s in zip(pq, ls)], DATA),
                   docs) for name, ls in scales.items()}


def copied_share(net: Network) -> tuple[int, int]:
    """(feeder blocks whose tile copies an earlier block's template, all feeder blocks) of a
    combined network; its first tile is the transmission case."""
    templates = [id(tile.template) for tile in net.tiles()[1:]]
    return len(templates) - len(set(templates)), len(templates)


def one_round(tnet, cmap, docs) -> dict[str, float]:
    times = {}

    def timed(stage, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        times[stage] = time.perf_counter() - start
        return out

    timed("parse_transmission", parse_transmission, DATA / "case27.m")
    timed("parse_feeder_doc", parse_feeder_doc, DATA / "feeder_medium.json")
    net = timed("build_combined", build_combined, tnet, cmap, docs)
    violations = timed("validate", validate, net)
    if violations:
        raise SystemExit(f"stage_times: the case fails validation: {violations[0]}")
    imap = timed("build_index_map", build_index_map, net)
    timed("initial_state", initial_state, net, imap)
    circuit = timed("CompiledCircuit", CompiledCircuit, net, imap)
    x, _ = timed("Newton", solve_direct, net, SolverOptions(), circuit=circuit)
    timed("solution.json", solution_json, net, imap, x)
    timed("tear", tear, net, imap)
    timed("devices", lambda: [getattr(net, name) for name in DEVICES])
    return times


def main(argv: list[str]) -> int:
    rounds = int(argv[0]) if argv else 15
    inputs = cases()
    best = {name: dict.fromkeys(STAGES, float("inf")) for name in inputs}
    for _ in range(rounds):
        for name, args in inputs.items():
            for stage, t in one_round(*args).items():
                best[name][stage] = min(best[name][stage], t)
    for name, args in inputs.items():
        copied, total = copied_share(build_combined(*args))
        print(f"{name}: {copied} of {total} feeder blocks copied")
    print(f"fastest of {rounds} rounds, ms")
    print(f"{'stage':<20}" + "".join(f"{name:>12}" for name in inputs))
    for stage in STAGES:
        print(f"{stage:<20}" + "".join(f"{1e3 * best[name][stage]:>12.2f}" for name in inputs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
