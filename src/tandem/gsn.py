"""Domain decomposition and the Gauss-Seidel-Newton outer loop.

The combined network is torn at its coupling ports into one
transmission subcircuit plus one subcircuit per feeder.  The boundary
quantities are, per port, the transmission-side voltage and the three
head currents.  Each epoch first solves the transmission subcircuit's
inner Newton problem with every port drawing the last head currents as
constant current, then solves the feeders with each head held at the
rotated fresh POI voltage.  The first epoch's head currents lump each
feeder into its nominal net demand.  After every epoch the subcircuit
states are scattered into the combined state, and the loop stops when
that state's true mismatch on the combined system is at most the outer
tolerance.

The feeders of one epoch all read the same snapshot and are independent
of one another, so they could run in parallel (the paper solves them on
separate machines); this module solves them one after another in one
thread.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import pickle
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, is_
from typing import Any

import numpy as np

from .netmodel import (
    PHASE_ROTATION,
    POS_SEQ_WEIGHT,
    POSITIVE_SEQUENCE,
    THREE_PHASE,
    Bus,
    IndexMap,
    Network,
    build_index_map,
    initial_state,  # noqa: F401  (perfbench/tracer.py wraps tandem.gsn.initial_state)
)
from .newton import SolveFailure, SolverOptions, solve_direct
from .sparse import assemble  # noqa: F401  (perfbench/tracer.py wraps tandem.gsn.assemble)
from .stamping import CompiledCircuit, stamp_system

log = logging.getLogger(__name__)


class GsnError(RuntimeError):
    def __init__(self, message: str, report: "GsnReport | None" = None):
        super().__init__(message)
        self.report = report


class InternalConsistencyError(GsnError):
    pass


INNER_MAX_ITER = 20  # Newton iteration cap of every subcircuit solve


@dataclass
class GsnOptions:
    """Outer-loop knobs: ``outer_tol`` bounds the true mismatch of the
    combined state after an epoch.  Inner solves take the caller's
    SolverOptions capped at INNER_MAX_ITER, their tolerance at most
    ``outer_tol / 10``.  An epoch's feeders are independent and could
    run in parallel; they are solved one after another in one thread."""

    outer_tol: float = 1e-3
    max_epochs: int = 100
    epoch_log_path: Any = None

    def __post_init__(self):
        if not 0 < self.outer_tol < math.inf:
            raise ValueError("outer_tol must be positive and finite")


# ----------------------------------------------------------------------
# Tearing
# ----------------------------------------------------------------------


@dataclass
class SubCircuit:
    """One torn block.  A feeder equal to an earlier one up to a bus-id
    shift is a copy: ``template`` is the index of that earlier subcircuit
    (its own index when it is not a copy), whose ``network`` and ``imap``
    it shares and in whose bus ids it solves, on the template's compiled
    circuit; ``shift`` (the template's smallest bus id less the copy's)
    takes the copy's head bus ids there.  Inner failure reasons of a copy
    therefore quote the template's bus ids, while ``name``, ``ports`` and
    the global indices stay the copy's own.  Sharing a circuit is safe
    because the feeders are solved one at a time."""

    index: int
    name: str
    kind: str  # "transmission" | "feeder"
    network: Network
    imap: IndexMap
    ports: tuple
    internal_global: np.ndarray
    local_to_global: np.ndarray  # local unknown -> global unknown
    template: int
    shift: int


@dataclass
class Partition:
    network: Network
    imap: IndexMap
    subs: list[SubCircuit]
    ports: list  # the coupling ports in id order, one boundary row each


_DEVICES = ("buses", "elements", "loads", "shunts", "generators", "ders")
_KEY_ORDER = ("generators", "ders", "shunts", "loads", "buses", "elements")  # where scaled copies differ first
_BUS_REFS = frozenset({"id", "bus", "from_bus", "to_bus"})


@functools.cache
def _key_columns(cls) -> tuple:
    """(getter, holds a bus id) per field of a device class that a feeder key compares:
    every field but element ids."""
    compared = [f.name for f in fields(cls) if not (f.name == "id" and cls is not Bus)]
    return tuple((attrgetter(name), name in _BUS_REFS) for name in compared)


def _device_key(devices: list, base: int) -> tuple[tuple, list]:
    """((device count, bus-id columns less ``base``), every other column) of one feeder's
    devices of one class: each field that the compile and the solve read, by column."""
    buses: list = [len(devices)]
    columns = []
    for get, is_bus in _key_columns(type(devices[0])) if devices else ():
        column = list(map(get, devices))
        if is_bus:
            buses.append(tuple(bus - base for bus in column))
        else:
            columns.append(column)
    return tuple(buses), columns


def _pickled(columns: list) -> bytes:
    """Columns as bytes, arrays by shape, dtype and bytes.  Pickled, so a float's sign
    of zero counts: equal bytes compile to bit-equal circuits."""
    return pickle.dumps([[(a.shape, a.dtype.str, a.tobytes()) if isinstance(a, np.ndarray) else a for a in column]
                         for column in columns])


def _templates(parts: dict[str, dict], bases: dict[str, int]) -> dict[str, str]:
    """Each feeder block's template: the first block equal to it up to a bus-id shift.
    A block's key starts as its device counts and takes one device class's key at a
    time while another block shares it, so a feeder that no other one repeats is keyed
    little, if at all.  The copies ``build_combined`` makes share their template's field
    objects, so a block whose columns hold the same objects as the first block keyed in
    its group takes that block's bytes without pickling its own."""
    keys = {name: tuple(map(len, part.values())) for name, part in parts.items()}
    for device in _KEY_ORDER:
        shared = Counter(keys.values())
        first: dict = {}  # group -> (other columns, their bytes) of its first keyed block
        group: dict[tuple, int] = {}  # (group, device key) -> the next group
        for name, key in keys.items():
            device_key = None
            if shared[key] > 1:
                buses, columns = _device_key(parts[name][device], bases[name])
                ref = first.get(key)
                if ref is not None and all(all(map(is_, a, b)) for a, b in zip(columns, ref[0])):
                    device_key = buses, ref[1]
                else:
                    device_key = buses, _pickled(columns)
                    first.setdefault(key, (columns, device_key[1]))
            keys[name] = group.setdefault((key, device_key), len(group))
    template: dict[int, str] = {}
    return {name: template.setdefault(key, name) for name, key in keys.items()}


def tear(network: Network, imap: IndexMap | None = None) -> Partition:
    """Tear the combined network at its coupling ports into a Partition.

    Every block of the index map but the trailing port border becomes
    one subcircuit: the transmission block first, then one per feeder.
    A subcircuit's own unknowns are its block's index range; a feeder's
    head-source currents (the last unknowns of its local map, its head
    being the component's only source) are its ports' port currents.
    One pass buckets the buses, elements and devices by block in network
    order.  A feeder equal to an earlier one up to a bus-id shift is its
    copy (see SubCircuit), with no network or index map of its own.
    """
    imap = imap or build_index_map(network)
    ports = sorted(network.ports, key=lambda p: p.id)

    block_of = {b.id: "transmission" for b in network.transmission_buses()}
    block_of.update((bus, f"feeder:{comp}") for bus, comp in imap.feeder_of_bus.items())
    parts = {name: {k: [] for k in _DEVICES} for name, _, _ in imap.blocks}
    for b in network.buses:
        parts[block_of[b.id]]["buses"].append(b)
    for e in network.elements:  # build_index_map has checked that both ends are buses
        if block_of[e.from_bus] == block_of[e.to_bus]:
            parts[block_of[e.from_bus]]["elements"].append(e)
    for name in _DEVICES[2:]:
        for dev in getattr(network, name):
            if dev.bus in block_of:
                parts[block_of[dev.bus]][name].append(dev)
    feeder_ports: dict[str, list] = {}
    for p in ports:
        feeder_ports.setdefault(block_of[p.feeder_head], []).append(p)
    bases = {name: min(b.id for b in part["buses"]) for name, part in parts.items() if part["buses"]}
    template_of = _templates({name: parts[name] for name in bases if name != "transmission"}, bases)
    template_of["transmission"] = "transmission"

    subs: list[SubCircuit] = []
    index_of: dict[str, int] = {}
    for name, start, stop in imap.blocks:
        part = parts[name]
        if not part["buses"]:  # the port border, or no transmission side at all
            continue
        index_of[name] = len(subs)
        template = index_of[template_of[name]]  # a template comes before its copies
        if template == len(subs):
            labels = {b.id: network.labels[b.id] for b in part["buses"] if b.id in network.labels}
            sub_net = Network(base_mva=network.base_mva, labels=labels, **part)
            sub_imap = build_index_map(sub_net)
        else:
            sub_net, sub_imap = subs[template].network, subs[template].imap
        if name == "transmission":
            kind, sub_ports, heads = "transmission", tuple(network.ports), []
        else:
            kind, sub_ports = "feeder", tuple(feeder_ports.get(name, ()))
            heads = [i for p in sub_ports for ph in THREE_PHASE for i in imap.port_current[(p.id, ph)]]
        internal = np.arange(start, stop, dtype=np.int64)
        local_to_global = np.concatenate([internal, np.array(heads, dtype=np.int64)])
        if len(local_to_global) != sub_imap.n:
            raise InternalConsistencyError(
                f"{name}: {len(local_to_global)} mapped unknowns for {sub_imap.n} local ones"
            )
        subs.append(
            SubCircuit(
                index=len(subs),
                name=name,
                kind=kind,
                network=sub_net,
                imap=sub_imap,
                ports=sub_ports,
                internal_global=internal,
                local_to_global=local_to_global,
                template=template,
                shift=bases[template_of[name]] - bases[name],
            )
        )

    return Partition(network=network, imap=imap, subs=subs, ports=ports)


# ----------------------------------------------------------------------
# The GSN outer loop
# ----------------------------------------------------------------------


@dataclass
class GsnReport:
    converged: bool = False
    epochs: int = 0
    boundary_deltas: list[float] = field(default_factory=list)
    inner_iterations: list[dict[str, int]] = field(default_factory=list)
    global_residual: float = float("nan")
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema": 2,
            "converged": self.converged,
            "epochs": self.epochs,
            "boundary_deltas": self.boundary_deltas,
            "inner_iterations": self.inner_iterations,
            "global_residual": self.global_residual,
            "error": self.error,
        }


def _positive_sequence_current(currents) -> complex:
    return sum(POS_SEQ_WEIGHT[ph] * i for ph, i in zip(THREE_PHASE, currents)) / 3.0


def solve_gsn(
    network: Network,
    options: SolverOptions | None = None,
    gsn: GsnOptions | None = None,
    imap: IndexMap | None = None,
) -> tuple[np.ndarray, GsnReport]:
    """Gauss-Seidel-Newton solve of a combined network.

    Each epoch solves the transmission block against the last head
    currents, then every feeder, one after another in this thread,
    against the fresh POI voltages; the first head currents are each
    single-port feeder's net demand (loads less DERs plus shunts) at
    1 pu, drawn at the case-data POI voltage.
    Stops once the true mismatch of the combined state is at most
    ``gsn.outer_tol``, which ``report.global_residual`` then holds.
    The transmission block, each feeder template (see SubCircuit) and the
    combined network compile once per solve; a copy solves on its
    template's circuit.

    Returns the global state on the combined index map (``imap`` when
    given, else built here) plus an epoch report.  Raises GsnError when
    an inner solve fails (naming the subcircuit) or the epoch cap is
    exceeded.
    """
    options = options or SolverOptions()
    gsn = gsn or GsnOptions()
    inner_opts = replace(options, max_iter=INNER_MAX_ITER, tol=min(options.tol, gsn.outer_tol / 10))
    report = GsnReport()
    imap = imap or build_index_map(network)

    if not network.ports:
        x, direct_rep = solve_direct(network, options, circuit=CompiledCircuit(network, imap))
        report.converged = True
        report.epochs = 1
        report.boundary_deltas = [0.0]
        report.inner_iterations = [{"transmission": direct_rep.iterations}]
        report.global_residual = direct_rep.final_residual
        return x, report

    partition = tear(network, imap)
    transmission, feeders = partition.subs[0], partition.subs[1:]
    # an epoch's snapshot changes only source voltages and injections, not
    # topology, so each distinct subcircuit compiles once for the whole solve;
    # the copies of a feeder solve on its template's circuit, which every
    # solve_direct call re-points at its own sources, demands and injections
    circuits = {s.index: CompiledCircuit(s.network, s.imap) for s in partition.subs if s.template == s.index}
    log.info("%d subcircuits, %d compiled", len(partition.subs), len(circuits))
    combined = CompiledCircuit(network, imap)  # evaluates the global mismatch

    # one boundary row per port in port-id order: the transmission-side
    # voltage, then the head currents of phases a, b, c; the first
    # snapshot takes the voltages from the case data and the currents
    # from each single-port feeder's lumped demand
    row = {p.id: k for k, p in enumerate(partition.ports)}
    boundary = np.zeros((len(row), 1 + len(THREE_PHASE)), dtype=complex)
    for p in partition.ports:
        boundary[row[p.id], 0] = network.bus(p.transmission_bus).v0[0]
    for sub in feeders:
        if len(sub.ports) == 1:
            net, k = sub.network, row[sub.ports[0].id]
            s = sum(sum(d.s) for d in net.loads) - sum(sum(d.s) for d in net.ders)
            s += sum(sum(y.conjugate() for y in sh.y) for sh in net.shunts)
            boundary[k, 1:] = [PHASE_ROTATION[ph] * (s / (3 * boundary[k, 0])).conjugate() for ph in THREE_PHASE]

    warm: list[np.ndarray | None] = [None] * len(partition.subs)
    log_file = open(gsn.epoch_log_path, "w") if gsn.epoch_log_path else None

    def run_sub(sub: SubCircuit, snap: np.ndarray):
        try:
            if sub.kind == "transmission":
                injections = {
                    p.transmission_bus: {POSITIVE_SEQUENCE: _positive_sequence_current(snap[row[p.id], 1:].tolist())}
                    for p in sub.ports
                }
                return solve_direct(
                    sub.network, inner_opts, injections=injections, x0=warm[sub.index], circuit=circuits[sub.template]
                )
            head_volts = {
                p.feeder_head + sub.shift: tuple(PHASE_ROTATION[ph] * complex(snap[row[p.id], 0]) for ph in THREE_PHASE)
                for p in sub.ports
            }
            net = sub.network.with_source_voltages(head_volts)
            x0 = warm[sub.index]
            if x0 is not None:
                x0 = x0.copy()
                for head, volts in head_volts.items():
                    for ph, v in zip(THREE_PHASE, volts):
                        vr, vi = sub.imap.v_pair(head, ph)
                        x0[vr], x0[vi] = v.real, v.imag
            return solve_direct(net, inner_opts, x0=x0, circuit=circuits[sub.template])
        except SolveFailure as exc:
            raise GsnError(f"subcircuit {sub.name} failed to converge: {exc}", report) from exc

    x_global = np.zeros(imap.n)
    linear = None
    try:
        for epoch in range(1, gsn.max_epochs + 1):
            new = boundary.copy()
            x, rep = run_sub(transmission, boundary)
            warm[transmission.index] = x
            iters = {transmission.name: rep.iterations}
            gen_modes = rep.gen_modes
            for p in transmission.ports:
                new[row[p.id], 0] = transmission.imap.voltage(x, p.transmission_bus, POSITIVE_SEQUENCE)

            for sub in feeders:
                x, rep = run_sub(sub, new)
                warm[sub.index] = x
                iters[sub.name] = rep.iterations
                for p in sub.ports:
                    k = row[p.id]
                    for j, ph in enumerate(THREE_PHASE, start=1):
                        ir, ii = sub.imap.source_current[(p.feeder_head + sub.shift, ph)]
                        new[k, j] = complex(x[ir], x[ii])

            # infinity norm of the boundary change over all real components
            delta = float(np.abs((new - boundary).view(float)).max())
            boundary = new
            for sub in partition.subs:
                x_global[sub.local_to_global] = warm[sub.index]
            linear, nonlinear = stamp_system(combined, x_global, gen_modes=gen_modes, linear=linear)
            system = combined.plan.assemble([linear, nonlinear], imap.n)
            mismatch = float(np.abs(system.matrix @ x_global - system.rhs).max(initial=0.0))

            report.boundary_deltas.append(delta)
            report.inner_iterations.append(iters)
            report.global_residual = mismatch
            report.epochs = epoch
            log.info("epoch %3d  global mismatch %.3e  boundary change %.3e  inner iters %s",
                     epoch, mismatch, delta, iters)
            if log_file:
                record = {"epoch": epoch, "global_mismatch": mismatch, "boundary_delta": delta, "inner_iters": iters}
                log_file.write(json.dumps(record) + "\n")
                log_file.flush()
            if mismatch <= gsn.outer_tol:
                report.converged = True
                break
    finally:
        if log_file:
            log_file.close()

    if not report.converged:
        report.error = f"boundary exchange did not converge in {gsn.max_epochs} epochs"
        raise GsnError(report.error, report)
    return x_global, report
