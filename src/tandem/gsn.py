"""Domain decomposition and the Gauss-Seidel-Newton outer loop.

The combined network is torn at its coupling ports into two
subcircuits: the transmission block, and the feeder side, every feeder
with its head held by an ideal source.  The boundary quantities are,
per port, the transmission-side voltage and the three head currents.
Each epoch first solves the transmission block with every port drawing
the last head currents as constant current, then the feeder side with
each head held at the rotated fresh POI voltage.  The first epoch's
head currents lump each feeder into its nominal net demand.  The loop
stops when the true mismatch of the combined state is at most the
outer tolerance.

Once the POI voltages are fixed the feeders are independent, so the
feeder side's Jacobian is block diagonal and one Newton over it takes
each feeder's own step (the step limiter clamps per component): the
paper's parallel feeder sweep, one machine per feeder there, vectorized
on one host here.  The feeders couple only through the shared stopping
test, divergence monitor and continuation schedule.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .netmodel import (
    DEVICES,
    PHASE_CODE,
    PHASE_ROTATION,
    POS_SEQ_WEIGHT,
    POSITIVE_SEQUENCE,
    THREE_PHASE,
    IndexMap,
    Network,
    Tile,
    build_index_map,
    initial_state,  # noqa: F401  (perfbench/tracer.py wraps tandem.gsn.initial_state)
    tiled_index_map,
)
from .newton import SolveFailure, SolverOptions, solve_direct
from .sparse import assemble  # noqa: F401  (perfbench/tracer.py wraps tandem.gsn.assemble)
from .stamping import CompiledCircuit, HomotopyState, VoltageCollapseError, stamp_system

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
    ``outer_tol / 10``."""

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
    """One torn block on its own sub-network and index map: the transmission
    block, or the feeder side, every feeder block with each ported head held
    by an ideal source."""

    name: str  # "transmission" | "feeders"
    kind: str  # "transmission" | "feeder"
    network: Network
    imap: IndexMap
    ports: tuple
    internal_global: np.ndarray
    local_to_global: np.ndarray  # local unknown -> global unknown


@dataclass
class Partition:
    network: Network
    imap: IndexMap
    subs: list[SubCircuit]
    ports: list  # the coupling ports in id order, one boundary row each


def _sides(t: Network) -> dict[str, Network]:
    """Template ``t``'s part on each side that has buses: an element on the side of both its
    ends, a device on its bus's; a template on one side is its own part."""
    side = {b.id: "transmission" if b.kind.is_transmission else "feeders" for b in t.buses}
    if len(names := set(side.values())) == 1:
        return {names.pop(): t}
    parts = {name: {k: [] for k in DEVICES} for name in ("transmission", "feeders")}
    for b in t.buses:
        parts[side[b.id]]["buses"].append(b)
    for e in t.elements:
        if e.from_bus in side and side[e.from_bus] == side.get(e.to_bus):
            parts[side[e.from_bus]]["elements"].append(e)
    for k in DEVICES[2:]:
        for dev in getattr(t, k):
            if dev.bus in side:
                parts[side[dev.bus]][k].append(dev)
    return {name: Network(t.base_mva, **part) for name, part in parts.items() if part["buses"]}


def tear(network: Network, imap: IndexMap | None = None) -> Partition:
    """Tear the combined network at its coupling ports into a Partition.

    The transmission block becomes one subcircuit and the union of the
    feeder blocks a second (either is left out when it has no bus).  A
    subcircuit's own unknowns are its blocks' index ranges; on the feeder
    side each block's head-source currents (the last unknowns of its
    local block, its head being the component's only source) are its
    port's port currents.  Each distinct template is split by side once,
    and each side is a tiled network of its tiles' parts.
    """
    imap = imap or build_index_map(network)
    ports = sorted(network.ports, key=lambda p: p.id)
    parts: dict[str, list[Tile]] = {"transmission": [], "feeders": []}
    for tile, sides in network.per_tile(_sides):
        for name, part in sides.items():
            parts[name].append(Tile(part, tile.bus_offset, tile.element_offset, tile.load_scale, tile.der_scale))
    heads: dict[str, list] = {}  # feeder block -> its ports' current indices
    for p in ports:
        heads.setdefault(f"feeder:{imap.feeder_of_bus[p.feeder_head]}", []).extend(
            i for ph in THREE_PHASE for i in imap.port_current[(p.id, ph)])

    subs: list[SubCircuit] = []
    for name, tiles in parts.items():
        if not tiles:  # no transmission side, or no feeders
            continue
        sub_net = Network.tiled(tiles, base_mva=network.base_mva, labels=network.labels)
        sub_imap = tiled_index_map(sub_net)
        if name == "transmission":
            kind, sub_ports = "transmission", tuple(network.ports)
            internal = local_to_global = np.arange(*imap.block(name), dtype=np.int64)
        else:
            kind, sub_ports = "feeder", tuple(ports)
            blocks = [b for b in imap.blocks if b[0].startswith("feeder:")]
            internal = np.arange(blocks[0][1], blocks[-1][2], dtype=np.int64)
            local_to_global = np.concatenate([ix for b, lo, hi in blocks for ix in (
                np.arange(lo, hi), np.array(heads.get(b, ()), dtype=np.int64))])
        if len(local_to_global) != sub_imap.n:
            raise InternalConsistencyError(f"{name}: {len(local_to_global)} mapped unknowns for "
                                           f"{sub_imap.n} local ones")
        subs.append(SubCircuit(name, kind, sub_net, sub_imap, sub_ports, internal, local_to_global))

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


def _failing_feeder(circuit: CompiledCircuit, exc: SolveFailure, options: SolverOptions) -> str:
    """The feeder block whose rows of the feeder side's mismatch are largest at the
    failed solve's last iterate, at its last attempt's lambda; or the block whose load
    terminal trips the collapse guard there."""
    imap, lam = circuit.imap, exc.report.lambda_trajectory[-1]["lambda"]
    hs = HomotopyState(lam, options.gamma, options.shunt_relax) if lam else None
    try:
        linear, nonlinear = stamp_system(circuit, exc.x, hs)
    except VoltageCollapseError as collapse:
        return f"feeder:{imap.feeder_of_bus[collapse.bus]}"
    system = circuit.plan.assemble([linear, nonlinear])
    resid = np.abs(system.matrix @ exc.x - system.rhs)
    blocks = [b for b in imap.blocks if b[0].startswith("feeder:")]
    return max(blocks, key=lambda b: resid[b[1]:b[2]].max(initial=0.0))[0]


def solve_gsn(
    network: Network,
    options: SolverOptions | None = None,
    gsn: GsnOptions | None = None,
    imap: IndexMap | None = None,
) -> tuple[np.ndarray, GsnReport]:
    """Gauss-Seidel-Newton solve of a combined network.

    Each epoch solves the transmission block against the last head
    currents, then the whole feeder side, one Newton over every feeder
    at once, against the fresh POI voltages; the first head currents are
    each feeder's net demand (loads less DERs plus shunts) at 1 pu, drawn
    at the case-data POI voltage.  Both blocks compile once per solve.
    Stops once the true mismatch of the combined state is at most
    ``gsn.outer_tol``, which ``report.global_residual`` then holds: its
    rows are the transmission block's, stamped with the epoch's new head
    currents as injections, and the feeder side's, whose head sources
    already hold the new POI voltages (that solve's final residual).
    ``report.inner_iterations`` holds ``{"transmission": n, "feeders": m}``
    per epoch.

    Returns the global state on the combined index map (``imap`` when
    given, else built here) plus an epoch report.  Raises GsnError when
    an inner solve fails (naming the transmission block or the feeder
    block whose rows fail) or the epoch cap is exceeded.
    """
    options = options or SolverOptions()
    gsn = gsn or GsnOptions()
    inner_opts = replace(options, max_iter=INNER_MAX_ITER, tol=min(options.tol, gsn.outer_tol / 10))
    imap = imap or build_index_map(network)

    if not network.ports:
        x, rep = solve_direct(network, options, circuit=CompiledCircuit(network, imap))
        return x, GsnReport(converged=True, epochs=1, boundary_deltas=[0.0], global_residual=rep.final_residual,
                            inner_iterations=[{"transmission": rep.iterations}])

    partition = tear(network, imap)
    transmission, feeders = partition.subs
    ports = partition.ports
    # an epoch's snapshot changes only source voltages and injections, not
    # topology, so each block compiles once for the whole solve
    t_circuit = CompiledCircuit(transmission.network, transmission.imap)
    f_circuit = CompiledCircuit(feeders.network, feeders.imap)
    poi = transmission.imap.v_index([p.transmission_bus for p in ports], PHASE_CODE[POSITIVE_SEQUENCE])
    head = feeders.imap.v_index([[p.feeder_head] for p in ports], [PHASE_CODE[ph] for ph in THREE_PHASE])
    current = np.array([[feeders.imap.source_current[(p.feeder_head, ph)] for ph in THREE_PHASE] for p in ports])
    rotation = np.array([PHASE_ROTATION[ph] for ph in THREE_PHASE])
    weights = [POS_SEQ_WEIGHT[ph] for ph in THREE_PHASE]

    # one boundary row per port in port-id order: the transmission-side
    # voltage, then the head currents of phases a, b, c; the first
    # snapshot takes the voltages from the case data and the currents
    # from each feeder's lumped demand
    boundary = np.zeros((len(ports), 1 + len(THREE_PHASE)), dtype=complex)
    demand: dict[int, list] = {}  # feeder block ordinal -> [loads, DERs, shunts]
    for tile in network.tiles():  # read per tile, so no copied device is built
        for k, name in enumerate(("loads", "ders", "shunts")):
            scale = tile.scale(name)
            for d in getattr(tile.template, name) if scale is not None else ():
                if (fb := imap.feeder_of_bus.get(d.bus + tile.bus_offset)) is not None:
                    s = sum((scale * y).conjugate() for y in d.y) if k == 2 else sum(scale * v for v in d.s)
                    demand.setdefault(fb, [0, 0, 0])[k] += s
    for k, p in enumerate(ports):
        boundary[k, 0] = transmission.network.bus(p.transmission_bus).v0[0]
        loads, ders, shunts = demand.get(imap.feeder_of_bus[p.feeder_head], (0, 0, 0))
        boundary[k, 1:] = [rot * ((loads - ders + shunts) / (3 * boundary[k, 0])).conjugate() for rot in rotation]

    def drive(snap: np.ndarray) -> dict:
        """The transmission block's injections: each POI draws its port's positive-sequence head current."""
        return {p.transmission_bus: {POSITIVE_SEQUENCE: sum(w * i for w, i in zip(weights, row)) / 3.0}
                for p, row in zip(ports, snap[:, 1:].tolist())}

    injections = drive(boundary)
    x_t = x_f = None
    report = GsnReport()
    log_file = open(gsn.epoch_log_path, "w") if gsn.epoch_log_path else None
    try:
        for epoch in range(1, gsn.max_epochs + 1):
            new = np.empty_like(boundary)
            try:
                x_t, t_rep = solve_direct(transmission.network, inner_opts, injections=injections, x0=x_t,
                                          circuit=t_circuit)
            except SolveFailure as exc:
                raise GsnError(f"subcircuit {transmission.name} failed to converge: {exc}", report) from exc
            new[:, 0] = x_t[poi] + 1j * x_t[poi + 1]

            volts = rotation * new[:, :1]
            net = feeders.network.with_source_voltages({p.feeder_head: tuple(volts[k].tolist())
                                                        for k, p in enumerate(ports)})
            f_circuit.set_sources(net)
            x0 = None
            if x_f is not None:
                x0 = x_f.copy()
                x0[head], x0[head + 1] = volts.real, volts.imag
            try:
                x_f, f_rep = solve_direct(net, inner_opts, x0=x0, circuit=f_circuit)
            except SolveFailure as exc:
                name = _failing_feeder(f_circuit, exc, inner_opts)
                raise GsnError(f"subcircuit {name} failed to converge: {exc}", report) from exc
            new[:, 1:] = x_f[current[..., 0]] + 1j * x_f[current[..., 1]]

            # infinity norm of the boundary change over all real components
            delta = float(np.abs((new - boundary).view(float)).max())
            boundary, injections = new, drive(new)
            t_circuit.set_injections(injections)
            linear, nonlinear = stamp_system(t_circuit, x_t, gen_modes=t_rep.gen_modes)
            system = t_circuit.plan.assemble([linear, nonlinear])
            mismatch = max(float(np.abs(system.matrix @ x_t - system.rhs).max(initial=0.0)), f_rep.final_residual)
            iters = {transmission.name: t_rep.iterations, feeders.name: f_rep.iterations}

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
    x_global = np.zeros(imap.n)
    x_global[transmission.local_to_global] = x_t
    x_global[feeders.local_to_global] = x_f
    return x_global, report
