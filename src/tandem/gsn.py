"""Domain decomposition and the parallel Gauss-Seidel-Newton outer loop.

The combined network is torn at its coupling ports into one
transmission subcircuit plus one subcircuit per feeder.  Each epoch
takes a snapshot of the boundary quantities (the transmission-side
voltage pair and the six port currents per port), solves every
subcircuit's inner Newton problem in parallel against that snapshot
(feeders see their head held at the rotated snapshot voltage,
transmission sees constant per-port current consumption), then
exchanges the boundary.  Convergence is the infinity norm of the
boundary change across one epoch.

Subcircuits all read the epoch-start snapshot, so results do not
depend on completion order and any worker count gives the same answer.
"""

from __future__ import annotations

import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
import scipy.sparse as sp

from .netmodel import (
    PHASE_ROTATION,
    POS_SEQ_WEIGHT,
    POSITIVE_SEQUENCE,
    THREE_PHASE,
    IndexMap,
    Network,
    Shunt,
    build_index_map,
    initial_state,
)
from .newton import SolveFailure, SolverOptions, solve_direct
from .sparse import assemble
from .stamping import stamp_system

log = logging.getLogger(__name__)


class GsnError(RuntimeError):
    def __init__(self, message: str, report: "GsnReport | None" = None):
        super().__init__(message)
        self.report = report


class WeakCouplingError(GsnError):
    pass


class InternalConsistencyError(GsnError):
    pass


@dataclass
class GsnOptions:
    """Outer-loop knobs; inner solves take the caller's SolverOptions."""

    outer_tol: float = 1e-3
    max_epochs: int = 100
    inner_max_iter: int = 20
    workers: int = 1
    feedback_shunt: float = 0.0  # stabilizing susceptance at feedback nodes, pu
    auto_stabilize: bool = True
    auto_feedback_shunt: float = 10.0
    feedback_decay: float = 0.5
    stall_epochs: int = 10
    max_external_ratio: float = 0.1
    strict_weak_coupling: bool = False
    progress: bool = True
    epoch_log_path: Any = None


# ----------------------------------------------------------------------
# Tearing
# ----------------------------------------------------------------------


@dataclass
class SubCircuit:
    index: int
    name: str
    kind: str  # "transmission" | "feeder"
    network: Network
    imap: IndexMap
    ports: tuple
    internal_global: np.ndarray
    external_global: np.ndarray
    local_to_global: np.ndarray  # local unknown -> global unknown

    @property
    def external_ratio(self) -> float:
        if len(self.internal_global) == 0:
            return float("inf")
        return len(self.external_global) / len(self.internal_global)


@dataclass
class PortVars:
    """Global indices of one port's boundary region."""

    port: Any
    poi: tuple[int, int]
    head: dict[str, tuple[int, int]]
    currents: dict[str, tuple[int, int]]

    def boundary_indices(self) -> list[int]:
        out = list(self.poi)
        for ph in THREE_PHASE:
            out.extend(self.currents[ph])
        return out


@dataclass
class Partition:
    network: Network
    imap: IndexMap
    subs: list[SubCircuit]
    port_vars: list[PortVars]
    feedback_shunt: float = 0.0

    @property
    def transmission(self) -> SubCircuit:
        return self.subs[0]

    def weak_coupling_report(self, max_ratio: float) -> list[dict]:
        return [
            {
                "sub": s.name,
                "internal": int(len(s.internal_global)),
                "external": int(len(s.external_global)),
                "ratio": s.external_ratio,
                "ok": s.external_ratio <= max_ratio,
            }
            for s in self.subs
        ]


def _subnetwork(network: Network, bus_ids: set[int]) -> Network:
    return Network(
        base_mva=network.base_mva,
        buses=tuple(b for b in network.buses if b.id in bus_ids),
        elements=tuple(e for e in network.elements if e.from_bus in bus_ids and e.to_bus in bus_ids),
        loads=tuple(ld for ld in network.loads if ld.bus in bus_ids),
        shunts=tuple(sh for sh in network.shunts if sh.bus in bus_ids),
        generators=tuple(g for g in network.generators if g.bus in bus_ids),
        ders=tuple(d for d in network.ders if d.bus in bus_ids),
        labels={k: v for k, v in network.labels.items() if k in bus_ids},
    )


def _local_to_global(sub_net: Network, sub_imap: IndexMap, gmap: IndexMap, ports_at_head) -> np.ndarray:
    out = np.full(sub_imap.n, -1, dtype=np.int64)
    for key, li in sub_imap.vr.items():
        out[li] = gmap.vr[key]
    for key, li in sub_imap.vi.items():
        out[li] = gmap.vi[key]
    for (bus, ph), (lr, lii) in sub_imap.source_current.items():
        if bus in ports_at_head:
            gr, gi = gmap.port_current[(ports_at_head[bus].id, ph)]
        else:
            gr, gi = gmap.source_current[(bus, ph)]
        out[lr], out[lii] = gr, gi
    for bus, li in sub_imap.gen_q.items():
        out[li] = gmap.gen_q[bus]
    if np.any(out < 0):
        raise InternalConsistencyError("incomplete local-to-global variable mapping")
    return out


def tear(
    network: Network,
    imap: IndexMap | None = None,
    max_external_ratio: float = 0.1,
    strict: bool = False,
) -> Partition:
    """Tear the combined network at its coupling ports into a Partition.

    The transmission block comes first, then one block per feeder.
    Boundary bookkeeping counts eight external variables per port (the
    transmission-side pair plus the six port currents) for every
    subcircuit the port touches; the weak-coupling ratio of each block
    is reported, and with ``strict`` a violation refuses to tear.
    """
    imap = imap or build_index_map(network)

    port_vars = []
    for p in sorted(network.ports, key=lambda p: p.id):
        port_vars.append(
            PortVars(
                port=p,
                poi=imap.v_pair(p.transmission_bus, POSITIVE_SEQUENCE),
                head={ph: imap.v_pair(p.feeder_head, ph) for ph in THREE_PHASE},
                currents={ph: imap.port_current[(p.id, ph)] for ph in THREE_PHASE},
            )
        )

    subs: list[SubCircuit] = []
    t_ids = {b.id for b in network.transmission_buses()}
    ports_by_head = {p.feeder_head: p for p in network.ports}

    def boundary_of(ports) -> np.ndarray:
        idx: list[int] = []
        for pv in port_vars:
            if pv.port in ports:
                idx.extend(pv.boundary_indices())
        return np.array(sorted(idx), dtype=np.int64)

    if t_ids:
        tnet = _subnetwork(network, t_ids)
        tmap = build_index_map(tnet)
        tports = tuple(p for p in network.ports)
        internal = np.array(
            sorted(
                [imap.vr[(b, ph)] for (b, ph) in imap.vr if b in t_ids]
                + [imap.vi[(b, ph)] for (b, ph) in imap.vi if b in t_ids]
                + [i for (b, ph), pair in imap.source_current.items() if b in t_ids for i in pair]
                + [i for b, i in imap.gen_q.items() if b in t_ids]
            ),
            dtype=np.int64,
        )
        subs.append(
            SubCircuit(
                index=0,
                name="transmission",
                kind="transmission",
                network=tnet,
                imap=tmap,
                ports=tports,
                internal_global=internal,
                external_global=boundary_of(set(tports)),
                local_to_global=_local_to_global(tnet, tmap, imap, {}),
            )
        )

    comp_buses: dict[int, set[int]] = {}
    for bus_id, comp in imap.feeder_of_bus.items():
        comp_buses.setdefault(comp, set()).add(bus_id)
    for comp in sorted(comp_buses):
        ids = comp_buses[comp]
        fnet = _subnetwork(network, ids)
        fmap = build_index_map(fnet)
        fports = tuple(p for p in network.ports if p.feeder_head in ids)
        internal = np.array(
            sorted(
                [imap.vr[(b, ph)] for (b, ph) in imap.vr if b in ids]
                + [imap.vi[(b, ph)] for (b, ph) in imap.vi if b in ids]
            ),
            dtype=np.int64,
        )
        subs.append(
            SubCircuit(
                index=len(subs),
                name=f"feeder:{comp}",
                kind="feeder",
                network=fnet,
                imap=fmap,
                ports=fports,
                internal_global=internal,
                external_global=boundary_of(set(fports)),
                local_to_global=_local_to_global(fnet, fmap, imap, {h: p for h, p in ports_by_head.items() if h in ids}),
            )
        )

    part = Partition(network=network, imap=imap, subs=subs, port_vars=port_vars)
    if network.ports:
        report = part.weak_coupling_report(max_external_ratio)
        bad = [r for r in report if not r["ok"]]
        if bad:
            detail = "; ".join(
                f"{r['sub']}: ext {r['external']} / int {r['internal']} = {r['ratio']:.2f}" for r in bad
            )
            if strict:
                raise WeakCouplingError(f"weak-coupling bound {max_external_ratio} violated: {detail}")
            log.info("weak-coupling bound %.2f exceeded (continuing): %s", max_external_ratio, detail)
    return part


# ----------------------------------------------------------------------
# Feedback/feedforward identification and augmentation
# ----------------------------------------------------------------------


def _jacobian_pattern(network: Network, imap: IndexMap) -> sp.csr_matrix:
    x = initial_state(network, imap)
    lin, nonlin = stamp_system(network, imap, x)
    system = assemble([lin, nonlin], imap.n)
    return system.matrix.tocsr()


def identify_feedback_feedforward(
    partition: Partition, pattern: sp.spmatrix | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Feedback variables (distribution-side port nodes) and feedforward
    variables (transmission-side port nodes), verified against the
    assembled Jacobian pattern.

    With the transmission block ordered first, the port rows are the
    only equations coupling blocks: the nodal columns they touch on the
    distribution side feed values back toward the leading block (the
    port currents they define are consumed by transmission KCL), and
    the nodal columns on the transmission side feed forward into the
    feeder blocks.  The scan checks that reading against the matrix.
    """
    v_fb: list[int] = []
    v_ff: list[int] = []
    for pv in partition.port_vars:
        v_ff.extend(pv.poi)
        for ph in THREE_PHASE:
            v_fb.extend(pv.head[ph])
    v_fb_arr = np.array(sorted(v_fb), dtype=np.int64)
    v_ff_arr = np.array(sorted(v_ff), dtype=np.int64)

    if pattern is None:
        pattern = _jacobian_pattern(partition.network, partition.imap)
    pattern = pattern.tocsr()
    imap = partition.imap

    nodal = set(imap.vr.values()) | set(imap.vi.values())
    scan_fb: set[int] = set()
    scan_ff: set[int] = set()
    t_start, t_stop = imap.block("transmission")
    for pv in partition.port_vars:
        for ph in THREE_PHASE:
            for row in pv.currents[ph]:
                cols = set(pattern.indices[pattern.indptr[row] : pattern.indptr[row + 1]])
                for c in cols & nodal:
                    if t_start <= c < t_stop:
                        scan_ff.add(c)
                    else:
                        scan_fb.add(c)
            # the port current must feed back into the transmission block KCL
            for cur in pv.currents[ph]:
                col_hits = pattern[:, cur].nonzero()[0] if sp.issparse(pattern) else np.nonzero(pattern[:, cur])[0]
                if not any(t_start <= r < t_stop for r in col_hits):
                    raise InternalConsistencyError(
                        f"port {pv.port.id} current {cur} never reaches the transmission block"
                    )
    if scan_fb != set(v_fb_arr.tolist()) or scan_ff != set(v_ff_arr.tolist()):
        raise InternalConsistencyError(
            "port-row pattern scan disagrees with declared feedback/feedforward sets"
        )
    return v_fb_arr, v_ff_arr


def apply_feedback_augmentation(partition: Partition, b_fb: float) -> Partition:
    """Stamp a stabilizing shunt susceptance at every feedback node.

    The shunt lives inside the owning feeder subcircuit; the epoch
    exchange subtracts the same susceptance's current at the previous
    snapshot voltage, so the outer fixed point is unchanged while
    inter-epoch boundary movement is damped.
    """
    if b_fb < 0:
        raise ValueError("feedback shunt must be non-negative")
    if b_fb == 0.0:
        return replace(partition, feedback_shunt=0.0)
    subs = []
    for sub in partition.subs:
        if sub.kind != "feeder":
            subs.append(sub)
            continue
        extra = tuple(
            Shunt(bus=p.feeder_head, phases=THREE_PHASE, y=(1j * b_fb,) * 3) for p in sub.ports
        )
        subs.append(replace(sub, network=replace(sub.network, shunts=sub.network.shunts + extra)))
    return replace(partition, subs=subs, feedback_shunt=b_fb)


# ----------------------------------------------------------------------
# Splitting analysis (verification path)
# ----------------------------------------------------------------------


def split_block_diagonal(j: np.ndarray, blocks: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """J = D + E with D the block-diagonal part over the given (start, stop) slices."""
    d = np.zeros_like(j)
    for start, stop in blocks:
        d[start:stop, start:stop] = j[start:stop, start:stop]
    return d, j - d


def build_augmented_splitting(
    d: np.ndarray, e: np.ndarray, alpha: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Convergence-oriented splitting J = M - N of the decomposed matrix.

    A diagonal matrix of coupling row sums is added to both sides:
    Ebar_ii = sum_j E_ij, M = D + alpha*Ebar, N = alpha*Ebar - E.
    N is formed as M - (D + E) so M - N reproduces J bit-exactly.
    alpha = 1/2 is the value with the convergence guarantee for
    positive definite systems.
    """
    ebar = np.diag(e.sum(axis=1))
    m = d + alpha * ebar
    # form N as (M - D) - E so the augmentation cancels bit-exactly and
    # M - N reproduces D + E on realistically scaled (diagonal-dominated)
    # systems
    n = (m - d) - e
    return m, n


def spectral_radius(m: np.ndarray, n: np.ndarray) -> float:
    """Dense spectral radius of the iteration matrix M^-1 N."""
    vals = np.linalg.eigvals(np.linalg.solve(m, n))
    return float(np.max(np.abs(vals)))


@dataclass
class RowDominance:
    row: int
    diagonal: float
    off_diagonal_sum: float

    @property
    def margin(self) -> float:
        """Positive when the row violates diagonal dominance."""
        return self.off_diagonal_sum - self.diagonal

    @property
    def dominant(self) -> bool:
        return self.margin <= 0.0


@dataclass
class DominanceReport:
    rows: list[RowDominance]

    @property
    def all_dominant(self) -> bool:
        return all(r.dominant for r in self.rows)

    @property
    def violations(self) -> list[RowDominance]:
        return [r for r in self.rows if not r.dominant]


def check_diagonal_dominance(matrix) -> DominanceReport:
    """Row-wise |a_ii| versus the off-diagonal absolute sum."""
    if sp.issparse(matrix):
        matrix = matrix.toarray()
    matrix = np.asarray(matrix)
    rows = []
    for i in range(matrix.shape[0]):
        diag = abs(matrix[i, i])
        off = float(np.abs(matrix[i]).sum() - diag)
        rows.append(RowDominance(row=i, diagonal=float(diag), off_diagonal_sum=off))
    return DominanceReport(rows=rows)


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
    weak_coupling: list[dict] = field(default_factory=list)
    feedback_shunt_trace: list[float] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "converged": self.converged,
            "epochs": self.epochs,
            "boundary_deltas": self.boundary_deltas,
            "inner_iterations": self.inner_iterations,
            "global_residual": self.global_residual,
            "weak_coupling": self.weak_coupling,
            "feedback_shunt_trace": self.feedback_shunt_trace,
            "error": self.error,
        }


@dataclass
class _Boundary:
    """Per-port exchanged quantities."""

    vp: dict[int, complex]
    currents: dict[tuple[int, str], complex]

    def copy(self) -> "_Boundary":
        return _Boundary(dict(self.vp), dict(self.currents))

    def delta(self, other: "_Boundary") -> float:
        """Infinity norm of the boundary change over all real components."""
        worst = 0.0
        for k in self.vp:
            d = self.vp[k] - other.vp[k]
            worst = max(worst, abs(d.real), abs(d.imag))
        for k in self.currents:
            d = self.currents[k] - other.currents[k]
            worst = max(worst, abs(d.real), abs(d.imag))
        return worst


def _positive_sequence_current(currents: dict[str, complex]) -> complex:
    return sum(POS_SEQ_WEIGHT[ph] * currents[ph] for ph in THREE_PHASE) / 3.0


def solve_gsn(
    network: Network,
    options: SolverOptions | None = None,
    gsn: GsnOptions | None = None,
) -> tuple[np.ndarray, GsnReport]:
    """Parallel Gauss-Seidel-Newton solve of a combined network.

    Returns the global state on the combined index map plus an epoch
    report.  Raises GsnError when an inner solve fails (naming the
    subcircuit) or the epoch cap is exceeded.
    """
    options = options or SolverOptions()
    gsn = gsn or GsnOptions()
    inner_opts = replace(options, max_iter=gsn.inner_max_iter)
    report = GsnReport()

    imap = build_index_map(network)
    if not network.ports:
        x, direct_rep = solve_direct(network, options, imap=imap)
        report.converged = True
        report.epochs = 1
        report.boundary_deltas = [0.0]
        report.inner_iterations = [{"transmission": direct_rep.iterations}]
        report.global_residual = direct_rep.final_residual
        return x, report

    partition = tear(network, imap, gsn.max_external_ratio, gsn.strict_weak_coupling)
    report.weak_coupling = partition.weak_coupling_report(gsn.max_external_ratio)
    b_fb = gsn.feedback_shunt
    active = apply_feedback_augmentation(partition, b_fb)

    # initial boundary: transmission-side voltages from the case data, zero currents
    boundary = _Boundary(vp={}, currents={})
    for pv in partition.port_vars:
        bus = partition.network.bus(pv.port.transmission_bus)
        boundary.vp[pv.port.id] = bus.v0[0]
        for ph in THREE_PHASE:
            boundary.currents[(pv.port.id, ph)] = 0.0 + 0.0j

    warm: dict[int, np.ndarray] = {}
    prev_vp = dict(boundary.vp)
    stall = 0
    prev_delta = None
    log_file = open(gsn.epoch_log_path, "w") if gsn.epoch_log_path else None

    def run_sub(sub: SubCircuit, snap: _Boundary):
        try:
            if sub.kind == "transmission":
                injections = {}
                for p in sub.ports:
                    cur = {ph: snap.currents[(p.id, ph)] for ph in THREE_PHASE}
                    injections[p.transmission_bus] = {POSITIVE_SEQUENCE: _positive_sequence_current(cur)}
                x, rep = solve_direct(
                    sub.network, inner_opts, injections=injections,
                    x0=warm.get(sub.index), imap=sub.imap,
                )
            else:
                overrides = {
                    p.feeder_head: tuple(PHASE_ROTATION[ph] * snap.vp[p.id] for ph in THREE_PHASE)
                    for p in sub.ports
                }
                net = sub.network.with_source_voltages(overrides)
                x0 = warm.get(sub.index)
                if x0 is not None:
                    x0 = x0.copy()
                    for p in sub.ports:
                        for ph in THREE_PHASE:
                            vr, vi = sub.imap.v_pair(p.feeder_head, ph)
                            v = PHASE_ROTATION[ph] * snap.vp[p.id]
                            x0[vr], x0[vi] = v.real, v.imag
                x, rep = solve_direct(net, inner_opts, x0=x0, imap=sub.imap)
        except SolveFailure as exc:
            raise GsnError(f"subcircuit {sub.name} failed to converge: {exc}", report) from exc
        return sub.index, x, rep

    gen_modes: dict[int, str] = {}
    gen_q_fixed: dict[int, float] = {}
    try:
        for epoch in range(1, gsn.max_epochs + 1):
            snap = boundary.copy()
            report.feedback_shunt_trace.append(b_fb)
            subs = active.subs
            results = {}
            if gsn.workers > 1 and len(subs) > 1:
                with ThreadPoolExecutor(max_workers=min(gsn.workers, len(subs))) as pool:
                    for idx, x, rep in pool.map(lambda s: run_sub(s, snap), subs):
                        results[idx] = (x, rep)
            else:
                for sub in subs:
                    idx, x, rep = run_sub(sub, snap)
                    results[idx] = (x, rep)

            new = snap.copy()
            iters: dict[str, int] = {}
            for sub in subs:
                x, rep = results[sub.index]
                warm[sub.index] = x
                iters[sub.name] = rep.iterations
                if sub.kind == "transmission":
                    gen_modes, gen_q_fixed = rep.gen_modes, rep.gen_q_fixed
                    for p in sub.ports:
                        new.vp[p.id] = sub.imap.voltage(x, p.transmission_bus, POSITIVE_SEQUENCE)
                else:
                    for p in sub.ports:
                        for ph in THREE_PHASE:
                            ir, ii = sub.imap.source_current[(p.feeder_head, ph)]
                            i_src = complex(x[ir], x[ii])
                            if b_fb:
                                # compensate the stabilizing shunt at the previous
                                # snapshot voltage so the fixed point is untouched
                                v_prev = PHASE_ROTATION[ph] * prev_vp[p.id]
                                i_src -= 1j * b_fb * v_prev
                            new.currents[(p.id, ph)] = i_src

            delta = new.delta(snap)
            report.boundary_deltas.append(delta)
            report.inner_iterations.append(iters)
            report.epochs = epoch
            if gsn.progress:
                line = f"epoch {epoch:3d}  boundary change {delta:.3e}  inner iters {iters}"
                print(line, file=sys.stderr)
            if log_file:
                log_file.write(json.dumps({"epoch": epoch, "boundary_delta": delta, "inner_iters": iters}) + "\n")
                log_file.flush()

            prev_vp = dict(snap.vp)
            boundary = new
            if delta <= gsn.outer_tol:
                report.converged = True
                break

            if prev_delta is not None and delta >= prev_delta:
                stall += 1
            else:
                stall = 0
            prev_delta = delta
            if b_fb:
                b_fb *= gsn.feedback_decay
                active = apply_feedback_augmentation(partition, b_fb)
            elif gsn.auto_stabilize and stall >= gsn.stall_epochs:
                b_fb = gsn.auto_feedback_shunt
                active = apply_feedback_augmentation(partition, b_fb)
                log.warning("outer loop stalled %d epochs; engaging feedback shunt %.1f pu", stall, b_fb)
    finally:
        if log_file:
            log_file.close()

    if not report.converged:
        report.error = f"boundary exchange did not converge in {gsn.max_epochs} epochs"
        raise GsnError(report.error, report)

    # scatter sub states into the global combined vector
    x_global = np.zeros(imap.n)
    for sub in partition.subs:
        x_sub = warm[sub.index]
        if sub.kind == "feeder" and b_fb:
            x_sub = x_sub.copy()
            for p in sub.ports:
                for ph in THREE_PHASE:
                    ir, ii = sub.imap.source_current[(p.feeder_head, ph)]
                    v_now = sub.imap.voltage(x_sub, p.feeder_head, ph)
                    true_draw = complex(x_sub[ir], x_sub[ii]) - 1j * b_fb * v_now
                    x_sub[ir], x_sub[ii] = true_draw.real, true_draw.imag
        x_global[sub.local_to_global] = x_sub

    lin, nonlin = stamp_system(network, imap, x_global, gen_modes=gen_modes, gen_q_fixed=gen_q_fixed)
    system = assemble([lin, nonlin], imap.n)
    report.global_residual = float(np.abs(system.matrix @ x_global - system.rhs).max(initial=0.0))
    return x_global, report
