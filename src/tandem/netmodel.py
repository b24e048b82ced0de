"""Domain types for combined transmission and distribution networks.

A network is a typed graph of buses and series elements plus attached
devices (loads, shunts, generators, DER injections) and the coupling
ports that bind a positive-sequence transmission bus to a three-phase
feeder head.  Everything is per-unit on one common system base.

All types are immutable after construction and safe to share across
threads.  Numerics live elsewhere; this module only knows how to index
unknowns and check structural invariants.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Iterable

import numpy as np

# Rotation operator for the a/b/c phase set: 1 at +120 degrees.
ALPHA = cmath.exp(2j * cmath.pi / 3)

# Positive-sequence voltage mirrored onto the three phases: a in phase,
# b lagging 120 degrees, c leading 120 degrees.
PHASE_ROTATION = {"a": 1.0 + 0.0j, "b": ALPHA**2, "c": ALPHA}

# Phase weights of the inverse symmetrical-component transform row that
# extracts the positive sequence: I_p = (1/3) (I_a + a I_b + a^2 I_c).
POS_SEQ_WEIGHT = {"a": 1.0 + 0.0j, "b": ALPHA, "c": ALPHA**2}

POSITIVE_SEQUENCE = "p"
THREE_PHASE = "abc"

# column of each phase in IndexMap.slots
PHASE_CODE = {POSITIVE_SEQUENCE: 0, "a": 1, "b": 2, "c": 3}


class NetworkError(ValueError):
    """Structurally unusable network (duplicate ids, dangling refs...)."""


class BusKind(Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"
    FEEDER_HEAD = "feeder_head"
    LOAD_NODE = "load_node"
    INTERNAL_NODE = "internal_node"

    @property
    def is_transmission(self) -> bool:
        return self in _TRANSMISSION_KINDS

    @property
    def is_distribution(self) -> bool:
        return not self.is_transmission


_TRANSMISSION_KINDS = (BusKind.SLACK, BusKind.PV, BusKind.PQ)
_SOURCE_KINDS = (BusKind.SLACK, BusKind.FEEDER_HEAD)
DEVICES = ("buses", "elements", "loads", "shunts", "generators", "ders")  # a network's device tuples, ports aside


class ElementKind(Enum):
    LINE = "line"
    TRANSFORMER = "transformer"


class Connection(Enum):
    WYE = "wye"
    DELTA = "delta"


# 'p' and every ordered, non-empty subset of 'abc'
_PHASE_SETS = frozenset({POSITIVE_SEQUENCE, "a", "b", "c", "ab", "ac", "bc", THREE_PHASE})


def _check_phases(phases: str) -> str:
    if isinstance(phases, str) and phases in _PHASE_SETS:
        return phases
    raise NetworkError(f"bad phase set {phases!r}: expected 'p' or an ordered subset of 'abc'")


@dataclass(frozen=True)
class Bus:
    """One network node; positive-sequence ('p') or a subset of phases a/b/c."""

    id: int
    kind: BusKind
    phases: str
    base_kv: float
    v0: tuple[complex, ...]  # initial per-phase voltage, pu

    def __post_init__(self):
        _check_phases(self.phases)
        if len(self.v0) != len(self.phases):
            raise NetworkError(f"bus {self.id}: {len(self.v0)} initial voltages for phases {self.phases!r}")
        if self.base_kv <= 0:
            raise NetworkError(f"bus {self.id}: base_kv must be positive")


def flat_voltages(phases: str) -> tuple[complex, ...]:
    """Flat-start voltages: 1+0j positive sequence, the 0/-120/+120 set three-phase."""
    if phases == POSITIVE_SEQUENCE:
        return (1.0 + 0.0j,)
    return tuple(PHASE_ROTATION[p] for p in phases)


@dataclass(frozen=True)
class SeriesElement:
    """A line or transformer between two buses.

    ``y_series`` is the per-unit series admittance: a 1x1 block for
    positive-sequence elements, a kxk complex block over ``phases`` for
    three-phase elements.  ``b_charge`` is the total line-charging
    susceptance (split half per terminal, positive-sequence only).
    Transformer taps are on the from side; ``shift`` is in radians.
    """

    id: int
    from_bus: int
    to_bus: int
    kind: ElementKind
    phases: str
    y_series: np.ndarray
    b_charge: float = 0.0
    tap: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        _check_phases(self.phases)
        y = np.asarray(self.y_series, dtype=complex)
        k = len(self.phases)
        if y.shape != (k, k):
            raise NetworkError(f"element {self.id}: admittance block shape {y.shape} != ({k},{k})")
        y.setflags(write=False)
        object.__setattr__(self, "y_series", y)
        if self.tap <= 0:
            raise NetworkError(f"element {self.id}: tap ratio must be positive")


@dataclass(frozen=True)
class Load:
    """ZIP load: constant-power / constant-current / constant-impedance shares.

    ``s`` is the per-phase complex power demand at nominal voltage.  For
    delta connections the entries are per-leg demands in leg order
    ab, bc, ca and the bus must carry all three phases.
    """

    bus: int
    phases: str
    s: tuple[complex, ...]
    connection: Connection = Connection.WYE
    zip_fractions: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        _check_phases(self.phases)
        if len(self.s) != len(self.phases):
            raise NetworkError(f"load at bus {self.bus}: {len(self.s)} powers for phases {self.phases!r}")


@dataclass(frozen=True)
class Shunt:
    """Fixed shunt admittance per phase (bus shunts, feeder capacitors)."""

    bus: int
    phases: str
    y: tuple[complex, ...]

    def __post_init__(self):
        _check_phases(self.phases)
        if len(self.y) != len(self.phases):
            raise NetworkError(f"shunt at bus {self.bus}: {len(self.y)} admittances for phases {self.phases!r}")


@dataclass(frozen=True)
class DerInjection:
    """Distributed resource modeled as a negative PQ demand; ``s`` is the injected power."""

    bus: int
    phases: str
    s: tuple[complex, ...]
    group: str = ""

    def __post_init__(self):
        _check_phases(self.phases)
        if len(self.s) != len(self.phases):
            raise NetworkError(f"DER at bus {self.bus}: {len(self.s)} powers for phases {self.phases!r}")


@dataclass(frozen=True)
class Generator:
    """PV-bus machine: fixed real power and voltage magnitude, bounded reactive power."""

    bus: int
    p_set: float
    v_set: float
    q_min: float
    q_max: float
    status: bool = True


@dataclass(frozen=True)
class CouplingPort:
    """Binds one transmission bus (positive-sequence pair) to one feeder head.

    The port holds six controlled voltage sources driving the head
    phase voltages from the transmission pair, and injects the
    positive-sequence component of the measured head currents back into
    the transmission bus.  Six auxiliary current unknowns (one R/I pair
    per phase) belong to the port.
    """

    id: int
    transmission_bus: int
    feeder_head: int


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class Tile:
    """A run of a network's devices: ``template``'s, bus and element ids shifted by the offsets."""

    template: "Network"
    bus_offset: int = 0
    element_offset: int = 0

    def shifted(self, name: str, devices) -> list:
        """``devices`` (some of the template's tuple ``name``) as this tile holds them: at an offset, copies
        with ids and bus references shifted, made without the constructor, which checked the originals."""
        if not (self.bus_offset or self.element_offset):
            return list(devices)
        off = self.bus_offset
        shifts = {"buses": {"id": off}, "elements": {"id": self.element_offset, "from_bus": off, "to_bus": off}}
        shifts = shifts.get(name, {"bus": off})
        out = [object.__new__(type(d)) for d in devices]
        for c, d in zip(out, devices):
            vars(c).update(vars(d), **{k: v + getattr(d, k) for k, v in shifts.items()})
        return out


@dataclass(frozen=True)
class Network:
    """Immutable combined network on one MVA base.

    ``tiles()`` are the templates its devices copy.  ``Network.tiled`` records them as an
    attribute, not a field, and builds each device tuple from them the first time it is read:
    ``dataclasses.replace`` reads every tuple, so a variant holds its devices and drops the
    record, and a network without it is its own one tile.
    """

    base_mva: float
    buses: tuple[Bus, ...]
    # no class-level default, which would hide __getattr__ from a tiled network's unbuilt tuples
    elements: tuple[SeriesElement, ...] = field(default_factory=tuple)
    loads: tuple[Load, ...] = field(default_factory=tuple)
    shunts: tuple[Shunt, ...] = field(default_factory=tuple)
    generators: tuple[Generator, ...] = field(default_factory=tuple)
    ders: tuple[DerInjection, ...] = field(default_factory=tuple)
    ports: tuple[CouplingPort, ...] = ()
    labels: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in (*DEVICES, "ports"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @classmethod
    def tiled(cls, tiles: Iterable[Tile], **fields) -> "Network":
        """A network with the non-device ``fields`` whose device tuples, built when first read, join the
        ``tiles``' devices (``Tile.shifted``).  ``tiles`` is not empty, only the first may hold transmission
        buses, bus ids increase from tile to tile, and a template's devices name only its own buses."""
        net = cls(buses=(), **fields)
        for name in DEVICES:
            del vars(net)[name]
        object.__setattr__(net, "_tiles", tuple(tiles))
        return net

    def __getattr__(self, name: str):
        """A tiled network's device tuple ``name``, built from its tiles at the first read and kept."""
        tiles = vars(self).get("_tiles")
        if tiles is None or name not in DEVICES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        devices = tuple(d for tile in tiles for d in tile.shifted(name, getattr(tile.template, name)))
        object.__setattr__(self, name, devices)
        return devices

    def tiles(self) -> tuple[Tile, ...]:
        return vars(self).get("_tiles") or (Tile(self),)

    def per_tile(self, fn: Callable[["Network"], object]) -> list[tuple[Tile, object]]:
        """(tile, fn(tile.template)) per tile, ``fn`` evaluated once per distinct template."""
        tiles = self.tiles()
        done = {id(tile.template): tile.template for tile in tiles}
        done = {key: fn(template) for key, template in done.items()}
        return [(tile, done[id(tile.template)]) for tile in tiles]

    def bus(self, bus_id: int) -> Bus:
        try:
            return self._bus_by_id[bus_id]
        except AttributeError:
            object.__setattr__(self, "_bus_by_id", {b.id: b for b in self.buses})
            return self._bus_by_id[bus_id]

    def label(self, bus_id: int) -> str:
        return self.labels.get(bus_id, str(bus_id))

    def transmission_buses(self) -> list[Bus]:
        return [b for b in self.buses if b.kind.is_transmission]

    def distribution_buses(self) -> list[Bus]:
        return [b for b in self.buses if b.kind.is_distribution]

    def ported_heads(self) -> set[int]:
        return {p.feeder_head for p in self.ports}

    def source_buses(self) -> list[Bus]:
        """Buses driven by an ideal voltage source at their v0, read per tile.

        Slack buses always; feeder heads only when no port drives them
        (a standalone feeder is solvable with its head held at v0,
        which is exactly how the torn subproblems are built).
        """
        ported = self.ported_heads()
        out = []
        for tile, sources in self.per_tile(lambda t: [b for b in t.buses if b.kind in _SOURCE_KINDS]):
            out += tile.shifted("buses", [b for b in sources if b.kind is BusKind.SLACK
                                          or b.id + tile.bus_offset not in ported])
        return out

    # -- derived immutable copies -------------------------------------

    def with_loading_factor(self, lf: float) -> "Network":
        """Scale every load's P and Q and every generator's P setpoint by ``lf``."""
        loads = tuple(replace(ld, s=tuple(lf * s for s in ld.s)) for ld in self.loads)
        gens = tuple(replace(g, p_set=lf * g.p_set) for g in self.generators)
        return replace(self, loads=loads, generators=gens)

    def with_der_scale(self, scale: float, group: str | None = None) -> "Network":
        """Scale DER injections, optionally only those in ``group``."""
        ders = tuple(
            replace(d, s=tuple(scale * s for s in d.s)) if group is None or d.group == group else d
            for d in self.ders
        )
        return replace(self, ders=ders)

    def without_elements(self, element_ids: Iterable[int]) -> "Network":
        drop = set(element_ids)
        return replace(self, elements=tuple(e for e in self.elements if e.id not in drop))

    def without_generators(self, bus_ids: Iterable[int]) -> "Network":
        drop = set(bus_ids)
        return replace(self, generators=tuple(g for g in self.generators if g.bus not in drop))

    def with_source_voltages(self, voltages: dict[int, tuple[complex, ...]]) -> "Network":
        """Replace v0 on the given buses (drives source buses in torn subproblems)."""
        buses = tuple(replace(b, v0=tuple(voltages[b.id])) if b.id in voltages else b for b in self.buses)
        return replace(self, buses=buses)


# ----------------------------------------------------------------------
# Unknown ordering
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IndexMap:
    """Bijection from network quantities to positions in the real unknown vector.

    Ordering is deterministic given the network: transmission bus
    voltages (sorted by bus id, R before I per phase), then slack
    source currents, then PV reactive unknowns, then each feeder
    block's voltages (and head-source currents for un-ported heads),
    then the port source currents last.  Transmission variables always
    precede distribution variables so the coupling structure is
    bordered block diagonal with the transmission block first.  Phase
    k of a bus sits at V_R = first + 2k, V_I = V_R + 1; ``slots``, the
    only record of the nodal unknowns, holds V_R by sorted ``bus_ids``
    row and ``PHASE_CODE`` column (-1: absent).
    """

    n: int
    bus_ids: np.ndarray
    slots: np.ndarray
    source_current: dict[tuple[int, str], tuple[int, int]]  # (bus, phase) -> (iR, iI)
    gen_q: dict[int, int]  # bus -> Q index
    port_current: dict[tuple[int, str], tuple[int, int]]  # (port id, phase) -> (iR, iI)
    blocks: tuple[tuple[str, int, int], ...]  # (name, start, stop) in order
    feeder_of_bus: dict[int, int]  # distribution bus -> feeder block ordinal

    def __eq__(self, other) -> bool:
        """Field by field, the arrays by dtype, shape and value."""
        if not isinstance(other, IndexMap):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all((a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b) if isinstance(a, np.ndarray)
                   else a == b for a, b in pairs)

    def v_pair(self, bus_id: int, phase: str) -> tuple[int, int]:
        vr = int(self.v_index(bus_id, PHASE_CODE[phase]))
        return vr, vr + 1

    def v_index(self, buses, phases) -> np.ndarray:
        """V_R index of each (bus id, phase code) pair, broadcast over arrays; V_I is one more.

        Raises KeyError naming the first pair the map does not hold.
        """
        buses = np.asarray(buses, dtype=np.int64)
        if len(self.bus_ids):
            rows = np.minimum(np.searchsorted(self.bus_ids, buses), len(self.bus_ids) - 1)
            vr = self.slots[rows, phases]
            missing = (self.bus_ids[rows] != buses) | (vr < 0)
        else:  # no row to search: the map holds no pair
            vr = np.full(np.broadcast(buses, phases).shape, -1, dtype=np.int64)
            missing = vr < 0
        if missing.any():
            bus, phase = (np.broadcast_to(a, missing.shape)[missing][0] for a in (buses, phases))
            raise KeyError((int(bus), "pabc"[phase]))
        return vr

    def voltage(self, x: np.ndarray, bus_id: int, phase: str) -> complex:
        vr, vi = self.v_pair(bus_id, phase)
        return complex(x[vr], x[vi])

    def block(self, name: str) -> tuple[int, int]:
        for bname, start, stop in self.blocks:
            if bname == name:
                return start, stop
        raise KeyError(name)


def _components(ids, edges) -> list[list[int]]:
    """Connected components of the graph on ``ids`` over the (a, b) ``edges`` between them,
    others ignored; components are ordered by their smallest id and sorted."""
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(sorted(comp))
    return comps


def _feeder_components(network: Network) -> list[list[Bus]]:
    """Connected components of the distribution side, each a feeder block.

    Components are ordered by their smallest bus id; buses inside a
    component are sorted by id.
    """
    dist = {b.id: b for b in network.distribution_buses()}
    edges = ((el.from_bus, el.to_bus) for el in network.elements)
    return [[dist[i] for i in comp] for comp in _components(dist, edges)]


def _structural_violations(network: Network) -> list[Violation]:
    """Duplicate bus ids (reported alone: nothing else can be checked
    against an ambiguous id), else every element endpoint naming no bus."""
    ids = [b.id for b in network.buses]
    if len(ids) != len(set(ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        return [Violation("dup-bus", f"duplicate bus ids {dupes}")]
    known = set(ids)
    return [
        Violation("dangling", f"element {el.id} references missing bus ({el.from_bus}, {el.to_bus})")
        for el in network.elements
        if el.from_bus not in known or el.to_bus not in known
    ]


def _run(buses) -> tuple[np.ndarray, np.ndarray]:
    """(bus id, phase code) of every phase of ``buses`` in order, as two arrays."""
    codes = [PHASE_CODE[ph] for b in buses for ph in b.phases]
    return np.array([b.id for b in buses for _ in b.phases], dtype=np.int64), np.array(codes, dtype=np.int64)


def _layout(t: Network):
    """A template's index-map layout in its own bus ids: ``_run`` of its transmission buses and
    of their slack buses, its PV generators' buses, per feeder component its run and heads, and
    its bus ids sorted."""
    trans = sorted(t.transmission_buses(), key=lambda b: b.id)
    gens = [g.bus for g in sorted(t.generators, key=lambda g: g.bus) if g.status and t.bus(g.bus).kind is BusKind.PV]
    comps = [(_run(comp), [b for b in comp if b.kind is BusKind.FEEDER_HEAD]) for comp in _feeder_components(t)]
    ids = np.array(sorted(b.id for b in t.buses), dtype=np.int64)
    return _run(trans), _run([b for b in trans if b.kind is BusKind.SLACK]), gens, comps, ids


def build_index_map(network: Network) -> IndexMap:
    """Assign every nodal voltage and auxiliary variable a unique index.

    Raises NetworkError on the first structural violation: a duplicate
    bus id or a dangling element endpoint, named as in the network.
    """
    checked = network.per_tile(_structural_violations)
    if any(found for _, found in checked):
        raise NetworkError(_structural_violations(network)[0].message)
    return tiled_index_map(network)


def tiled_index_map(network: Network) -> IndexMap:
    """``build_index_map`` without its structural check, for a part of a checked network: each
    distinct template laid out once, the layout tiled over its copies (a head no port drives
    brings its source currents into its feeder block) and the slot table written once."""
    ported = network.ported_heads()
    source_current: dict[tuple[int, str], tuple[int, int]] = {}
    gen_q: dict[int, int] = {}
    port_current: dict[tuple[int, str], tuple[int, int]] = {}
    blocks: list[tuple[str, int, int]] = []
    feeder_of_bus: dict[int, int] = {}
    nodal: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (V_R, bus id, phase code) per run
    pos = 0

    def put(run, offset: int, sources: bool = False) -> None:
        nonlocal pos
        ids, codes = run[0] + offset, run[1]
        at = np.arange(pos, pos + 2 * len(codes), 2)
        if sources:
            keys = zip(ids.tolist(), map("pabc".__getitem__, codes.tolist()))
            source_current.update(zip(keys, zip(at.tolist(), (at + 1).tolist())))
        else:
            nodal.append((at, ids, codes))
        pos += 2 * len(codes)

    laid = network.per_tile(_layout)
    # transmission block, all in the first tile: nodal voltages, slack currents, PV reactive unknowns
    first, (trans, slack, gens, _, _) = laid[0]
    put(trans, first.bus_offset)
    put(slack, first.bus_offset, sources=True)
    for bus in gens:
        gen_q[bus + first.bus_offset] = pos
        pos += 1
    blocks.append(("transmission", 0, pos))

    # one block per feeder component
    for tile, (*_, comps, _) in laid:
        for run, heads in comps:
            f_start, fi = pos, len(blocks) - 1
            put(run, tile.bus_offset)
            feeder_of_bus.update(dict.fromkeys((run[0] + tile.bus_offset).tolist(), fi))
            put(_run([h for h in heads if h.id + tile.bus_offset not in ported]), tile.bus_offset, sources=True)
            blocks.append((f"feeder:{fi}", f_start, pos))

    # port source currents form the trailing border block
    p_start = pos
    for port in sorted(network.ports, key=lambda p: p.id):
        for ph in THREE_PHASE:
            port_current[(port.id, ph)] = (pos, pos + 1)
            pos += 2
    blocks.append(("ports", p_start, pos))

    vr, bus, code = (np.concatenate(run) for run in zip(*nodal))
    bus_ids = np.concatenate([ids + tile.bus_offset for tile, (*_, ids) in laid])
    slots = np.full((len(bus_ids), len(PHASE_CODE)), -1, dtype=np.int64)
    slots[np.searchsorted(bus_ids, bus), code] = vr

    return IndexMap(
        n=pos,
        bus_ids=bus_ids,
        slots=slots,
        source_current=source_current,
        gen_q=gen_q,
        port_current=port_current,
        blocks=tuple(blocks),
        feeder_of_bus=feeder_of_bus,
    )


def initial_state(network: Network, imap: IndexMap, flat: bool = False) -> np.ndarray:
    """Initial unknown vector: bus v0 (or flat start), zero auxiliary variables; read per tile."""
    def start(t: Network):
        v = [v for b in t.buses for v in (flat_voltages(b.phases) if flat else b.v0)]
        return np.array(v, dtype=complex), _run(t.buses)

    parts = network.per_tile(start)
    v = np.concatenate([v for _, (v, _) in parts])
    vr = imap.v_index(np.concatenate([ids + tile.bus_offset for tile, (_, (ids, _)) in parts]),
                      np.concatenate([codes for _, (_, (_, codes)) in parts]))
    x = np.zeros(imap.n)
    x[vr], x[vr + 1] = v.real, v.imag
    return x


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def _template_violations(network: Network):
    """One template's violations before the port checks and after them (ports and connectivity
    aside), its buses by id, and the ordinal of each bus's component over its elements."""
    out = _structural_violations(network)
    if out and out[0].code == "dup-bus":
        return out, [], {}, {}
    by_id = {b.id: b for b in network.buses}

    for b in network.buses:
        if b.kind.is_transmission and b.phases != POSITIVE_SEQUENCE:
            out.append(Violation("phase-style", f"transmission bus {b.id} must be positive-sequence"))
        elif b.kind.is_distribution and b.phases == POSITIVE_SEQUENCE:
            out.append(Violation("phase-style", f"distribution bus {b.id} must carry phases from abc"))

    if network.transmission_buses() and not any(b.kind is BusKind.SLACK for b in network.buses):
        out.append(Violation("no-slack", "transmission network has no slack bus"))

    # admittance checks once per phase set: a phase block is asymmetric unless every entry
    # is within 1e-12 of its transpose (NaN never is)
    groups: dict[str, list[int]] = {}
    for k, el in enumerate(network.elements):
        groups.setdefault(el.phases, []).append(k)
    asym, zero_self = np.zeros((2, len(network.elements)), dtype=bool)
    for phases, ks in groups.items():
        y = np.stack([network.elements[k].y_series for k in ks])
        if phases != POSITIVE_SEQUENCE:
            asym[ks] = ~np.isclose(y, y.transpose(0, 2, 1), rtol=0, atol=1e-12).all(axis=(1, 2))
        zero_self[ks] = (np.abs(np.diagonal(y, axis1=1, axis2=2)) <= 0).any(axis=1)
    for k, el in enumerate(network.elements):
        fb, tb = by_id.get(el.from_bus), by_id.get(el.to_bus)
        if fb is None or tb is None:  # reported by _structural_violations
            continue
        for end in (fb, tb):
            if el.phases == POSITIVE_SEQUENCE:
                if end.phases != POSITIVE_SEQUENCE:
                    out.append(Violation("phase-mismatch", f"element {el.id} vs bus {end.id}"))
            elif not set(el.phases) <= set(end.phases):
                out.append(Violation("phase-mismatch", f"element {el.id} phases {el.phases} not at bus {end.id}"))
        if asym[k]:
            out.append(Violation("asym-block", f"element {el.id} admittance block not symmetric"))
        if zero_self[k]:
            out.append(Violation("zero-self", f"element {el.id} has a zero self-admittance phase"))

    for ld in network.loads:
        b = by_id.get(ld.bus)
        if b is None:
            out.append(Violation("dangling", f"load references missing bus {ld.bus}"))
            continue
        fp, fi_, fz = ld.zip_fractions
        if not all(0.0 <= f <= 1.0 for f in (fp, fi_, fz)) or abs(fp + fi_ + fz - 1.0) > 1e-12:
            out.append(Violation("zip", f"load at bus {ld.bus} ZIP fractions {ld.zip_fractions}"))
        if ld.connection is Connection.DELTA and set(b.phases) != set(THREE_PHASE):
            out.append(Violation("delta-phases", f"delta load at bus {ld.bus} needs all three phases"))
        if ld.connection is Connection.WYE and ld.phases != POSITIVE_SEQUENCE:
            if not set(ld.phases) <= set(b.phases):
                out.append(Violation("phase-mismatch", f"load phases {ld.phases} not at bus {ld.bus}"))

    for sh in network.shunts:
        if sh.bus not in by_id:
            out.append(Violation("dangling", f"shunt references missing bus {sh.bus}"))
        elif by_id[sh.bus].phases != POSITIVE_SEQUENCE and not set(sh.phases) <= set(by_id[sh.bus].phases):
            out.append(Violation("phase-mismatch", f"shunt phases {sh.phases} not at bus {sh.bus}"))

    for d in network.ders:
        if d.bus not in by_id:
            out.append(Violation("dangling", f"DER references missing bus {d.bus}"))

    for g in network.generators:
        if g.bus not in by_id:
            out.append(Violation("dangling", f"generator references missing bus {g.bus}"))
            continue
        if g.q_min > g.q_max:
            out.append(Violation("q-limits", f"generator at bus {g.bus} has q_min > q_max"))
        if g.v_set <= 0:
            out.append(Violation("v-set", f"generator at bus {g.bus} has non-positive v_set"))

    # every feeder component needs exactly one head
    after = []
    for comp in _feeder_components(network):
        heads = [b.id for b in comp if b.kind is BusKind.FEEDER_HEAD]
        if len(heads) == 0:
            after.append(Violation("no-head", f"feeder component {{{comp[0].id}...}} has no feeder head"))
        elif len(heads) > 1:
            after.append(Violation("multi-head", f"feeder component has {len(heads)} heads {heads}"))
    comps = _components(by_id, ((el.from_bus, el.to_bus) for el in network.elements))
    return out, after, by_id, {bus: c for c, comp in enumerate(comps) for bus in comp}


def validate(network: Network) -> list[Violation]:
    """Collect every invariant violation; an empty list means a well-formed network.

    Each distinct template is checked once; the ports and the connectivity
    through them, over the components of each tile, on the network.  A
    template of several tiles with a violation sends the network to be
    checked as its own one tile, which names each copy's ids.
    """
    checked = network.per_tile(_template_violations)
    if len(checked) > 1 and any(found or after for _, (found, after, _, _) in checked):
        return validate(replace(network))
    out = [v for _, (found, _, _, _) in checked for v in found]
    if out and out[0].code == "dup-bus":
        return out
    lows = [tile.bus_offset + min(by_id, default=0) for tile, (_, _, by_id, _) in checked]
    first = np.cumsum([0] + [len(set(comp_of.values())) for _, (*_, comp_of) in checked]).tolist()

    def locate(bus_id: int) -> tuple[Bus | None, int | None]:
        """(the template's bus, its component's node) of ``bus_id``; None, None for no bus."""
        k = max(bisect.bisect_right(lows, bus_id) - 1, 0)
        tile, (_, _, by_id, comp_of) = checked[k]
        local = bus_id - tile.bus_offset
        return (by_id[local], first[k] + comp_of[local]) if local in by_id else (None, None)

    seen_port_bus: set[int] = set()
    for p in network.ports:
        (tb, _), (hb, _) = locate(p.transmission_bus), locate(p.feeder_head)
        if tb is None or hb is None:
            out.append(Violation("dangling", f"port {p.id} endpoint missing"))
            continue
        if not tb.kind.is_transmission:
            out.append(Violation("port-side", f"port {p.id} transmission end {p.transmission_bus} is not a transmission bus"))
        if hb.kind is not BusKind.FEEDER_HEAD:
            out.append(Violation("port-side", f"port {p.id} feeder end {p.feeder_head} is not a feeder head"))
        elif set(hb.phases) != set(THREE_PHASE):
            out.append(Violation("port-phases", f"port {p.id} head {p.feeder_head} must carry phases abc"))
        for end in (p.transmission_bus, p.feeder_head):
            if end in seen_port_bus:
                out.append(Violation("port-reuse", f"bus {end} participates in two ports"))
            seen_port_bus.add(end)
    out += [v for _, (_, after, _, _) in checked for v in after]
    edges = [(locate(p.transmission_bus)[1], locate(p.feeder_head)[1]) for p in network.ports]
    groups = _components(range(first[-1]), edges)
    if len(groups) > 1:
        start = network.buses[0].id
        reached = set(next(g for g in groups if locate(start)[1] in g))
        missing = sorted(bus + tile.bus_offset for k, (tile, (*_, comp_of)) in enumerate(checked)
                         for bus, c in comp_of.items() if first[k] + c not in reached)[:8]
        out.append(Violation("disconnected", f"buses unreachable from bus {start}: {missing}"))
    return out
