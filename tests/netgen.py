"""Deterministic network construction for oracle-based checks: random networks, the
copy-by-copy reference of ``build_combined``, and a field-by-field,
type-by-type comparison of two networks."""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np

from tandem.ingest import (
    CouplingEntry,
    CouplingMap,
    _id_stride,
    build_combined,
    feeder_network,
    parse_feeder_doc,
    parse_transmission,
)

from tandem.netmodel import (
    POSITIVE_SEQUENCE,
    Bus,
    BusKind,
    Connection,
    CouplingPort,
    DerInjection,
    ElementKind,
    Generator,
    Load,
    Network,
    SeriesElement,
    Shunt,
    flat_voltages,
    validate,
)


def _zip_fractions(rng) -> tuple[float, float, float]:
    w = rng.dirichlet([3.0, 1.0, 1.0])
    return (round(w[0], 6), round(w[1], 6), round(1.0 - round(w[0], 6) - round(w[1], 6), 6))


def _random_phase_subset(rng, parent: str) -> str:
    k = rng.integers(1, len(parent) + 1)
    return "".join(sorted(rng.choice(list(parent), size=k, replace=False)))


def random_transmission(rng, n_bus: int, id_offset: int = 0) -> Network:
    """Random connected positive-sequence network with one slack."""
    buses = []
    elements = []
    loads = []
    shunts = []
    gens = []
    for i in range(n_bus):
        bid = id_offset + i + 1
        if i == 0:
            kind = BusKind.SLACK
            v0 = (complex(1.0 + 0.04 * rng.random(), 0.0),)
        elif rng.random() < 0.25:
            kind = BusKind.PV
            v0 = (1.0 + 0.0j,)
        else:
            kind = BusKind.PQ
            v0 = (1.0 + 0.0j,)
        buses.append(Bus(bid, kind, POSITIVE_SEQUENCE, 138.0, v0))
    eid = 0
    for i in range(1, n_bus):
        j = int(rng.integers(0, i))
        y = 1.0 / complex(rng.uniform(0.005, 0.04), rng.uniform(0.04, 0.25))
        elements.append(
            SeriesElement(
                eid, buses[j].id, buses[i].id,
                ElementKind.TRANSFORMER if rng.random() < 0.25 else ElementKind.LINE,
                POSITIVE_SEQUENCE, np.array([[y]]),
                b_charge=float(rng.uniform(0.0, 0.1)),
                tap=float(rng.uniform(0.95, 1.05)) if rng.random() < 0.3 else 1.0,
                shift=float(rng.uniform(-0.05, 0.05)) if rng.random() < 0.2 else 0.0,
            )
        )
        eid += 1
    if n_bus > 3 and rng.random() < 0.7:
        a, b = rng.choice(n_bus, size=2, replace=False)
        y = 1.0 / complex(rng.uniform(0.005, 0.04), rng.uniform(0.04, 0.25))
        elements.append(
            SeriesElement(eid, buses[int(a)].id, buses[int(b)].id, ElementKind.LINE,
                          POSITIVE_SEQUENCE, np.array([[y]]))
        )
    for b in buses:
        if b.kind is BusKind.PV:
            gens.append(Generator(bus=b.id, p_set=float(rng.uniform(0.05, 0.5)),
                                  v_set=float(rng.uniform(0.98, 1.04)),
                                  q_min=-3.0, q_max=3.0))
        if b.kind is BusKind.PQ and rng.random() < 0.8:
            s = complex(rng.uniform(0.05, 0.5), rng.uniform(-0.1, 0.25))
            loads.append(Load(b.id, POSITIVE_SEQUENCE, (s,), zip_fractions=_zip_fractions(rng)))
        if rng.random() < 0.2:
            shunts.append(Shunt(b.id, POSITIVE_SEQUENCE, (complex(0, rng.uniform(-0.2, 0.3)),)))
    return Network(base_mva=100.0, buses=buses, elements=elements, loads=loads,
                   shunts=shunts, generators=gens)


def random_feeder(rng, n_node: int, id_offset: int = 1000) -> Network:
    """Random radial three-phase feeder with mixed phase sets and ZIP loads."""
    buses = [Bus(id_offset + 1, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc"))]
    phases_of = {id_offset + 1: "abc"}
    elements = []
    loads = []
    shunts = []
    ders = []
    eid = 500
    for i in range(1, n_node):
        bid = id_offset + i + 1
        parent = buses[int(rng.integers(0, len(buses)))]
        ph = _random_phase_subset(rng, parent.phases) if rng.random() < 0.4 else parent.phases
        buses.append(Bus(bid, BusKind.LOAD_NODE, ph, 12.47, flat_voltages(ph)))
        phases_of[bid] = ph
        k = len(ph)
        mut = complex(rng.uniform(0.02, 0.1), rng.uniform(0.05, 0.2)) if k > 1 else 0.0
        z = np.full((k, k), mut, dtype=complex)
        np.fill_diagonal(z, complex(rng.uniform(0.1, 0.5), rng.uniform(0.2, 0.9)))
        elements.append(
            SeriesElement(eid, parent.id, bid, ElementKind.LINE, ph, np.linalg.inv(z))
        )
        eid += 1
    for b in buses[1:]:
        r = rng.random()
        k = len(b.phases)
        if r < 0.55:
            s = tuple(
                complex(rng.uniform(0.005, 0.03), rng.uniform(0.0, 0.012)) for _ in range(k)
            )
            loads.append(Load(b.id, b.phases, s, Connection.WYE, _zip_fractions(rng)))
        elif r < 0.75 and b.phases == "abc":
            s = tuple(
                complex(rng.uniform(0.005, 0.03), rng.uniform(0.0, 0.012)) for _ in range(3)
            )
            loads.append(Load(b.id, "abc", s, Connection.DELTA, _zip_fractions(rng)))
        if rng.random() < 0.2:
            shunts.append(Shunt(b.id, b.phases, tuple(1j * rng.uniform(0.001, 0.01) for _ in range(k))))
        if rng.random() < 0.2:
            ders.append(
                DerInjection(b.id, b.phases,
                             tuple(complex(rng.uniform(0.002, 0.01), 0) for _ in range(k)),
                             group="pv")
            )
    return Network(base_mva=100.0, buses=buses, elements=elements, loads=loads,
                   shunts=shunts, ders=ders)


def random_combined(rng, max_nodes: int = 20) -> Network:
    """Random network: transmission only, feeder only, or coupled, <= max_nodes."""
    style = rng.choice(["transmission", "feeder", "combined"])
    if style == "transmission":
        net = random_transmission(rng, int(rng.integers(2, 9)))
    elif style == "feeder":
        net = random_feeder(rng, int(rng.integers(2, 9)))
    else:
        n_t = int(rng.integers(2, 7))
        tnet = random_transmission(rng, n_t)
        n_f = int(rng.integers(2, min(8, max_nodes - n_t)))
        fnet = random_feeder(rng, n_f)
        pq = [b for b in tnet.buses if b.kind is BusKind.PQ]
        if not pq:
            return random_combined(rng, max_nodes)
        head = next(b.id for b in fnet.buses if b.kind is BusKind.FEEDER_HEAD)
        net = Network(
            base_mva=100.0,
            buses=tnet.buses + fnet.buses,
            elements=tnet.elements + fnet.elements,
            loads=tnet.loads + fnet.loads,
            shunts=tnet.shunts + fnet.shunts,
            generators=tnet.generators,
            ders=tnet.ders + fnet.ders,
            ports=(CouplingPort(0, pq[0].id, head),),
        )
    assert not validate(net), validate(net)
    return net


def random_repeated_feeders(rng) -> Network:
    """Random transmission network with two random feeders, alternating, on its PQ buses
    (at least three), every copy a bus-id shift of its feeder."""
    while True:
        tnet = random_transmission(rng, int(rng.integers(4, 9)))
        pq = [b.id for b in tnet.buses if b.kind is BusKind.PQ]
        if len(pq) >= 3:
            break
    feeders = [random_feeder(rng, int(rng.integers(2, 7))) for _ in range(2)]
    net = {name: list(getattr(tnet, name)) for name in ("buses", "elements", "loads", "shunts", "ders")}
    ports = []
    for k, bus in enumerate(pq):
        fnet, off = feeders[k % 2], 100 * k
        net["buses"] += [replace(b, id=b.id + off) for b in fnet.buses]
        net["elements"] += [replace(e, id=e.id + off, from_bus=e.from_bus + off, to_bus=e.to_bus + off)
                            for e in fnet.elements]
        for name in ("loads", "shunts", "ders"):
            net[name] += [replace(d, bus=d.bus + off) for d in getattr(fnet, name)]
        head = next(b.id for b in fnet.buses if b.kind is BusKind.FEEDER_HEAD)
        ports.append(CouplingPort(k, bus, head + off))
    out = Network(base_mva=100.0, generators=tnet.generators, ports=tuple(ports), **net)
    assert not validate(out), validate(out)
    return out


# (feeder, load scale, DER scale) cycled over case27's PQ buses: six distinct entries of three feeders
MIXED = (
    ("feeder_small", 1.0, 1.0), ("feeder_medium", 0.5, 1.0), ("feeder_stressed", 1.0, 0.0),
    ("feeder_small", 1.2, 2.0), ("feeder_medium", 1.0, 1.0), ("feeder_stressed", 0.8, 1.0),
)


def case27_inputs(data_dir: Path, entries):
    """(transmission network, coupling map, feeder documents) of case27 with the (feeder name, load
    scale, DER scale) ``entries``, cycled, on its PQ buses."""
    tnet = parse_transmission(data_dir / "case27.m")
    pq = sorted(b.id for b in tnet.buses if b.kind is BusKind.PQ)
    couplings = [CouplingEntry(f"{name}.json", bus, ls, ds) for bus, (name, ls, ds) in zip(pq, itertools.cycle(entries))]
    docs = {f"{name}.json": parse_feeder_doc(data_dir / f"{name}.json") for name, _, _ in entries}
    return tnet, CouplingMap(couplings, data_dir), docs


def case27_with_feeders(data_dir: Path, entries) -> Network:
    """``build_combined`` of ``case27_inputs``."""
    return build_combined(*case27_inputs(data_dir, entries))


def _assert_same(a, b, where="network"):
    """Equal field by field and of the same types; numpy arrays equal byte for byte."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            _assert_same(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert a == b, where


def _combined_per_copy(tnet, cmap, docs, keep_bus_load):
    """Reference combination: per coupling entry, its document's ``feeder_network`` copied device by
    device with ``dataclasses.replace``, bus and element ids shifted, load powers and shunt admittances
    times the entry's load scale (a load of zero power so left out, as ``feeder_network`` leaves one
    out) and DER powers times its DER scale."""
    coupled = {e.bus for e in cmap.entries}
    stride = _id_stride(tnet, docs.values())
    parts = {"buses": list(tnet.buses), "elements": list(tnet.elements), "shunts": list(tnet.shunts),
             "loads": [ld for ld in tnet.loads if keep_bus_load or ld.bus not in coupled], "ders": list(tnet.ders)}
    labels, ports = dict(tnet.labels), []
    next_element = max(e.id for e in tnet.elements) + 1
    for k, entry in enumerate(cmap.entries):
        fnet, off = feeder_network(docs[entry.feeder], tnet.base_mva), stride * (k + 1)
        ls, ds = entry.load_scale, entry.der_scale
        parts["buses"] += [replace(b, id=b.id + off) for b in fnet.buses]
        parts["elements"] += [replace(e, id=e.id + next_element, from_bus=e.from_bus + off, to_bus=e.to_bus + off)
                              for e in fnet.elements]
        loads = [replace(ld, bus=ld.bus + off, s=tuple(ls * v for v in ld.s)) for ld in fnet.loads]
        parts["loads"] += [ld for ld in loads if any(v != 0 for v in ld.s)]
        parts["shunts"] += [replace(sh, bus=sh.bus + off, y=tuple(ls * v for v in sh.y)) for sh in fnet.shunts]
        parts["ders"] += [replace(d, bus=d.bus + off, s=tuple(ds * v for v in d.s)) for d in fnet.ders]
        next_element += len(fnet.elements)
        labels.update({bus + off: label for bus, label in fnet.labels.items()})
        head = next(b.id for b in fnet.buses if b.kind is BusKind.FEEDER_HEAD)
        ports.append(CouplingPort(id=k, transmission_bus=entry.bus, feeder_head=head + off))
    return Network(base_mva=tnet.base_mva, generators=tnet.generators, ports=tuple(ports), labels=labels,
                   **{name: tuple(items) for name, items in parts.items()})


def random_state(rng, network: Network, imap, vm_range=(0.7, 1.3), ang_spread=0.5) -> np.ndarray:
    """Random voltage state: magnitudes in vm_range, angles near the flat set,
    random auxiliary values."""
    x = np.zeros(imap.n)
    for b in network.buses:
        for ph, vflat in zip(b.phases, flat_voltages(b.phases)):
            vm = rng.uniform(*vm_range)
            ang = np.angle(vflat) + rng.uniform(-ang_spread, ang_spread)
            vr, vi = imap.v_pair(b.id, ph)
            x[vr] = vm * np.cos(ang)
            x[vi] = vm * np.sin(ang)
    for ir, ii in imap.source_current.values():
        x[ir] = rng.uniform(-1, 1)
        x[ii] = rng.uniform(-1, 1)
    for qi in imap.gen_q.values():
        x[qi] = rng.uniform(-0.5, 0.5)
    for ir, ii in imap.port_current.values():
        x[ir] = rng.uniform(-0.5, 0.5)
        x[ii] = rng.uniform(-0.5, 0.5)
    return x
