"""Networks that record their feeder templates (``Network.tiled``) check, lay out, compile and
tear exactly as the same devices do in a network without the record, checked device by device."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from netgen import (
    MIXED,
    _assert_same,
    _combined_per_copy,
    _zip_fractions,
    case27_inputs,
    case27_with_feeders,
    random_repeated_feeders,
    random_transmission,
)
from tandem.cli import _load_network, _solve
from tandem.gsn import GsnOptions, tear
from tandem.ingest import (
    CouplingEntry,
    CouplingMap,
    FeederBranch,
    FeederCapRec,
    FeederDerRec,
    FeederDoc,
    FeederLoadRec,
    FeederNode,
    build_combined,
    load_combined_case,
    parse_coupling_map,
    parse_feeder_doc,
    parse_transmission,
)
from tandem.netmodel import (
    DEVICES,
    BusKind,
    Connection,
    ElementKind,
    Network,
    build_index_map,
    initial_state,
    validate,
)
from tandem.newton import SolverOptions
from tandem.stamping import CompiledCircuit


def _rebuilt(net: Network) -> Network:
    """The same devices in a network made by its constructor, which records no templates."""
    return Network(**{f.name: getattr(net, f.name) for f in dataclasses.fields(net)})


def _same(a, b, where):
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    elif isinstance(a, (list, tuple)) and any(isinstance(v, (np.ndarray, list)) for v in a):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def _assert_same_circuit(a: CompiledCircuit, b: CompiledCircuit, where):
    skip = {"imap", "plan", "jac", "z", "gens"}
    assert vars(a).keys() == vars(b).keys()
    for name in vars(a).keys() - skip:
        _same(getattr(a, name), getattr(b, name), f"{where}.{name}")
    for name in ("jac", "z"):
        _same(getattr(a, name).t, getattr(b, name).t, f"{where}.{name}.t")


def assert_matches_device_by_device(net: Network):
    """validate, build_index_map, CompiledCircuit and tear of ``net`` equal those of its rebuild."""
    plain = _rebuilt(net)
    assert len(plain.tiles()) == 1
    assert validate(net) == validate(plain)
    imap, plain_imap = build_index_map(net), build_index_map(plain)
    assert imap == plain_imap  # the slot table by dtype, shape and value too
    _assert_same_circuit(CompiledCircuit(net, imap), CompiledCircuit(plain, plain_imap), "circuit")
    if net.ports:
        for sub, plain_sub in zip(tear(net, imap).subs, tear(plain, plain_imap).subs, strict=True):
            assert sub.network == plain_sub.network
            assert sub.imap == plain_sub.imap, sub.name
            _same(sub.local_to_global, plain_sub.local_to_global, f"{sub.name}.local_to_global")
            _assert_same_circuit(CompiledCircuit(sub.network, sub.imap),
                                 CompiledCircuit(plain_sub.network, plain_sub.imap), sub.name)


@pytest.fixture(scope="module")
def k24(data_dir):
    return case27_with_feeders(data_dir, [("feeder_medium", 1.0, 1.0)])


@pytest.fixture(scope="module")
def mixed(data_dir):
    return case27_with_feeders(data_dir, MIXED)


def test_repeated_feeders_copy_one_template(k24, mixed):
    assert len(k24.tiles()) == 25 and len({id(t.template) for t in k24.tiles()[1:]}) == 1
    # one template per feeder document: MIXED's six (feeder, scales) entries use three documents
    assert len(mixed.tiles()) == 25 and len({id(t.template) for t in mixed.tiles()[1:]}) == 3


@pytest.mark.parametrize("case", ["k24", "mixed", "case9_feeder1", "case9_feeder4", "case9_stressed"])
def test_bundled_cases(request, data_dir, case):
    """case27 with 24 copies of one feeder and with six distinct feeders cycled, and case9 with each
    bundled coupling map (``case9_feeder4`` is four copies)."""
    if case.startswith("case9"):
        net = load_combined_case(data_dir / "case9.m", data_dir / f"{case}.json")
    else:
        net = request.getfixturevalue(case)
    assert_matches_device_by_device(net)


# one feeder at load scales 1, 0 and -0 and DER scales 1 and 0: four tiles of one template, cycled
ZERO_SCALES = (("feeder_medium", 1.0, 1.0), ("feeder_medium", 0.0, 1.0), ("feeder_medium", -0.0, 0.0),
               ("feeder_medium", 1.0, 0.0))


def test_zero_scales_tile_one_template(data_dir):
    """Copies at load scale 0 (either sign) hold no loads, and the case checks, lays out, compiles
    and tears as device by device, though each copy tiles the same template as those at scale 1."""
    net = case27_with_feeders(data_dir, ZERO_SCALES)
    feeders = net.tiles()[1:]
    assert len({id(t.template) for t in feeders}) == 1 and {t.load_scale for t in feeders} == {0.0, 1.0}
    assert_matches_device_by_device(net)
    loaded = {ld.bus for ld in net.loads}
    for tile in feeders:
        buses = {b.id + tile.bus_offset for b in tile.template.buses}
        assert bool(buses & loaded) == (tile.load_scale != 0), tile.bus_offset


@pytest.mark.parametrize("entries", [MIXED, ZERO_SCALES], ids=["mixed", "zero-scales"])
def test_first_read_matches_per_copy(data_dir, entries):
    """The first read of each device tuple, the shunts' scaled capacitor admittances too, equals in type
    and value the tuple of the copy-by-copy reference."""
    tnet, cmap, docs = case27_inputs(data_dir, entries)
    net, reference = build_combined(tnet, cmap, docs), _combined_per_copy(tnet, cmap, docs, keep_bus_load=False)
    assert not vars(net).keys() & set(DEVICES)
    assert any(sh.y != (0j,) * len(sh.phases) and net.bus(sh.bus).kind.is_distribution for sh in reference.shunts)
    for name in DEVICES:
        _assert_same(getattr(net, name), getattr(reference, name), name)


def _der_group(net):
    return next(d.group for d in net.ders if d.group)


VARIANTS = {
    "loading-factor": lambda net: net.with_loading_factor(1.3),
    "der-scale": lambda net: net.with_der_scale(0.5),
    "der-scale-group": lambda net: net.with_der_scale(0.0, _der_group(net)),
    "source-voltages": lambda net: net.with_source_voltages({net.buses[0].id: (1.05 + 0.01j,)}),
    "without-element": lambda net: net.without_elements([net.elements[-3].id]),
    "without-generator": lambda net: net.without_generators([net.generators[0].bus]),
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", ["k24", "mixed"])
def test_variants_never_keep_a_stale_record(request, case, variant):
    """A variant changes device tuples the record describes; it must check, lay out and
    compile as the same variant rebuilt device by device."""
    net = VARIANTS[variant](request.getfixturevalue(case))
    assert_matches_device_by_device(net)


def random_doc(rng, name: str, n_node: int) -> FeederDoc:
    """A random radial feeder document: mixed phase sets, wye and delta ZIP loads, capacitors, DERs."""
    nodes = [FeederNode("n0", "abc", 12.47)]
    doc = FeederDoc(name=name, head="n0", nominal_kv=12.47, nodes=nodes)
    for i in range(1, n_node):
        parent = nodes[int(rng.integers(0, len(nodes)))]
        phases = parent.phases if rng.random() < 0.6 else "".join(
            sorted(rng.choice(list(parent.phases), size=int(rng.integers(1, len(parent.phases) + 1)), replace=False)))
        nodes.append(FeederNode(f"n{i}", phases, 12.47))
        k = len(phases)
        z = np.full((k, k), complex(rng.uniform(0.02, 0.1), rng.uniform(0.05, 0.2)))
        np.fill_diagonal(z, complex(rng.uniform(0.1, 0.5), rng.uniform(0.2, 0.9)))
        kind = ElementKind.TRANSFORMER if rng.random() < 0.1 else ElementKind.LINE
        doc.branches.append(FeederBranch(parent.id, f"n{i}", phases, z, kind))
        kw = tuple(rng.uniform(5.0, 40.0) for _ in range(3 if phases == "abc" else k))
        if rng.random() < 0.6:
            delta = phases == "abc" and rng.random() < 0.3
            doc.loads.append(FeederLoadRec(f"n{i}", Connection.DELTA if delta else Connection.WYE, kw,
                                           tuple(0.3 * p for p in kw), _zip_fractions(rng)))
        if rng.random() < 0.2:
            doc.capacitors.append(FeederCapRec(f"n{i}", tuple(rng.uniform(5.0, 30.0) for _ in range(k)), phases))
        if rng.random() < 0.2:
            doc.ders.append(FeederDerRec(f"n{i}", tuple(0.2 * p for p in kw[:k]), (0.0,) * k, "pv"))
    return doc


def random_repeated_case(rng) -> Network:
    """A random transmission network with random feeders on its PQ buses, drawn with repeats
    from two documents and two scale pairs, built by ``build_combined``."""
    while True:
        tnet = random_transmission(rng, int(rng.integers(4, 10)))
        pq = [b.id for b in tnet.buses if b.kind is BusKind.PQ]
        if len(pq) >= 3:
            break
    docs = {f"f{i}.json": random_doc(rng, f"f{i}", int(rng.integers(2, 9))) for i in range(2)}
    scales = [(1.0, 1.0), (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 2.0)))]
    entries = [CouplingEntry(f"f{int(rng.integers(0, 2))}.json", bus, *scales[int(rng.integers(0, 2))]) for bus in pq]
    return build_combined(tnet, CouplingMap(entries), docs)


def test_random_repeated_feeders():
    rng = np.random.default_rng(1919)
    copied = 0
    for _ in range(24):
        net = random_repeated_case(rng)
        copied += len({id(t.template) for t in net.tiles()}) < len(net.tiles())  # a template tiled twice
        assert_matches_device_by_device(net)
    assert copied >= 20


def test_template_with_violations_copied_three_times(data_dir):
    """An asymmetric impedance block and an island node in a template copied to three buses:
    every violation is reported once per copy, with that copy's ids, as device by device."""
    z = np.full((3, 3), 0.05 + 0.1j) + np.eye(3) * (0.3 + 0.6j)
    asym = z.copy()
    asym[0, 1] += 0.05
    doc = FeederDoc("bad", "n0", 12.47, nodes=[FeederNode(f"n{i}", "abc", 12.47) for i in range(3)] + [
        FeederNode("island", "a", 12.47)])
    doc.branches = [FeederBranch("n0", "n1", "abc", asym), FeederBranch("n1", "n2", "abc", z)]
    doc.loads = [FeederLoadRec("n2", Connection.WYE, (20.0,) * 3, (5.0,) * 3),
                 FeederLoadRec("island", Connection.WYE, (10.0,), (2.0,))]
    tnet = random_transmission(np.random.default_rng(3), 8)
    pq = [b.id for b in tnet.buses if b.kind is BusKind.PQ][:3]
    net = build_combined(tnet, CouplingMap([CouplingEntry("bad.json", bus) for bus in pq]), {"bad.json": doc})
    assert len(net.tiles()) == 4
    codes = [v.code for v in validate(net)]
    assert codes.count("asym-block") == 3 and codes.count("no-head") == 3 and "disconnected" in codes
    assert_matches_device_by_device(net)


def _bundled(request, data_dir, case) -> Network:
    if case.startswith("case9"):
        return load_combined_case(data_dir / "case9.m", data_dir / f"{case}.json")
    return request.getfixturevalue(case)


def test_direct_solve_builds_no_copied_device(data_dir, tmp_path):
    """Loading and directly solving case27 with 24 copies of ``feeder_medium``, as ``tandem solve``
    does, reads no device tuple of the combined network; the first read of each equals, in type
    and value, the tuple of the copy-by-copy reference."""
    tnet = parse_transmission(data_dir / "case27.m")
    pq = sorted(b.id for b in tnet.buses if b.kind is BusKind.PQ)
    coupling = tmp_path / "k24.json"
    feeder = str(data_dir / "feeder_medium.json")
    coupling.write_text(json.dumps({"schema": 1, "couplings": [{"feeder": feeder, "bus": bus} for bus in pq]}))
    args = argparse.Namespace(case=data_dir / "case27.m", coupling=coupling, keep_bus_load=False, solver="direct")
    net = _load_network(args)
    _, report, _ = _solve(net, args, SolverOptions(), GsnOptions())
    assert report["converged"] and len(net.tiles()) == 25
    assert not vars(net).keys() & set(DEVICES)
    cmap = parse_coupling_map(coupling)
    reference = _combined_per_copy(tnet, cmap, {feeder: parse_feeder_doc(feeder)}, keep_bus_load=False)
    for name in DEVICES:
        _assert_same(getattr(net, name), getattr(reference, name), name)
        assert name in vars(net)


def _assert_same_readers(net: Network):
    """``initial_state`` (case voltages and flat start) and ``source_buses``, which read ``net``
    per tile, equal those of its device-by-device rebuild bit for bit."""
    imap = build_index_map(net)
    starts = [initial_state(net, imap, flat).tobytes() for flat in (False, True)]
    sources = net.source_buses()
    plain = _rebuilt(net)
    assert starts == [initial_state(plain, imap, flat).tobytes() for flat in (False, True)]
    _assert_same(sources, plain.source_buses(), "source_buses")


@pytest.mark.parametrize("case", ["k24", "mixed", "case9_feeder1", "case9_feeder4", "case9_stressed"])
def test_per_tile_readers_bundled(request, data_dir, case):
    _assert_same_readers(_bundled(request, data_dir, case))


def test_per_tile_readers_random():
    """On ``netgen.random_repeated_feeders`` (each a network of its own one tile), and on networks
    whose repeated feeders ``build_combined`` tiles, some with un-ported feeder heads as sources."""
    rng = np.random.default_rng(2222)
    for _ in range(12):
        _assert_same_readers(random_repeated_feeders(rng))
        net = random_repeated_case(rng)
        _assert_same_readers(net)
        _assert_same_readers(Network.tiled(net.tiles(), base_mva=net.base_mva, ports=net.ports[1:]))
