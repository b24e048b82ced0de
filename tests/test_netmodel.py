import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netgen import MIXED, case27_with_feeders, random_combined
from tandem.ingest import load_combined_case
from tandem.netmodel import (
    PHASE_CODE,
    Bus,
    BusKind,
    Connection,
    CouplingPort,
    DerInjection,
    ElementKind,
    Generator,
    Load,
    Network,
    NetworkError,
    SeriesElement,
    Shunt,
    build_index_map,
    flat_voltages,
    initial_state,
    validate,
)

Y1 = np.array([[1.0 / complex(0.01, 0.1)]])


def two_bus():
    return Network(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
            Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,)),
        ),
        elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p", Y1),),
        loads=(Load(2, "p", (0.5 + 0.2j,)),),
    )


def feeder3(offset=10, port=False):
    z = np.eye(3, dtype=complex) * complex(0.05, 0.12)
    buses = [
        Bus(offset, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc")),
        Bus(offset + 1, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),
        Bus(offset + 2, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),
    ]
    elements = [
        SeriesElement(100, offset, offset + 1, ElementKind.LINE, "abc", np.linalg.inv(z)),
        SeriesElement(101, offset + 1, offset + 2, ElementKind.LINE, "abc", np.linalg.inv(z)),
    ]
    loads = [Load(offset + 2, "abc", (0.01 + 0.003j,) * 3)]
    return buses, elements, loads


def nine_bus_with_feeder():
    """9-bus style transmission (1 slack, 2 PV) plus a 3-node feeder on one PQ bus."""
    buses = [Bus(1, BusKind.SLACK, "p", 345.0, (1.04 + 0j,))]
    gens = [Generator(1, 0.0, 1.04, -3, 3)]
    for i in (2, 3):
        buses.append(Bus(i, BusKind.PV, "p", 345.0, (1.025 + 0j,)))
        gens.append(Generator(i, 0.8, 1.025, -3.0, 3.0))
    for i in range(4, 10):
        buses.append(Bus(i, BusKind.PQ, "p", 345.0, (1 + 0j,)))
    elements = []
    ring = [1, 4, 5, 6, 3, 7, 8, 2, 9]
    for k in range(len(ring)):
        elements.append(
            SeriesElement(k, ring[k], ring[(k + 1) % len(ring)], ElementKind.LINE, "p", Y1)
        )
    fb, fe, fl = feeder3(offset=20)
    return Network(
        base_mva=100.0,
        buses=buses + fb,
        elements=elements + fe,
        loads=[Load(5, "p", (0.9 + 0.3j,))] + fl,
        generators=gens,
        ports=(CouplingPort(0, 5, 20),),
    )


LAYOUT_CASES = ["nine-bus", "case9_feeder1", "case9_feeder4", "case9_stressed", "k24", "mixed"]


def layout_case(data_dir, case: str) -> Network:
    """``nine_bus_with_feeder``, case9 with a bundled coupling map, or case27 with 24 copies of one
    feeder (``k24``) or six distinct feeders cycled (``mixed``)."""
    if case == "nine-bus":
        return nine_bus_with_feeder()
    if case.startswith("case9"):
        return load_combined_case(data_dir / "case9.m", data_dir / f"{case}.json")
    return case27_with_feeders(data_dir, [("feeder_medium", 1.0, 1.0)] if case == "k24" else MIXED)


def assert_layout(net: Network, imap) -> None:
    """The slot table holds each (bus, phase) of ``net`` once; the slots, the slots + 1, the
    source, reactive and port unknowns cover range(n) once; transmission slots lie in the
    transmission block, each feeder bus's in its feeder block, the port currents last."""
    rows, codes = np.nonzero(imap.slots >= 0)
    vr, bus = imap.slots[rows, codes], imap.bus_ids[rows]
    assert imap.bus_ids.tolist() == sorted(b.id for b in net.buses)
    nodes = sorted((b.id, PHASE_CODE[ph]) for b in net.buses for ph in b.phases)
    assert sorted(zip(bus.tolist(), codes.tolist())) == nodes

    ports = [i for pair in imap.port_current.values() for i in pair]
    aux = [i for pair in imap.source_current.values() for i in pair] + list(imap.gen_q.values()) + ports
    every = np.concatenate([vr, vr + 1, np.array(aux, dtype=np.int64)])
    assert np.sort(every).tolist() == list(range(imap.n))

    t_stop = imap.block("transmission")[1]
    for b, i in zip(bus.tolist(), vr.tolist()):
        if net.bus(b).kind.is_transmission:
            assert i + 1 < t_stop, b
        else:
            start, stop = imap.block(f"feeder:{imap.feeder_of_bus[b]}")
            assert start <= i and i + 1 < stop, b
    p_start, p_stop = imap.block("ports")
    assert p_stop == imap.n and all(p_start <= i < p_stop for i in ports)


class TestIndexMap:
    def test_two_bus_count(self):
        # 4 nodal unknowns plus the slack source current pair
        imap = build_index_map(two_bus())
        assert imap.n == 6

    def test_three_phase_bus_count(self):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc")),),
        )
        imap = build_index_map(net)
        # 6 nodal + 6 head-source currents (standalone head acts as the source)
        assert np.count_nonzero(imap.slots >= 0) * 2 == 6
        assert imap.n == 12

    def test_combined_count_matches_enumeration(self):
        net = nine_bus_with_feeder()
        imap = build_index_map(net)
        # independent tally: nodal pairs, slack currents, PV unknowns, port currents
        nodal = sum(2 * len(b.phases) for b in net.buses)
        slack = sum(2 * len(b.phases) for b in net.buses if b.kind is BusKind.SLACK)
        pv = sum(
            1 for g in net.generators
            if g.status and net.bus(g.bus).kind is BusKind.PV
        )
        ports = 6 * len(net.ports)
        # 18 transmission nodal + 2 slack currents + 2 PV unknowns
        # + 18 feeder nodal + 6 port currents
        assert (nodal, slack, pv, ports) == (36, 2, 2, 6)
        assert imap.n == nodal + slack + pv + ports == 46

    def test_deterministic(self):
        a = build_index_map(nine_bus_with_feeder())
        b = build_index_map(nine_bus_with_feeder())
        assert a == b  # n, bus_ids and slots too
        assert a.source_current == b.source_current
        assert a.gen_q == b.gen_q and a.port_current == b.port_current
        assert a.blocks == b.blocks

    def test_transmission_before_distribution(self):
        net = nine_bus_with_feeder()
        imap = build_index_map(net)
        t_stop = imap.block("transmission")[1]
        for b in net.buses:
            for ph in b.phases:
                vr, vi = imap.v_pair(b.id, ph)
                if b.kind.is_distribution:
                    assert vr >= t_stop and vi >= t_stop
                else:
                    assert vr < t_stop and vi < t_stop
        # port currents are the trailing border block
        p_start, p_stop = imap.block("ports")
        assert p_stop == imap.n
        assert all(
            p_start <= i < p_stop for pair in imap.port_current.values() for i in pair
        )

    def test_bijection(self):
        net = nine_bus_with_feeder()
        imap = build_index_map(net)
        seen = [i for b in net.buses for ph in b.phases for i in imap.v_pair(b.id, ph)]
        seen += [i for pair in imap.source_current.values() for i in pair]
        seen += list(imap.gen_q.values())
        seen += [i for pair in imap.port_current.values() for i in pair]
        assert sorted(seen) == list(range(imap.n))

    def test_duplicate_bus_rejected(self):
        net = Network(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
                Bus(1, BusKind.PQ, "p", 345.0, (1 + 0j,)),
            ),
        )
        with pytest.raises(NetworkError, match="duplicate"):
            build_index_map(net)
        assert [v.code for v in validate(net)] == ["dup-bus"]

    def test_dangling_endpoint_rejected(self):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),),
            elements=(SeriesElement(0, 1, 99, ElementKind.LINE, "p", Y1),),
        )
        with pytest.raises(NetworkError, match="missing bus"):
            build_index_map(net)
        assert [v.code for v in validate(net)] == ["dangling"]

    @pytest.mark.parametrize("case", LAYOUT_CASES)
    def test_layout_invariants(self, data_dir, case):
        net = layout_case(data_dir, case)
        assert_layout(net, build_index_map(net))

    def test_layout_invariants_random(self):
        rng = np.random.default_rng(2020)
        feeders = ported = 0
        for _ in range(30):
            net = random_combined(rng)
            assert_layout(net, build_index_map(net))
            feeders += bool(net.distribution_buses())
            ported += bool(net.ports)
        assert feeders >= 12 and ported >= 5

    def test_equality_compares_the_slot_table(self):
        imap = build_index_map(nine_bus_with_feeder())
        swapped = imap.slots.copy()
        swapped[[0, 1]] = swapped[[1, 0]]
        assert replace(imap, slots=imap.slots.copy()) == imap
        assert replace(imap, slots=swapped) != imap
        assert replace(imap, slots=imap.slots.astype(np.int32)) != imap
        assert replace(imap, bus_ids=imap.bus_ids + 1) != imap

    def test_v_index_names_a_missing_pair(self):
        imap = build_index_map(nine_bus_with_feeder())
        with pytest.raises(KeyError, match="21, 'p'"):  # a three-phase bus has no 'p'
            imap.v_index([[5, 21]], [[0, 0]])
        with pytest.raises(KeyError, match="99, 'a'"):  # no such bus
            imap.v_index([20, 99], PHASE_CODE["a"])
        with pytest.raises(KeyError, match="5, 'a'"):
            imap.v_pair(5, "a")
        empty = build_index_map(Network(100.0, ()))  # no bus row to search
        with pytest.raises(KeyError, match="1, 'p'"):
            empty.v_index([1, 2], PHASE_CODE["p"])
        assert empty.v_index([], PHASE_CODE["p"]).shape == (0,)


class TestValidate:
    def test_well_formed(self):
        assert validate(two_bus()) == []

    def test_delta_on_two_phase_bus(self):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc")),
                   Bus(2, BusKind.LOAD_NODE, "ab", 12.47, flat_voltages("ab"))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "ab",
                                    np.linalg.inv(np.eye(2) * complex(0.1, 0.2))),),
            loads=(Load(2, "abc", (0.01,) * 3, Connection.DELTA),),
        )
        codes = [v.code for v in validate(net)]
        assert "delta-phases" in codes

    def test_feeder_without_head(self):
        z = np.linalg.inv(np.eye(3) * complex(0.1, 0.2))
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),
                   Bus(2, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc"))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "abc", z),),
        )
        codes = [v.code for v in validate(net)]
        assert "no-head" in codes

    def test_no_slack_flagged(self):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.PQ, "p", 345.0, (1 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p", Y1),),
        )
        assert "no-slack" in [v.code for v in validate(net)]

    def test_disconnected_flagged(self):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
        )
        assert "disconnected" in [v.code for v in validate(net)]

    def test_port_reuse_flagged(self):
        net = nine_bus_with_feeder()
        fb, fe, fl = feeder3(offset=30)
        bad = Network(
            base_mva=100.0,
            buses=net.buses + tuple(fb),
            elements=net.elements + tuple(fe),
            loads=net.loads + tuple(fl),
            generators=net.generators,
            ports=net.ports + (CouplingPort(1, 5, 30),),  # bus 5 reused
        )
        assert "port-reuse" in [v.code for v in validate(bad)]

    def test_zip_fractions_flagged(self):
        net = two_bus()
        bad = Network(
            base_mva=100.0, buses=net.buses, elements=net.elements,
            loads=(Load(2, "p", (0.5 + 0.2j,), zip_fractions=(0.5, 0.2, 0.2)),),
        )
        assert "zip" in [v.code for v in validate(bad)]

    def test_q_limits_flagged(self):
        net = two_bus()
        bad = Network(
            base_mva=100.0, buses=net.buses, elements=net.elements, loads=net.loads,
            generators=(Generator(2, 0.1, 1.0, q_min=0.5, q_max=-0.5),),
        )
        assert "q-limits" in [v.code for v in validate(bad)]

    @pytest.mark.parametrize(
        "change, code, message",
        [
            (lambda net: _with_bus(net, 5, phases="abc", v0=flat_voltages("abc")),
             "phase-style", "transmission bus 5 must be positive-sequence"),
            (lambda net: _with_bus(net, 21, phases="p", v0=(1 + 0j,)),
             "phase-style", "distribution bus 21 must carry phases from abc"),
            (lambda net: _add(net, loads=Load(99, "p", (0.1 + 0j,))), "dangling", "load references missing bus 99"),
            (lambda net: _add(net, shunts=Shunt(99, "p", (0.1j,))), "dangling", "shunt references missing bus 99"),
            (lambda net: _add(net, ders=DerInjection(99, "p", (0.1 + 0j,))), "dangling", "DER references missing bus 99"),
            (lambda net: _add(net, generators=Generator(99, 0.1, 1.0, -1.0, 1.0)),
             "dangling", "generator references missing bus 99"),
            (lambda net: replace(net, ports=(CouplingPort(0, 5, 99),)), "dangling", "port 0 endpoint missing"),
            (lambda net: _add(net, loads=Load(4, "abc", (0.01 + 0j,) * 3)), "phase-mismatch", "load phases abc not at bus 4"),
            (lambda net: _add(net, shunts=Shunt(21, "p", (0.1j,))), "phase-mismatch", "shunt phases p not at bus 21"),
            (lambda net: _add(net, generators=Generator(4, 0.1, 0.0, -1.0, 1.0)),
             "v-set", "generator at bus 4 has non-positive v_set"),
            (lambda net: replace(net, ports=(CouplingPort(0, 21, 20),)),
             "port-side", "port 0 transmission end 21 is not a transmission bus"),
            (lambda net: replace(net, ports=(CouplingPort(0, 5, 21),)),
             "port-side", "port 0 feeder end 21 is not a feeder head"),
            (lambda net: _with_bus(net, 20, phases="ab", v0=flat_voltages("ab")),
             "port-phases", "port 0 head 20 must carry phases abc"),
            (lambda net: _with_bus(net, 21, kind=BusKind.FEEDER_HEAD), "multi-head", "feeder component has 2 heads [20, 21]"),
        ],
        ids=["transmission-phases", "distribution-phases", "dangling-load", "dangling-shunt", "dangling-der",
             "dangling-generator", "dangling-port", "load-phases", "shunt-phases", "v-set", "port-transmission-end",
             "port-feeder-end", "port-head-phases", "two-heads"],
    )
    def test_violation_codes(self, change, code, message):
        assert validate(nine_bus_with_feeder()) == []
        assert f"[{code}] {message}" in [str(v) for v in validate(change(nine_bus_with_feeder()))]


def _with_bus(net, bus_id, **changes):
    return replace(net, buses=tuple(replace(b, **changes) if b.id == bus_id else b for b in net.buses))


def _add(net, **devices):
    return replace(net, **{name: (*getattr(net, name), dev) for name, dev in devices.items()})


def test_feeder_template_graph_searched_once(data_dir, monkeypatch):
    # k24 has two templates: case27, whose feeder graph (no bus) and whole graph (27 buses) are
    # searched, and feeder_medium, whose whole graph is its feeder graph (24 buses), searched
    # once; then the graph of the 25 components joined through the ports
    import tandem.netmodel as netmodel

    net, calls, components = layout_case(data_dir, "k24"), [], netmodel._components
    monkeypatch.setattr(netmodel, "_components", lambda ids, edges: calls.append(len(ids)) or components(ids, edges))
    assert validate(net) == []
    assert sorted(calls) == [0, 24, 25, 27]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_index_count_formula_random(seed):
    """n = 2*(sum of phases) + 2*(slack phases) + #PV + 6*#ports on random nets."""
    rng = np.random.default_rng(seed)
    net = random_combined(rng)
    imap = build_index_map(net)
    nodal = sum(2 * len(b.phases) for b in net.buses)
    source = sum(2 * len(b.phases) for b in net.source_buses())
    pv = sum(1 for g in net.generators if g.status and net.bus(g.bus).kind is BusKind.PV)
    assert imap.n == nodal + source + pv + 6 * len(net.ports)


def test_initial_state_flat():
    net = nine_bus_with_feeder()
    imap = build_index_map(net)
    x = initial_state(net, imap, flat=True)
    vr, vi = imap.v_pair(5, "p")
    assert x[vr] == 1.0 and x[vi] == 0.0
    vb = imap.voltage(x, 21, "b")
    assert abs(vb - flat_voltages("abc")[1]) < 1e-15
    for pair in imap.source_current.values():
        assert x[pair[0]] == 0.0 and x[pair[1]] == 0.0


def test_loading_factor_scaling():
    net = nine_bus_with_feeder().with_loading_factor(1.5)
    ld = next(l for l in net.loads if l.bus == 5)
    assert ld.s[0] == pytest.approx(1.5 * (0.9 + 0.3j))
    g = next(g for g in net.generators if g.bus == 2)
    assert g.p_set == pytest.approx(1.2)
    assert g.v_set == pytest.approx(1.025)  # setpoints untouched


# offsets onto one entry of a symmetric block: either side of 1e-12 by one ulp, and non-finite ones
NEAR_TOLERANCE = st.sampled_from([0.0, 5e-13, 1e-12, math.nextafter(1e-12, 0), math.nextafter(1e-12, 1), 2e-12,
                                  math.inf, math.nan]).flatmap(lambda d: st.sampled_from([d, -d]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(["ab", "abc"]), st.data())
def test_asym_block_is_isclose_against_the_transpose(phases, data):
    """``asym-block`` flags exactly the blocks ``np.isclose(rtol=0, atol=1e-12)`` finds not close to their transpose:
    equal infinities are close, NaN never is."""
    k = len(phases)
    part = st.sampled_from([0.0, 1.0, math.inf, -math.inf, math.nan]) | st.floats(-2, 2)
    y = np.array([[complex(data.draw(part), data.draw(part)) for _ in range(k)] for _ in range(k)])
    y = np.where(np.triu(np.ones((k, k), dtype=bool)), y, y.T)  # symmetric, infinities and NaN included
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, offset = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1)), data.draw(NEAR_TOLERANCE)
        with np.errstate(invalid="ignore"):  # inf - inf
            y[i, j] += offset if data.draw(st.booleans()) else complex(0, offset)
    buses = (Bus(10, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc")),
             Bus(11, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")))
    net = Network(100.0, buses, elements=(SeriesElement(0, 10, 11, ElementKind.LINE, phases, y),))
    flagged = any(v.code == "asym-block" for v in validate(net))
    assert flagged == (not np.isclose(y, y.T, rtol=0, atol=1e-12).all())


def test_validate_violation_list_pinned():
    """Exact violations, in order, on a network mixing the p, abc, ab and c phase sets."""
    nan, inf = float("nan"), float("inf")
    y3 = np.linalg.inv(np.eye(3) * complex(0.1, 0.2) + complex(0.02, 0.05))
    y2 = y3[:2, :2].copy()
    asym_flagged, asym_kept = y3.copy(), y2.copy()
    asym_flagged[0, 1] += 2e-12
    asym_kept[1, 0] += 5e-13
    off_nan = y2.copy()
    off_nan[0, 1] = nan
    infs = y3.copy()
    infs[0, 2] = infs[2, 0] = inf
    infs[1, 2] = infs[2, 1] = -inf
    infs[1, 1] = -inf
    both = y2.copy()
    both[1, 1] = 0
    both[0, 1] += 1e-9

    def bus(i, kind, phases):
        return Bus(i, kind, phases, 12.47, flat_voltages(phases) if phases != "p" else (1 + 0j,))

    def el(i, f, t, phases, y):
        return SeriesElement(i, f, t, ElementKind.LINE, phases, np.asarray(y, dtype=complex))

    net = Network(
        base_mva=100.0,
        buses=(
            bus(1, BusKind.SLACK, "p"), bus(2, BusKind.PQ, "p"), bus(3, BusKind.PQ, "p"),
            bus(10, BusKind.FEEDER_HEAD, "abc"), bus(11, BusKind.LOAD_NODE, "abc"),
            bus(12, BusKind.LOAD_NODE, "ab"), bus(13, BusKind.LOAD_NODE, "c"), bus(14, BusKind.LOAD_NODE, "ab"),
        ),
        elements=(
            el(0, 1, 2, "p", Y1),
            el(1, 10, 11, "abc", asym_flagged),
            el(2, 11, 12, "ab", asym_kept),
            el(3, 11, 13, "c", [[0]]),
            el(4, 11, 12, "abc", asym_flagged),
            el(5, 2, 3, "p", [[0]]),
            el(6, 12, 14, "ab", off_nan),
            el(7, 11, 13, "c", [[nan]]),
            el(8, 10, 11, "abc", infs),
            el(9, 12, 14, "ab", both),
            el(10, 3, 13, "p", Y1),
            el(11, 10, 11, "abc", y3),
        ),
        ports=(CouplingPort(0, 2, 10),),
    )
    assert [(v.code, v.message) for v in validate(net)] == [
        ("asym-block", "element 1 admittance block not symmetric"),
        ("zero-self", "element 3 has a zero self-admittance phase"),
        ("phase-mismatch", "element 4 phases abc not at bus 12"),
        ("asym-block", "element 4 admittance block not symmetric"),
        ("zero-self", "element 5 has a zero self-admittance phase"),
        ("asym-block", "element 6 admittance block not symmetric"),
        ("asym-block", "element 7 admittance block not symmetric"),
        ("asym-block", "element 9 admittance block not symmetric"),
        ("zero-self", "element 9 has a zero self-admittance phase"),
        ("phase-mismatch", "element 10 vs bus 13"),
    ]
