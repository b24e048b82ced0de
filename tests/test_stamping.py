"""Stamped system against the dense oracle away from the plain operating point,
and the voltage-collapse guard of the nonlinear stamps."""

import numpy as np
import pytest

from netgen import random_combined, random_state
from oracles import dense_mismatch
from tandem.netmodel import (
    Bus,
    BusKind,
    Connection,
    DerInjection,
    ElementKind,
    Load,
    Network,
    SeriesElement,
    build_index_map,
    flat_voltages,
    initial_state,
)
from tandem.gsn import tear
from tandem.ingest import parse_transmission
from tandem.newton import SolveFailure, SolverOptions, solve_direct
from tandem.sparse import assemble
from tandem.stamping import (
    CompiledCircuit,
    HomotopyState,
    VoltageCollapseError,
    pq_partials,
    stamp_nonlinear,
    stamp_system,
)

_MODE_CYCLE = ("pv", "qmax", "pv", "qmin")


def test_homotopy_and_q_limit_states_match_dense_oracle():
    """A@x - b equals the dense mismatch for lam in {0, 0.3, 1}, shunt
    relaxation on and off, and generators cycling through pv/qmax/qmin."""
    rng = np.random.default_rng(7321)
    worst = 0.0
    for k in range(40):
        net = random_combined(rng)
        imap = build_index_map(net)
        x = random_state(rng, net, imap, vm_range=(0.5, 1.5), ang_spread=0.4)
        gens = sorted(g.bus for g in net.generators if g.bus in imap.gen_q)
        modes = {bus: _MODE_CYCLE[(i + k) % len(_MODE_CYCLE)] for i, bus in enumerate(gens)}
        circuit = CompiledCircuit(net, imap)
        for lam in (0.0, 0.3, 1.0):
            for relax in (True, False):
                hs = HomotopyState(lam, 1e3, relax)
                lin, nonlin = stamp_system(circuit, x, hs, modes)
                system = assemble([lin, nonlin], imap.n)
                got = system.matrix @ x - system.rhs
                # with no pins given, the oracle holds a generator at a limit at its own bound
                want = dense_mismatch(net, imap, x, lam, 1e3, relax, modes)
                worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-9


def _reference_nonlinear(net, imap, x, modes):
    """The nonlinear stamps of ``net`` at ``x``, leg by leg in real arithmetic: power legs and generators
    through ``pq_partials``, constant-current legs as |I| at the demand's power-factor angle off the leg
    voltage's.  Returns (rows, cols, vals, rhs rows, rhs values) in the stamp order (every leg's blocks,
    then the generators' Q columns and rows) and the scale of each value's leg, for relative bounds."""
    legs = []  # (terminal 1, terminal 2 or None, (a, b, c, d), (hr, hi))

    def voltage(t):
        return complex(x[t[0]], x[t[1]]) if t else 0j

    for devices, sign in ((net.loads, 1.0), (net.ders, -1.0)):
        for dev in devices:
            delta = getattr(dev, "connection", Connection.WYE) is Connection.DELTA and dev.phases != "p"
            labels = ("ab", "bc", "ca") if delta else dev.phases
            f_p, f_i, _ = getattr(dev, "zip_fractions", (1.0, 0.0, 0.0))
            for share, f in (("p", f_p), ("i", f_i)):
                for label, s in zip(labels, dev.s):
                    if f * s == 0:
                        continue
                    t1 = imap.v_pair(dev.bus, label[0])
                    t2 = imap.v_pair(dev.bus, label[1]) if delta else None
                    v = voltage(t1) - voltage(t2)
                    if share == "p":
                        d = sign * (f * s)
                        ir, ii, a, b, c, dd = pq_partials(d.real, d.imag, v.real, v.imag)
                        h = (a * v.real + b * v.imag - ir, c * v.real + dd * v.imag - ii)
                        legs.append((t1, t2, (a, b, c, dd), h))
                    else:
                        mag = sign * abs(f * s) / (np.sqrt(3.0) if delta else 1.0)
                        theta = np.arctan2(v.imag, v.real) - np.angle(f * s)
                        legs.append((t1, t2, (0.0,) * 4, (-mag * np.cos(theta), -mag * np.sin(theta))))
    gens = [g for g in net.generators if g.status and g.bus in imap.gen_q]
    extra = [[] for _ in range(5)]  # (row, col, value) of the Q columns and the pv / pin rows
    gen_rhs = []
    for g in gens:
        t1, qi = imap.v_pair(g.bus, "p"), imap.gen_q[g.bus]
        v, qg = voltage(t1), x[qi]
        ir, ii, a, b, c, d = pq_partials(-g.p_set, -qg, v.real, v.imag)
        m2 = v.real ** 2 + v.imag ** 2
        dq_r, dq_i = -v.imag / m2, v.real / m2
        legs.append((t1, None, (a, b, c, d), (a * v.real + b * v.imag - ir + dq_r * qg,
                                              c * v.real + d * v.imag - ii + dq_i * qg)))
        mode = modes.get(g.bus, "pv")
        pv = mode == "pv"
        for out, triplet in zip(extra, ((t1[0], qi, dq_r), (t1[1], qi, dq_i), (qi, t1[0], 2 * v.real if pv else 0.0),
                                        (qi, t1[1], 2 * v.imag if pv else 0.0), (qi, qi, 0.0 if pv else 1.0))):
            out.append(triplet)
        gen_rhs.append((qi, g.v_set ** 2 + m2 if pv else g.q_max if mode == "qmax" else g.q_min))
    trip, rhs = [], []
    for t1, t2, (a, b, c, d), (hr, hi) in legs:
        scale = max(abs(a), abs(b), abs(c), abs(d), abs(hr), abs(hi))
        blocks = [(t1, t1, 1.0)] if t2 is None else [(t1, t1, 1.0), (t1, t2, -1.0), (t2, t1, -1.0), (t2, t2, 1.0)]
        for ta, tb, sgn in blocks:
            trip += [(ta[0], tb[0], sgn * a, scale), (ta[0], tb[1], sgn * b, scale),
                     (ta[1], tb[0], sgn * c, scale), (ta[1], tb[1], sgn * d, scale)]
        rhs += [(t1[0], hr, scale), (t1[1], hi, scale)]
        rhs += [] if t2 is None else [(t2[0], -hr, scale), (t2[1], -hi, scale)]
    trip += [(r, c, val, abs(val)) for out in extra for r, c, val in out]
    rhs += [(r, val, abs(val)) for r, val in gen_rhs]
    rows, cols, vals, scale = np.array(trip, dtype=float).reshape(-1, 4).T
    rhs_rows, rhs_vals, rhs_scale = np.array(rhs, dtype=float).reshape(-1, 3).T
    return (rows, cols, vals, rhs_rows, rhs_vals), (scale, rhs_scale)


def test_nonlinear_stamps_match_the_real_pq_model_leg_by_leg():
    """``stamp_nonlinear``'s triplets and right-hand side, value by value in stamp order, are within 1e-12 of
    each leg's largest value of the real formulas through ``pq_partials``, on random networks with delta legs,
    constant-current shares and generators in pv, qmax and qmin."""
    rng = np.random.default_rng(4409)
    seen = dict.fromkeys(["delta", "current", "pv", "qmax", "qmin"], 0)
    for k in range(300):
        if k >= 40 and min(seen.values()) >= 10:
            break
        net = random_combined(rng)
        imap = build_index_map(net)
        x = random_state(rng, net, imap)
        modes = {bus: ("pv", "qmax", "qmin")[(i + k) % 3] for i, bus in enumerate(sorted(imap.gen_q))}
        want, (scale, rhs_scale) = _reference_nonlinear(net, imap, x, modes)
        got = stamp_nonlinear(CompiledCircuit(net, imap), x, modes)
        assert np.array_equal(got.rows, want[0]) and np.array_equal(got.cols, want[1])
        assert np.array_equal(got.rhs_rows, want[3])
        assert (np.abs(got.vals - want[2]) <= 1e-12 * scale).all()
        assert (np.abs(got.rhs_vals - want[4]) <= 1e-12 * rhs_scale).all()
        for ld in net.loads:
            seen["delta"] += ld.connection is Connection.DELTA and ld.phases != "p"
            seen["current"] += ld.zip_fractions[1] != 0
        for mode in modes.values():
            seen[mode] += 1
    assert min(seen.values()) >= 10, seen


def _stamp_bytes(st):
    return [np.asarray(a).tobytes() for a in (st.rows, st.cols, st.vals, st.rhs_rows, st.rhs_vals)]


def test_generator_modes_changed_in_place_restamp():
    """The solver switches generators by mutating one modes dict; each call
    stamps what a fresh circuit stamps for the modes as they stand."""
    rng = np.random.default_rng(2718)
    checked = 0
    for k in range(30):
        net = random_combined(rng)
        imap = build_index_map(net)
        circuit = CompiledCircuit(net, imap)
        gens = [g.bus for g in circuit.gens]
        checked += bool(gens)
        x = random_state(rng, net, imap)
        modes = {}
        for step in range(len(_MODE_CYCLE) + 1):
            want = CompiledCircuit(net, imap).nonlinear(x, dict(modes))
            assert _stamp_bytes(circuit.nonlinear(x, modes)) == _stamp_bytes(want)
            for i, bus in enumerate(gens):
                modes[bus] = _MODE_CYCLE[(i + step + k) % len(_MODE_CYCLE)]
    assert checked >= 5


def test_set_sources_matches_fresh_compile():
    """A feeder subcircuit compiled at one set of head voltages and re-pointed
    at a second stamps bytewise what a fresh compile at the second stamps."""
    rng = np.random.default_rng(5519)
    checked = 0
    for _ in range(40):
        net = random_combined(rng)
        if not net.ports:
            continue
        for sub in tear(net).subs:
            if sub.kind != "feeder":
                continue
            v1, v2 = (
                {
                    p.feeder_head: tuple(
                        rng.uniform(0.9, 1.1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
                        for _ in sub.network.bus(p.feeder_head).phases
                    )
                    for p in sub.ports
                }
                for _ in range(2)
            )
            circuit = CompiledCircuit(sub.network.with_source_voltages(v1), sub.imap)
            net2 = sub.network.with_source_voltages(v2)
            circuit.set_sources(net2)
            fresh = CompiledCircuit(net2, sub.imap)
            x = random_state(rng, net2, sub.imap)
            for hs in (None, HomotopyState(0.3)):
                assert _stamp_bytes(circuit.linear(hs)) == _stamp_bytes(fresh.linear(hs))
            assert _stamp_bytes(circuit.nonlinear(x, {})) == _stamp_bytes(fresh.nonlinear(x, {}))
            # the combined network drives its slack buses, not the feeder head
            with pytest.raises(ValueError, match="source terminals"):
                circuit.set_sources(net)
            checked += 1
    assert checked >= 5


def test_injections_do_not_leak_into_the_next_solve():
    """A circuit driven with injections A, then B, then none stamps bytewise what
    a fresh compile with the same drive stamps."""
    rng = np.random.default_rng(8803)
    checked = 0
    for _ in range(40):
        net = random_combined(rng)
        if not net.ports:
            continue
        sub = tear(net).subs[0]
        assert sub.kind == "transmission"
        x = random_state(rng, sub.network, sub.imap)
        drives = [{p.transmission_bus: {"p": complex(*rng.normal(0.0, 0.5, 2))} for p in sub.ports} for _ in range(2)]
        circuit = CompiledCircuit(sub.network, sub.imap)
        for drive in (*drives, None):
            circuit.set_injections(drive)
            fresh = CompiledCircuit(sub.network, sub.imap)
            fresh.set_injections(drive)
            for hs in (None, HomotopyState(0.3)):
                got, want = stamp_system(circuit, x, hs), stamp_system(fresh, x, hs)
                assert [_stamp_bytes(st) for st in got] == [_stamp_bytes(st) for st in want]
            assert len(got[0].rhs_vals) == len(circuit.src_rhs_vals) + 2 * len(drive or ())
        checked += 1
    assert checked >= 5


def test_set_load_factor_matches_fresh_compile():
    """A circuit compiled once per DER scale and set to a load factor stamps bytewise what a
    fresh compile of the network at that load factor stamps; at a zero load factor, which the
    compile would give fewer legs, it assembles the same system in value.  Checks the first 40
    networks drawn, then every one with ZIP, delta, DER and generators until 5 such are checked."""
    rng = np.random.default_rng(6607)
    checked = full = 0
    for _ in range(1000):
        if checked >= 40 and full >= 5:
            break
        net = random_combined(rng)
        imap = build_index_map(net)
        has_all = (any(ld.zip_fractions[1] and ld.zip_fractions[2] for ld in net.loads) and bool(net.ders)
                   and any(ld.connection is Connection.DELTA for ld in net.loads) and bool(imap.gen_q))
        if checked >= 40 and not has_all:
            continue
        checked, full = checked + 1, full + has_all
        gens = sorted(imap.gen_q)
        modes = {bus: _MODE_CYCLE[i % len(_MODE_CYCLE)] for i, bus in enumerate(gens)}
        for der in (1.0, 0.5, 0.0):
            base = net.with_der_scale(der)
            circuit = CompiledCircuit(base, imap)
            for lf in (1.3, 0.0, 0.7, 2.5):
                circuit.set_load_factor(lf)
                point = base.with_loading_factor(lf)
                fresh = CompiledCircuit(point, imap)
                x = random_state(rng, point, imap)
                if lf == 0.0:
                    for gen_modes in ({}, modes):
                        got, want = (assemble(list(stamp_system(c, x, None, gen_modes)), imap.n) for c in (circuit, fresh))
                        assert (got.matrix != want.matrix).nnz == 0
                        assert np.array_equal(got.rhs, want.rhs)
                    continue
                for hs in (None, HomotopyState(0.3)):
                    assert _stamp_bytes(circuit.linear(hs)) == _stamp_bytes(fresh.linear(hs))
                for gen_modes in ({}, modes):
                    assert _stamp_bytes(circuit.nonlinear(x, gen_modes)) == _stamp_bytes(fresh.nonlinear(x, gen_modes))
    assert checked >= 40 and full >= 5, (checked, full)


def _feeder(loads=(), ders=()):
    z = np.eye(3, dtype=complex) * complex(0.02, 0.06)
    return Network(
        base_mva=100.0,
        buses=(
            Bus(10, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc")),
            Bus(11, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),
            Bus(12, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),
        ),
        elements=(
            SeriesElement(0, 10, 11, ElementKind.LINE, "abc", np.linalg.inv(z)),
            SeriesElement(1, 11, 12, ElementKind.LINE, "abc", np.linalg.inv(z)),
        ),
        loads=tuple(loads),
        ders=tuple(ders),
    )


def _zero(imap, x, bus, phase):
    x = x.copy()
    x[list(imap.v_pair(bus, phase))] = 0.0
    return x


def _collapse(net, x):
    imap = build_index_map(net)
    with pytest.raises(VoltageCollapseError) as info:
        stamp_system(CompiledCircuit(net, imap), x)
    return info.value


S3 = (0.02 + 0.01j,) * 3


@pytest.mark.parametrize("zip_fractions", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
def test_collapse_guard_names_wye_terminal(zip_fractions):
    net = _feeder([Load(12, "abc", S3, Connection.WYE, zip_fractions)])
    imap = build_index_map(net)
    err = _collapse(net, _zero(imap, initial_state(net, imap), 12, "b"))
    assert (err.bus, err.phase) == (12, "b")


@pytest.mark.parametrize("zip_fractions", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
def test_collapse_guard_names_delta_leg(zip_fractions):
    net = _feeder([Load(12, "abc", S3, Connection.DELTA, zip_fractions)])
    imap = build_index_map(net)
    x = initial_state(net, imap)
    # V_c = V_b leaves leg bc with zero voltage
    x[list(imap.v_pair(12, "c"))] = x[list(imap.v_pair(12, "b"))]
    err = _collapse(net, x)
    assert (err.bus, err.phase) == (12, "bc")


def test_collapse_guard_reports_first_device_in_order():
    # bus 12's load comes first in the device list, so it is named even
    # though bus 11 collapses too; the DER (same bus as the second load)
    # comes after every load
    net = _feeder(
        loads=[Load(12, "abc", S3), Load(11, "abc", S3)],
        ders=[DerInjection(11, "abc", (0.01 + 0j,) * 3)],
    )
    imap = build_index_map(net)
    x = _zero(imap, _zero(imap, initial_state(net, imap), 11, "a"), 12, "c")
    err = _collapse(net, x)
    assert (err.bus, err.phase) == (12, "c")


def test_collapse_guard_skips_zero_power_legs():
    net = _feeder([Load(12, "abc", (0.02 + 0.01j, 0j, 0.02 + 0.01j))])
    imap = build_index_map(net)
    stamp_system(CompiledCircuit(net, imap), _zero(imap, initial_state(net, imap), 12, "b"))


def test_collapse_reason_in_lambda_trajectory():
    net = _feeder([Load(12, "abc", S3)])
    imap = build_index_map(net)
    x0 = _zero(imap, initial_state(net, imap), 12, "a")
    with pytest.raises(SolveFailure) as info:
        solve_direct(net, SolverOptions(homotopy="off"), x0=x0)
    reason = info.value.report.lambda_trajectory[0]["reason"]
    assert reason.startswith("collapse:") and "bus 12 phase a" in reason


def test_collapse_guard_names_generator(case9):
    net = parse_transmission(case9)
    imap = build_index_map(net)
    assert 2 in imap.gen_q
    err = _collapse(net, _zero(imap, initial_state(net, imap), 2, "p"))
    assert (err.bus, err.phase) == (2, "p")


def test_collapse_guard_names_constant_current_leg_ahead_of_power_leg():
    # the constant-current load comes first in the device list; both collapse
    net = _feeder(loads=[Load(12, "abc", S3, Connection.WYE, (0.0, 1.0, 0.0)), Load(11, "abc", S3)])
    imap = build_index_map(net)
    err = _collapse(net, _zero(imap, _zero(imap, initial_state(net, imap), 11, "a"), 12, "c"))
    assert (err.bus, err.phase) == (12, "c")


@pytest.mark.parametrize("connection", [Connection.WYE, Connection.DELTA])
def test_constant_current_leg_stamps_a_zero_block(connection):
    """A pure constant-current load stamps each leg's 2x2 blocks, all zero (the secant update)."""
    net = _feeder([Load(12, "abc", S3, connection, (0.0, 1.0, 0.0))])
    imap = build_index_map(net)
    st_ = stamp_nonlinear(CompiledCircuit(net, imap), initial_state(net, imap))
    pairs = [(ph, ph) for ph in "abc"] if connection is Connection.WYE else [
        (p1, p2) for leg in ("ab", "bc", "ca") for p1 in leg for p2 in leg]
    want = {(imap.v_pair(12, p1)[r], imap.v_pair(12, p2)[c]) for p1, p2 in pairs for r in (0, 1) for c in (0, 1)}
    assert set(zip(st_.rows.tolist(), st_.cols.tolist())) == want
    assert not st_.vals.any()
    assert st_.rhs_vals.any()
