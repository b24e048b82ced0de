import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    apply_homotopy_positive_sequence,
    apply_homotopy_three_phase,
    dense_mismatch,
    eval_pq,
    fd_jacobian,
    phase_to_sequence_6x6,
    port_power_balance,
    real_expansion,
    sequence_to_phase_6x6,
)
from netgen import random_combined, random_state
from tandem.netmodel import (
    ALPHA,
    Bus,
    BusKind,
    Connection,
    CouplingPort,
    ElementKind,
    Load,
    Network,
    SeriesElement,
    Shunt,
    build_index_map,
    flat_voltages,
    initial_state,
)
from tandem.sparse import assemble
from tandem.stamping import (
    CompiledCircuit,
    HomotopyState,
    VoltageCollapseError,
    stamp_coupling_ports,
    stamp_linear,
    stamp_nonlinear,
    stamp_system,
)


class TestEvalPq:
    def test_unit_voltage_pure_p(self):
        ir, ii, *_ = eval_pq(1.0, 0.0, 1.0, 0.0)
        assert (ir, ii) == (1.0, 0.0)

    def test_unit_voltage_pure_q(self):
        ir, ii, *_ = eval_pq(0.0, 1.0, 1.0, 0.0)
        assert (ir, ii) == (0.0, -1.0)

    def test_frozen_point(self):
        # P=0.5, Q=0.2 at V=0.9+j0.1: |V|^2 = 0.82
        ir, ii, *_ = eval_pq(0.5, 0.2, 0.9, 0.1)
        assert ir == pytest.approx(0.47 / 0.82)
        assert ir == pytest.approx(0.573171, abs=1e-6)
        assert ii == pytest.approx(-0.13 / 0.82)
        assert ii == pytest.approx(-0.158537, abs=1e-6)

    def test_partials_match_finite_differences(self):
        p, q, vr, vi = 0.5, 0.2, 0.9, 0.1
        _, _, drr, dri, dir_, dii = eval_pq(p, q, vr, vi)
        h = 1e-6
        num_drr = (eval_pq(p, q, vr + h, vi)[0] - eval_pq(p, q, vr - h, vi)[0]) / (2 * h)
        num_dri = (eval_pq(p, q, vr, vi + h)[0] - eval_pq(p, q, vr, vi - h)[0]) / (2 * h)
        num_dir = (eval_pq(p, q, vr + h, vi)[1] - eval_pq(p, q, vr - h, vi)[1]) / (2 * h)
        num_dii = (eval_pq(p, q, vr, vi + h)[1] - eval_pq(p, q, vr, vi - h)[1]) / (2 * h)
        assert drr == pytest.approx(num_drr, abs=1e-6)
        assert dri == pytest.approx(num_dri, abs=1e-6)
        assert dir_ == pytest.approx(num_dir, abs=1e-6)
        assert dii == pytest.approx(num_dii, abs=1e-6)

    def test_collapse_guard(self):
        with pytest.raises(VoltageCollapseError):
            eval_pq(0.5, 0.2, 1e-7, 0.0)

    def test_zero_power_short_circuits_guard(self):
        assert eval_pq(0.0, 0.0, 1e-9, 0.0) == (0, 0, 0, 0, 0, 0)

    @given(
        st.floats(-2, 2), st.floats(-2, 2),
        st.floats(0.3, 1.5), st.floats(-np.pi, np.pi),
    )
    def test_matches_conjugate_power_form(self, p, q, vm, va):
        v = cmath.rect(vm, va)
        ir, ii, *_ = eval_pq(p, q, v.real, v.imag)
        want = (complex(p, q) / v).conjugate()
        assert complex(ir, ii) == pytest.approx(want, abs=1e-12)


def terminal_currents(load, volts):
    """Per-phase current a load draws at ``volts``, read off its nonlinear
    stamps (A x - b = c(x)), plus the stamps themselves."""
    net = Network(
        base_mva=100.0,
        buses=(Bus(1, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),),
        loads=(load,),
    )
    imap = build_index_map(net)
    x = np.zeros(imap.n)
    for ph, v in volts.items():
        x[list(imap.v_pair(1, ph))] = v.real, v.imag
    st_ = stamp_nonlinear(CompiledCircuit(net, imap), x)
    sys_ = assemble([st_], imap.n)
    c = sys_.matrix @ x - sys_.rhs
    return {ph: imap.voltage(c, 1, ph) for ph in "abc"}, st_


class TestThreePhase:
    def test_balanced_wye(self):
        ld = Load(1, "abc", (1.0 + 0j,) * 3, Connection.WYE)
        volts = dict(zip("abc", flat_voltages("abc")))
        node, _ = terminal_currents(ld, volts)
        for ph in "abc":
            want = (1.0 / volts[ph]).conjugate()
            assert node[ph] == pytest.approx(want, abs=1e-12)

    def test_zero_power(self):
        ld = Load(1, "abc", (0j,) * 3, Connection.WYE)
        volts = dict(zip("abc", flat_voltages("abc")))
        node, st_ = terminal_currents(ld, volts)
        assert all(c == 0 for c in node.values())
        assert not st_.vals.any() and not st_.rhs_vals.any()

    def test_delta_leg_current_and_kcl_closure(self):
        ld = Load(1, "abc", (1.0 + 0j, 0j, 0j), Connection.DELTA)
        volts = dict(zip("abc", flat_voltages("abc")))
        node, _ = terminal_currents(ld, volts)
        vleg = volts["a"] - volts["b"]
        assert node["a"] == pytest.approx((1.0 / vleg).conjugate(), abs=1e-12)
        # injected node currents: +I at a, -I at b, 0 at c -> sum zero
        assert sum(node.values()) == pytest.approx(0, abs=1e-12)


class TestHomotopy:
    def test_identity_at_zero(self):
        y = complex(1, -2)
        assert apply_homotopy_positive_sequence(y, HomotopyState(0.0, 999.0)) == y

    def test_full_scaling(self):
        assert apply_homotopy_positive_sequence(
            complex(1, -2), HomotopyState(1.0, 999.0)
        ) == pytest.approx(1000 * complex(1, -2))

    def test_frozen_value(self):
        got = apply_homotopy_positive_sequence(complex(0.02, 0.3), HomotopyState(0.5, 100.0))
        assert got == pytest.approx(51 * complex(0.02, 0.3))
        assert got == pytest.approx(complex(1.02, 15.3))

    def test_three_phase_mask(self):
        y = np.full((3, 3), 0.1 + 0j)
        np.fill_diagonal(y, 1 + 1j)
        out = apply_homotopy_three_phase(y, HomotopyState(1.0, 9.0))
        assert np.allclose(np.diag(out), 10 + 10j)
        assert out[0, 1] == 0.1 + 0j

    def test_three_phase_random_elementwise(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        y = z + z.T
        hs = HomotopyState(0.3, 50.0)
        got = apply_homotopy_three_phase(y, hs)
        want = y.copy()
        for i in range(3):
            for j in range(3):
                if i == j:
                    want[i, j] *= 1 + 0.3 * 50.0
        assert np.allclose(got, want, rtol=0, atol=0)

    def test_endpoint_stamps_bit_identical(self, case9):
        from tandem.ingest import parse_transmission

        net = parse_transmission(case9)
        imap = build_index_map(net)
        a = stamp_linear(CompiledCircuit(net, imap), None)
        b = stamp_linear(CompiledCircuit(net, imap), HomotopyState(0.0, 1e3, True))
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert a.vals.tobytes() == b.vals.tobytes()  # bitwise: scaling by exactly 1.0
        assert np.array_equal(a.rhs_rows, b.rhs_rows) and a.rhs_vals.tobytes() == b.rhs_vals.tobytes()


def line_network(y, shunt=None):
    buses = (
        Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
        Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,)),
    )
    shunts = (Shunt(2, "p", (shunt,)),) if shunt else ()
    return Network(
        base_mva=100.0,
        buses=buses,
        elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p", np.array([[y]])),),
        shunts=shunts,
    )


class TestLinearStamps:
    def test_line_reproduces_branch_current(self):
        # J . V must equal I = y(Vf - Vt) at both ends for random V
        y = complex(1, -2)
        net = line_network(y)
        imap = build_index_map(net)
        st_ = stamp_linear(CompiledCircuit(net, imap), None)
        m = assemble([st_], imap.n).matrix.toarray()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=imap.n)
            v1, v2 = imap.voltage(x, 1, "p"), imap.voltage(x, 2, "p")
            cur = y * (v1 - v2)
            got = m @ x
            # KCL rows also carry the slack source current unknowns
            isrc = complex(x[imap.source_current[(1, "p")][0]],
                           x[imap.source_current[(1, "p")][1]])
            assert imap.voltage(got, 1, "p") == pytest.approx(
                cur - isrc, abs=1e-12
            )
            assert imap.voltage(got, 2, "p") == pytest.approx(
                -cur, abs=1e-12
            )

    def test_rectangular_coupling_pattern(self):
        # y = 1 - j2: +-1 on same-kind pairs, +-2 between R and I rows
        net = line_network(complex(1, -2))
        imap = build_index_map(net)
        m = assemble([stamp_linear(CompiledCircuit(net, imap), None)], imap.n).matrix.toarray()
        r1, i1 = imap.v_pair(1, "p")
        r2, i2 = imap.v_pair(2, "p")
        assert m[r1, r1] == pytest.approx(1) and m[r1, r2] == pytest.approx(-1)
        assert m[i1, i1] == pytest.approx(1) and m[i1, i2] == pytest.approx(-1)
        assert m[r1, i1] == pytest.approx(2) and m[r1, i2] == pytest.approx(-2)
        assert m[i1, r1] == pytest.approx(-2) and m[i1, r2] == pytest.approx(2)

    def test_shunt_couples_r_and_i_rows_only(self):
        net = line_network(complex(1, 0), shunt=0.5j)
        imap = build_index_map(net)
        with_sh = assemble([stamp_linear(CompiledCircuit(net, imap), None)], imap.n).matrix.toarray()
        without = assemble(
            [stamp_linear(CompiledCircuit(line_network(complex(1, 0)), imap), None)], imap.n
        ).matrix.toarray()
        diff = with_sh - without
        r2, i2 = imap.v_pair(2, "p")
        expect = np.zeros_like(diff)
        expect[r2, i2] = -0.5
        expect[i2, r2] = 0.5
        assert np.allclose(diff, expect, atol=1e-15)

    def test_open_branch_produces_no_triplets(self):
        # branch omitted at parse time; an element-free network stamps only sources
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),),
        )
        imap = build_index_map(net)
        st_ = stamp_linear(CompiledCircuit(net, imap), None)
        assert len(st_.rows) == 4  # two voltage rows + two KCL injections


class TestNonlinearStamps:
    def test_residual_zero_at_solution(self):
        from tandem.newton import SolverOptions, solve_direct

        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p",
                                    np.array([[1 / complex(0.01, 0.1)]])),),
            loads=(Load(2, "p", (0.5 + 0.2j,)),),
        )
        imap = build_index_map(net)
        x, _ = solve_direct(net, SolverOptions(tol=1e-12))
        lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
        sys_ = assemble([lin, nonlin], imap.n)
        assert np.abs(sys_.matrix @ x - sys_.rhs).max() < 1e-10

    def test_zero_load_network_stamps(self):
        net = line_network(complex(1, -1))
        imap = build_index_map(net)
        _, nonlin = stamp_system(CompiledCircuit(net, imap), initial_state(net, imap))
        assert len(nonlin.rows) == 0 and len(nonlin.rhs_rows) == 0

    def test_pv_row_residual_zero_at_setpoint(self):
        from tandem.netmodel import Generator

        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
                   Bus(2, BusKind.PV, "p", 345.0, (1.02 + 0j,))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p",
                                    np.array([[1 / complex(0.01, 0.1)]])),),
            generators=(Generator(2, 0.3, 1.02, -2, 2),),
        )
        imap = build_index_map(net)
        x = initial_state(net, imap)  # bus 2 at exactly 1.02
        lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
        sys_ = assemble([lin, nonlin], imap.n)
        resid = sys_.matrix @ x - sys_.rhs
        assert abs(resid[imap.gen_q[2]]) < 1e-14


class TestCouplingPort:
    def port_net(self):
        z = np.eye(3, dtype=complex) * complex(0.02, 0.06)
        return Network(
            base_mva=100.0,
            buses=(
                Bus(1, BusKind.SLACK, "p", 230.0, (1 + 0j,)),
                Bus(2, BusKind.PQ, "p", 230.0, (1 + 0j,)),
                Bus(10, BusKind.FEEDER_HEAD, "abc", 12.47, flat_voltages("abc")),
                Bus(11, BusKind.LOAD_NODE, "abc", 12.47, flat_voltages("abc")),
            ),
            elements=(
                SeriesElement(0, 1, 2, ElementKind.LINE, "p",
                              np.array([[1 / complex(0.01, 0.1)]])),
                SeriesElement(1, 10, 11, ElementKind.LINE, "abc", np.linalg.inv(z)),
            ),
            loads=(Load(11, "abc", (0.03 + 0.01j,) * 3),),
            ports=(CouplingPort(0, 2, 10),),
        )

    def test_voltage_rows_encode_rotation(self):
        # the port rows must reproduce V_head = [1, a^2, a] * V_poi exactly
        net = self.port_net()
        imap = build_index_map(net)
        st_ = stamp_coupling_ports(net.ports[:1], imap)
        m = assemble([st_], imap.n).matrix.toarray()
        rng = np.random.default_rng(1)
        x = rng.normal(size=imap.n)
        vp = imap.voltage(x, 2, "p")
        for ph, rot in zip("abc", (1, ALPHA**2, ALPHA)):
            rr, ri = imap.port_current[(0, ph)]
            vh = imap.voltage(x, 10, ph)
            got = complex((m @ x)[rr], (m @ x)[ri])
            assert got == pytest.approx(vh - rot * vp, abs=1e-12)

    def test_unit_positive_sequence_voltage_pattern(self):
        # V_p = 1<0 must force the 0/-120/+120 pattern at the head
        from tandem.newton import SolverOptions, solve_direct

        net = self.port_net()
        imap = build_index_map(net)
        x, _ = solve_direct(net, SolverOptions(tol=1e-12))
        vp = imap.voltage(x, 2, "p")
        for ph, rot in zip("abc", (1, ALPHA**2, ALPHA)):
            assert imap.voltage(x, 10, ph) == pytest.approx(rot * vp, abs=1e-10)

    def test_balanced_currents_map_to_positive_sequence(self):
        # I_a/b/c = 2 at -10/-130/110 degrees -> I_p = 2 at -10, zero/negative rows zero
        m6 = phase_to_sequence_6x6()
        iabc = []
        for ang in (-10.0, -130.0, 110.0):
            c = cmath.rect(2.0, np.radians(ang))
            iabc += [c.real, c.imag]
        seq = m6 @ np.array(iabc)
        iz = complex(seq[0], seq[1])
        ip = complex(seq[2], seq[3])
        in_ = complex(seq[4], seq[5])
        assert ip == pytest.approx(cmath.rect(2.0, np.radians(-10)), abs=1e-12)
        assert abs(iz) < 1e-12 and abs(in_) < 1e-12

    def test_port_injection_matches_sequence_oracle(self):
        # the stamped POI coupling equals the positive-sequence row of the
        # 6x6 real transform oracle
        net = self.port_net()
        imap = build_index_map(net)
        st_ = stamp_coupling_ports(net.ports[:1], imap)
        m = assemble([st_], imap.n).matrix.toarray()
        rng = np.random.default_rng(2)
        x = rng.normal(size=imap.n)
        iabc = np.array(
            [x[i] for ph in "abc" for i in imap.port_current[(0, ph)]]
        )
        seq = phase_to_sequence_6x6() @ iabc
        poi_r, poi_i = imap.v_pair(2, "p")
        got = (m @ x)[[poi_r, poi_i]]
        assert got[0] == pytest.approx(seq[2], abs=1e-12)
        assert got[1] == pytest.approx(seq[3], abs=1e-12)

    def test_zero_sequence_injects_nothing(self):
        net = self.port_net()
        imap = build_index_map(net)
        st_ = stamp_coupling_ports(net.ports[:1], imap)
        m = assemble([st_], imap.n).matrix.toarray()
        x = np.zeros(imap.n)
        for ph in "abc":
            rr, ri = imap.port_current[(0, ph)]
            x[rr] = 1.0  # I_a = I_b = I_c = 1<0: pure zero sequence
        poi_r, poi_i = imap.v_pair(2, "p")
        assert (m @ x)[poi_r] == pytest.approx(0, abs=1e-14)
        assert (m @ x)[poi_i] == pytest.approx(0, abs=1e-14)

    def test_port_power_balance_at_solution(self):
        from tandem.newton import SolverOptions, solve_direct

        net = self.port_net()
        imap = build_index_map(net)
        x, _ = solve_direct(net, SolverOptions(tol=1e-12))
        s_tx, s_head = port_power_balance(net, imap, x, net.ports[0])
        assert 3 * s_tx == pytest.approx(s_head, abs=1e-10)


class TestSequenceTransform:
    def test_round_trip_exact(self):
        m = sequence_to_phase_6x6() @ phase_to_sequence_6x6()
        assert np.allclose(m, np.eye(6), atol=1e-12)

    def test_real_expansion_multiplication(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        vr = np.array([c for z in v for c in (z.real, z.imag)])
        got = real_expansion(a) @ vr
        want = a @ v
        assert np.allclose(got[0::2], want.real, atol=1e-12)
        assert np.allclose(got[1::2], want.imag, atol=1e-12)


class TestResidualAndJacobianProperties:
    @settings(deadline=None, max_examples=12)
    @given(st.integers(0, 2**31 - 1))
    def test_residual_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        net = random_combined(rng)
        imap = build_index_map(net)
        x = random_state(rng, net, imap)
        lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
        sys_ = assemble([lin, nonlin], imap.n)
        got = sys_.matrix @ x - sys_.rhs
        want = dense_mismatch(net, imap, x)
        assert np.abs(got - want).max() < 1e-9

    @settings(deadline=None, max_examples=6)
    @given(st.integers(0, 2**31 - 1))
    def test_jacobian_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = random_combined(rng)
        imap = build_index_map(net)
        x = random_state(rng, net, imap, vm_range=(0.5, 1.5), ang_spread=0.4)
        lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
        ja = assemble([lin, nonlin], imap.n).matrix.toarray()
        jf = fd_jacobian(net, imap, x)
        rel = np.abs(ja - jf) / np.maximum(np.abs(jf), 1.0)
        assert rel.max() < 1e-5
