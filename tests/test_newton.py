import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import polar_power_flow
from tandem.ingest import parse_transmission
from tandem.netmodel import (
    Bus,
    BusKind,
    ElementKind,
    Generator,
    Load,
    Network,
    SeriesElement,
    build_index_map,
    initial_state,
)
from tandem.newton import (
    HomotopySchedule,
    SolveFailure,
    SolverOptions,
    UnsolvableCaseError,
    apply_voltage_limit,
    divergence_reason,
    enforce_q_limits,
    solve_direct,
    voltage_index_mask,
)
from tandem.stamping import CompiledCircuit

Y = np.array([[1 / complex(0.01, 0.1)]])


class TestVoltageLimit:
    def opts(self, **kw):
        return SolverOptions(**kw)

    def limit1(self, v, dv, **kw):
        mask = np.array([True])
        return apply_voltage_limit(np.array([v]), np.array([dv]), self.opts(**kw), mask)[0]

    def test_step_capped(self):
        assert self.limit1(1.0, 0.5) == pytest.approx(1.1)

    def test_small_step_passes(self):
        assert self.limit1(1.0, -0.03) == pytest.approx(0.97)

    def test_clamp_at_box(self):
        assert self.limit1(1.95, 0.2) == pytest.approx(2.0)

    def test_negative_cap(self):
        assert self.limit1(1.0, -0.5) == pytest.approx(0.9)

    def test_aux_not_limited(self):
        x = np.array([1.0, 0.0])
        dx = np.array([0.5, 7.0])
        mask = np.array([True, False])
        out = apply_voltage_limit(x, dx, self.opts(), mask)
        assert out[0] == pytest.approx(1.1)
        assert out[1] == pytest.approx(7.0)

    def test_fixed_point_exact(self):
        x = np.array([1.01, -0.3, 0.2])
        mask = np.array([True, True, False])
        out = apply_voltage_limit(x, np.zeros(3), self.opts(), mask)
        assert (out == x).all()

    @given(st.lists(st.floats(-1.9, 1.9), min_size=1, max_size=8),
           st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    def test_monotone_shrink(self, xs, dxs):
        k = min(len(xs), len(dxs))
        x = np.array(xs[:k])
        dx = np.array(dxs[:k])
        mask = np.ones(k, dtype=bool)
        out = apply_voltage_limit(x, dx, self.opts(), mask)
        assert (np.abs(out - x) <= 0.1 + 1e-12).all()


class TestDivergence:
    def test_decreasing_ok(self):
        assert divergence_reason([1, 0.1, 0.01]) is None

    def test_three_rises(self):
        assert divergence_reason([1, 2, 4, 8], window=3) is not None

    def test_two_rises_not_enough(self):
        assert divergence_reason([1, 2, 4], window=3) is None

    def test_blowup_ratio(self):
        assert divergence_reason([1, 1e4]) is not None

    def test_nan(self):
        assert divergence_reason([1.0, float("nan")]) is not None


class TestCycling:
    """The no-progress rule: with the default window of 3 it gives up once the
    last 9 residuals all stay above half the best residual before them."""

    def test_two_cycle_flagged_exactly_at_window_plus_one(self):
        history = [1.95, 14.54] * 10
        reasons = [divergence_reason(history[:k]) for k in range(1, len(history) + 1)]
        assert reasons[:9] == [None] * 9
        assert reasons[9] == "cycling"
        assert divergence_reason(history[:10]) is not None

    def test_worst_converging_stall_not_flagged(self):
        # a 6-iteration stall above half the first residual, then convergence:
        # the longest stall of a converging attempt on the bundled cases
        history = [1.2, 2.1, 3.4, 1.9, 1.4, 1.4, 1.1, 1.4e-3, 2.1e-6, 3.5e-13]
        assert [divergence_reason(history[:k]) for k in range(1, len(history) + 1)] == [None] * len(history)

    def test_progress_by_half_resets_the_window(self):
        # the best residual halves every 8 iterations: slow, but progress
        history = [1.0 * 0.49 ** (k // 8) * (1.5 if k % 2 else 1.0) for k in range(60)]
        assert all(divergence_reason(history[:k]) is None for k in range(1, 61))

    def test_monitor_switched_off_disables_the_rule(self):
        history = [1.95, 14.54] * 50
        assert all(
            divergence_reason(history[:k], window=100, blowup_ratio=float("inf")) is None
            for k in range(1, len(history) + 1)
        )

    def test_radial7_gives_up_the_cycle_and_converges(self, case_radial7):
        # plain Newton with limiting cycles at this load; the rule hands the
        # case to continuation instead of spending max_iter on the cycle
        net = parse_transmission(case_radial7).with_loading_factor(1.05)
        _, rep = solve_direct(net, SolverOptions())
        assert rep.converged
        assert rep.lambda_trajectory[0]["reason"] == "cycling"
        assert rep.iterations <= 50


class TestSchedule:
    def test_first_escalation_step(self):
        s = HomotopySchedule()
        assert s.next_lambda(0.0, False) == pytest.approx(0.1)

    def test_escalation_doubles(self):
        s = HomotopySchedule()
        lam = 0.0
        seq = []
        for _ in range(4):
            lam = s.next_lambda(lam, False)
            seq.append(lam)
        assert seq == pytest.approx([0.1, 0.3, 0.7, 1.0])

    def test_escalation_exhausts_at_one(self):
        s = HomotopySchedule()
        assert s.next_lambda(1.0, False) is None
        assert s.exhausted

    def test_relaxation_bisection_on_failures(self):
        # converged at 1, failures at 0.5 -> retry 0.75, then 0.875
        s = HomotopySchedule()
        assert s.next_lambda(1.0, True) == pytest.approx(0.5)
        assert s.next_lambda(0.5, False) == pytest.approx(0.75)
        assert s.next_lambda(0.75, False) == pytest.approx(0.875)

    def test_relaxation_halves_toward_zero(self):
        s = HomotopySchedule()
        lam = 1.0
        ok = True
        seen = []
        for _ in range(16):
            lam = s.next_lambda(lam, ok)
            if lam is None:
                break
            seen.append(lam)
        assert seen[0] == pytest.approx(0.5)
        assert seen[-1] == 0.0  # terminates at the original problem

    def test_step_underflow_is_unsolvable(self):
        s = HomotopySchedule()
        s.next_lambda(1.0, True)
        lam = 0.5
        for _ in range(40):
            lam = s.next_lambda(lam, False)
            if lam is None:
                break
        assert s.exhausted

    def test_scheduler_never_activates_on_clean_solve(self, case9):
        net = parse_transmission(case9)
        _, rep = solve_direct(net, SolverOptions(homotopy="auto"))
        assert [t["lambda"] for t in rep.lambda_trajectory] == [0.0]

    def test_escalation_then_relaxation(self):
        s = HomotopySchedule()
        assert s.next_lambda(0.0, False) == pytest.approx(0.1)
        assert s.next_lambda(0.1, True) == pytest.approx(0.05)


def three_bus_qlimit():
    """Slack - heavy reactive PQ - tight-Q PV machine."""
    return Network(
        base_mva=100.0,
        buses=(
            Bus(1, BusKind.SLACK, "p", 345.0, (1.02 + 0j,)),
            Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,)),
            Bus(3, BusKind.PV, "p", 345.0, (1.02 + 0j,)),
        ),
        elements=(
            SeriesElement(0, 1, 2, ElementKind.LINE, "p", Y),
            SeriesElement(1, 2, 3, ElementKind.LINE, "p", Y),
        ),
        loads=(Load(2, "p", (0.6 + 0.45j,)),),
        generators=(Generator(3, 0.3, 1.02, q_min=-0.1, q_max=0.1),),
    )


class TestQLimits:
    def test_within_limits_no_switch(self, case9):
        net = parse_transmission(case9)
        imap = build_index_map(net)
        x, rep = solve_direct(net, SolverOptions())
        assert rep.q_switch_log == []
        switches = enforce_q_limits(CompiledCircuit(net, imap), x, {}, {})
        assert switches == []

    def test_violation_switches_to_qmax(self):
        net = three_bus_qlimit()
        imap = build_index_map(net)
        x = initial_state(net, imap)
        x[imap.gen_q[3]] = 0.3  # pretend converged Q above the bound
        modes, counts = {}, {3: 0}
        switches = enforce_q_limits(CompiledCircuit(net, imap), x, modes, counts)
        assert switches == [{"bus": 3, "from": "pv", "to": "qmax", "q": pytest.approx(0.3)}]
        assert modes[3] == "qmax"

    def test_q_limited_solution_matches_polar_oracle(self):
        net = three_bus_qlimit()
        imap = build_index_map(net)
        x, rep = solve_direct(net, SolverOptions(tol=1e-11))
        assert any(s["to"] == "qmax" for s in rep.q_switch_log)
        q3 = x[imap.gen_q[3]]
        v3 = abs(imap.voltage(x, 3, "p"))
        assert q3 == pytest.approx(0.1, abs=1e-9)
        assert v3 < 1.02
        volts, _ = polar_power_flow(net, q_fixed={3: 0.1})
        for b in (2, 3):
            assert abs(imap.voltage(x, b, "p") - volts[b]) < 1e-8

    def test_oscillation_guard_freezes(self):
        net = three_bus_qlimit()
        imap = build_index_map(net)
        x = initial_state(net, imap)
        modes, counts = {}, {3: 6}
        x[imap.gen_q[3]] = 0.5
        assert enforce_q_limits(CompiledCircuit(net, imap), x, modes, counts) == []


class TestSolveDirect:
    def test_two_bus_matches_polar_oracle(self, case2):
        net = parse_transmission(case2)
        imap = build_index_map(net)
        x, rep = solve_direct(net, SolverOptions(tol=1e-11))
        volts, _ = polar_power_flow(net)
        assert abs(imap.voltage(x, 2, "p") - volts[2]) < 1e-8
        assert rep.final_residual <= 1e-11

    def test_zero_load_flat_solution(self):
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p", Y),),
        )
        imap = build_index_map(net)
        x, rep = solve_direct(net, SolverOptions())
        assert rep.iterations <= 2
        assert imap.voltage(x, 2, "p") == pytest.approx(1 + 0j, abs=1e-9)

    def test_report_invariants(self, case9):
        net = parse_transmission(case9)
        _, rep = solve_direct(net, SolverOptions())
        assert rep.converged
        assert len(rep.residual_history) == rep.iterations
        assert rep.final_residual == rep.residual_history[-1]
        d = rep.to_dict()
        assert d["schema"] == 1 and d["converged"] is True

    def test_homotopy_engaged_and_disengaged_agree(self, case9):
        net = parse_transmission(case9).with_loading_factor(1.8)
        imap = build_index_map(net)
        xa, _ = solve_direct(net, SolverOptions(tol=1e-9, homotopy="off"))
        xb, _ = solve_direct(net, SolverOptions(tol=1e-9, homotopy="on"))
        for b in net.buses:
            assert abs(imap.voltage(xa, b.id, "p") - imap.voltage(xb, b.id, "p")) < 1e-8

    def test_homotopy_off_failure_raises(self, case_radial7):
        net = parse_transmission(case_radial7).with_loading_factor(1.6)  # beyond nose
        with pytest.raises(SolveFailure):
            solve_direct(net, SolverOptions(homotopy="off"))

    def test_unsolvable_reports_smallest_lambda(self, case_radial7):
        net = parse_transmission(case_radial7).with_loading_factor(1.6)
        with pytest.raises(UnsolvableCaseError, match="smallest converged lambda"):
            solve_direct(net, SolverOptions(homotopy="auto"))

    def test_trivial_solution_hugs_slack_angle(self, case_radial7):
        # the fully shorted system must sit within an epsilon-small angle
        # radius around the slack bus
        net = parse_transmission(case_radial7)
        imap = build_index_map(net)
        _, rep = solve_direct(
            net, SolverOptions(homotopy="on", keep_homotopy_states=True)
        )
        lam1 = rep.homotopy_states[1.0]
        for b in net.buses:
            assert abs(cmath.phase(imap.voltage(lam1, b.id, "p"))) < 1e-3

    def test_transformer_tap_no_load_division(self):
        # tap on the from side: with no load the to-side voltage is V_from / tap
        el = SeriesElement(0, 1, 2, ElementKind.TRANSFORMER, "p", Y, tap=1.05)
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1.02 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
            elements=(el,),
        )
        imap = build_index_map(net)
        x, _ = solve_direct(net, SolverOptions(tol=1e-12))
        assert imap.voltage(x, 2, "p") == pytest.approx((1.02 + 0j) / 1.05, abs=1e-10)

    def test_transformer_pure_shift_rotates(self):
        shift = np.radians(10)
        el = SeriesElement(0, 1, 2, ElementKind.TRANSFORMER, "p", Y, shift=shift)
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1.0 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
            elements=(el,),
        )
        imap = build_index_map(net)
        x, _ = solve_direct(net, SolverOptions(tol=1e-12))
        v2 = imap.voltage(x, 2, "p")
        assert abs(v2) == pytest.approx(1.0, abs=1e-10)
        assert cmath.phase(v2) == pytest.approx(-shift, abs=1e-10)

    def test_injection_hook(self):
        # constant consumption at bus 2 behaves like an equivalent load
        net = Network(
            base_mva=100.0,
            buses=(Bus(1, BusKind.SLACK, "p", 345.0, (1 + 0j,)),
                   Bus(2, BusKind.PQ, "p", 345.0, (1 + 0j,))),
            elements=(SeriesElement(0, 1, 2, ElementKind.LINE, "p", Y),),
        )
        imap = build_index_map(net)
        x, _ = solve_direct(net, SolverOptions(tol=1e-12),
                            injections={2: {"p": 0.2 + 0.1j}})
        v2 = imap.voltage(x, 2, "p")
        # independent check: V2 = 1 - z * I
        want = 1 - complex(0.01, 0.1) * complex(0.2, 0.1)
        assert v2 == pytest.approx(want, abs=1e-10)
