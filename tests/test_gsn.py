from dataclasses import replace

import numpy as np
import pytest

from netgen import MIXED, case27_with_feeders, random_combined, random_repeated_feeders
from oracles import dense_mismatch
from splitting import (
    build_augmented_splitting,
    check_diagonal_dominance,
    identify_feedback_feedforward,
    spectral_radius,
    split_block_diagonal,
)
from tandem.gsn import (
    GsnError,
    GsnOptions,
    solve_gsn,
    tear,
)
from tandem.ingest import load_combined_case, parse_transmission
from tandem.netmodel import (
    POSITIVE_SEQUENCE,
    THREE_PHASE,
    BusKind,
    build_index_map,
    initial_state,
    validate,
)
from tandem.newton import SolverOptions, solve_direct
from tandem.sparse import assemble
from tandem.stamping import CompiledCircuit, stamp_system


@pytest.fixture(scope="module")
def combined1(data_dir):
    return load_combined_case(data_dir / "case9.m", data_dir / "case9_feeder1.json")


@pytest.fixture(scope="module")
def combined4(data_dir):
    return load_combined_case(data_dir / "case9.m", data_dir / "case9_feeder4.json")


@pytest.fixture(scope="module")
def mixed(data_dir):
    return case27_with_feeders(data_dir, MIXED)


class TestTear:
    def test_subcircuit_count(self, data_dir):
        net = load_combined_case(data_dir / "case9.m", data_dir / "case9_feeder4.json")
        part = tear(net)
        assert [(s.name, s.kind) for s in part.subs] == [("transmission", "transmission"), ("feeders", "feeder")]
        assert part.subs[1].ports == tuple(net.ports)

    def test_no_ports_single_subcircuit(self, case9):
        net = parse_transmission(case9)
        part = tear(net)
        assert len(part.subs) == 1

    def test_boundary_bookkeeping(self, combined1):
        part = tear(combined1)
        t, f = part.subs
        # internal sets: disjoint, and cover everything except the port block
        imap = part.imap
        p_start, p_stop = imap.block("ports")
        internal_union = set(t.internal_global) | set(f.internal_global)
        assert not (set(t.internal_global) & set(f.internal_global))
        assert internal_union == set(range(p_start))

    def test_internal_dims_by_enumeration(self, combined1):
        part = tear(combined1)
        t, f = part.subs
        tnet_nodal = sum(2 for b in combined1.buses if b.kind.is_transmission)
        # transmission internal: nodal + slack currents + PV unknowns
        assert len(t.internal_global) == tnet_nodal + 2 + 2
        f_nodal = sum(2 * len(b.phases) for b in combined1.buses if b.kind.is_distribution)
        assert len(f.internal_global) == f_nodal

    def test_local_global_mapping_complete(self, combined4):
        part = tear(combined4)
        covered = set()
        for sub in part.subs:
            covered.update(sub.local_to_global.tolist())
        assert covered == set(range(part.imap.n))

    def test_local_global_mapping_random(self):
        # every local unknown maps to the same global quantity, feeder
        # head currents to their port's currents, and the internal sets
        # split everything before the port border
        rng = np.random.default_rng(4051)
        checked = 0
        for _ in range(40):
            net = random_combined(rng)
            if not net.ports or validate(net):
                continue
            part = tear(net)
            imap = part.imap
            port_at_head = {p.feeder_head: p.id for p in net.ports}
            for sub in part.subs:
                l2g, local = sub.local_to_global, sub.imap
                rows, codes = np.nonzero(local.slots >= 0)
                li, gi = local.slots[rows, codes], imap.v_index(local.bus_ids[rows], codes)
                assert l2g[li].tolist() == gi.tolist() and l2g[li + 1].tolist() == (gi + 1).tolist()
                for bus, li in local.gen_q.items():
                    assert l2g[li] == imap.gen_q[bus]
                for (bus, ph), pair in local.source_current.items():
                    if bus in port_at_head:
                        want = imap.port_current[(port_at_head[bus], ph)]
                    else:
                        want = imap.source_current[(bus, ph)]
                    assert (l2g[pair[0]], l2g[pair[1]]) == want
            internal = [set(s.internal_global.tolist()) for s in part.subs]
            union = set().union(*internal)
            assert sum(len(i) for i in internal) == len(union)
            assert union == set(range(imap.block("ports")[0]))
            checked += 1
        assert checked >= 5


class TestFeedbackFeedforward:
    def test_port_arity(self, combined1):
        part = tear(combined1)
        v_fb, v_ff = identify_feedback_feedforward(part)
        assert len(v_ff) == 2
        assert len(v_fb) == 6

    def test_no_ports_empty(self, case9):
        part = tear(parse_transmission(case9))
        v_fb, v_ff = identify_feedback_feedforward(part)
        assert len(v_fb) == 0 and len(v_ff) == 0

    def test_sides(self, combined1):
        part = tear(combined1)
        v_fb, v_ff = identify_feedback_feedforward(part)
        imap = part.imap
        port = combined1.ports[0]
        assert set(v_ff) == set(imap.v_pair(port.transmission_bus, POSITIVE_SEQUENCE))
        want_fb = set()
        for ph in THREE_PHASE:
            want_fb.update(imap.v_pair(port.feeder_head, ph))
        assert set(v_fb) == want_fb

    def test_pattern_scan_three_ports(self, data_dir):
        # the pattern oracle marks exactly the declared sets on a 3-port case
        import json
        tmp = data_dir / "case9_feeder4.json"
        net = load_combined_case(data_dir / "case9.m", tmp)
        part = tear(net)
        imap = part.imap
        x = initial_state(net, imap)
        lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
        pattern = assemble([lin, nonlin], imap.n).matrix
        v_fb, v_ff = identify_feedback_feedforward(part, pattern)
        assert len(v_ff) == 2 * len(net.ports)
        assert len(v_fb) == 6 * len(net.ports)


class TestSplitting:
    def test_zero_coupling(self):
        d = np.diag([4.0, 4.0])
        e = np.zeros((2, 2))
        m, n = build_augmented_splitting(d, e)
        assert np.allclose(m, d) and np.allclose(n, 0)

    def test_frozen_toy(self):
        d = np.diag([4.0, 4.0])
        e = np.array([[0.0, 1.0], [2.0, 0.0]])
        m, n = build_augmented_splitting(d, e, alpha=0.5)
        assert np.allclose(m, np.diag([4.5, 5.0]))
        assert np.allclose(n, np.array([[0.5, -1.0], [-2.0, 1.0]]))
        assert np.allclose(m - n, d + e)

    def test_exact_reconstruction_random(self):
        # BBD-shaped matrices with the diagonal dominating the coupling
        # row sums, as MNA systems are
        rng = np.random.default_rng(12)
        for _ in range(10):
            n_ = 8
            j = rng.normal(size=(n_, n_)) * 0.3
            j[np.arange(n_), np.arange(n_)] = rng.uniform(3.0, 6.0, size=n_)
            blocks = [(0, 4), (4, 8)]
            d, e = split_block_diagonal(j, blocks)
            m, nn = build_augmented_splitting(d, e)
            assert np.array_equal(m - nn, j)

    def test_spectral_radius_reported_and_contractive_for_pd(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n_ = 10
            blocks = [(0, 5), (5, 10)]
            base = rng.normal(size=(n_, n_)) * 0.15
            j = base @ base.T + np.eye(n_) * (n_ * 0.5)  # symmetric PD, block-dominant
            j += rng.normal(size=(n_, n_)) * 0.01  # mild asymmetry, still PD
            assert np.all(np.linalg.eigvals((j + j.T) / 2).real > 0)
            d, e = split_block_diagonal(j, blocks)
            m, nn = build_augmented_splitting(d, e, alpha=0.5)
            rho = spectral_radius(m, nn)
            assert np.isfinite(rho)
            assert rho < 1.0


class TestDiagonalDominance:
    def test_identity(self):
        rep = check_diagonal_dominance(np.eye(3))
        assert rep.all_dominant
        assert all(r.margin == -1.0 for r in rep.rows)

    def test_violation_margin(self):
        m = np.array([[1.0, 0.0, 1.0, 1.0],
                      [0.0, 5.0, 1.0, 1.0],
                      [0.0, 0.0, 2.0, 0.0],
                      [0.0, 0.0, 0.0, 2.0]])
        rep = check_diagonal_dominance(m)
        # off-diagonal entries (0, 1, 1) against a unit diagonal
        assert rep.rows[0].margin == pytest.approx(1.0)
        assert not rep.rows[0].dominant
        assert rep.rows[1].dominant
        assert [r.row for r in rep.violations] == [0]

    def test_matches_dense_oracle_on_case9(self, case9):
        net = parse_transmission(case9)
        imap = build_index_map(net)
        x = initial_state(net, imap)
        lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
        m = assemble([lin, nonlin], imap.n).matrix
        rep = check_diagonal_dominance(m)
        dense = m.toarray()
        for r in rep.rows:
            off = np.abs(dense[r.row]).sum() - abs(dense[r.row, r.row])
            assert r.off_diagonal_sum == pytest.approx(off)
            assert r.diagonal == pytest.approx(abs(dense[r.row, r.row]))


class TestSolveGsn:
    def test_matches_direct(self, combined1):
        opts = SolverOptions()
        xg, rep = solve_gsn(combined1, opts, GsnOptions())
        xd, _ = solve_direct(combined1, opts)
        imap = build_index_map(combined1)
        for b in combined1.buses:
            for ph in b.phases:
                assert abs(
                    abs(imap.voltage(xg, b.id, ph)) - abs(imap.voltage(xd, b.id, ph))
                ) < 1e-3
        assert rep.converged

    def test_matches_direct_random(self):
        # on seeded random networks with a port, the boundary exchange
        # reaches direct Newton's answer without a stall
        rng = np.random.default_rng(7)
        opts = SolverOptions(tol=1e-9)
        gsn = GsnOptions(outer_tol=1e-6)
        checked = 0
        for _ in range(100):
            net = random_combined(rng)
            if not net.ports:
                continue
            xd, _ = solve_direct(net, opts)
            xg, rep = solve_gsn(net, opts, gsn)
            imap = build_index_map(net)
            for b in net.buses:
                for ph in b.phases:
                    assert abs(imap.voltage(xg, b.id, ph) - imap.voltage(xd, b.id, ph)) <= 1e-5
            assert rep.global_residual <= 1e-5
            assert rep.global_residual <= gsn.outer_tol
            assert rep.epochs <= 10
            checked += 1
        assert checked >= 20

    def test_global_residual_is_the_oracle_mismatch(self):
        # the block-wise mismatch GSN stops on is the dense oracle's mismatch of the
        # combined system at the returned state, at default and at tight tolerances
        rng = np.random.default_rng(7)  # the networks of test_matches_direct_random
        nets = [net for net in (random_combined(rng) for _ in range(100)) if net.ports]
        worst = 0.0
        for opts, gsn in ((SolverOptions(), GsnOptions()), (SolverOptions(tol=1e-9), GsnOptions(outer_tol=1e-6))):
            for net in nets:
                imap = build_index_map(net)
                x, rep = solve_gsn(net, opts, gsn, imap=imap)
                worst = max(worst, abs(rep.global_residual - np.abs(dense_mismatch(net, imap, x)).max()))
        assert len(nets) >= 20 and worst <= 1e-12

    def test_failing_feeder_named(self, combined4):
        # one feeder's loads scaled past what it can carry fail the joint feeder-side
        # solve; the error names that feeder's block
        imap = build_index_map(combined4)
        for block in (1, 3):
            loads = tuple(replace(ld, s=tuple(100 * s for s in ld.s)) if imap.feeder_of_bus.get(ld.bus) == block
                          else ld for ld in combined4.loads)
            with pytest.raises(GsnError, match=f"^subcircuit feeder:{block} failed to converge"):
                solve_gsn(replace(combined4, loads=loads), SolverOptions(), GsnOptions())

    def test_no_ports_single_epoch(self, case9):
        net = parse_transmission(case9)
        x, rep = solve_gsn(net, SolverOptions(), GsnOptions())
        assert rep.epochs == 1 and rep.converged

    def test_replicated_feeders_symmetric_heads(self, data_dir):
        # four identical feeders on four electrically identical buses:
        # by symmetry every feeder-head voltage must agree within the
        # outer tolerance
        import numpy as np

        from tandem.ingest import CouplingEntry, CouplingMap, build_combined, parse_feeder_doc
        from tandem.netmodel import (
            Bus,
            ElementKind,
            Load,
            Network,
            SeriesElement,
        )

        y = np.array([[1 / complex(0.01, 0.08)]])
        buses = [Bus(1, BusKind.SLACK, "p", 138.0, (1.02 + 0j,))]
        elements = []
        loads = []
        for i in range(2, 6):
            buses.append(Bus(i, BusKind.PQ, "p", 138.0, (1 + 0j,)))
            elements.append(SeriesElement(i - 2, 1, i, ElementKind.LINE, "p", y))
            loads.append(Load(i, "p", (0.1 + 0.03j,)))
        star = Network(base_mva=100.0, buses=buses, elements=elements, loads=loads)
        doc = parse_feeder_doc(data_dir / "feeder_medium.json")
        cmap = CouplingMap([CouplingEntry("f", b) for b in (2, 3, 4, 5)], None)
        net = build_combined(star, cmap, {"f": doc})

        xg, rep = solve_gsn(net, SolverOptions(), GsnOptions())
        imap = build_index_map(net)
        head_v = [abs(imap.voltage(xg, p.feeder_head, "a")) for p in net.ports]
        assert max(head_v) - min(head_v) < 1e-3
        assert rep.converged

    @staticmethod
    def _compiles(net, monkeypatch) -> int:
        """CompiledCircuit constructions in one default GSN solve of ``net``."""
        import tandem.gsn
        import tandem.newton
        import tandem.stamping

        compiled = []

        class Counting(tandem.stamping.CompiledCircuit):
            def __init__(self, *args, **kwargs):
                compiled.append(1)
                super().__init__(*args, **kwargs)

        for module in (tandem.stamping, tandem.newton, tandem.gsn):
            monkeypatch.setattr(module, "CompiledCircuit", Counting, raising=False)
        _, rep = solve_gsn(net, SolverOptions(), GsnOptions())
        assert rep.epochs > 1
        return len(compiled)

    def test_one_compile_per_subcircuit(self, combined4, monkeypatch):
        # four identical feeders: the transmission block and the feeder side compile
        # once per solve
        assert self._compiles(combined4, monkeypatch) == 2

    def test_one_compile_per_distinct_feeder(self, mixed, monkeypatch):
        # six distinct (feeder, load scale, DER scale) over 18 copies: still one compile
        # for the whole feeder side plus transmission, fewer than one per distinct feeder
        assert len(set(MIXED)) > 2
        assert self._compiles(mixed, monkeypatch) == 2

    def test_copies_solve_like_direct(self):
        # feeders shared between copies reach direct Newton's answer on every copy
        rng = np.random.default_rng(6113)
        opts, gsn = SolverOptions(tol=1e-9), GsnOptions(outer_tol=1e-6)
        for _ in range(8):
            net = random_repeated_feeders(rng)
            xd, _ = solve_direct(net, opts)
            xg, rep = solve_gsn(net, opts, gsn)
            assert rep.converged and rep.global_residual <= gsn.outer_tol
            imap = build_index_map(net)
            for b in net.buses:
                for ph in b.phases:
                    assert abs(imap.voltage(xg, b.id, ph) - imap.voltage(xd, b.id, ph)) <= 1e-5

    def test_epoch_snapshot_independence(self, combined4):
        # two runs, same options: identical epoch-by-epoch boundary deltas
        opts = SolverOptions()
        _, r1 = solve_gsn(combined4, opts, GsnOptions())
        _, r2 = solve_gsn(combined4, opts, GsnOptions())
        assert r1.boundary_deltas == r2.boundary_deltas

    def test_global_residual_near_inner_tolerance(self, combined1):
        opts = SolverOptions(tol=1e-8)
        gsn = GsnOptions(outer_tol=1e-5)
        _, rep = solve_gsn(combined1, opts, gsn)
        assert rep.global_residual <= opts.tol + 10 * gsn.outer_tol

    def test_converged_only_at_outer_tol(self, combined1):
        # a tight outer tolerance is met by the true mismatch, not by a
        # small boundary change
        _, rep = solve_gsn(combined1, SolverOptions(), GsnOptions(outer_tol=1e-8))
        assert rep.converged
        assert rep.global_residual <= 1e-8

    def test_epoch_cap_raises(self, combined1):
        with pytest.raises(GsnError, match="did not converge"):
            solve_gsn(combined1, SolverOptions(), GsnOptions(max_epochs=1))

    def test_epoch_log_written(self, combined1, tmp_path):
        log = tmp_path / "epochs.jsonl"
        solve_gsn(combined1, SolverOptions(), GsnOptions(epoch_log_path=log))
        import json

        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines and {"epoch", "global_mismatch", "boundary_delta", "inner_iters"} <= set(lines[0])
