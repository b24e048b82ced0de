"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Criteria marked data-dependent skip when the external
datasets are absent.
"""

import cmath
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from netgen import random_combined, random_state
from oracles import dense_mismatch, fd_jacobian, phase_to_sequence_6x6, polar_power_flow, sequence_to_phase_6x6
from splitting import build_augmented_splitting, spectral_radius, split_block_diagonal
from tandem.cli import main as cli_main
from tandem.gsn import GsnOptions, solve_gsn
from tandem.ingest import load_combined_case, parse_transmission
from tandem.netmodel import ALPHA, build_index_map
from tandem.newton import SolveFailure, SolverOptions, solve_direct
from tandem.sparse import assemble
from tandem.stamping import CompiledCircuit, stamp_system


@contextmanager
def criterion(num, text):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL  ({text})")
        raise
    print(f"ACCEPTANCE {num}: PASS  ({text}) [{time.perf_counter() - t0:.1f}s]")


def test_acceptance_01_stamp_and_jacobian_oracles():
    """Assembled residual vs dense complex oracle (1e-9) and analytic
    Jacobian vs central finite differences (1e-5 relative) on 20
    randomized mixed networks."""
    with criterion(1, "stamp/residual oracle suite"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240811)
        checked = 0
        while checked < 20:
            net = random_combined(rng)
            imap = build_index_map(net)
            x = random_state(rng, net, imap, vm_range=(0.5, 1.5), ang_spread=0.4)
            lin, nonlin = stamp_system(CompiledCircuit(net, imap), x)
            system = assemble([lin, nonlin], imap.n)
            resid = system.matrix @ x - system.rhs
            oracle = dense_mismatch(net, imap, x)
            assert np.abs(resid - oracle).max() < 1e-9
            ja = system.matrix.toarray()
            jf = fd_jacobian(net, imap, x)
            rel = np.abs(ja - jf) / np.maximum(np.abs(jf), 1.0)
            assert rel.max() < 1e-5
            checked += 1
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_02_symmetrical_components():
    """Sequence transform identities exact to 1e-12 against the complex
    3x3 oracle."""
    with criterion(2, "symmetrical-component correctness"):
        t0 = time.perf_counter()
        fwd, inv = sequence_to_phase_6x6(), phase_to_sequence_6x6()
        assert np.abs(fwd @ inv - np.eye(6)).max() < 1e-12
        # balanced currents -> pure positive sequence
        iabc = []
        for ang in (-10.0, -130.0, 110.0):
            c = cmath.rect(2.0, np.radians(ang))
            iabc += [c.real, c.imag]
        seq = inv @ np.array(iabc)
        assert abs(complex(seq[2], seq[3]) - cmath.rect(2.0, np.radians(-10))) < 1e-12
        assert abs(complex(seq[0], seq[1])) < 1e-12
        assert abs(complex(seq[4], seq[5])) < 1e-12
        # zero sequence -> zero port injection
        seq = inv @ np.array([1, 0, 1, 0, 1, 0], dtype=float)
        assert abs(complex(seq[2], seq[3])) < 1e-12
        # unit positive-sequence voltage reproduces the 0/-120/+120 pattern
        phase = fwd @ np.array([0, 0, 1, 0, 0, 0], dtype=float)
        va, vb, vc = (complex(phase[2 * k], phase[2 * k + 1]) for k in range(3))
        assert abs(va - 1) < 1e-12
        assert abs(vb - ALPHA**2) < 1e-12
        assert abs(vc - ALPHA) < 1e-12
        # round trip on random phasors
        rng = np.random.default_rng(5)
        v = rng.normal(size=6)
        assert np.abs(fwd @ (inv @ v) - v).max() < 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_acceptance_03_direct_nr_ground_truth(case2, case9):
    """2-bus and 9-bus cases from flat start: mismatch <= 1e-6 and load-bus
    voltages within 1e-8 of the dense polar oracle."""
    with criterion(3, "direct-NR ground truth"):
        t0 = time.perf_counter()
        for path in (case2, case9):
            net = parse_transmission(path)
            imap = build_index_map(net)
            x, rep = solve_direct(net, SolverOptions(tol=1e-11, flat_start=True))
            assert rep.converged and rep.final_residual <= 1e-6
            volts, _ = polar_power_flow(net)
            for b in net.buses:
                if any(l.bus == b.id for l in net.loads):
                    assert abs(imap.voltage(x, b.id, "p") - volts[b.id]) < 1e-8
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_04_robustness_differential(case_radial7):
    """Heavily loaded radial case near its nose: plain NR (no limiting, no
    continuation) must fail from flat start within 100 iterations while
    limiting plus series-admittance stepping converges, with the lam=1
    intermediate hugging the slack angle."""
    with criterion(4, "robustness differential"):
        t0 = time.perf_counter()
        net = parse_transmission(case_radial7).with_loading_factor(1.05)
        imap = build_index_map(net)

        # robust path: limiting + continuation engaged from the trivial end
        opts = SolverOptions(homotopy="on", keep_homotopy_states=True, flat_start=True)
        x, rep = solve_direct(net, opts)
        assert rep.converged and rep.final_residual <= opts.tol

        # the fully shorted intermediate sits within an epsilon-small angle
        # radius around the slack bus
        lam1 = rep.homotopy_states[1.0]
        for b in net.buses:
            assert abs(cmath.phase(imap.voltage(lam1, b.id, "p"))) < 1e-3

        # plain NR: limiting and continuation disabled
        plain = SolverOptions(limiting=False, homotopy="off", max_iter=100, flat_start=True)
        try:
            _, plain_rep = solve_direct(net, plain)
            converged_plain = plain_rep.converged
            detail = f"converged in {plain_rep.iterations} iterations"
        except SolveFailure as exc:
            converged_plain = False
            detail = str(exc)
        assert not converged_plain, (
            "plain NR unexpectedly solved the stressed case: " + detail +
            "; at desk scale this implementation's unlimited Newton converges"
            " on every feasible radial case tried (see the decisions ledger"
            " for the full analysis)"
        )
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_05_gsn_matches_direct(data_dir):
    """Combined case solved by both algorithms: every node-voltage magnitude
    within the outer tolerance (1e-3)."""
    with criterion(5, "GSN equals direct NR"):
        t0 = time.perf_counter()
        net = load_combined_case(data_dir / "case9.m", data_dir / "case9_feeder1.json")
        imap = build_index_map(net)
        xd, _ = solve_direct(net, SolverOptions())
        xg, rep = solve_gsn(net, SolverOptions(), GsnOptions())
        assert rep.converged
        worst = 0.0
        for b in net.buses:
            for ph in b.phases:
                worst = max(
                    worst,
                    abs(abs(imap.voltage(xg, b.id, ph)) - abs(imap.voltage(xd, b.id, ph))),
                )
        assert worst <= 1e-3
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_06_gsn_convergence_behavior(data_dir):
    """Four replicated feeders: convergence within 20 epochs, per-epoch inner
    iteration counts inside the [1, 20] sanity band."""
    with criterion(6, "GSN convergence behavior"):
        t0 = time.perf_counter()
        net = load_combined_case(data_dir / "case9.m", data_dir / "case9_feeder4.json")
        _, rep = solve_gsn(net, SolverOptions(), GsnOptions())
        assert rep.converged
        assert rep.epochs <= 20
        for epoch in rep.inner_iterations:
            for sub, iters in epoch.items():
                assert 1 <= iters <= 20, (sub, iters)
        # boundary change is non-increasing over the closing epochs
        tail = rep.boundary_deltas[-3:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_07_pv_curve(data_dir, tmp_path):
    """Stressed combined case: PV curve non-increasing up to the nose; DER
    injections lift the curve everywhere and extend the convergent range."""
    with criterion(7, "PV-curve behavior"):
        t0 = time.perf_counter()
        out = tmp_path / "pv"
        rc = cli_main([
            "pvcurve",
            "--case", str(data_dir / "case9.m"),
            "--coupling", str(data_dir / "case9_stressed.json"),
            "--lf-start", "1.0", "--lf-stop", "3.0", "--lf-step", "0.1",
            "--der-scale", "0,1",
            "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "pvcurve.csv").read_text().splitlines()
        assert rows[0] == "lf,v_poi_der0,v_poi_der1"
        base, der = {}, {}
        for row in rows[1:]:
            lf, b, d = row.split(",")
            if b:
                base[float(lf)] = float(b)
            if d:
                der[float(lf)] = float(d)
        series = [base[k] for k in sorted(base)]
        assert all(x > y for x, y in zip(series, series[1:]))
        assert all(der[lf] > base[lf] for lf in base)
        assert max(der) > max(base)
        assert time.perf_counter() - t0 < 120.0


def test_acceptance_08_splitting_verification():
    """Augmented splitting on random BBD matrices: exact reconstruction,
    the frozen toy semantics at alpha = 1/2, and contraction for positive
    definite systems."""
    with criterion(8, "splitting verification"):
        t0 = time.perf_counter()
        # frozen toy pins the alpha semantics
        m, n = build_augmented_splitting(np.diag([4.0, 4.0]), np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert np.allclose(m, np.diag([4.5, 5.0]))
        assert np.allclose(n, np.array([[0.5, -1.0], [-2.0, 1.0]]))

        rng = np.random.default_rng(88)
        radii = []
        for _ in range(10):
            size = int(rng.integers(6, 14))
            split_at = int(rng.integers(2, size - 2))
            blocks = [(0, split_at), (split_at, size)]
            base = rng.normal(size=(size, size)) * 0.1
            j = base @ base.T + np.eye(size) * (0.4 * size)
            j = j + rng.normal(size=(size, size)) * 0.01
            assert np.all(np.linalg.eigvals((j + j.T) / 2).real > 0)
            d, e = split_block_diagonal(j, blocks)
            m, n = build_augmented_splitting(d, e, alpha=0.5)
            assert np.array_equal(m - n, j)
            rho = spectral_radius(m, n)
            radii.append(rho)
            assert rho < 1.0
        print("  spectral radii:", " ".join(f"{r:.3f}" for r in radii))
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_09_scalability_trend(data_dir, tmp_path):
    """bench over k in {1, 4, 16} replicated feeders: wall time grows
    subquadratically (log-log fit exponent < 2)."""
    with criterion(9, "scalability trend"):
        t0 = time.perf_counter()
        out = tmp_path / "bench"
        rc = cli_main([
            "bench",
            "--case", str(data_dir / "case27.m"),
            "--feeder", str(data_dir / "feeder_medium.json"),
            "--counts", "1,4,16",
            "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        ks, times = [], []
        for row in rows:
            k, n, wall, epochs, mean_inner = row.split(",")
            assert epochs != "", f"bench point k={k} failed"
            ks.append(float(k))
            times.append(float(wall))
        exponent = np.polyfit(np.log(ks), np.log(times), 1)[0]
        print(f"  bench points: {list(zip(ks, times))}, exponent {exponent:.2f}")
        assert exponent < 2.0
        assert time.perf_counter() - t0 < 600.0


def test_acceptance_10_full_scale_reproduction(data_dir):
    """Optional, data-permitting: the public 70k-bus case with 100 converted
    feeders per the bundled coupling layout reproduces the documented POI
    voltage extremes."""
    case = os.environ.get("TANDEM_ACTIVSG70K_CASE")
    feeders = os.environ.get("TANDEM_TAXONOMY_FEEDER_DIR")
    if not case or not feeders or not Path(case).exists():
        pytest.skip("public 70k-bus case / converted taxonomy feeders not provided "
                    "(set TANDEM_ACTIVSG70K_CASE and TANDEM_TAXONOMY_FEEDER_DIR)")
    with criterion(10, "full-scale reproduction"):
        from tandem.ingest import CouplingMap, CouplingEntry, build_combined, parse_feeder_doc
        from tandem.results import poi_extremes

        layout = json.loads((data_dir / "activsg70k_coupling.json").read_text())
        tnet = parse_transmission(case)
        entries = []
        docs = {}
        for item in layout["couplings"]:
            name = item["feeder"]
            entries.append(CouplingEntry(feeder=name, bus=item["bus"]))
            if name not in docs:
                docs[name] = parse_feeder_doc(Path(feeders) / name)
        net = build_combined(tnet, CouplingMap(entries, Path(feeders)), docs)
        x, rep = solve_gsn(net, SolverOptions(flat_start=True), GsnOptions())
        assert 6 <= rep.epochs <= 24
        ext = poi_extremes(net, build_index_map(net), x)
        assert ext["max"]["node"] == 24157
        assert abs(ext["max"]["magnitude"] - 1.0420) <= 5e-3
        assert ext["min"]["node"] == 27104
        assert abs(ext["min"]["magnitude"] - 0.9651) <= 5e-3
