#!/usr/bin/env python3
"""Time one Newton iteration on the band and the sparse kernel, by system size.

The crossover it finds sets ``tandem.sparse.DENSE_MAX_N``: below it the
band kernel (LAPACK's banded LU on a reverse Cuthill-McKee order) is
faster, above it SuperLU is.

    PYTHONPATH=src python tools/dense_crossover.py [n ...]

The systems are leading principal blocks of the Jacobian of case27 with
one ``feeder_medium`` on each of its 24 PQ buses (2,698 unknowns), taken
at the converged state: the transmission block, then whole and partial
feeder blocks.  For each size the script prints the band widths ``kl``
and ``ku`` of the block under its RCM order and the best time to make
its band plan (the order, the widths and the gather), then times, best
of several rounds, what a Newton iteration does with the assembled
system on each kernel: assembly from the triplets through a plan made
once, the residual ``A x - b``, and ``factor_solve`` (LU plus iterative
refinement).  BLAS is pinned to one thread, as in ``perfbench``.  To
make a band plan above ``DENSE_MAX_N`` the script raises the bound while
it makes one.

    PYTHONPATH=src python tools/dense_crossover.py pvcurve

splits one Newton iteration of ``tandem pvcurve`` on case9 +
``case9_stressed`` (100 unknowns, at the solution for load factor 1.0)
into its stages, best of several rounds each: the nonlinear stamps on
the attempt's kept linear stamps, the assembly, and ``factor_solve``.

    PYTHONPATH=src python tools/dense_crossover.py orderings

sweeps the sparse kernel's SuperLU settings instead, on the whole 2,698
unknown Jacobian: for each column ordering (``permc_spec``) and diagonal
pivot threshold it prints the best ``splu`` time of interleaved rounds,
the fill (nonzeros of L plus U) and the residual ``factor_solve`` reaches
after refinement, then the same for the ordering a plan learns at its
first factor and reuses on later ones (``reused``).  A second table sweeps
SuperLU's ``panel_size`` on the kernel's ordering and threshold: the best
time of a plan's first, learning factor and of a later factor on the
learned ordering, each with the permutation and CSC construction it
needs.  These set ``tandem.sparse.PERMC_SPEC``, ``DIAG_PIVOT_THRESH`` and
``PANEL_SIZE``.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (50, 75, 100, 125, 150, 175, 200, 225, 250, 275, 300, 400)
ORDERINGS = ("COLAMD", "MMD_AT_PLUS_A", "MMD_ATA")
THRESHOLDS = (1.0, 0.1, 0.01)
PANEL_SIZES = (1, 2, 4, 8, 10, 16)  # 10 is SuperLU's default


def k24_system():
    """([linear, nonlinear] stamp sets, state) of the converged case27 + 24 x feeder_medium system."""
    import tandem
    from tandem.ingest import CouplingEntry, CouplingMap, build_combined, parse_feeder_doc, parse_transmission
    from tandem.netmodel import BusKind, build_index_map
    from tandem.newton import solve_direct
    from tandem.stamping import CompiledCircuit

    data = Path(tandem.__file__).resolve().parent / "data"
    tnet = parse_transmission(data / "case27.m")
    buses = sorted(b.id for b in tnet.buses if b.kind is BusKind.PQ)
    cmap = CouplingMap(entries=[CouplingEntry(feeder="feeder_medium.json", bus=b) for b in buses], base_dir=data)
    net = build_combined(tnet, cmap, {"feeder_medium.json": parse_feeder_doc(data / "feeder_medium.json")})
    imap = build_index_map(net)
    circuit = CompiledCircuit(net, imap)
    x, _ = solve_direct(net, circuit=circuit)
    return [circuit.linear(None), circuit.nonlinear(x, {})], x


def leading_block(stamps, n: int):
    from tandem.stamping import StampSet

    blocks = []
    for st in stamps:
        keep = (st.rows < n) & (st.cols < n)
        rkeep = st.rhs_rows < n
        blocks.append(StampSet(st.rows[keep], st.cols[keep], st.vals[keep], st.rhs_rows[rkeep], st.rhs_vals[rkeep]))
    return blocks


def band_plan(stamps, n: int, rounds: int = 20):
    """(plan on the band kernel for the ``n`` unknowns of ``stamps``, best time in microseconds to make it)."""
    from tandem import sparse

    saved, sparse.DENSE_MAX_N = sparse.DENSE_MAX_N, n
    try:
        best = np.inf
        for _ in range(rounds):
            t0 = time.perf_counter()
            plan = sparse.AssemblyPlan(n, [st.rows for st in stamps], [st.cols for st in stamps], dense=True)
            best = min(best, time.perf_counter() - t0)
    finally:
        sparse.DENSE_MAX_N = saved
    return plan, best * 1e6


def iteration_us(plan, stamps, x: np.ndarray, rounds: int = 7, reps: int = 40) -> float:
    """Best per-iteration time in microseconds of assemble + residual + factor_solve on ``plan``.

    As within one Newton attempt, the linear stamp set is the same object on
    every call and the sparse kernel factors on its plan's learned ordering.
    """
    from tandem import sparse

    sparse.factor_solve(plan.assemble(stamps))  # learns the ordering
    best = np.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            system = plan.assemble(stamps)
            np.abs(system.matrix @ x - system.rhs).max()
            sparse.factor_solve(system)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def pvcurve(rounds: int = 7, reps: int = 200) -> None:
    """Print the best time in microseconds of each stage of one Newton iteration of the pvcurve system."""
    import tandem
    from tandem.ingest import load_combined_case
    from tandem.netmodel import build_index_map
    from tandem.newton import solve_direct
    from tandem.sparse import factor_solve
    from tandem.stamping import CompiledCircuit, stamp_system

    data = Path(tandem.__file__).resolve().parent / "data"
    net = load_combined_case(data / "case9.m", data / "case9_stressed.json")
    circuit = CompiledCircuit(net, build_index_map(net))
    circuit.set_load_factor(1.0)
    x, _ = solve_direct(net, circuit=circuit)
    linear, nonlinear = stamp_system(circuit, x, None, {}, None)
    system = circuit.plan.assemble([linear, nonlinear])
    stages = {
        "stamp": lambda: stamp_system(circuit, x, None, {}, linear),
        "assemble": lambda: circuit.plan.assemble([linear, nonlinear]),
        "factor": lambda: factor_solve(system),
    }
    best = dict.fromkeys(stages, np.inf)
    for _ in range(rounds):
        for name, call in stages.items():
            t0 = time.perf_counter()
            for _ in range(reps):
                call()
            best[name] = min(best[name], (time.perf_counter() - t0) / reps)
    band = system.ordering
    print(f"n={len(x)} kl={band.kl} ku={band.ku}")
    print("stage,us")
    for name, t in best.items():
        print(f"{name},{t * 1e6:.1f}")
    print(f"iteration,{sum(best.values()) * 1e6:.1f}")


def _best_ms(cases: dict, rounds: int) -> dict:
    """Best time in ms of each case's call, over rounds interleaved so that host drift falls on all alike."""
    best = dict.fromkeys(cases, np.inf)
    for _ in range(rounds):
        for key, call in cases.items():
            t0 = time.perf_counter()
            call()
            best[key] = min(best[key], time.perf_counter() - t0)
    return {key: t * 1e3 for key, t in best.items()}


def orderings(stamps, n: int, rounds: int = 60) -> None:
    """Print splu time, fill and refined residual per (ordering, threshold) on the whole system, then
    the learning and the reusing factor's time per panel size."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    from tandem import sparse

    system = sparse.assemble(stamps, n)
    learned = system.ordering
    sparse.factor_solve(system)  # learns the ordering
    sparse.factor_solve(system)  # builds its gather
    g, indices, indptr, _ = learned.gather
    settings = {(spec, thresh): (system.matrix, spec, thresh) for spec in ORDERINGS for thresh in THRESHOLDS}
    settings["reused", sparse.DIAG_PIVOT_THRESH] = (
        sp.csc_matrix((system.matrix.data[g], indices, indptr), shape=(n, n)), "NATURAL", sparse.DIAG_PIVOT_THRESH)

    def splu(m, spec, thresh):
        return spla.splu(m, permc_spec=spec, diag_pivot_thresh=thresh, panel_size=sparse.PANEL_SIZE)

    best = _best_ms({key: lambda args=args: splu(*args) for key, args in settings.items()}, rounds)
    scale = max(1.0, float(np.abs(system.rhs).max()))
    print("permc_spec,diag_pivot_thresh,splu_ms,lu_nnz,refined_residual")
    saved = sparse.PERMC_SPEC, sparse.DIAG_PIVOT_THRESH, sparse.PANEL_SIZE
    try:
        for (spec, thresh), args in settings.items():
            lu = splu(*args)
            if spec == "reused":
                x = sparse.factor_solve(system)
            else:
                sparse.PERMC_SPEC, sparse.DIAG_PIVOT_THRESH = spec, thresh
                x = sparse.factor_solve(sparse.SparseSystem(n, system.matrix, system.rhs))  # orders afresh
            sparse.PERMC_SPEC, sparse.DIAG_PIVOT_THRESH = saved[:2]
            resid = float(np.abs(system.matrix @ x - system.rhs).max()) / scale
            print(f"{spec},{thresh},{best[spec, thresh]:.2f},{lu.L.nnz + lu.U.nnz},{resid:.1e}")
        print("panel_size,learning_factor_ms,reusing_factor_ms")
        cases = {}
        for size in PANEL_SIZES:
            def learn(size=size):
                sparse.PANEL_SIZE = size
                sparse._Ordering().lu(system.matrix)

            def reuse(size=size):
                sparse.PANEL_SIZE = size
                learned.lu(system.matrix)

            cases[size, "learn"], cases[size, "reuse"] = learn, reuse
        best = _best_ms(cases, rounds)
        for size in PANEL_SIZES:
            print(f"{size},{best[size, 'learn']:.2f},{best[size, 'reuse']:.2f}")
    finally:
        sparse.PERMC_SPEC, sparse.DIAG_PIVOT_THRESH, sparse.PANEL_SIZE = saved


def main(argv: list[str]) -> int:
    from tandem import sparse

    if argv[:1] == ["orderings"]:
        stamps, x = k24_system()
        orderings(stamps, len(x))
        return 0
    if argv[:1] == ["pvcurve"]:
        pvcurve()
        return 0
    sizes = [int(a) for a in argv] or SIZES
    stamps, x = k24_system()
    print("n,kl,ku,plan_setup_us,sparse_us,band_us,band/sparse")
    for n in sizes:
        st = leading_block(stamps, n)
        band, setup_us = band_plan(st, n)
        row = []
        for plan in (sparse.AssemblyPlan(n, band.rows, band.cols), band):
            try:
                row.append(iteration_us(plan, st, x[:n]))
            except sparse.SingularSystemError as exc:  # a cut that leaves a singular block is reported, not timed
                row.append(float("nan"))
                print(f"n={n} {'sparse' if plan is not band else 'band'}: {exc}", file=sys.stderr)
        print(f"{n},{band._ordering.kl},{band._ordering.ku},{setup_us:.0f},{row[0]:.0f},{row[1]:.0f},"
              f"{row[1] / row[0]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
