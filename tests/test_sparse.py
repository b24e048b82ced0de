import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.io import mmread
from scipy.linalg.lapack import dgbtrf, dgbtrs

import tandem.sparse
from netgen import case27_with_feeders, random_combined, random_feeder, random_state, random_transmission
from tandem.netmodel import build_index_map, initial_state, validate
from tandem.newton import solve_direct
from tandem.sparse import (
    DENSE_MAX_N,
    DIAG_PIVOT_THRESH,
    PERMC_SPEC,
    SOLVE_TOL,
    AssemblyPlan,
    SingularSystemError,
    SparseSystem,
    assemble,
    dump_matrix_market,
    factor_solve,
)
from tandem.stamping import CompiledCircuit, HomotopyState, StampSet


def stamps_from(triplets, rhs=()):
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    rhs_rows, rhs_vals = zip(*rhs) if rhs else ((), ())
    return StampSet(rows, cols, vals, rhs_rows, rhs_vals)


def plan_of(stamps, n, dense=True):
    """A plan whose pattern is ``stamps``' index arrays."""
    return AssemblyPlan(n, [st.rows for st in stamps], [st.cols for st in stamps], dense=dense)


def test_duplicates_summed():
    sys_ = assemble([stamps_from([(0, 0, 1.0), (0, 0, 2.0)])], 4)
    assert sys_.matrix[0, 0] == 3.0


def test_empty_triplets_zero_matrix():
    sys_ = assemble([stamps_from([])], 3)
    assert sys_.matrix.nnz == 0
    assert sys_.rhs.tolist() == [0, 0, 0]


def test_rhs_accumulates():
    sys_ = assemble([stamps_from([], rhs=[(1, 2.0), (1, 0.5)])], 4)
    assert sys_.rhs[1] == 2.5


def test_out_of_range_rejected():
    with pytest.raises(IndexError):
        assemble([stamps_from([(4, 0, 1.0)])], 4)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        assemble([stamps_from([(0, 0, float("nan"))])], 4)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**31 - 1))
def test_random_assembly_matches_dense_sum(seed):
    rng = np.random.default_rng(seed)
    n = 50
    k = int(rng.integers(1, 400))
    rows = rng.integers(0, n, size=k)
    cols = rng.integers(0, n, size=k)
    vals = rng.normal(size=k)
    dense = np.zeros((n, n))
    for r, c, v in zip(rows, cols, vals):
        dense[r, c] += v
    st_ = StampSet(rows, cols, vals)
    sys_ = assemble([st_], n)
    assert np.allclose(sys_.matrix.toarray(), dense, atol=0)


def test_assembly_plan_value_update_reuses_pattern():
    a = stamps_from([(0, 0, 1.0), (1, 1, 2.0), (0, 1, 3.0), (0, 0, 4.0)])
    plan = plan_of([a], 4, dense=False)
    plan.assemble([a])
    template1 = plan._template
    b = StampSet(a.rows, a.cols, [5.0, 6.0, 7.0, 8.0])
    s2 = plan.assemble([b])
    assert plan._template is template1  # symbolic pattern reused
    assert s2.matrix[0, 0] == 13.0 and s2.matrix[0, 1] == 7.0


def test_assembly_plan_matches_plain_assemble():
    rng = np.random.default_rng(11)
    n = 30
    rows = rng.integers(0, n, size=200)
    cols = rng.integers(0, n, size=200)
    plan = AssemblyPlan(n, [rows], [cols])
    for _ in range(3):
        vals = rng.normal(size=200)
        st_ = StampSet(rows, cols, vals)
        got = plan.assemble([st_])
        want = assemble([st_], n)
        assert np.allclose(got.matrix.toarray(), want.matrix.toarray(), atol=0)


def test_identity_solve():
    st_ = stamps_from([(i, i, 1.0) for i in range(4)], rhs=[(0, 1.0)])
    x = factor_solve(assemble([st_], 4))
    assert x.tolist() == [1, 0, 0, 0]


def test_random_sparse_solve_residual():
    rng = np.random.default_rng(5)
    n = 100
    dense = np.zeros((n, n))
    triplets = []
    for i in range(n):
        triplets.append((i, i, 5.0 + rng.random()))
        dense[i, i] += triplets[-1][2]
    for _ in range(300):
        r, c = rng.integers(0, n, size=2)
        v = rng.normal()
        triplets.append((int(r), int(c), v))
        dense[r, c] += v
    b = rng.normal(size=n)
    st_ = stamps_from(triplets, rhs=list(enumerate(b)))
    sys_ = assemble([st_], n)
    x = factor_solve(sys_)
    resid = np.abs(sys_.matrix @ x - sys_.rhs).max() / max(1.0, np.abs(b).max())
    assert resid <= 1e-10


def test_structurally_singular_raises():
    st_ = stamps_from([(0, 0, 1.0), (1, 1, 1.0)])  # rows 2,3 empty
    with pytest.raises(SingularSystemError):
        factor_solve(assemble([st_], 4))


def test_numerically_singular_raises():
    st_ = stamps_from([(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0),
                       (2, 2, 1.0), (3, 3, 1.0)])
    with pytest.raises(SingularSystemError):
        factor_solve(assemble([st_], 4))


def test_bitwise_deterministic_solve():
    rng = np.random.default_rng(9)
    n = 60
    triplets = [(i, i, 3.0 + rng.random()) for i in range(n)]
    for _ in range(150):
        triplets.append((int(rng.integers(0, n)), int(rng.integers(0, n)), float(rng.normal())))
    st_ = stamps_from(triplets, rhs=[(i, float(rng.normal())) for i in range(n)])
    a = factor_solve(assemble([st_], n))
    b = factor_solve(assemble([st_], n))
    assert a.tobytes() == b.tobytes()


def test_matrix_market_dump(tmp_path):
    sys_ = assemble([stamps_from([(0, 0, 1.5), (1, 0, -2.0)])], 3)
    out = tmp_path / "system.mtx"
    dump_matrix_market(sys_, out)
    text = out.read_text()
    assert "MatrixMarket" in text and "coordinate" in text


# ----------------------------------------------------------------------
# dense kernel (plans made with dense=True, at most DENSE_MAX_N unknowns)
# ----------------------------------------------------------------------

_MODE_CYCLE = ("pv", "qmax", "pv", "qmin")


def test_dense_assembly_bitwise_equals_csc():
    """Compiled circuits' stamps assemble to the same bits in the dense array as in the CSC matrix."""
    rng = np.random.default_rng(4411)
    for k in range(30):
        net = random_combined(rng)
        imap = build_index_map(net)
        circuit = CompiledCircuit(net, imap)
        gens = [g.bus for g in circuit.gens]
        for lam in (0.0, 0.3):
            for j in range(3):
                x = random_state(rng, net, imap)
                modes = {bus: _MODE_CYCLE[(i + j + k) % len(_MODE_CYCLE)] for i, bus in enumerate(gens)}
                stamps = [circuit.linear(HomotopyState(lam) if lam else None), circuit.nonlinear(x, modes)]
                dense, csc = circuit.plan.assemble(stamps), assemble(stamps, imap.n)
                assert isinstance(dense.matrix, np.ndarray) and sp.issparse(csc.matrix)
                assert dense.matrix.tobytes() == csc.matrix.toarray().tobytes()
                assert dense.rhs.tobytes() == csc.rhs.tobytes()


def _diagonally_dominant(rng, n):
    triplets = [(i, i, 5.0 + rng.random()) for i in range(n)]
    triplets += [(int(rng.integers(0, n)), int(rng.integers(0, n)), float(rng.normal())) for _ in range(3 * n)]
    return stamps_from(triplets, rhs=[(i, float(rng.normal())) for i in range(n)])


@pytest.mark.parametrize("n, dense", [(DENSE_MAX_N, True), (DENSE_MAX_N + 1, False)])
def test_dense_and_sparse_solves_agree_at_the_bound(n, dense):
    st_ = _diagonally_dominant(np.random.default_rng(n), n)
    system = plan_of([st_], n).assemble([st_])
    assert isinstance(system.matrix, np.ndarray) is dense
    got, want = factor_solve(system), factor_solve(assemble([st_], n))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the plain dense LU of the same matrix
    assert np.allclose(got, np.linalg.solve(assemble([st_], n).matrix.toarray(), system.rhs), rtol=1e-12, atol=0)


def _chain(n):
    """A diagonally dominant tridiagonal system of ``n`` unknowns."""
    return [(i, i, 4.0) for i in range(n)] + [(i + d, i + 1 - d, -1.0) for d in (0, 1) for i in range(n - 1)]


@pytest.mark.parametrize(
    "triplets",
    [
        [(0, 0, 1.0), (1, 1, 1.0)],  # rows 2 and 3 empty
        [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)],
        [t for t in _chain(30) if 12 not in t[:2]],  # row and column 12 empty
        [t for t in _chain(30) if t[0] != 29] + [(29, c, v) for r, c, v in _chain(30) if r == 0],  # rows 0, 29 equal
    ],
)
def test_dense_singular_raises_without_warning(triplets):
    # on the band kernel, with the plan's order and with the one a system made without a plan finds
    n = max(4, 1 + max(r for r, _, _ in triplets))
    stamps = [stamps_from(triplets)]
    system = plan_of(stamps, n).assemble(stamps)
    assert isinstance(system.matrix, np.ndarray)
    for system in (system, SparseSystem(n, system.matrix, system.rhs)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="dgbtrf"):
                factor_solve(system)


def test_dense_nonfinite_rejected_on_every_call():
    rows, cols = np.array([0, 1]), np.array([0, 1])
    plan = AssemblyPlan(4, [rows], [cols], dense=True)
    assert isinstance(plan.assemble([StampSet(rows, cols, [1.0, 2.0])]).matrix, np.ndarray)
    with pytest.raises(ValueError, match=r"non-finite stamp at \(1,1\)"):
        plan.assemble([StampSet(rows, cols, [1.0, float("inf")])])
    with pytest.raises(ValueError, match="non-finite rhs stamp"):
        plan.assemble([StampSet(rows, cols, [1.0, 2.0], [0], [float("nan")])])
    with pytest.raises(IndexError):  # matrix indices are checked once, when the plan is made
        AssemblyPlan(4, [np.array([0])], [np.array([4])], dense=True)
    with pytest.raises(IndexError, match="rhs row outside system"):
        plan.assemble([StampSet(rows, cols, [1.0, 2.0], [4], [1.0])])


@pytest.mark.parametrize("dense", [True, False])
def test_plan_refuses_stamps_without_its_index_arrays(dense):
    rows, cols = np.array([0, 1, 1]), np.array([0, 1, 0])
    plan = AssemblyPlan(2, [rows], [cols], dense=dense)
    vals = [1.0, 2.0, 3.0]
    for stamps in ([StampSet(rows.copy(), cols, vals)], [StampSet(rows, cols.copy(), vals)],
                   [StampSet(rows, cols, vals)] * 2, []):
        with pytest.raises(ValueError, match="index arrays"):
            plan.assemble(stamps)
    assert _array(plan.assemble([StampSet(rows, cols, vals)]).matrix).tolist() == [[1.0, 0.0], [3.0, 2.0]]


def test_dense_matrix_market_dump_reads_back(tmp_path):
    st_ = stamps_from([(0, 0, 1.5), (1, 0, -2.0), (2, 2, 0.25), (0, 0, 0.5)])
    system = plan_of([st_], 3).assemble([st_])
    assert isinstance(system.matrix, np.ndarray)
    out = tmp_path / "system.mtx"
    dump_matrix_market(system, out)
    assert "coordinate" in out.read_text().splitlines()[0]
    assert np.array_equal(mmread(str(out)).toarray(), system.matrix)


def _small_systems(seed, count):
    """(circuit, stamps) of ``count`` random_combined networks at random states, each below DENSE_MAX_N."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        net = random_combined(rng)
        imap = build_index_map(net)
        circuit = CompiledCircuit(net, imap)
        assert imap.n <= DENSE_MAX_N
        x = random_state(rng, net, imap, vm_range=(0.9, 1.1), ang_spread=0.2)
        yield circuit, [circuit.linear(None), circuit.nonlinear(x, {})]


def test_band_and_superlu_solves_agree_on_small_networks():
    no_diagonal = 0
    for circuit, stamps in _small_systems(2929, 40):
        system = circuit.plan.assemble(stamps)
        assert isinstance(system.matrix, np.ndarray) and isinstance(system.ordering, tandem.sparse._Band)
        no_diagonal += int((np.diag(system.matrix) == 0).any())  # port-current rows have none
        got, want = factor_solve(system), factor_solve(assemble(stamps, circuit.plan.n))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert no_diagonal >= 5


def test_band_widths_cover_the_permuted_pattern():
    for circuit, stamps in _small_systems(2930, 30):
        band, n = circuit.plan._ordering, circuit.plan.n
        assert sorted(band.p.tolist()) == list(range(n))
        pattern = np.zeros((n, n), dtype=bool)
        pattern[np.concatenate(circuit.plan.rows), np.concatenate(circuit.plan.cols)] = True
        i, j = np.nonzero(pattern[band.p][:, band.p])
        assert (i - j).max() == band.kl and (j - i).max() == band.ku  # covered, and no wider


def test_rcm_finds_the_band_of_a_shuffled_tridiagonal_matrix():
    n = 150
    shuffle = np.random.default_rng(7).permutation(n)
    rows, cols = np.r_[0:n, 1:n, 0:n - 1], np.r_[0:n, 0:n - 1, 1:n]
    band = tandem.sparse._Band(n, shuffle[rows], shuffle[cols])
    assert band.kl == band.ku == 1
    assert band.p.tolist() == tandem.sparse._Band(n, shuffle[rows], shuffle[cols]).p.tolist()


def test_band_order_is_computed_once_per_plan(monkeypatch):
    calls, rcm = [], tandem.sparse._rcm
    monkeypatch.setattr(tandem.sparse, "_rcm", lambda pattern: calls.append(1) or rcm(pattern))
    net = random_transmission(np.random.default_rng(3), 12)
    circuit = CompiledCircuit(net, build_index_map(net))
    assert len(calls) == 1
    x, report = solve_direct(net, circuit=circuit)
    assert report.converged and report.iterations >= 3
    assert len(calls) == 1


# ----------------------------------------------------------------------
# sparse kernel (minimum degree on A + A^T, diagonal-preferring threshold pivoting)
# ----------------------------------------------------------------------


def test_iterative_refinement_recovers_wilkinson_growth(monkeypatch):
    # Wilkinson's growth matrix W: partial pivoting doubles the last column at every step,
    # so one dgbtrf/dgbtrs solve on its full band leaves a relative residual far above
    # SOLVE_TOL.  W + W^T is a complete graph, whose RCM order reverses the indices, so the
    # system is W reversed, which the band kernel permutes back to W
    n = 40
    w = np.eye(n) - np.tril(np.ones((n, n)), -1)
    w[:, -1] = 1.0
    m, b = w[::-1, ::-1].copy(), np.random.default_rng(0).standard_normal(n)
    band = tandem.sparse._Band(n, *np.nonzero(m))
    assert band.p.tolist() == list(range(n - 1, -1, -1)) and band.kl == band.ku == n - 1
    i, j = np.nonzero(w)
    ab = np.zeros((3 * n - 2, n))
    ab[2 * n - 2 + i - j, j] = w[i, j]
    lu, piv, _ = dgbtrf(ab, n - 1, n - 1)
    plain = dgbtrs(lu, n - 1, n - 1, b[::-1], piv)[0][::-1]
    assert np.abs(m @ plain - b).max() / np.abs(b).max() > 1e-7
    solves = []
    monkeypatch.setattr(tandem.sparse, "dgbtrs", lambda *a: solves.append(1) or dgbtrs(*a))
    x = factor_solve(SparseSystem(n=n, matrix=m, rhs=b))
    assert len(solves) == 2  # the solve and one refinement step
    assert np.abs(m @ x - b).max() / np.abs(b).max() < 1e-15


def _kernel_gap(stamps, n) -> float:
    """Largest |x_sparse - x_dense| over max |x_dense| for one assembled system."""
    sparse_x = factor_solve(assemble(stamps, n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tandem.sparse, "DENSE_MAX_N", n)
        system = plan_of(stamps, n).assemble(stamps)
        assert isinstance(system.matrix, np.ndarray)
        dense_x = factor_solve(system)
    return np.abs(sparse_x - dense_x).max() / np.abs(dense_x).max()


def test_sparse_and_dense_kernels_agree_on_k24(data_dir):
    # the whole case27 + 24 x feeder_medium Jacobian, at the flat start and at the solution
    net = case27_with_feeders(data_dir, [("feeder_medium", 1.0, 1.0)])
    imap = build_index_map(net)
    circuit = CompiledCircuit(net, imap)
    x, _ = solve_direct(net, circuit=circuit)
    for state in (initial_state(net, imap), x):
        assert _kernel_gap([circuit.linear(None), circuit.nonlinear(state, {})], imap.n) <= 1e-12


def test_sparse_and_dense_kernels_agree_on_random_networks():
    rng = np.random.default_rng(1507)
    for k in range(8):
        size = int(rng.integers(100, 140))
        net = random_transmission(rng, size) if k % 2 else random_feeder(rng, size)
        assert not validate(net)
        imap = build_index_map(net)
        assert imap.n > DENSE_MAX_N
        circuit = CompiledCircuit(net, imap)
        for state in (initial_state(net, imap), random_state(rng, net, imap, vm_range=(0.9, 1.1), ang_spread=0.2)):
            assert _kernel_gap([circuit.linear(None), circuit.nonlinear(state, {})], imap.n) <= 1e-12


def _mna(rng, n_nodes: int, n_src: int, source_diag: float, island: int = 0) -> StampSet:
    """A random resistor tree with a few conductances to ground and ``n_src`` voltage
    sources to ground, each one row and column after the nodes with ``source_diag`` (none
    when 0) on its diagonal; then ``island`` more nodes in a chain tied to nothing, with a
    current driven into it, so that no solution exists."""
    triplets = []

    def conductance(i, j, g):
        triplets.extend([(i, i, g), (j, j, g), (i, j, -g), (j, i, -g)])

    for i in range(1, n_nodes):
        conductance(i, int(rng.integers(0, i)), 1.0 + 9.0 * rng.random())
    triplets += [(int(i), int(i), 1e-3) for i in rng.choice(n_nodes, 3, replace=False)]
    rhs = []
    for k, node in enumerate(rng.choice(n_nodes, n_src, replace=False)):
        row = n_nodes + k
        triplets += [(int(node), row, 1.0), (row, int(node), 1.0)] + ([(row, row, source_diag)] if source_diag else [])
        rhs.append((row, 1.0 + 0.05 * rng.normal()))
    first = n_nodes + n_src
    for i in range(first + 1, first + island):
        conductance(i, i - 1, 1.0 + rng.random())
    if island:
        rhs.append((first + island // 2, 0.5))
    return stamps_from(triplets, rhs)


@pytest.mark.parametrize("seed, source_diag", [(31, 0.0), (32, 1e-14), (33, 1e-9)])
def test_threshold_pivoting_refines_or_raises(seed, source_diag):
    # source rows whose diagonals are empty or far below the threshold of their column
    # force off-diagonal pivots; a returned answer always meets SOLVE_TOL, and only a
    # system with no solution may raise instead
    rng = np.random.default_rng(seed)
    raised = 0
    for _ in range(6):
        n_nodes, n_src = int(rng.integers(200, 300)), int(rng.integers(5, 30))
        for island in (0, 10):
            system = assemble([_mna(rng, n_nodes, n_src, source_diag, island)], n_nodes + n_src + island)
            if not island:
                lu = spla.splu(system.matrix, permc_spec=PERMC_SPEC, diag_pivot_thresh=DIAG_PIVOT_THRESH)
                assert (lu.perm_r != lu.perm_c).any()  # some column's diagonal was passed over
            try:
                x = factor_solve(system)
            except SingularSystemError:
                assert island
                raised += 1
                continue
            assert np.abs(system.matrix @ x - system.rhs).max() / max(1.0, np.abs(system.rhs).max()) <= SOLVE_TOL
            if not island:
                assert np.allclose(x, np.linalg.solve(system.matrix.toarray(), system.rhs), rtol=1e-9, atol=1e-12)
    # every system with no solution raises
    assert raised == 6


def test_floating_island_with_a_roundoff_pivot_raises():
    # the 44th such system of seed 8 factors with a pivot near roundoff; its answer of
    # 1.1e15, all in the null space, meets the residual bound but not the growth bound
    rng = np.random.default_rng(8)
    for _ in range(44):
        n_nodes, n_src = int(rng.integers(200, 300)), int(rng.integers(5, 30))
        system = assemble([_mna(rng, n_nodes, n_src, 0.0, 10)], n_nodes + n_src + 10)
        with pytest.raises(SingularSystemError):
            factor_solve(system)


# ----------------------------------------------------------------------
# one pattern, one ordering and one linear sum per plan
# ----------------------------------------------------------------------


def test_later_factors_reuse_the_learned_ordering(monkeypatch):
    # a plan's first factor orders by PERMC_SPEC, every later one in natural order on the
    # gathered matrix, also after a generator's switch to its Q limit zeroes part of its row
    rng = np.random.default_rng(2024)
    net = random_transmission(rng, 120)
    imap = build_index_map(net)
    circuit = CompiledCircuit(net, imap)
    assert imap.n > DENSE_MAX_N and circuit.gens
    bus, specs, splu = circuit.gens[0].bus, [], spla.splu

    def recording(m, permc_spec, **kwargs):
        specs.append(permc_spec)
        return splu(m, permc_spec=permc_spec, **kwargs)

    patterns, zeros = set(), {}
    for mode in ("pv", "pv", "qmax", "qmax", "pv"):
        x = random_state(rng, net, imap, vm_range=(0.9, 1.1), ang_spread=0.2)
        stamps = [circuit.linear(None), circuit.nonlinear(x, {bus: mode})]
        system = circuit.plan.assemble(stamps)
        patterns.add((system.matrix.indices.tobytes(), system.matrix.indptr.tobytes(), id(system.ordering)))
        zeros[mode] = tuple(np.flatnonzero(system.matrix.data == 0.0))
        with monkeypatch.context() as patch:
            patch.setattr(spla, "splu", recording)
            got = factor_solve(system)
        want = factor_solve(assemble(stamps, imap.n))  # a fresh plan orders afresh
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert specs == [PERMC_SPEC] + ["NATURAL"] * 4
    assert len(patterns) == 1 and zeros["pv"] != zeros["qmax"]  # one pattern, its zeros moved


def _varied(rng, size):
    return rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)


def _array(matrix) -> np.ndarray:
    return matrix.toarray() if sp.issparse(matrix) else matrix


@pytest.mark.parametrize("n, dense", [(40, True), (DENSE_MAX_N + 10, False)])
def test_attempt_assembly_bitwise_equals_one_bincount(n, dense):
    # the kept linear sums plus the nonlinear triplets, two of them on one slot the linear
    # stamps also fill, give the bits of one sum over every triplet in order
    rng = np.random.default_rng(n)
    k = 6 * n
    rows, cols = np.append(rng.integers(0, n, k), [3, 3]), np.append(rng.integers(0, n, k), [5, 5])
    linear = StampSet(rows, cols, _varied(rng, k + 2), rng.integers(0, n, n), _varied(rng, n))
    nl_rows, nl_cols, nl_rhs_rows = np.array([3, 3, 7]), np.array([5, 5, 1]), np.array([3, 3])
    plan, kept = AssemblyPlan(n, (rows, nl_rows), (cols, nl_cols), dense=True), None
    for _ in range(3):
        nonlinear = StampSet(nl_rows, nl_cols, _varied(rng, 3), nl_rhs_rows, _varied(rng, 2))
        got = plan.assemble([linear, nonlinear])
        kept = kept or plan._first
        assert plan._first is kept  # the linear stamps are summed once
        whole = StampSet(*(np.concatenate([getattr(linear, f), getattr(nonlinear, f)])
                           for f in ("rows", "cols", "vals", "rhs_rows", "rhs_vals")))
        want = plan_of([whole], n).assemble([whole])
        assert isinstance(got.matrix, np.ndarray) is dense
        assert _array(got.matrix).tobytes() == _array(want.matrix).tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()


@pytest.mark.parametrize("size", [8, 120])
def test_new_linear_stamps_are_summed_afresh(size):
    # each continuation step's lambda hands over a new linear stamp set
    rng = np.random.default_rng(size)
    net = random_transmission(rng, size)
    imap = build_index_map(net)
    circuit = CompiledCircuit(net, imap)
    nonlinear = circuit.nonlinear(random_state(rng, net, imap, vm_range=(0.9, 1.1), ang_spread=0.2), {})
    for lam in (0.0, 0.4, 0.4, 0.2):
        stamps = [circuit.linear(HomotopyState(lam) if lam else None), nonlinear]
        got, want = circuit.plan.assemble(stamps), plan_of(stamps, imap.n).assemble(stamps)
        assert isinstance(got.matrix, np.ndarray) is (imap.n <= DENSE_MAX_N)
        assert _array(got.matrix).tobytes() == _array(want.matrix).tobytes()
        assert got.rhs.tobytes() == want.rhs.tobytes()


@pytest.mark.parametrize("dense", [True, False])
def test_nonfinite_linear_value_named_while_kept(dense):
    linear, nonlinear = stamps_from([(0, 0, 1.0), (2, 1, 2.0), (1, 1, 3.0)]), stamps_from([(1, 2, 1.0)])
    plan = plan_of([linear, nonlinear], 4, dense=dense)
    plan.assemble([linear, nonlinear])
    bad = StampSet(linear.rows, linear.cols, [1.0, float("nan"), 3.0])
    for _ in range(2):  # a rejected set is not kept
        with pytest.raises(ValueError, match=r"non-finite stamp at \(2,1\)"):
            plan.assemble([bad, nonlinear])
    with pytest.raises(ValueError, match=r"non-finite stamp at \(1,2\)"):
        plan.assemble([linear, StampSet(nonlinear.rows, nonlinear.cols, [float("inf")])])
    with pytest.raises(ValueError, match="non-finite rhs stamp"):
        plan.assemble([linear, StampSet(nonlinear.rows, nonlinear.cols, [1.0], [0], [float("nan")])])


def test_matrix_market_dump_leaves_out_explicit_zeros(tmp_path):
    first = stamps_from([(0, 0, 1.5), (1, 1, 2.0), (2, 1, -2.0)])
    plan = plan_of([first], 3, dense=False)
    plan.assemble([first])
    system = plan.assemble([StampSet(first.rows, first.cols, [1.5, 0.0, -2.0])])
    assert system.matrix.nnz == 3  # the plan's pattern keeps the zero
    out = tmp_path / "system.mtx"
    dump_matrix_market(system, out)
    back = mmread(str(out))
    assert back.nnz == 2 and np.array_equal(back.toarray(), system.matrix.toarray())
