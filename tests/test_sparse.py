import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tandem.sparse import (
    AssemblyPlan,
    SingularSystemError,
    SparseSystem,
    assemble,
    dump_matrix_market,
    factor_solve,
)
from tandem.stamping import StampSet


def stamps_from(triplets, rhs=()):
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    rhs_rows, rhs_vals = zip(*rhs) if rhs else ((), ())
    return StampSet(rows, cols, vals, rhs_rows, rhs_vals)


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
    plan = AssemblyPlan()
    a = stamps_from([(0, 0, 1.0), (1, 1, 2.0), (0, 1, 3.0), (0, 0, 4.0)])
    s1 = plan.assemble([a], 4)
    key1 = plan._key
    b = stamps_from([(0, 0, 5.0), (1, 1, 6.0), (0, 1, 7.0), (0, 0, 8.0)])
    s2 = plan.assemble([b], 4)
    assert plan._key == key1  # symbolic pattern reused
    assert s2.matrix[0, 0] == 13.0 and s2.matrix[0, 1] == 7.0


def test_assembly_plan_matches_plain_assemble():
    rng = np.random.default_rng(11)
    n = 30
    plan = AssemblyPlan()
    rows = rng.integers(0, n, size=200)
    cols = rng.integers(0, n, size=200)
    for _ in range(3):
        vals = rng.normal(size=200)
        st_ = StampSet(rows, cols, vals)
        got = plan.assemble([st_], n)
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
