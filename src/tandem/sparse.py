"""Sparse assembly and direct solution of the linearized MNA system.

The MNA matrices here are unsymmetric and indefinite, so the solve uses
LU with partial pivoting and a fill-reducing column ordering.  Assembly
sums duplicate triplets through a cached triplet-to-CSC scatter, so
iterations on the same sparsity pattern only pay for one ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SOLVE_TOL = 1e-10
_REFINE_STEPS = 3


class SingularSystemError(RuntimeError):
    """The linearized system has no usable factorization."""


@dataclass
class SparseSystem:
    n: int
    matrix: sp.csc_matrix
    rhs: np.ndarray


def _concat(parts, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _same_pattern(old, new) -> bool:
    """Keys are (n, row arrays, column arrays); identical arrays skip the comparison."""
    if old is None or old[0] != new[0] or len(old[1]) != len(new[1]):
        return False
    return all(a is b or np.array_equal(a, b) for a, b in zip(old[1] + old[2], new[1] + new[2]))


class AssemblyPlan:
    """Caches the triplet-to-CSC scatter of one sparsity pattern.

    The pattern is keyed on the stamp sets' index arrays.  A compiled
    circuit hands out the same arrays on every iteration, so the key
    check is an identity test and assembly is one ``bincount`` into the
    cached slots.  Index bounds are checked when a pattern is built,
    finite values on every call.
    """

    def __init__(self):
        self._key = None
        self._slot = None  # triplet -> position in the CSC data array
        self._template = None  # the pattern's CSC structure
        self._col = None  # column of each CSC position

    def _build(self, key) -> None:
        n, rows, cols = key
        r, c = _concat(rows, np.int64), _concat(cols, np.int64)
        if r.size and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= n):
            raise IndexError("triplet index outside system")
        width = max(n, 1)
        flat = c * width + r
        del r, c  # keep the sort's transient memory low on large systems
        pos, self._slot = np.unique(flat, return_inverse=True)
        self._col = pos // width
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self._col, minlength=n))])
        self._template = sp.csc_matrix((np.zeros(pos.size), pos % width, indptr), shape=(n, n))
        self._key = key

    def assemble(self, stamps, n: int) -> SparseSystem:
        key = (n, tuple(st.rows for st in stamps), tuple(st.cols for st in stamps))
        if not _same_pattern(self._key, key):
            self._build(key)
        vals = _concat([st.vals for st in stamps], float)
        rhs_rows = _concat([st.rhs_rows for st in stamps], np.int64)
        rhs_vals = _concat([st.rhs_vals for st in stamps], float)
        if rhs_rows.size and (rhs_rows.min() < 0 or rhs_rows.max() >= n):
            raise IndexError("rhs row outside system")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            k = bad[0]
            raise ValueError(f"non-finite stamp at ({np.concatenate(key[1])[k]},{np.concatenate(key[2])[k]})")
        if not np.isfinite(rhs_vals).all():
            raise ValueError("non-finite rhs stamp")
        t = self._template
        data = np.bincount(self._slot, weights=vals, minlength=t.nnz)
        indices, indptr = t.indices, t.indptr
        # positions with no nonzero triplet at this state (say, the voltage row
        # of a generator held at a Q limit) stay out of the LU's structure
        live = np.bincount(self._slot[vals != 0.0], minlength=t.nnz).astype(bool)
        if not live.all():
            data, indices = data[live], indices[live]
            indptr = np.concatenate([[0], np.cumsum(np.bincount(self._col[live], minlength=n))])
        matrix = sp.csc_matrix((data, indices, indptr), shape=(n, n))
        return SparseSystem(n=n, matrix=matrix, rhs=np.bincount(rhs_rows, weights=rhs_vals, minlength=n))


def assemble(stamps, n: int) -> SparseSystem:
    """Sum triplet/rhs contributions into a compressed-column system."""
    return AssemblyPlan().assemble(stamps, n)


def factor_solve(system: SparseSystem) -> np.ndarray:
    """LU solve with iterative refinement to a 1e-10 relative residual.

    Raises SingularSystemError when the factorization fails or the
    refined residual cannot meet the bound (signals that limiting or
    continuation must escalate upstream).
    """
    m, b = system.matrix, system.rhs
    if m.shape[0] == 0:
        return np.zeros(0)
    try:
        lu = spla.splu(m.tocsc(), permc_spec="COLAMD")
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    for _ in range(_REFINE_STEPS):
        resid = m @ x - b
        if float(np.abs(resid).max(initial=0.0)) / scale <= SOLVE_TOL:
            return x
        dx = lu.solve(resid)
        if not np.all(np.isfinite(dx)):
            raise SingularSystemError("iterative refinement diverged")
        x = x - dx
    resid = float(np.abs(m @ x - b).max(initial=0.0)) / scale
    if resid > SOLVE_TOL:
        raise SingularSystemError(f"residual {resid:.2e} above {SOLVE_TOL:.0e} after refinement")
    return x


def dump_matrix_market(system: SparseSystem, path) -> None:
    """Write the assembled matrix in MatrixMarket coordinate form (debug aid)."""
    from scipy.io import mmwrite

    mmwrite(str(path), system.matrix)
