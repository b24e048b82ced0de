"""Assembly and direct solution of the linearized MNA system.

The MNA matrices here are unsymmetric and indefinite, so the solve uses
LU with pivoting.  Assembly sums duplicate triplets in triplet order
through a scatter cached per sparsity pattern, so iterations on the same
pattern only pay for one ``bincount``.

Two kernels share that scheme, chosen by the system size:

* a plan made with ``dense=True`` (every compiled circuit's) scatters a
  system of at most ``DENSE_MAX_N`` unknowns straight into an n x n
  array, which LAPACK's ``dgetrf``/``dgetrs`` factor and solve.  Below a
  few hundred unknowns the fixed per-call costs of the sparse pipeline
  (CSC construction, ordering, symbolic analysis) outweigh the dense
  kernel's O(n^3) arithmetic;
* any larger system, and every system of a plain plan or ``assemble``,
  fills a CSC matrix that SuperLU factors the way circuit LU codes such
  as KLU do: columns ordered by minimum degree on the pattern of A + A^T
  (MNA matrices are close to structurally symmetric), and a diagonal
  pivot kept while it is at least ``DIAG_PIVOT_THRESH`` times the largest
  entry of its column, else the largest entry (threshold pivoting).

Both kernels sum every entry from the same triplets in the same order,
so the assembled values are bitwise equal; only the LU differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

SOLVE_TOL = 1e-10
_REFINE_STEPS = 3

# Largest system a dense plan assembles into an n x n array and factors
# with LAPACK: the largest measured size where the dense kernel won.
# tools/dense_crossover.py times one whole Newton iteration (assemble,
# residual, factor with refinement) on leading blocks of the case27 +
# 24 x feeder_medium Jacobian, BLAS on 1 thread; medians of 3 runs on a
# shared 2-vCPU x86-64 host, in microseconds, SuperLU before and after the
# ordering below:
#
#     n                 50   100   150   200   225   250   300   400
#     SuperLU, COLAMD  219   309   427   513   520   617   857  1058
#     SuperLU          203   286   364   438   479   683   537   680
#     LAPACK            59   104   198   422   556   820  1139  2065
DENSE_MAX_N = 200

# SuperLU's column ordering and diagonal pivot threshold.  ``tools/
# dense_crossover.py orderings`` factors the whole 2,698-unknown Jacobian
# above (best of 60 interleaved rounds, same host; fill is the nonzeros of
# L plus U; the residual is relative, after refinement):
#
#     permc_spec     thresh  splu ms   fill   residual
#     COLAMD         1.0      3.63    79,671   5.7e-15
#     COLAMD         0.1      3.21    73,753   2.8e-14
#     COLAMD         0.01     3.24    73,723   5.4e-14
#     MMD_AT_PLUS_A  1.0      2.57    54,141   6.9e-15
#     MMD_AT_PLUS_A  0.1      1.93    41,260   8.5e-15
#     MMD_AT_PLUS_A  0.01     1.91    41,260   8.5e-15
#     MMD_ATA        1.0      3.86    54,713   6.9e-15
#     MMD_ATA        0.1      3.20    41,308   2.2e-14
#     MMD_ATA        0.01     3.25    42,110   1.9e-14
#
# 0.01 buys nothing over 0.1 here and admits smaller pivots.
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.1

# Largest growth max|A| max|x| / max|b| a solve may return.  It bounds
# cond(A) from below (up to a factor n), so an answer past it has lost
# nearly every digit to roundoff although its residual can meet SOLVE_TOL:
# a floating MNA island factored with a pivot near roundoff returned
# |x| = 1.1e15 (growth 4e16).  Solves on the bundled cases and in the
# tests grow by at most 1.1e6.
MAX_GROWTH = 1e13


class SingularSystemError(RuntimeError):
    """The linearized system has no usable factorization."""


@dataclass
class SparseSystem:
    """An assembled system: ``matrix`` is a CSC matrix or, from a dense plan, an n x n array."""

    n: int
    matrix: sp.csc_matrix | np.ndarray
    rhs: np.ndarray


def _concat(parts, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _same_pattern(old, new) -> bool:
    """Keys are (n, row arrays, column arrays); identical arrays skip the comparison."""
    if old is None or old[0] != new[0] or len(old[1]) != len(new[1]):
        return False
    return all(a is b or np.array_equal(a, b) for a, b in zip(old[1] + old[2], new[1] + new[2]))


class AssemblyPlan:
    """Caches the triplet scatter of one sparsity pattern.

    The pattern is keyed on the stamp sets' index arrays.  A compiled
    circuit hands out the same arrays on every iteration, so the key
    check is an identity test and assembly is one ``bincount`` into the
    cached slots: CSC positions, or with ``dense`` and at most
    ``DENSE_MAX_N`` unknowns, the flat ``row * n + col`` positions of an
    n x n array.  Index bounds are checked when a pattern is built,
    finite values on every call.
    """

    def __init__(self, dense: bool = False):
        self.dense = dense
        self._key = None
        self._flat = None  # triplet -> flat position in the dense array
        self._slot = None  # triplet -> position in the CSC data array
        self._template = None  # the pattern's CSC structure
        self._col = None  # column of each CSC position

    def _build(self, key) -> None:
        n, rows, cols = key
        r, c = _concat(rows, np.int64), _concat(cols, np.int64)
        if r.size and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= n):
            raise IndexError("triplet index outside system")
        self._key = key
        if self.dense and n <= DENSE_MAX_N:
            self._flat, self._slot = r * n + c, None
            return
        self._flat = None
        width = max(n, 1)
        flat = c * width + r
        del r, c  # keep the sort's transient memory low on large systems
        pos, self._slot = np.unique(flat, return_inverse=True)
        self._col = pos // width
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self._col, minlength=n))])
        self._template = sp.csc_matrix((np.zeros(pos.size), pos % width, indptr), shape=(n, n))

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
        rhs = np.bincount(rhs_rows, weights=rhs_vals, minlength=n)
        if self._flat is not None:
            matrix = np.bincount(self._flat, weights=vals, minlength=n * n).reshape(n, n)
            return SparseSystem(n=n, matrix=matrix, rhs=rhs)
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
        return SparseSystem(n=n, matrix=matrix, rhs=rhs)


def assemble(stamps, n: int) -> SparseSystem:
    """Sum triplet/rhs contributions into a compressed-column system."""
    return AssemblyPlan().assemble(stamps, n)


def _dense_lu(m: np.ndarray):
    lu, piv, info = dgetrf(m)
    if info != 0:  # info > 0: U[info-1, info-1] is exactly zero
        raise SingularSystemError(f"matrix is exactly singular (dgetrf info {info})")
    return lambda b: dgetrs(lu, piv, b)[0]


def _sparse_lu(m):
    try:
        return spla.splu(m.tocsc(), permc_spec=PERMC_SPEC, diag_pivot_thresh=DIAG_PIVOT_THRESH).solve
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def factor_solve(system: SparseSystem) -> np.ndarray:
    """LU solve with iterative refinement to a 1e-10 relative residual.

    A dense matrix is factored by LAPACK, a sparse one by SuperLU.
    Raises SingularSystemError when the factorization fails, the answer
    grows past MAX_GROWTH or the refined residual cannot meet the bound
    (signals that limiting or continuation must escalate upstream).
    """
    m, b = system.matrix, system.rhs
    if m.shape[0] == 0:
        return np.zeros(0)
    solve = _dense_lu(m) if isinstance(m, np.ndarray) else _sparse_lu(m)
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    b_max = float(np.abs(b).max(initial=0.0))
    growth = float(np.abs(m if isinstance(m, np.ndarray) else m.data).max(initial=0.0)) * float(np.abs(x).max())
    if growth > MAX_GROWTH * b_max:
        raise SingularSystemError(f"solution growth max|A| max|x| / max|b| above {MAX_GROWTH:.0e}")
    scale = max(1.0, b_max)
    for _ in range(_REFINE_STEPS):
        resid = m @ x - b
        if float(np.abs(resid).max(initial=0.0)) / scale <= SOLVE_TOL:
            return x
        dx = solve(resid)
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

    mmwrite(str(path), sp.coo_matrix(system.matrix))
