"""Assembly and direct solution of the linearized MNA system.

The MNA matrices here are unsymmetric and indefinite, so the solve uses
LU with pivoting.  Assembly sums duplicate triplets in triplet order
through the scatter of a plan whose pattern is given once, when it is
made; within a Newton attempt an iteration only adds the nonlinear
triplets to the kept linear sums.

Two kernels share that scheme, chosen by the system size:

* a plan made with ``dense=True`` (every compiled circuit's) scatters a
  system of at most ``DENSE_MAX_N`` unknowns straight into an n x n
  array.  The plan orders its pattern once by reverse Cuthill-McKee on
  A + A^T (Cuthill and McKee, 1969); LAPACK's banded LU (``dgbtrf``/
  ``dgbtrs``, partial pivoting over the whole band) factors and solves
  the permuted band, cheaper here than the sparse pipeline's fixed costs;
* any larger system, and every system of a plain plan or ``assemble``,
  fills a CSC matrix on its plan's fixed pattern that SuperLU factors the
  way circuit LU codes such as KLU do: columns ordered once per plan by
  minimum degree on the pattern of A + A^T (MNA matrices are close to
  structurally symmetric), and a diagonal pivot kept while it is at least
  ``DIAG_PIVOT_THRESH`` times the largest entry of its column, else the
  largest entry (threshold pivoting).

Both kernels sum every entry from the same triplets in the same order,
so the assembled values are bitwise equal; only the LU differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

SOLVE_TOL = 1e-10
_REFINE_STEPS = 3

# Largest system a dense plan assembles into an n x n array and factors
# on its RCM band.  tools/dense_crossover.py times a whole Newton iteration
# (assemble, residual, factor with refinement) on leading blocks of the
# case27 + 24 x feeder_medium Jacobian, BLAS on 1 thread, and a band plan's
# set-up; medians of 3 runs on a shared 2-vCPU x86-64 host, in microseconds:
#
#     n          50   100   150   200   250   275   300   400
#     kl = ku     9    13    23    23    23    23    23    23
#     set-up    111   223   385   590   831   967  1122  1781
#     SuperLU   144   160   186   223   253   265   279   321
#     band       44    66   104   149   206   254   292   561
#
# The band kernel wins up to about 280 unknowns.
DENSE_MAX_N = 200

# SuperLU's column ordering, diagonal pivot threshold and panel size.
# ``tools/dense_crossover.py orderings`` factors the whole 2,698-unknown
# Jacobian above (best of 60 interleaved rounds, same host, panel size 1;
# fill is the nonzeros of L plus U; the residual is relative, after
# refinement; ``reused`` is a plan's later factor, in the order its first
# MMD_AT_PLUS_A factor learned):
#
#     permc_spec     thresh  splu ms   fill   residual
#     COLAMD         1.0      3.26    80,806   6.6e-15
#     COLAMD         0.1      2.78    74,939   1.4e-14
#     COLAMD         0.01     2.74    74,937   1.2e-14
#     MMD_AT_PLUS_A  1.0      2.27    54,157   7.7e-15
#     MMD_AT_PLUS_A  0.1      1.65    41,258   2.1e-14
#     MMD_AT_PLUS_A  0.01     1.61    41,258   2.1e-14
#     MMD_ATA        1.0      3.66    54,654   3.7e-15
#     MMD_ATA        0.1      3.07    40,829   6.5e-15
#     MMD_ATA        0.01     3.03    41,633   1.6e-14
#     reused         0.1      1.23    41,259   6.2e-15
#
# 0.01 buys nothing over 0.1 here and admits smaller pivots.  By panel
# size (SuperLU's default is 10), a first and a reused factor take, in ms:
#
#     panel_size   1: 1.50, 1.18   2: 1.52, 1.20   4: 1.55, 1.24
#                  8: 1.56, 1.26  10: 1.56, 1.24  16: 1.61, 1.33
PERMC_SPEC = "MMD_AT_PLUS_A"
DIAG_PIVOT_THRESH = 0.1
PANEL_SIZE = 1

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
    ordering: _Ordering | _Band | None = None  # its plan's, shared by the systems of the plan


def _concat(parts, dtype) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _checked(stamps, plan: AssemblyPlan, first: int):
    """Values, rhs rows and rhs values of ``stamps``, which start at triplet ``first`` of ``plan``."""
    vals = _concat([st.vals for st in stamps], float)
    rhs_rows = _concat([st.rhs_rows for st in stamps], np.int64)
    rhs_vals = _concat([st.rhs_vals for st in stamps], float)
    if rhs_rows.size and (rhs_rows.min() < 0 or rhs_rows.max() >= plan.n):
        raise IndexError("rhs row outside system")
    if not np.isfinite(vals).all():
        k = first + np.flatnonzero(~np.isfinite(vals))[0]
        raise ValueError(f"non-finite stamp at ({np.concatenate(plan.rows)[k]},{np.concatenate(plan.cols)[k]})")
    if not np.isfinite(rhs_vals).all():
        raise ValueError("non-finite rhs stamp")
    return vals, rhs_rows, rhs_vals


class AssemblyPlan:
    """The triplet scatter of one sparsity pattern, given once: each stamp
    set's ``rows`` and ``cols`` arrays, in stamping order, for ``n`` unknowns.

    Their bounds are checked here; ``assemble`` takes only stamp sets that
    carry these very arrays (an identity test), as a compiled circuit's do.
    The slots are positions in the data of the whole CSC pattern, explicit
    zeros kept, or with ``dense`` and at most ``DENSE_MAX_N`` unknowns the
    flat ``row * n + col`` positions of an n x n array.  While the first
    stamp set is the same object (a Newton attempt's linear stamps), its
    sums are kept and a call adds the other sets' triplets to a copy in
    order (``np.add.at``): the bits of one ``bincount``.  Finite values and
    rhs rows are checked whenever a stamp set is summed.
    """

    def __init__(self, n: int, rows, cols, dense: bool = False):
        self.n, self.rows, self.cols = n, tuple(rows), tuple(cols)
        self._first = None  # (first stamp set, its matrix sums, its rhs sums)
        r, c = _concat(self.rows, np.int64), _concat(self.cols, np.int64)
        if r.size and (min(r.min(), c.min()) < 0 or max(r.max(), c.max()) >= n):
            raise IndexError("triplet index outside system")
        if dense and n <= DENSE_MAX_N:
            self._slot, self._template, self._ordering = r * n + c, None, _Band(n, r, c)
            return
        width = max(n, 1)
        flat = c * width + r
        del r, c  # keep the sort's transient memory low on large systems
        pos, self._slot = np.unique(flat, return_inverse=True)
        indptr = np.concatenate([[0], np.cumsum(np.bincount(pos // width, minlength=n))])
        self._template = sp.csc_matrix((np.zeros(pos.size), pos % width, indptr), shape=(n, n))
        self._ordering = _Ordering()

    def assemble(self, stamps) -> SparseSystem:
        if len(stamps) != len(self.rows) or not all(
                st.rows is r and st.cols is c for st, r, c in zip(stamps, self.rows, self.cols)):
            raise ValueError("stamp sets do not carry the plan's index arrays")
        n, t, m = self.n, self._template, stamps[0].vals.size
        if self._first is None or self._first[0] is not stamps[0]:
            vals, rhs_rows, rhs_vals = _checked(stamps[:1], self, 0)
            self._first = (stamps[0], np.bincount(self._slot[:m], vals, n * n if t is None else t.nnz),
                           np.bincount(rhs_rows, rhs_vals, n))
        vals, rhs_rows, rhs_vals = _checked(stamps[1:], self, m)
        data, rhs = self._first[1].copy(), self._first[2].copy()
        np.add.at(data, self._slot[m:], vals)
        np.add.at(rhs, rhs_rows, rhs_vals)
        matrix = data.reshape(n, n) if t is None else sp.csc_matrix((data, t.indices, t.indptr), shape=(n, n))
        return SparseSystem(n, matrix, rhs, self._ordering)


def assemble(stamps, n: int) -> SparseSystem:
    """Sum triplet/rhs contributions into a compressed-column system."""
    return AssemblyPlan(n, [st.rows for st in stamps], [st.cols for st in stamps]).assemble(stamps)


def _rcm(pattern: np.ndarray) -> np.ndarray:
    """Reverse Cuthill-McKee order of the graph of ``pattern | pattern.T`` (an n x n bool array): a
    breadth-first search per component from its node of least degree, neighbours by degree, then index."""
    sym = (pattern | pattern.T) & ~np.eye(len(pattern), dtype=bool)
    deg = np.bincount(np.nonzero(sym)[0], minlength=len(sym)).tolist()
    by_deg = sorted(range(len(deg)), key=deg.__getitem__)  # stable: by degree, then index
    nbrs = np.array(by_deg)[np.nonzero(sym[:, by_deg])[1]].tolist()  # row by row, each in by_deg order
    bounds = np.cumsum([0] + deg).tolist()
    order, seen = [], [False] * len(deg)
    for root in by_deg:
        if not seen[root]:
            seen[root], queue = True, [root]
            for v in queue:  # the queue grows while it is read
                for w in nbrs[bounds[v]:bounds[v + 1]]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            order += queue
    return np.array(order[::-1], dtype=np.int64)


class _Band:
    """A small pattern's RCM order ``p`` (inverse ``q``), the widths ``kl``, ``ku`` of A permuted by it, and the
    gather from the n x n array into LAPACK band storage (``ld`` rows a column: ``kl`` for row swaps' fill)."""

    def __init__(self, n: int, rows, cols):
        pattern = np.zeros((n, n), dtype=bool)
        pattern[rows, cols] = True
        self.p = _rcm(pattern)
        self.q = np.array(sorted(range(n), key=self.p.tolist().__getitem__))  # not np.argsort: +0.25 MB RSS
        r, c = np.nonzero(pattern)
        self.src, i, j = r * n + c, self.q[r], self.q[c]
        self.kl, self.ku = int((i - j).max(initial=0)), int((j - i).max(initial=0))
        self.ld = 2 * self.kl + self.ku + 1
        self.dst = j * self.ld + self.kl + self.ku + i - j

    def lu(self, m: np.ndarray):
        """(solve, max|A|) of ``m``, whose entries off the pattern are zero."""
        a = m.ravel()[self.src]
        ab = np.bincount(self.dst, a, len(m) * self.ld)  # the band's entries, the rest zero
        lu, piv, info = dgbtrf(ab.reshape(len(m), self.ld).T, self.kl, self.ku, overwrite_ab=1)
        if info != 0:  # info > 0: U[info-1, info-1] is exactly zero
            raise SingularSystemError(f"matrix is exactly singular (dgbtrf info {info})")
        return lambda b: dgbtrs(lu, self.kl, self.ku, b[self.p], piv)[0][self.q], float(np.abs(a).max(initial=0.0))


def _splu(m, permc_spec: str):
    try:
        return spla.splu(m.tocsc(), permc_spec=permc_spec, diag_pivot_thresh=DIAG_PIVOT_THRESH, panel_size=PANEL_SIZE)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


class _Ordering:
    """A CSC pattern's column order: the first factor orders by ``PERMC_SPEC`` and keeps ``perm_c``;
    later ones gather the data into the pattern permuted symmetrically by ``q = argsort(perm_c)``
    and factor it in natural order (the same columns and diagonals, so the same pivots and fill)."""

    perm = gather = None

    def lu(self, m):  # (solve, max|A|), as _Band.lu
        a_max = float(np.abs(m.data).max(initial=0.0))
        if self.perm is None:
            lu = _splu(m, PERMC_SPEC)
            self.perm = lu.perm_c
            return lu.solve, a_max
        if self.gather is None:  # built at the second factor, so a plan that factors once pays nothing
            q = np.argsort(self.perm)
            ids = sp.csc_matrix((np.arange(1.0, m.nnz + 1), m.indices, m.indptr), shape=m.shape)[q][:, q]
            ids.sort_indices()
            self.gather = ids.data.astype(np.int64) - 1, ids.indices, ids.indptr, q
        g, indices, indptr, q = self.gather
        lu = _splu(sp.csc_matrix((m.data[g], indices, indptr), shape=m.shape), "NATURAL")
        return lambda b: lu.solve(b[q])[self.perm], a_max


def factor_solve(system: SparseSystem) -> np.ndarray:
    """LU solve with iterative refinement to a 1e-10 relative residual.

    A dense matrix is factored by LAPACK on its RCM band (its plan's, else
    its nonzeros'), a sparse one by SuperLU.
    Raises SingularSystemError when the factorization fails, the answer
    grows past MAX_GROWTH or the refined residual cannot meet the bound
    (signals that limiting or continuation must escalate upstream).
    """
    m, b = system.matrix, system.rhs
    if m.shape[0] == 0:
        return np.zeros(0)
    kernel = system.ordering or (_Band(len(m), *np.nonzero(m)) if isinstance(m, np.ndarray) else _Ordering())
    solve, a_max = kernel.lu(m)
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    b_max = float(np.abs(b).max(initial=0.0))
    growth = a_max * float(np.abs(x).max())
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
    """Write the assembled matrix's nonzero entries in MatrixMarket coordinate form (debug aid)."""
    from scipy.io import mmwrite

    matrix = sp.coo_matrix(system.matrix)
    matrix.eliminate_zeros()  # the explicit zeros of a plan's pattern
    mmwrite(str(path), matrix)
