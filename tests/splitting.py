"""Dense splitting analysis of the decomposed Jacobian, used by the tests.

The GSN outer loop never forms these: they check, on small systems,
the structure it relies on.  ``identify_feedback_feedforward`` reads
the port rows of the assembled Jacobian, ``split_block_diagonal`` and
``build_augmented_splitting`` form J = D + E and J = M - N, and
``spectral_radius`` and ``check_diagonal_dominance`` report on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from tandem.gsn import InternalConsistencyError, Partition
from tandem.netmodel import POSITIVE_SEQUENCE, THREE_PHASE, IndexMap, Network, initial_state
from tandem.sparse import assemble
from tandem.stamping import CompiledCircuit, stamp_system


def _jacobian_pattern(network: Network, imap: IndexMap) -> sp.csr_matrix:
    x = initial_state(network, imap)
    lin, nonlin = stamp_system(CompiledCircuit(network, imap), x)
    system = assemble([lin, nonlin], imap.n)
    return system.matrix.tocsr()


def identify_feedback_feedforward(
    partition: Partition, pattern: sp.spmatrix | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Feedback variables (distribution-side port nodes) and feedforward
    variables (transmission-side port nodes), verified against the
    assembled Jacobian pattern.

    With the transmission block ordered first, the port rows are the
    only equations coupling blocks: the nodal columns they touch on the
    distribution side feed values back toward the leading block (the
    port currents they define are consumed by transmission KCL), and
    the nodal columns on the transmission side feed forward into the
    feeder blocks.  The scan checks that reading against the matrix.
    """
    imap = partition.imap
    v_fb: list[int] = []
    v_ff: list[int] = []
    for p in partition.ports:
        v_ff.extend(imap.v_pair(p.transmission_bus, POSITIVE_SEQUENCE))
        for ph in THREE_PHASE:
            v_fb.extend(imap.v_pair(p.feeder_head, ph))
    v_fb_arr = np.array(sorted(v_fb), dtype=np.int64)
    v_ff_arr = np.array(sorted(v_ff), dtype=np.int64)

    if pattern is None:
        pattern = _jacobian_pattern(partition.network, partition.imap)
    pattern = pattern.tocsr()

    vr = imap.slots[imap.slots >= 0]
    nodal = set(vr.tolist()) | set((vr + 1).tolist())
    scan_fb: set[int] = set()
    scan_ff: set[int] = set()
    t_start, t_stop = imap.block("transmission")
    for p in partition.ports:
        for ph in THREE_PHASE:
            currents = imap.port_current[(p.id, ph)]
            for row in currents:
                cols = set(pattern.indices[pattern.indptr[row] : pattern.indptr[row + 1]])
                for c in cols & nodal:
                    if t_start <= c < t_stop:
                        scan_ff.add(c)
                    else:
                        scan_fb.add(c)
            # the port current must feed back into the transmission block KCL
            for cur in currents:
                col_hits = pattern[:, cur].nonzero()[0] if sp.issparse(pattern) else np.nonzero(pattern[:, cur])[0]
                if not any(t_start <= r < t_stop for r in col_hits):
                    raise InternalConsistencyError(
                        f"port {p.id} current {cur} never reaches the transmission block"
                    )
    if scan_fb != set(v_fb_arr.tolist()) or scan_ff != set(v_ff_arr.tolist()):
        raise InternalConsistencyError(
            "port-row pattern scan disagrees with declared feedback/feedforward sets"
        )
    return v_fb_arr, v_ff_arr


def split_block_diagonal(j: np.ndarray, blocks: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """J = D + E with D the block-diagonal part over the given (start, stop) slices."""
    d = np.zeros_like(j)
    for start, stop in blocks:
        d[start:stop, start:stop] = j[start:stop, start:stop]
    return d, j - d


def build_augmented_splitting(
    d: np.ndarray, e: np.ndarray, alpha: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Convergence-oriented splitting J = M - N of the decomposed matrix.

    A diagonal matrix of coupling row sums is added to both sides:
    Ebar_ii = sum_j E_ij, M = D + alpha*Ebar, N = alpha*Ebar - E.
    N is formed as M - (D + E) so M - N reproduces J bit-exactly.
    alpha = 1/2 is the value with the convergence guarantee for
    positive definite systems.
    """
    ebar = np.diag(e.sum(axis=1))
    m = d + alpha * ebar
    # form N as (M - D) - E so the augmentation cancels bit-exactly and
    # M - N reproduces D + E on realistically scaled (diagonal-dominated)
    # systems
    n = (m - d) - e
    return m, n


def spectral_radius(m: np.ndarray, n: np.ndarray) -> float:
    """Dense spectral radius of the iteration matrix M^-1 N."""
    vals = np.linalg.eigvals(np.linalg.solve(m, n))
    return float(np.max(np.abs(vals)))


@dataclass
class RowDominance:
    row: int
    diagonal: float
    off_diagonal_sum: float

    @property
    def margin(self) -> float:
        """Positive when the row violates diagonal dominance."""
        return self.off_diagonal_sum - self.diagonal

    @property
    def dominant(self) -> bool:
        return self.margin <= 0.0


@dataclass
class DominanceReport:
    rows: list[RowDominance]

    @property
    def all_dominant(self) -> bool:
        return all(r.dominant for r in self.rows)

    @property
    def violations(self) -> list[RowDominance]:
        return [r for r in self.rows if not r.dominant]


def check_diagonal_dominance(matrix) -> DominanceReport:
    """Row-wise |a_ii| versus the off-diagonal absolute sum."""
    if sp.issparse(matrix):
        matrix = matrix.toarray()
    matrix = np.asarray(matrix)
    rows = []
    for i in range(matrix.shape[0]):
        diag = abs(matrix[i, i])
        off = float(np.abs(matrix[i]).sum() - diag)
        rows.append(RowDominance(row=i, diagonal=float(diag), off_diagonal_sum=off))
    return DominanceReport(rows=rows)
