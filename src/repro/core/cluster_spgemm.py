"""Cluster-wise SpGEMM — paper Algorithm 1.

The kernel iterates over *clusters* of ``A`` (stored in
:class:`~repro.core.csr_cluster.CSRCluster`) instead of rows.  For each
distinct column ``k`` of the cluster it loads row ``k`` of ``B`` **once**
and applies it to every row of the cluster (one value fiber), so the
``B`` row is reused while cache-resident — the central locality idea of
the paper.

Loop structure (blue lines of paper Alg. 1)::

    for each cluster a_i* of A:                  # parallel in the paper
        for each column k present in the cluster:
            for each b_kj in row k of B:
                for each a_ikl in fiber (k) of the cluster:
                    c_ijl += a_ikl * b_kj

The two inner loops are fused into one vectorised rank-1 update
(``acc[:, cols_k] += outer(fiber_k, b_vals_k)``) per ``(cluster, k)``
pair, which performs *exactly* the padded multiply-add count the scalar
loop would (padding slots multiply by zero but still cost work — the
overhead the paper attributes to dissimilar rows sharing a cluster).

Output semantics match row-wise SpGEMM on the *reordered* matrix: row
``r`` of the result corresponds to original row ``cluster.row_ids[r]``,
and its sparsity pattern is the union of ``B`` rows selected by the
*structural* entries of that row only (padding never creates output
entries).  :func:`cluster_spgemm` can optionally scatter rows back to the
original order for direct comparison.

:func:`cluster_spgemm` is the algorithm as written, the oracle and the
code the paper benches time; :func:`vectorized_cluster_spgemm` is the
same computation batched per cluster in numpy, bitwise-identical to it,
and is what the registered ``cluster`` kernel runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix, _concat_ranges
from .csr_cluster import CSRCluster

__all__ = [
    "ClusterSpGEMMStats",
    "cluster_spgemm",
    "padded_flops",
    "vectorized_cluster_spgemm",
]


@dataclass
class ClusterSpGEMMStats:
    """Work accounting of one cluster-wise SpGEMM execution.

    Attributes
    ----------
    padded_flops:
        Multiply-adds actually performed, including padding slots:
        ``Σ_c Σ_{k ∈ cols(c)} size(c) · nnz(B[k, :])``.
    useful_flops:
        Multiply-adds a row-wise kernel would perform (structural only).
    b_row_loads:
        Number of ``B`` rows fetched — one per (cluster, distinct column),
        versus one per (row, column) in row-wise SpGEMM.  The reduction in
        this count is the reuse the format buys.
    out_nnz:
        Nonzeros of the output.
    """

    padded_flops: int = 0
    useful_flops: int = 0
    b_row_loads: int = 0
    out_nnz: int = 0

    @property
    def padding_overhead(self) -> float:
        """``padded/useful`` work ratio — 1.0 means no wasted multiplies."""
        return self.padded_flops / self.useful_flops if self.useful_flops else 1.0


def padded_flops(Ac: CSRCluster, B: CSRMatrix) -> int:
    """Padded multiply-add count of cluster-wise ``Ac @ B`` without executing."""
    b_lens = np.diff(B.indptr)
    sizes = Ac.cluster_sizes()
    total = 0
    for c in range(Ac.nclusters):
        ccols = Ac.cluster_cols(c)
        if ccols.size:
            total += int(b_lens[ccols].sum()) * int(sizes[c])
    return total


def cluster_spgemm(
    Ac: CSRCluster,
    B: CSRMatrix,
    *,
    restore_order: bool = False,
    stats: ClusterSpGEMMStats | None = None,
) -> CSRMatrix:
    """Compute ``C = A @ B`` cluster-wise over a ``CSR_Cluster`` operand.

    Parameters
    ----------
    Ac:
        The first operand in clustered format (its ``row_ids`` define the
        row order of the result).
    B:
        Second operand in canonical CSR; ``Ac.ncols == B.nrows``.
    restore_order:
        When ``True``, scatter output rows back to the original row ids of
        ``A`` so the result equals plain ``A @ B`` (used by tests).  When
        ``False`` (default), row ``r`` of the result is original row
        ``Ac.row_ids[r]`` — the natural product of a reordered operand.
    stats:
        Optional :class:`ClusterSpGEMMStats` to fill in.
    """
    if Ac.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {Ac.shape} x {B.shape}")
    if stats is None:
        stats = ClusterSpGEMMStats()

    n, m = Ac.nrows, B.ncols
    b_lens = np.diff(B.indptr)
    max_size = int(Ac.cluster_sizes().max()) if Ac.nclusters else 1

    # Dense accumulator block shared across clusters: one SPA row per
    # cluster row, plus a structural bitmap to reproduce row-wise patterns.
    acc = np.zeros((max_size, m), dtype=np.float64)
    struct = np.zeros((max_size, m), dtype=bool)

    row_order_indices: list[np.ndarray] = []
    row_order_values: list[np.ndarray] = []
    row_counts = np.zeros(n, dtype=np.int64)

    out_row = 0
    for c in range(Ac.nclusters):
        ccols = Ac.cluster_cols(c)
        block, mblock = Ac.cluster_block(c)  # (k, size_c)
        size_c = block.shape[1]
        touched_parts: list[np.ndarray] = []

        for p in range(ccols.size):
            k = int(ccols[p])
            lo, hi = B.indptr[k], B.indptr[k + 1]
            bcols = B.indices[lo:hi]
            bvals = B.values[lo:hi]
            stats.b_row_loads += 1
            if bcols.size == 0:
                continue
            fiber = block[p]  # size_c values, zeros in padding slots
            # Rank-1 update: every row of the cluster consumes B row k now.
            acc[:size_c, bcols] += np.outer(fiber, bvals)
            stats.padded_flops += size_c * bcols.size
            smask = mblock[p]
            stats.useful_flops += int(smask.sum()) * bcols.size
            if smask.any():
                struct[np.ix_(smask.nonzero()[0], bcols)] = True
            touched_parts.append(bcols)

        touched = np.unique(np.concatenate(touched_parts)) if touched_parts else np.zeros(0, np.int64)
        for r_local in range(size_c):
            hit = struct[r_local, touched]
            cols_r = touched[hit]
            vals_r = acc[r_local, cols_r]
            row_order_indices.append(cols_r)
            row_order_values.append(vals_r.copy())
            row_counts[out_row] = cols_r.size
            out_row += 1

        if touched.size:
            acc[:size_c, touched] = 0.0
            struct[:size_c, touched] = False

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.concatenate(row_order_indices) if row_order_indices else np.zeros(0, np.int64)
    values = np.concatenate(row_order_values) if row_order_values else np.zeros(0, np.float64)
    C = CSRMatrix(indptr, indices, values, (n, m), check=False)
    stats.out_nnz = C.nnz

    if restore_order:
        # Row r of C is original row row_ids[r]; invert the gather.
        inv = np.empty(n, dtype=np.int64)
        inv[Ac.row_ids] = np.arange(n, dtype=np.int64)
        C = C.permute_rows(inv)
    return C


def vectorized_cluster_spgemm(
    Ac: CSRCluster, B: CSRMatrix, *, restore_order: bool = False
) -> CSRMatrix:
    """Batch-vectorised cluster-wise ``Ac @ B`` — the registered ``cluster`` kernel.

    Replaces :func:`cluster_spgemm`'s per-``(cluster, column)`` loop
    with one fused ``np.add.at`` scatter-accumulate per cluster: all of
    a cluster's ``B``-row contributions are gathered at once, compressed
    to the cluster's touched-column set, and accumulated into a dense
    ``(touched, cluster_size)`` block.  Row semantics are
    :func:`cluster_spgemm`'s: row ``r`` of the result is original row
    ``Ac.row_ids[r]`` unless ``restore_order`` scatters rows back.

    **Bitwise contract.**  ``np.add.at`` applies contributions in index
    order, and the contribution stream is ordered by cluster column
    ``p`` ascending (each output element appears at most once per
    ``p``) — exactly the per-element addition order of
    :func:`cluster_spgemm`'s rank-1 updates, with the same scalar
    multiplies.  The result is therefore bit-identical to
    :func:`cluster_spgemm`, which stays the oracle tests compare with.
    The structural pattern is accumulated separately from the padding
    mask (``np.logical_or.at``), so padded slots never create entries.
    """
    if Ac.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {Ac.shape} x {B.shape}")
    n, m = Ac.nrows, B.ncols
    b_lens = np.diff(B.indptr)

    row_indices: list[np.ndarray] = []
    row_values: list[np.ndarray] = []
    row_counts = np.zeros(n, dtype=np.int64)

    out_row = 0
    for c in range(Ac.nclusters):
        ccols = Ac.cluster_cols(c)
        block, mblock = Ac.cluster_block(c)  # (k, size_c)
        size_c = block.shape[1]
        lens = b_lens[ccols] if ccols.size else np.zeros(0, dtype=np.int64)
        total = int(lens.sum())
        if total == 0:
            out_row += size_c  # rows with no B contributions stay empty
            continue
        take = _concat_ranges(B.indptr[ccols], lens)
        bcols_all = B.indices[take]
        bvals_all = B.values[take]
        p_idx = np.repeat(np.arange(ccols.size, dtype=np.int64), lens)
        ucols, comp = np.unique(bcols_all, return_inverse=True)

        # One ordered scatter-accumulate per cluster: contribution e adds
        # fiber p_idx[e] (scaled by its B value) into touched column
        # comp[e] — p ascending, the reference kernel's addition order.
        acc = np.zeros((ucols.size, size_c), dtype=np.float64)
        np.add.at(acc, comp, block[p_idx] * bvals_all[:, None])
        struct = np.zeros((ucols.size, size_c), dtype=bool)
        np.logical_or.at(struct, comp, mblock[p_idx])

        for r_local in range(size_c):
            hit = struct[:, r_local]
            row_indices.append(ucols[hit])
            row_values.append(acc[hit, r_local])
            row_counts[out_row] = int(hit.sum())
            out_row += 1

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.concatenate(row_indices) if row_indices else np.zeros(0, np.int64)
    values = np.concatenate(row_values) if row_values else np.zeros(0, np.float64)
    C = CSRMatrix(indptr, indices, values, (n, m), check=False)
    if restore_order:
        inv = np.empty(n, dtype=np.int64)
        inv[Ac.row_ids] = np.arange(n, dtype=np.int64)
        C = C.permute_rows(inv)
    return C
