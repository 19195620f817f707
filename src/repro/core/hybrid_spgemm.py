"""Row-binned hybrid SpGEMM numeric phase (DESIGN.md §15).

Individual rows of ``A @ B`` differ by orders of magnitude in flops and
upper-bound output nonzeros, so no single numeric phase suits every row
(Nagasaka et al., the paper's accumulator reference [40], bin rows by
workload for exactly this reason).  This module computes per-row
workloads in one O(nnz) vectorised symbolic pre-pass and splits the rows
between two batched numpy phases:

* ``merge``   — batched sorted-array merge: the whole bin's contribution
  stream reduced by one ``np.unique`` over combined ``row * ncols + col``
  keys (the vectorised analogue of the per-row ``"sort"`` accumulator).
  Cheap for short rows, however many there are.
* ``scatter`` — blocked dense scatter: one ordered ``np.add.at`` over a
  ``(rows_per_block, ncols)`` dense panel.  Cheap for long rows, whose
  panel rows are well filled.

This is the one vectorised row-wise numeric phase: the registered
``hybrid`` kernel runs it on every bitwise backend.

**Bitwise contract.**  Both phases reproduce ``spgemm_rowwise`` exactly:
each output element's contributions are added in the reference stream
order (rows ascending; within a row, ``A``'s columns in CSR order, each
expanded to its ``B`` row), because ``np.bincount`` with weights and
``np.add.at`` accumulate their input in index order, and both phases
emit columns ascending.  Mixing bins only partitions rows, so the
assembled matrix is bit-identical to ``spgemm_rowwise(A, B)`` whatever
the bin map — the property :mod:`tests.test_hybrid_spgemm` asserts per
phase and whole-matrix.

The bin map is a tuple of ``(edge, kind)`` pairs: ``edge`` is the
inclusive upper bound on a row's upper-bound nnz (``min(row_flops,
ncols)``), ``-1`` marks the final catch-all bin.  Plans record the map
(:class:`~repro.engine.plan.ExecutionPlan.bin_map`) so a cached plan
replays the exact same dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRMatrix, _concat_ranges

__all__ = [
    "BIN_KINDS",
    "DEFAULT_BIN_MAP",
    "HybridStats",
    "assign_bins",
    "hybrid_spgemm",
    "row_workloads",
    "validate_bin_map",
]

#: Numeric phases a bin can dispatch to.
BIN_KINDS = ("merge", "scatter")

#: The default ladder: inclusive upper-bound-nnz edges -> numeric phase.
#: ``-1`` is the catch-all.  Rows with at most 512 output nonzeros
#: (zero-work rows included) go to the batched merge, the rest to the
#: blocked dense scatter.
DEFAULT_BIN_MAP: tuple[tuple[int, str], ...] = ((512, "merge"), (-1, "scatter"))

#: Dense-entry budget of one scatter block (``rows_per_block * ncols``).
_SCATTER_BLOCK_ENTRIES = 1 << 22


@dataclass
class HybridStats:
    """Per-bin work accounting of one hybrid execution.

    ``rows`` / ``flops`` map bin kind -> rows dispatched / multiply-adds
    performed.
    """

    rows: dict[str, int] = field(default_factory=dict)
    flops: dict[str, int] = field(default_factory=dict)

    def counters(self) -> dict[str, int]:
        """Flat counter projection (sorted keys) for
        :class:`~repro.backends.base.ExecutionContext` accounting."""
        out: dict[str, int] = {}
        for kind in sorted(self.rows):
            if self.rows[kind]:
                out[f"hybrid_bin_rows.{kind}"] = self.rows[kind]
        for kind in sorted(self.flops):
            if self.flops[kind]:
                out[f"hybrid_bin_flops.{kind}"] = self.flops[kind]
        return out


def validate_bin_map(bin_map) -> tuple[tuple[int, str], ...]:
    """Normalise and validate a bin map (see module docstring).

    Returns the canonical tuple-of-tuples form (JSON round-trips hand
    back lists).  Raises ``ValueError`` on unknown kinds, unsorted
    edges, or a missing ``-1`` catch-all.
    """
    try:
        bm = tuple((int(e), str(k)) for e, k in bin_map)
    except (TypeError, ValueError):
        raise ValueError(f"bin_map must be (edge, kind) pairs, got {bin_map!r}") from None
    if not bm:
        raise ValueError("bin_map must have at least one bin")
    for _edge, kind in bm:
        if kind not in BIN_KINDS:
            raise ValueError(f"unknown bin kind {kind!r}; expected one of {BIN_KINDS}")
    edges = [e for e, _ in bm]
    if edges[-1] != -1:
        raise ValueError("the last bin edge must be -1 (the catch-all)")
    finite = edges[:-1]
    if any(e < 0 for e in finite) or any(b <= a for a, b in zip(finite, finite[1:])):
        raise ValueError(f"bin edges must be non-negative and strictly increasing, got {edges}")
    return bm


def row_workloads(A: CSRMatrix, B: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``(flops, upper_bound_nnz)`` of ``A @ B`` — the symbolic
    pre-pass, O(nnz(A)) fully vectorised.

    ``flops[i] = Σ_{a_ik ≠ 0} nnz(B[k, :])`` (segment sums over ``A``'s
    rows via the cumsum trick) and the output of row ``i`` can have at
    most ``min(flops[i], B.ncols)`` nonzeros.
    """
    if A.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    b_lens = np.diff(B.indptr)
    contrib = b_lens[A.indices]
    cum = np.zeros(contrib.size + 1, dtype=np.int64)
    np.cumsum(contrib, out=cum[1:])
    flops = cum[A.indptr[1:]] - cum[A.indptr[:-1]]
    return flops, np.minimum(flops, np.int64(B.ncols))


def assign_bins(ub: np.ndarray, bin_map) -> np.ndarray:
    """Bin index per row: the first bin whose edge covers ``ub[i]``."""
    bm = validate_bin_map(bin_map)
    edges = np.array(
        [np.iinfo(np.int64).max if e == -1 else e for e, _ in bm], dtype=np.int64
    )
    return np.searchsorted(edges, ub, side="left")


def _gather(A: CSRMatrix, B: CSRMatrix, b_lens: np.ndarray, rows: np.ndarray):
    """Contribution stream of ``rows`` in the reference order.

    Returns ``(gcols, gvals)``: for each listed row in order, its ``A``
    entries in CSR order, each expanded to the selected ``B`` row —
    exactly the per-row gather of :func:`~repro.core.spgemm.spgemm_rowwise`,
    concatenated.
    """
    a_lens = (A.indptr[1:] - A.indptr[:-1])[rows]
    a_take = _concat_ranges(A.indptr[rows], a_lens)
    ks = A.indices[a_take]
    lens = b_lens[ks]
    take = _concat_ranges(B.indptr[ks], lens)
    gcols = B.indices[take]
    gvals = B.values[take] * np.repeat(A.values[a_take], lens)
    return gcols, gvals


def _run_merge(A, B, b_lens, rows, row_flops):
    """Batched sorted-array merge over one bin.

    Combined keys ``local_row * ncols + col`` sort row-major with
    columns ascending (the canonical CSR order), and ``np.bincount``
    adds each key's weights in stream order — the reference per-row
    ``unique``/``bincount`` reduction, one call for the whole bin.
    Zero-work rows contribute no keys and come out empty.
    """
    m = B.ncols
    gcols, gvals = _gather(A, B, b_lens, rows)
    rloc = np.repeat(np.arange(rows.size, dtype=np.int64), row_flops)
    keys = rloc * np.int64(m) + gcols
    ukeys, inv = np.unique(keys, return_inverse=True)
    vals = np.bincount(inv, weights=gvals, minlength=ukeys.size)
    counts = np.bincount(ukeys // m, minlength=rows.size).astype(np.int64)
    return ukeys % m, vals, counts


def _run_scatter(A, B, b_lens, rows, row_flops):
    """Blocked dense scatter over one bin.

    Rows are processed in panels of ``_SCATTER_BLOCK_ENTRIES / ncols``
    rows; one ``np.add.at`` per panel applies the panel's whole
    contribution stream sequentially in index order (the unbuffered
    ufunc contract), and ``np.nonzero`` on the touched mask extracts
    rows in row-major order with columns ascending.
    """
    m = B.ncols
    per_block = max(1, _SCATTER_BLOCK_ENTRIES // max(1, m))
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    counts = np.zeros(rows.size, dtype=np.int64)
    for start in range(0, rows.size, per_block):
        sub = rows[start : start + per_block]
        sub_flops = row_flops[start : start + per_block]
        gcols, gvals = _gather(A, B, b_lens, sub)
        rloc = np.repeat(np.arange(sub.size, dtype=np.int64), sub_flops)
        acc = np.zeros((sub.size, m), dtype=np.float64)
        np.add.at(acc, (rloc, gcols), gvals)
        touched = np.zeros((sub.size, m), dtype=bool)
        touched[rloc, gcols] = True
        r_idx, c_idx = np.nonzero(touched)
        cols_parts.append(c_idx.astype(np.int64, copy=False))
        vals_parts.append(acc[r_idx, c_idx])
        counts[start : start + per_block] = np.bincount(r_idx, minlength=sub.size)
    if not cols_parts:
        return np.zeros(0, np.int64), np.zeros(0, np.float64), counts
    return np.concatenate(cols_parts), np.concatenate(vals_parts), counts


_PHASES = {"merge": _run_merge, "scatter": _run_scatter}


def hybrid_spgemm(
    A: CSRMatrix,
    B: CSRMatrix,
    *,
    bin_map=None,
    stats: HybridStats | None = None,
) -> CSRMatrix:
    """Compute ``C = A @ B`` with per-bin numeric-phase dispatch.

    Parameters
    ----------
    A, B:
        Canonical CSR inputs with ``A.ncols == B.nrows``.
    bin_map:
        ``(edge, kind)`` ladder (see module docstring); ``None`` uses
        :data:`DEFAULT_BIN_MAP`.
    stats:
        Optional :class:`HybridStats` filled with per-bin counters.

    Bitwise-identical to ``spgemm_rowwise(A, B)`` for every valid bin
    map (see the module docstring's contract).
    """
    bm = validate_bin_map(DEFAULT_BIN_MAP if bin_map is None else bin_map)
    if A.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {A.shape} x {B.shape}")
    n, m = A.nrows, B.ncols
    b_lens = np.diff(B.indptr)
    flops, ub = row_workloads(A, B)
    bins = assign_bins(ub, bm)

    counts = np.zeros(n, dtype=np.int64)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for b, (_edge, kind) in enumerate(bm):
        rows = np.nonzero(bins == b)[0]
        if stats is not None:
            stats.rows[kind] = stats.rows.get(kind, 0) + int(rows.size)
            stats.flops[kind] = stats.flops.get(kind, 0) + int(flops[rows].sum())
        if rows.size == 0:
            continue
        cols, vals, rcounts = _PHASES[kind](A, B, b_lens, rows, flops[rows])
        counts[rows] = rcounts
        parts.append((rows, cols, vals))

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    out_indices = np.empty(indptr[-1], dtype=np.int64)
    out_values = np.empty(indptr[-1], dtype=np.float64)
    for rows, cols, vals in parts:
        dest = _concat_ranges(indptr[rows], counts[rows])
        out_indices[dest] = cols
        out_values[dest] = vals
    return CSRMatrix(indptr, out_indices, out_values, (n, m), check=False)
