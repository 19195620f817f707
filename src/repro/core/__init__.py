"""Core sparse formats and SpGEMM kernels.

Public surface:

* :class:`~repro.core.coo.COOMatrix`, :class:`~repro.core.csr.CSRMatrix`,
  :class:`~repro.core.csr_cluster.CSRCluster` — storage formats.
* :func:`~repro.core.spgemm.spgemm_rowwise` — Gustavson row-wise SpGEMM.
* :func:`~repro.core.cluster_spgemm.cluster_spgemm` — paper Alg. 1.
* :func:`~repro.core.hybrid_spgemm.hybrid_spgemm` — row-binned numeric
  phase (batched merge / blocked scatter, DESIGN.md §15).
* :func:`~repro.core.topk.spgemm_topk_similarity` — paper Alg. 3's
  candidate generation.
"""

from .accumulators import DenseAccumulator, HashAccumulator, make_accumulator
from .cluster_spgemm import ClusterSpGEMMStats, cluster_spgemm, padded_flops
from .coo import COOMatrix
from .csr import CSRMatrix
from .csr_cluster import CSRCluster
from .hybrid_spgemm import DEFAULT_BIN_MAP, hybrid_spgemm
from .spgemm import SpGEMMStats, flops_rowwise, spgemm_rowwise, spgemm_symbolic
from .tiled_spgemm import TiledSpGEMMStats, split_column_tiles, tiled_spgemm
from .topk import CandidatePairs, spgemm_topk_similarity
from .validate import assert_canonical, is_canonical

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSRCluster",
    "DenseAccumulator",
    "HashAccumulator",
    "make_accumulator",
    "SpGEMMStats",
    "ClusterSpGEMMStats",
    "spgemm_rowwise",
    "spgemm_symbolic",
    "flops_rowwise",
    "TiledSpGEMMStats",
    "split_column_tiles",
    "tiled_spgemm",
    "cluster_spgemm",
    "padded_flops",
    "DEFAULT_BIN_MAP",
    "hybrid_spgemm",
    "CandidatePairs",
    "spgemm_topk_similarity",
    "assert_canonical",
    "is_canonical",
]
