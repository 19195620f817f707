"""The ``scipy`` backend — native CSR matmul fast path.

Replaces the numeric computation wholesale: the prepared operand's CSR
form is handed to :mod:`scipy.sparse` (compiled SMMP matmul), and the
product is canonicalised back into our :class:`~repro.core.csr.CSRMatrix`.
scipy's numeric phase drops every sum that comes out exactly ``0.0``,
while row-wise SpGEMM keeps such numeric cancellations as explicit
entries.  When each operand is one-signed with a nonzero smallest
product, no sum can cancel and scipy's product is used as it is;
otherwise a boolean product recovers the structural pattern and the
cancelled entries are put back as explicit zeros.  Either way the output
sparsity pattern is identical to row-wise SpGEMM.  Values are
``allclose`` but not bitwise: scipy's per-row accumulation order differs,
so this backend declares ``bitwise_reference=False``.

scipy runs one dataflow, so the backend supports only the ``rowwise``
kernel: naming ``cluster`` or ``hybrid`` would run the same ``A @ B``
under another label (and pay for a ``CSR_Cluster`` build scipy never
reads).  The planner's ``backend_supports`` filter therefore yields one
scipy candidate per reordering.  The backend is registered only when
scipy imports, so environments without scipy keep a valid
(reference-only) backend registry.
"""

from __future__ import annotations

from typing import Any, ClassVar

import numpy as np

from .base import ExecutionBackend, ExecutionContext

__all__ = ["ScipyBackend"]


def scipy_available() -> bool:
    """Whether :mod:`scipy.sparse` imports in this environment."""
    try:
        import scipy.sparse  # noqa: F401
    except Exception:  # pragma: no cover - exercised only without scipy
        return False
    return True


def _min_abs_if_one_signed(values: np.ndarray) -> float:
    """``min |v|`` when every value has one sign, else ``0.0`` (also for
    zeros and NaNs)."""
    lo, hi = values.min(), values.max()
    if lo > 0:
        return float(lo)
    if hi < 0:
        return float(-hi)
    return 0.0


def _cannot_cancel(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether no sum of products ``a_i * b_j`` can come out ``0.0``:
    all products then share one sign and none underflows to zero."""
    if a.size == 0 or b.size == 0:
        return True
    return _min_abs_if_one_signed(a) * _min_abs_if_one_signed(b) > 0


def _with_cancellations(As, Bs, Cs):
    """``Cs = As @ Bs`` with the entries scipy pruned as exact-zero sums
    restored as explicit zeros on the structural (boolean) pattern."""
    import scipy.sparse as sp

    def pattern(M):
        return sp.csr_matrix(
            (np.ones(M.indices.size, dtype=bool), M.indices, M.indptr), shape=M.shape
        )

    P = pattern(As) @ pattern(Bs)
    P.sort_indices()
    Cs.sort_indices()
    ncols = Cs.shape[1]

    def keys(M):
        rows = np.repeat(np.arange(M.shape[0], dtype=np.int64), np.diff(M.indptr))
        return rows * ncols + M.indices

    data = np.zeros(P.nnz, dtype=np.float64)
    data[np.searchsorted(keys(P), keys(Cs))] = Cs.data
    return sp.csr_matrix((data, P.indices, P.indptr), shape=Cs.shape)


class ScipyBackend(ExecutionBackend):
    """Native scipy CSR matmul over the prepared operand."""

    name: ClassVar[str] = "scipy"
    parallelism: ClassVar[str] = "serial"
    planner_rank: ClassVar[int | None] = 10
    model_speed_factor: ClassVar[float] = 0.35
    description: ClassVar[str] = "native scipy CSR matmul (allclose values, identical pattern)"

    @property
    def bitwise_reference(self) -> bool:
        return False

    @property
    def supported_kernels(self) -> tuple[str, ...] | None:
        return ("rowwise",)

    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        import scipy.sparse as sp  # registration guarantees importability

        from ..core.csr import CSRMatrix

        ctx.bump("scipy_calls")
        Ar = operand.Ar
        As = sp.csr_matrix((Ar.values, Ar.indices, Ar.indptr), shape=Ar.shape)
        Bs = sp.csr_matrix((B.values, B.indices, B.indptr), shape=B.shape)
        Cs = As @ Bs
        if not _cannot_cancel(Ar.values, B.values):
            Cs = _with_cancellations(As, Bs, Cs)
        Cs.sort_indices()
        return CSRMatrix(
            Cs.indptr.astype("int64"),
            Cs.indices.astype("int64"),
            Cs.data.astype("float64"),
            Cs.shape,
            check=False,
        )
