"""The ``scipy`` backend — native CSR matmul fast path.

Replaces the numeric computation wholesale: the prepared operand's CSR
form is handed to :mod:`scipy.sparse` (compiled SMMP matmul), and the
product is canonicalised back into our :class:`~repro.core.csr.CSRMatrix`.
Because scipy's symbolic phase is the same Gustavson union as ours —
numeric cancellations are *kept* as explicit entries, not pruned — the
output sparsity pattern is identical to row-wise SpGEMM.  Values are
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

from .base import ExecutionBackend, ExecutionContext

__all__ = ["ScipyBackend"]


def scipy_available() -> bool:
    """Whether :mod:`scipy.sparse` imports in this environment."""
    try:
        import scipy.sparse  # noqa: F401
    except Exception:  # pragma: no cover - exercised only without scipy
        return False
    return True


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
        Cs.sort_indices()
        return CSRMatrix(
            Cs.indptr.astype("int64"),
            Cs.indices.astype("int64"),
            Cs.data.astype("float64"),
            Cs.shape,
            check=False,
        )
