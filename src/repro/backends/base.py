"""The execution-backend contract: :class:`ExecutionBackend` +
:class:`ExecutionContext`.

A *backend* is how a planned SpGEMM configuration actually runs.  The
paper's thesis — restructure the same computation for locality — is
backend-independent: a pipeline names *what* to compute (reordering,
clustering, kernel dataflow), the backend names *how* (the in-process
registry kernels, scipy's native CSR matmul, a process-pool of row
shards).  Separating the two is what lets
the engine run "as fast as the hardware allows" (ROADMAP) while keeping
one correctness oracle.

Contract
--------
``backend.execute(operand, B, kernel=..., kernel_params=..., ctx=...)``
returns the product **in the operand's row order** (callers apply the
inverse permutation), exactly like the
:class:`~repro.pipeline.registry.KernelBackend` protocol the kernels
satisfy.  Every backend must reproduce the *sparsity pattern* of
row-wise SpGEMM exactly (including structural zeros from numeric
cancellation); backends whose :attr:`~ExecutionBackend.bitwise_reference`
capability is ``True`` additionally preserve each output row's
floating-point summation order, so their values are bit-identical to
:func:`~repro.core.spgemm.spgemm_rowwise`.  Other backends guarantee
``allclose`` values on the identical pattern.  A backend whose bit
identity depends on how its native code was built measures the flag
instead of declaring it (``scipy`` runs a probe product at
registration).

Capabilities are declared class-level (they feed the registry's
:class:`~repro.pipeline.registry.ComponentInfo` entry) and refined
per instance where composition demands it (``sharded`` inherits its
inner backend's kernel support and bitwise flag).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, ClassVar

__all__ = ["ExecutionBackend", "ExecutionContext"]


@dataclass
class ExecutionContext:
    """Per-execution workspace and statistics, threaded through dispatch.

    One context can span many executions (the engine keeps a long-lived
    one), so backends *accumulate* into :attr:`stats` rather than
    overwrite.  ``scratch`` is a free-form workspace for reusable
    buffers / pools keyed by the backend that owns them.

    Attributes
    ----------
    cfg:
        Optional :class:`~repro.experiments.config.ExperimentConfig`
        supplying parameter defaults.
    stats:
        Counter dict (``{"scipy_calls": 3, "sharded_shards": 8, ...}``);
        use :meth:`bump`.
    workers:
        Caller-suggested parallel width (``None`` = backend default).
    scratch:
        Backend-private workspace surviving across executions.
    operand_tokens:
        Digest hints installed by the engine: ``id(operand) →
        "pattern:value"`` token (the same digests its plan/operand
        cache keys use), scoped to the current call.  Backends that
        keep operands resident across process boundaries (``sharded``)
        use these as residency keys instead of re-hashing; absent
        entries mean "compute the token yourself".
    tracer:
        Optional :class:`~repro.obs.Tracer`: when set (and enabled),
        :func:`repro.backends.execute` wraps each dispatch in a
        ``backend.execute`` span tagged with backend and kernel — the
        per-backend phase timing of DESIGN.md §12.  ``None`` (default)
        keeps dispatch span-free.
    """

    cfg: Any = None
    stats: dict[str, int] = field(default_factory=dict)
    workers: int | None = None
    scratch: dict[str, Any] = field(default_factory=dict)
    operand_tokens: dict[int, str] = field(default_factory=dict)
    tracer: Any = None

    def bump(self, key: str, n: int = 1) -> None:
        """Accumulate a named counter."""
        self.stats[key] = self.stats.get(key, 0) + n


class ExecutionBackend(ABC):
    """One way of executing a planned SpGEMM configuration.

    Class attributes declare the registry capabilities; see the module
    docstring for the execution contract.  Instances may be
    parameterised (``ShardedBackend(workers=4, inner="scipy")``) — the
    parameter schema is introspected from ``__init__`` keyword defaults
    exactly like kernel/clustering components, so backends are
    spec-addressable (``...@sharded:workers=4,inner=scipy``).
    """

    #: Registry name (unique across every component kind).
    name: ClassVar[str] = "base"
    #: ``"serial"`` or ``"process"`` (uses worker processes).
    parallelism: ClassVar[str] = "serial"
    #: Planner candidate rank; ``None`` keeps the backend out of the
    #: default search space (it stays spec-addressable and pinnable).
    planner_rank: ClassVar[int | None] = None
    #: Simulated-time multiplier planners rank this backend with — a
    #: relative implementation-speed hint, not a measurement.
    model_speed_factor: ClassVar[float] = 1.0
    #: One-line summary for ``repro.pipeline.describe()``.
    description: ClassVar[str] = ""

    # -- capabilities (instance-level: composites refine them) ----------
    @property
    def bitwise_reference(self) -> bool:
        """Results are bit-identical to the ``reference`` backend."""
        return False

    @property
    def supported_kernels(self) -> tuple[str, ...] | None:
        """Kernel names this backend can execute (``None`` = all)."""
        return None

    def supports_kernel(self, kernel: str) -> bool:
        supported = self.supported_kernels
        return supported is None or kernel in supported

    # -- execution ------------------------------------------------------
    @abstractmethod
    def execute(
        self,
        operand: Any,
        B: Any,
        *,
        kernel: str,
        kernel_params: dict[str, Any],
        ctx: ExecutionContext,
    ) -> Any:
        """Run ``kernel`` on the prepared ``operand`` against ``B``.

        ``operand`` satisfies the
        :class:`~repro.pipeline.registry.ClusteredOperand` protocol
        (``Ar`` always, ``Ac`` when the pipeline clustered).  Returns
        canonical CSR in the operand's row order.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
