"""Adaptive runtime: measured calibration + drift-triggered re-planning.

The engine's planners rank execution backends with a static
``model_speed_factor`` capability *hint* (scipy 0.35, sharded 0.6 —
DESIGN.md §10).  ``BENCH_backends.json`` shows how far hints drift from
reality on a concrete host (scipy is ~60× the reference, not ~3×), and
that the ``sharded`` break-even point is strongly size-dependent.  This
module closes the runtime feedback loop in three pieces (DESIGN.md §11):

* :class:`BackendCalibrator` — micro-benchmarks every planner-ranked
  backend on synthetic matrices binned by ``(n, nnz/row, density)`` and
  produces a :class:`CalibrationTable` of **measured** speed factors
  (wall-clock relative to ``reference``, same semantics as the static
  hint).  The table persists as JSON next to the plan cache and carries
  an *epoch* so plans record which calibration ranked them.
* :class:`DriftMonitor` — per-plan hysteresis state machine fed by the
  engine with ``(predicted, executed)`` cost pairs.  A probe *drifts*
  when the executed/predicted ratio leaves
  ``[1/threshold, threshold]``; only ``patience`` *consecutive*
  drifting probes trigger a re-plan, and a ``cooldown`` window after
  each re-plan (plus a hard ``max_replans`` cap) guarantees a single
  noisy call can never thrash the planner.
* :class:`AdaptiveConfig` — the knobs, one frozen dataclass shared by
  the engine constructor and the CLI (``--drift-threshold``).

Nothing here runs unless the caller opts in: an engine built without
``calibration=`` / ``drift_threshold=`` behaves exactly as before.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

__all__ = [
    "AdaptiveConfig",
    "DriftDecision",
    "DriftMonitor",
    "CalibrationTable",
    "BackendCalibrator",
    "calibration_backend_key",
    "calibration_path",
    "size_bin",
    "row_bin",
    "density_bin",
]


# ----------------------------------------------------------------------
# Adaptive knobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdaptiveConfig:
    """Configuration of the drift → re-plan feedback loop.

    Attributes
    ----------
    drift_threshold:
        A probe counts as *drifting* when ``executed / predicted`` falls
        outside ``[1/drift_threshold, drift_threshold]`` (both
        directions matter: a plan can become too slow *or* leave cheap
        wins on the table).  Must be ``> 1``.
    patience:
        Consecutive drifting probes required before a re-plan fires —
        the hysteresis that keeps one noisy call from thrashing.
    cooldown:
        Probes ignored after each re-plan while the new plan settles.
    probe_every:
        Probe cadence: measure the executed cost on every *n*-th
        multiply per plan (1 = every multiply).  Probes are simulated
        executions; the engine tracks their model cost separately
        (``EngineStats.model_probe_cost``) and keeps it *out* of the
        break-even economics — a real runtime reads executed cost off a
        timer for free.  Only fired re-plans are invested cost.
    max_replans:
        Hard per-plan cap on re-plans (adversarially noisy cost
        sequences are bounded no matter what).
    """

    drift_threshold: float = 1.5
    patience: int = 2
    cooldown: int = 2
    probe_every: int = 1
    max_replans: int = 8

    def __post_init__(self) -> None:
        if not self.drift_threshold > 1.0:
            raise ValueError(f"drift_threshold must be > 1, got {self.drift_threshold}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {self.probe_every}")
        if self.max_replans < 0:
            raise ValueError(f"max_replans must be >= 0, got {self.max_replans}")


@dataclass(frozen=True)
class DriftDecision:
    """Result of one :meth:`DriftMonitor.observe` probe.

    Truthy exactly when a re-plan should fire, so callers may use it as
    a boolean; ``drifted`` reports whether this probe left the band
    (cooldown-swallowed probes report ``False``)."""

    replan: bool
    drifted: bool
    ratio: float

    def __bool__(self) -> bool:
        return self.replan


@dataclass
class _PlanDriftState:
    """Per-plan-key monitor state (see :class:`DriftMonitor`)."""

    multiplies: int = 0  # since last probe (probe cadence counter)
    streak: int = 0  # consecutive drifting probes
    cooldown_left: int = 0  # probes still ignored after a re-plan
    probes: int = 0
    drifting_probes: int = 0
    replans: int = 0
    last_ratio: float = 1.0


class DriftMonitor:
    """Hysteresis state machine deciding *when* a plan is re-trialled.

    The engine owns the measurements; the monitor owns the decision.
    Guarantees (property-tested in ``tests/test_adaptive_property.py``):

    * ``executed == predicted`` never fires (ratio 1 is inside every
      valid band, since ``drift_threshold > 1``);
    * under any probe sequence of length ``n``, re-plans for one key
      are bounded by ``min(max_replans, (n + cooldown) //
      (patience + cooldown))`` — each re-plan needs ``patience`` fresh
      consecutive drifting probes and is followed by ``cooldown``
      ignored ones.
    """

    def __init__(self, config: AdaptiveConfig | None = None) -> None:
        self.config = config or AdaptiveConfig()
        self._states: dict[str, _PlanDriftState] = {}

    def _state(self, key: str) -> _PlanDriftState:
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = _PlanDriftState()
        return st

    # ------------------------------------------------------------------
    def should_probe(self, key: str) -> bool:
        """Whether this multiply should measure its executed cost.

        Counts the call: every ``probe_every``-th multiply per key
        probes (the first one always does).
        """
        st = self._state(key)
        st.multiplies += 1
        return (st.multiplies - 1) % self.config.probe_every == 0

    def observe(self, key: str, *, predicted: float, executed: float) -> DriftDecision:
        """Feed one ``(predicted, executed)`` probe.

        Returns a :class:`DriftDecision` (truthy = re-plan now).
        Non-finite or non-positive costs are recorded but never drift
        (there is no meaningful ratio to test).
        """
        cfg = self.config
        st = self._state(key)
        st.probes += 1
        if predicted > 0 and executed > 0 and math.isfinite(predicted) and math.isfinite(executed):
            ratio = executed / predicted
        else:
            ratio = 1.0
        st.last_ratio = ratio
        if st.cooldown_left > 0:
            st.cooldown_left -= 1
            st.streak = 0
            return DriftDecision(replan=False, drifted=False, ratio=ratio)
        drifting = ratio > cfg.drift_threshold or ratio < 1.0 / cfg.drift_threshold
        if not drifting:
            st.streak = 0
            return DriftDecision(replan=False, drifted=False, ratio=ratio)
        st.drifting_probes += 1
        st.streak += 1
        replan = st.streak >= cfg.patience and st.replans < cfg.max_replans
        return DriftDecision(replan=replan, drifted=True, ratio=ratio)

    def notify_replanned(self, key: str) -> None:
        """Record a fired re-plan: reset the streak, enter cooldown."""
        st = self._state(key)
        st.replans += 1
        st.streak = 0
        st.cooldown_left = self.config.cooldown

    # ------------------------------------------------------------------
    def state(self, key: str) -> dict:
        """Introspection snapshot for one plan key.

        Read-only: asking about a key the monitor never observed
        returns an all-zero snapshot without allocating state for it.
        """
        st = self._states.get(key) or _PlanDriftState()
        return {
            "probes": st.probes,
            "drifting_probes": st.drifting_probes,
            "streak": st.streak,
            "cooldown_left": st.cooldown_left,
            "replans": st.replans,
            "last_ratio": st.last_ratio,
        }

    def total_replans(self) -> int:
        return sum(st.replans for st in self._states.values())


# ----------------------------------------------------------------------
# Calibration bins
# ----------------------------------------------------------------------
def size_bin(n: int) -> int:
    """Row-count bin: 0 (<256), 1 (<1024), 2 (<4096), 3 (≥4096)."""
    for i, bound in enumerate((256, 1024, 4096)):
        if n < bound:
            return i
    return 3


def row_bin(nnz_row: float) -> int:
    """Mean nnz/row bin: 0 (<4), 1 (<16), 2 (≥16)."""
    return 0 if nnz_row < 4 else (1 if nnz_row < 16 else 2)


def density_bin(density: float) -> int:
    """Global density bin: 0 (<1e-2), 1 (<1e-1), 2 (≥1e-1).

    ``density = nnz / (nrows * ncols)`` — a proxy for how much payload a
    cluster row carries, which is what moves the vectorised/sharded
    break-even points.
    """
    return 0 if density < 1e-2 else (1 if density < 1e-1 else 2)


def _bin_key(backend: str, kernel: str, n: int, nnz_row: float, density: float) -> str:
    return f"{backend}|{kernel}|s{size_bin(n)}r{row_bin(nnz_row)}d{density_bin(density)}"


def calibration_backend_key(backend: str, params: tuple = ()) -> str:
    """Table key for a (possibly parameterised) backend.

    Parameterised configurations calibrate separately —
    ``"sharded:workers=2"`` and ``"sharded:workers=4"`` have different
    break-even points — using the same canonical ``name:key=value``
    rendering as plan labels, so planner lookups and calibrator writes
    agree byte-for-byte.
    """
    if not params:
        return backend
    return f"{backend}:" + ",".join(f"{k}={v}" for k, v in params)


def calibration_path():
    """On-disk calibration file, next to the persisted plans."""
    from .plan_cache import plan_cache_dir

    return plan_cache_dir() / "calibration.json"


# ----------------------------------------------------------------------
# Calibration table
# ----------------------------------------------------------------------
@dataclass
class CalibrationTable:
    """Measured backend speed factors, binned by matrix shape.

    ``entries`` maps ``"<backend>|<kernel>|s<i>r<j>d<k>"`` to a measured
    wall-clock factor relative to ``reference`` (< 1 = faster, same
    semantics as the static ``model_speed_factor`` hint it replaces).
    ``epoch`` increments on every (re-)calibration, so plans can record
    which calibration ranked them and cache keys can tell calibrated
    engines apart from static ones.
    """

    entries: dict[str, float] = field(default_factory=dict)
    epoch: int = 1
    host: str = ""

    @property
    def digest(self) -> str:
        """Short content digest of the measured factors.

        This — not the (resettable) epoch counter — is what cache
        tokens embed: two calibrations measuring different factors can
        share an epoch (a deleted ``calibration.json`` restarts the
        count), but never a digest, so persisted plans ranked under
        obsolete measurements can never be served to a newer engine.
        """
        import hashlib

        payload = json.dumps(sorted(self.entries.items()))
        return hashlib.sha256(payload.encode()).hexdigest()[:10]

    def factor(
        self, backend: str, kernel: str, *, n: int, nnz_row: float, density: float
    ) -> float | None:
        """Measured factor for one backend in one bin.

        Falls back to the geomean of the backend's other measured bins
        for the same kernel (a coarse but *measured* estimate beats the
        static hint); a parameterised backend key
        (``"sharded:workers=4"``) that was never calibrated falls back
        to its bare-name measurements; ``None`` — caller keeps the
        static hint — when nothing under the name was calibrated at all.
        """
        exact = self.entries.get(_bin_key(backend, kernel, n, nnz_row, density))
        if exact is not None and exact > 0 and math.isfinite(exact):
            return exact
        prefix = f"{backend}|{kernel}|"
        others = [v for k, v in self.entries.items() if k.startswith(prefix) and v > 0]
        if not others:
            base = backend.partition(":")[0]
            if base != backend:
                return self.factor(base, kernel, n=n, nnz_row=nnz_row, density=density)
            return None
        return math.exp(sum(math.log(v) for v in others) / len(others))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"epoch": self.epoch, "host": self.host, "entries": dict(sorted(self.entries.items()))}

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationTable":
        # A factor must be a positive finite ratio; anything else (a
        # truncated or hand-edited file) would zero out every candidate
        # estimate for that backend, so it is dropped at the door.  The
        # epoch is clamped to >= 1: epoch 0 means "static hints", and a
        # calibrated planner carrying it would share cache keys with
        # uncalibrated ones — the mixup the epoch token prevents.
        entries = {
            str(k): float(v)
            for k, v in d.get("entries", {}).items()
            if float(v) > 0 and math.isfinite(float(v))
        }
        return cls(entries=entries, epoch=max(1, int(d.get("epoch", 1))), host=str(d.get("host", "")))

    def save(self, path=None) -> None:
        """Persist as JSON next to the plan cache (atomic replace).

        Honours ``REPRO_NO_CACHE=1`` like every other disk artefact.
        """
        from ..experiments.cache import _disabled

        if _disabled():
            return
        path = path or calibration_path()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        tmp.replace(path)

    @classmethod
    def load(cls, path=None) -> "CalibrationTable | None":
        """Load the persisted table; ``None`` when absent/disabled.

        Corrupt files are reported with :func:`warnings.warn` and
        treated as absent, matching the plan cache's behaviour.
        """
        from ..experiments.cache import _disabled

        if _disabled():
            return None
        path = path or calibration_path()
        if not path.exists():
            return None
        try:
            return cls.from_dict(json.loads(path.read_text()))
        except Exception as exc:
            warnings.warn(
                f"discarding corrupt calibration table {path.name}: {exc}; "
                "re-run calibration to regenerate it",
                stacklevel=2,
            )
            return None


# ----------------------------------------------------------------------
# The calibrator
# ----------------------------------------------------------------------
#: (label, builder) pairs spanning the calibration bins: small/medium
#: sizes, thin and fat rows, sparse and dense payloads.  Sizes are kept
#: moderate because the pure-python ``reference`` backend is timed too.
def _calibration_matrices(seed: int):
    from ..matrices import generators as G

    return [
        ("cal_grid8", G.grid2d(8, 8, seed=seed)),  # small, thin rows
        ("cal_blocks40x12", G.block_diagonal(40, 12, density=0.45, seed=seed + 1)),  # medium
        ("cal_banded600", G.banded_random(600, bandwidth=24, fill=0.8, seed=seed + 2)),  # fat rows
        ("cal_blocks4x40", G.block_diagonal(4, 40, density=0.5, seed=seed + 3)),  # dense payload
        ("cal_web1500", G.web_graph(1500, seed=seed + 4)),  # large, sparse payload
        ("cal_grid68", G.grid2d(68, 68, seed=seed + 5)),  # ≥4096 rows: the top size bin
    ]


class BackendCalibrator:
    """Micro-benchmark registered backends into a :class:`CalibrationTable`.

    For every planner-ranked backend (plus any explicitly requested
    one), each calibration matrix is prepared once per kernel dataflow
    (row-wise on CSR, cluster-wise on ``CSR_Cluster``) and the
    *execution only* is timed — preparation is the amortised one-off the
    engine ledgers separately — best-of-``reps``, exactly like
    ``benchmarks/bench_backends.py``.  The measured
    ``t_backend / t_reference`` ratio lands in the matrix's
    ``(n, nnz/row, density)`` bin.

    Parameters
    ----------
    reps:
        Timing repetitions per (matrix, kernel, backend); best-of.
    seed:
        Seed for the synthetic calibration matrices.
    backends:
        Backend names to calibrate; default = every planner-ranked
        backend (the ones ``backend="auto"`` may pick).
    pool_configs:
        Parameterised backend specs calibrated *in addition* to the
        planner-ranked set — by default the ``sharded`` pool
        configuration the benches pin (``"sharded:workers=2"``).  The
        shm data plane made these worth measuring: with operands
        resident, the pool's factor reflects compute topology rather
        than per-call pickling.  Each spec lands in the table under its
        canonical :func:`calibration_backend_key`.
    tracer:
        Optional :class:`~repro.obs.Tracer`: an enabled tracer wraps the
        whole run in a ``calibration.calibrate`` span and emits one
        ``calibration.sample`` event per measured (matrix, kernel,
        backend) cell (DESIGN.md §12).
    """

    #: (kernel, preparation spec) pairs each backend is timed on.
    KERNEL_SPECS = (
        ("rowwise", "original+none+rowwise"),
        ("cluster", "original+fixed:8+cluster"),
    )

    #: Default parameterised pool specs worth their own table rows.
    POOL_CONFIGS = ("sharded:workers=2",)

    def __init__(
        self,
        *,
        reps: int = 3,
        seed: int = 0,
        backends: tuple[str, ...] | None = None,
        pool_configs: tuple[str, ...] | None = None,
        tracer=None,
    ) -> None:
        from ..obs import NOOP_TRACER

        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        self.reps = int(reps)
        self.seed = int(seed)
        self._backends = backends
        self.pool_configs = self.POOL_CONFIGS if pool_configs is None else tuple(pool_configs)
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    def backends(self) -> tuple[str, ...]:
        if self._backends is not None:
            return tuple(self._backends)
        from ..pipeline import components

        return tuple(c.name for c in components("backend", planned=True))

    def _specs(self) -> tuple[tuple[str, str, tuple], ...]:
        """Everything to measure, as ``(table_key, name, params)``."""
        from ..backends import parse_backend

        out = []
        for ref in (*self.backends(), *self.pool_configs):
            name, params = parse_backend(ref)
            out.append((calibration_backend_key(name, params), name, params))
        return tuple(out)

    # ------------------------------------------------------------------
    def _time_execution(self, built, B, backend_ref) -> float:
        """Best-of-``reps`` wall-clock seconds for one backend execution."""
        from ..backends import time_execution

        return time_execution(built, B, backend_ref, reps=self.reps)

    def calibrate(self, *, previous: CalibrationTable | None = None) -> CalibrationTable:
        """Run the micro-benchmarks and assemble the table.

        ``previous`` (e.g. the persisted table) supplies the epoch to
        increment; measured bins aggregate by geomean when several
        matrices land in the same bin.
        """
        import platform

        from ..backends import backend_supports
        from ..pipeline import PipelineSpec

        samples: dict[str, list[float]] = {}
        # repro: allow[RA002] calibration is a cold once-per-process path that deliberately wraps wall-clock micro-benchmarks; span cost is irrelevant here
        cal_span = self.tracer.span("calibration.calibrate", reps=self.reps)
        with cal_span:
            for _label, A in _calibration_matrices(self.seed):
                nnz_row = A.nnz / max(1, A.nrows)
                density = A.nnz / max(1, A.nrows * A.ncols)
                for kernel, spec_text in self.KERNEL_SPECS:
                    built = PipelineSpec.parse(spec_text).build(A)
                    t_ref = self._time_execution(built, A, "reference")
                    for table_key, name, params in self._specs():
                        if name == "reference" or not backend_supports(name, params, kernel):
                            continue
                        seconds = self._time_execution(built, A, (name, params))
                        key = _bin_key(table_key, kernel, A.nrows, nnz_row, density)
                        samples.setdefault(key, []).append(seconds / t_ref if t_ref > 0 else 1.0)
                        # repro: allow[RA002] one event per calibration sample, off the multiply hot path; the disabled tracer's event() no-ops
                        self.tracer.event(
                            "calibration.sample",
                            matrix=_label,
                            backend=table_key,
                            kernel=kernel,
                            seconds=seconds,
                        )
            cal_span.tag(bins=len(samples))
        entries = {
            key: math.exp(sum(math.log(max(v, 1e-12)) for v in vals) / len(vals))
            for key, vals in samples.items()
        }
        epoch = (previous.epoch + 1) if previous is not None else 1
        return CalibrationTable(entries=entries, epoch=epoch, host=platform.node())

    def calibrate_and_save(self) -> CalibrationTable:
        """Calibrate against the persisted table's epoch and persist."""
        table = self.calibrate(previous=CalibrationTable.load())
        table.save()
        return table
