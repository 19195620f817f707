"""Closed-loop engine workloads on the paper's representative suite.

* ``suite-bitwise``: the default ``SpGEMMEngine()`` (reference backend,
  bitwise contract) computes A² on the ten representative matrices.
* ``suite-auto``: the same with ``SpGEMMEngine(backend="auto")``.
* ``evolving-auto``: ``backend="auto"``, and every steady call multiplies
  a fresh value perturbation of A, so the plan is reused but the
  prepared operand never is.

The workload seed draws the operand values (``perturb_values``, pattern
unchanged); the patterns are the suite's.  One thread calls the engine,
one product at a time.
"""

from __future__ import annotations

import statistics
import time
from functools import partial
from itertools import cycle

import numpy as np

from repro import SpGEMMEngine, spgemm_rowwise
from repro.core.csr import CSRMatrix
from repro.matrices.perturb import perturb_values
from repro.matrices.suite import get_matrix, suite_names
from repro.serve import results_identical

import layers
from measure import (
    LATENCY_LIMIT_MS, digest, peak_rss_mb, percentile, steady_passes, tail_percentile, timed, wall,
)

#: Set-ups per run.  Each is followed by its share of the steady passes,
#: at least one, so every matrix gets at least this many steady calls.
SETUP_REPS = 3
#: Value perturbations per matrix on ``evolving-auto``.  More than the
#: engine's default prepared-operand cache holds (8), so cycling through
#: them never finds a prepared operand.
VARIANTS = 12
VALUE_SCALE = 0.05
#: Steady passes of the traced run before its layer breakdown.
TRACED_PASSES = 3

BACKEND = {"suite-bitwise": None, "suite-auto": "auto", "evolving-auto": "auto"}
#: Host reference (hostref.py) of the steady calls: the kind of work that
#: dominates them.  Set-up is fingerprinting, planning and prepare, mostly
#: interpreted, and is converted by the ``python`` reference everywhere.
STEADY_REFERENCE = {"suite-bitwise": "python", "suite-auto": "scipy", "evolving-auto": "scipy"}


class Oracle:
    """Checks each distinct product once and repeats by digest.

    ``suite-bitwise`` compares bitwise with ``spgemm_rowwise``; the auto
    workloads compare the pattern exactly and the values with
    ``allclose`` against ``scipy.sparse``.
    """

    def __init__(self, bitwise: bool):
        self.bitwise = bitwise
        self.expected: dict = {}  # product key -> digest of the accepted product, or None
        self.reference_s: dict = {}  # product key -> seconds of the reference product
        self._refs: dict = {}  # primed references not yet compared
        self.attempted = 0
        self.failed = 0

    def reference(self, A) -> CSRMatrix:
        if self.bitwise:
            return spgemm_rowwise(A, A)
        return CSRMatrix.from_scipy(A.to_scipy() @ A.to_scipy())

    def prime(self, key, A) -> None:
        """Compute the reference of a product before any timing."""
        dt, ref = timed(lambda: self.reference(A))
        self.reference_s[key] = dt
        self._refs[key] = ref

    def check(self, key, A, C) -> None:
        self.attempted += 1
        if C is None:
            self.failed += 1
            return
        if key not in self.expected:
            ref = self._refs.pop(key, None)
            if ref is None:
                ref = self.reference(A)
            ok = results_identical([C], [ref]) if self.bitwise else C.same_pattern(ref) and C.allclose(ref)
            self.expected[key] = digest(C) if ok else None
        if self.expected[key] is None or digest(C) != self.expected[key]:
            self.failed += 1


def make_inputs(seed: int) -> dict:
    """The representative matrices with seeded values."""
    rng = np.random.default_rng(seed)
    return {
        name: perturb_values(get_matrix(name), scale=VALUE_SCALE, seed=int(rng.integers(2**31)))
        for name in suite_names("representative")
    }


def make_variants(mats: dict, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        name: [perturb_values(A, scale=VALUE_SCALE, seed=int(rng.integers(2**31))) for _ in range(VARIANTS)]
        for name, A in mats.items()
    }


def _call(eng, A):
    try:
        return eng.multiply(A)
    except Exception as exc:  # counted as a failed product, the run goes on
        print(f"  multiply failed: {type(exc).__name__}: {exc}")
        return None


def setup_pass(make_engine, mats, oracle, meter):
    """Fresh engine → first product of every matrix; returns the engine
    and each matrix's cold call as a ``perf_counter()`` interval.  The
    host reference is timed after each call."""
    eng = make_engine()
    cold, outs = {}, {}
    for name, A in mats.items():
        t0 = time.perf_counter()
        outs[name] = _call(eng, A)
        cold[name] = (t0, time.perf_counter())
        if meter is not None:
            meter.sample()
    for name, A in mats.items():
        oracle.check((name, -1), A, outs[name])
    return eng, cold


def end_to_end(lat: dict, colds: list, meter, steady_kind: str) -> dict:
    """End-to-end metrics of a closed loop, in reference seconds, from
    the steady calls' and set-ups' intervals.

    Every steady call is a product a caller waited for.  The tail pools
    all calls (each matrix has the same number of them).  The p50 is the
    median over matrices of each matrix's median call: a pooled median of
    ten equal-sized clusters falls on the boundary between the fifth and
    the sixth, between one matrix's slowest call and the next one's
    fastest, and jumps with them."""
    setup_s = statistics.median(sum(meter.convert(*iv, "python") for iv in cold.values()) for cold in colds)
    lat = {name: [meter.convert(*iv, steady_kind) for iv in ivs] for name, ivs in lat.items()}
    print(f"host reference: {meter.report()}; steady calls by {steady_kind}, set-ups by python")
    med = {name: statistics.median(xs) for name, xs in lat.items()}
    steady_s = sum(med.values())
    pooled = [x for xs in lat.values() for x in xs]
    p_tail = tail_percentile(len(pooled))
    within = sum(1e3 * x <= LATENCY_LIMIT_MS for x in pooled) / len(pooled)
    capacity = len(lat) / steady_s
    print(f"closed loop: {len(pooled)} steady calls, tail percentile p{p_tail}")
    return {
        "setup_s": (setup_s, "s"),
        "steady_s": (steady_s, "s"),
        "steady_geomean_ms": (1e3 * statistics.geometric_mean(med.values()), "ms"),
        "serve.p50_ms": (1e3 * statistics.median(med.values()), "ms"),
        "serve.tail_ms": (1e3 * percentile(pooled, p_tail), "ms"),
        "serve.goodput_rps": (capacity * within, "1/s"),
        "serve.capacity_rps": (capacity, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run(workload: str, seed: int, seconds: float, meter):
    """One run; ``meter`` is the host reference of the end-to-end run, or
    ``None`` for the traced run."""
    trace = meter is None
    backend = BACKEND[workload]
    evolving = workload == "evolving-auto"

    def make_engine(**kw):
        return SpGEMMEngine(backend=backend, **kw)

    mats = make_inputs(seed)
    variants = make_variants(mats, seed) if evolving else None
    oracle = Oracle(bitwise=backend is None)
    for name, A in mats.items():  # references first: they also load what the engine imports lazily
        oracle.prime((name, -1), A)

    # Set-ups alternate with stretches of steady passes on the first
    # set-up's engine, so that both kinds of sample spread over the run.
    def steady_call(name, p):
        j = p % VARIANTS if variants else -1
        A = variants[name][j] if variants else mats[name]
        t0 = time.perf_counter()
        C = _call(eng, A)
        t1 = time.perf_counter()
        if meter is not None:
            meter.sample()
        oracle.check((name, j), A, C)
        return t0, t1

    lat = {name: [] for name in mats}  # steady calls' intervals
    colds = []
    for i in range(1 if trace else SETUP_REPS):
        fresh, cold = setup_pass(make_engine, mats, oracle, meter)
        colds.append(cold)
        if i == 0:
            eng = fresh
        if not trace:
            steady_passes(steady_call, list(mats), seconds / SETUP_REPS, lat)
    cold = {name: statistics.median(wall(c[name]) for c in colds) for name in mats}
    print(f"setup passes (s, wall): {', '.join(f'{sum(map(wall, c.values())):.4f}' for c in colds)}")

    if trace:
        # A fixed number of steady passes, so that the engine's cache
        # ratios count the workload's calls and nothing time-dependent.
        plans_before = eng.stats().plans_built
        for p in range(TRACED_PASSES):
            for name in mats:
                steady_call(name, p)
        cold_plans = eng.stats().plans_built - plans_before
        items = {
            name: (partial(next, cycle(variants[name])) if evolving else (lambda A=A: A), None)
            for name, A in mats.items()
        }
        per_item, ratios, (checked, mismatched) = layers.breakdown(
            items, eng, make_engine, budget_s=seconds, prepare_on_path=evolving, bitwise=backend is None
        )
        oracle.attempted += checked
        oracle.failed += mismatched
        layers.print_table(per_item)
        metrics = layers.layer_metrics(per_item, ratios)
        metrics.update(layers.closed_loop_serve_layers(cold_plans))
    else:
        print(f"{'matrix':<10} {'plan':<30} {'cold_ms':>10} {'steady_ms':>10} {'calls':>6} {'oracle_ms':>10}")
        for name in mats:
            plan = eng.plan_for(mats[name]).label
            steady = statistics.median(map(wall, lat[name]))
            print(
                f"{name:<10} {plan:<30} {1e3 * cold[name]:>10.3f} {1e3 * steady:>10.3f}"
                f" {len(lat[name]):>6} {1e3 * oracle.reference_s[(name, -1)]:>10.3f}"
            )
        print(f"wall times; the oracle is {'spgemm_rowwise' if backend is None else 'scipy.sparse A@A'}")
        metrics = end_to_end(lat, colds, meter, STEADY_REFERENCE[workload])
    return metrics, oracle.attempted, oracle.failed
