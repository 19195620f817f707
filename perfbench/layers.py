"""Outside-in layer breakdown of ``SpGEMMEngine.multiply``.

The benchmark calls each layer's public function itself, on the same
operands and with the plan the engine chose, and times those calls:

* fingerprint: ``pattern_digest``, ``value_digest`` and the feature
  sketch ``fingerprint`` (repro.engine.fingerprint);
* planner: a cold ``plan_for`` on a fresh engine;
* prepare: a cold ``prepare`` on a fresh engine, and the plan's
  reordering alone through ``get_reordering``;
* backends: ``repro.backends.execute`` with the plan's kernel and backend;
* core: ``CSRMatrix.permute_rows`` with the plan's inverse permutation,
  plus exact multiply-add and computed byte counts;
* baselines: a bare ``scipy.sparse`` product and ``spgemm_rowwise``.

A steady engine call minus the layers on its path is reported as
``engine.unattributed_ms``.  The same calls made through an engine with
an enabled ``repro.obs`` tracer give the tracing overhead.
"""

from __future__ import annotations

import statistics
import time

from repro import spgemm_rowwise
from repro.backends import ExecutionContext, execute as backend_execute
from repro.engine.fingerprint import fingerprint, pattern_digest, value_digest
from repro.obs import RingSink, Tracer
from repro.pipeline import get_component
from repro.reordering import get_reordering
from repro.serve import results_identical

from measure import kernel_counts, timed

#: Fresh engines a cold call is timed on.
COLD_REPS = 3
#: Least number of rounds of steady and layer calls per item.
MIN_ROUNDS = 3


def kernel_params(plan, cfg) -> dict:
    """The kernel parameters the engine passes for ``plan`` (the plan's
    own parameters the kernel declares, its accumulator and bin ladder,
    then config defaults)."""
    info = get_component("kernel", plan.kernel)
    given = [(k, v) for k, v in plan.params if any(k == p.name or k in p.aliases for p in info.params)]
    if any(p.name == "accumulator" for p in info.params):
        given.append(("accumulator", plan.accumulator))
    params = info.resolve_params(given, cfg)
    if plan.bin_map and getattr(info.factory, "accepts_bin_map", False):
        params["bin_map"] = plan.bin_map
    return params


def _cold(make_engine, call):
    """Median seconds of ``call(engine)`` on fresh engines, and the last
    call's result."""
    xs = []
    for _ in range(COLD_REPS):
        eng = make_engine()
        dt, out = timed(lambda: call(eng))
        xs.append(dt)
    return statistics.median(xs), out


def breakdown(items, warm, make_engine, *, budget_s: float, prepare_on_path: bool, bitwise: bool):
    """Per-item layer times (seconds) and counts, the engine-level
    ratios, and ``(attempted, failed)`` of the consistency checks.

    ``items`` maps a name to ``(operand, B)``: ``operand()`` returns the
    next left operand (a fresh value perturbation on evolving
    workloads) and ``B`` is the right operand (``None`` for A²).
    ``warm`` has already run the workload, a fixed sequence of calls;
    the plan-cache and operand-reuse ratios are its counters at entry,
    before any call made here.  ``make_engine(**kw)`` builds a fresh
    engine of the same configuration.  Steady calls and the layer calls
    are timed in alternating rounds, so that all of them see the same
    machine state.

    The product of the directly called layers is compared with the
    engine's own (bitwise when ``bitwise``, else pattern plus
    ``allclose``), so that the layer times cannot drift away from the
    kernel configuration the engine runs.
    """
    s = warm.stats()
    ratios = {
        "planner.plans_built": float(s.plans_built),
        "plan_cache.hit_ratio": s.plan_cache_hits / max(1, s.plan_cache_hits + s.plan_cache_misses),
        "prepare.operand_reuse_ratio": s.operands_reused / max(1, s.operands_reused + s.operands_prepared),
    }
    traced = make_engine(plan_cache=warm.plan_cache, tracer=Tracer(RingSink(capacity=4096)))
    per_item = {}
    failed = 0
    share = budget_s / max(1, len(items))
    for name, (operand, B) in items.items():
        A = operand()
        Bx = A if B is None else B
        traced.multiply(A, B)  # prepares and executes once before timing
        plan = warm.plan_for(A, B)
        row = {"plan": plan.label}
        row["plan_cold"], _ = _cold(make_engine, lambda e: e.plan_for(A, B))
        row["prepare"], prep = _cold(make_engine, lambda e: e.prepare(A, plan))
        kp = kernel_params(plan, warm.cfg)
        ctx = ExecutionContext(cfg=warm.cfg)
        digest = pattern_digest(A)
        SA, SB = A.to_scipy(), Bx.to_scipy()

        def run_kernel():
            return backend_execute(
                prep, Bx, kernel=plan.kernel, kernel_params=kp, backend=plan.backend,
                backend_params=plan.backend_params, cfg=warm.cfg, ctx=ctx,
            )

        Cp = run_kernel()
        C = Cp if prep.inv is None else Cp.permute_rows(prep.inv)
        Cw = warm.multiply(A, B)
        same = results_identical([C], [Cw]) if bitwise else C.same_pattern(Cw) and C.allclose(Cw)
        if not same:
            print(f"  {name}: the directly called layers differ from the engine's product")
            failed += 1
        current = [A]  # this round's left operand, the same for both engines
        probes = {
            "steady": lambda: warm.multiply(current[0], B),
            "steady_traced": lambda: traced.multiply(current[0], B),
            "execute": run_kernel,
            "pattern_digest": lambda: pattern_digest(A),
            "value_digest": lambda: value_digest(A),
            "features": lambda: fingerprint(A, seed=warm.seed, digest=digest),
            "scipy": lambda: SA @ SB,
        }
        if prep.inv is not None:
            probes["permute_rows"] = lambda: Cp.permute_rows(prep.inv)
        if plan.reordering != "original":
            spec = plan.pipeline()
            params = spec.reordering_info.resolve_params(spec.reordering_params, warm.cfg)
            reorder = get_reordering(plan.reordering)
            probes["reorder"] = lambda: reorder(A, seed=plan.seed, **params)
        samples = {key: [] for key in probes}
        t0 = time.perf_counter()
        while len(samples["steady"]) < MIN_ROUNDS or time.perf_counter() - t0 < share:
            current[0] = operand()
            for key, fn in probes.items():
                samples[key].append(timed(fn)[0])
        row.update({key: statistics.median(xs) for key, xs in samples.items()})
        row.setdefault("permute_rows", 0.0)
        row.setdefault("reorder", 0.0)
        row["madds"], row["bytes"] = kernel_counts(A, Bx, C)
        row["rowwise"] = timed(lambda: spgemm_rowwise(A, Bx))[0]
        on_path = row["pattern_digest"] + row["value_digest"] + row["execute"] + row["permute_rows"]
        if prepare_on_path:
            on_path += row["prepare"]
        row["unattributed"] = row["steady"] - on_path
        per_item[name] = row
    return per_item, ratios, (len(items), failed)


def layer_metrics(per_item, ratios) -> dict:
    """Sum per-item medians into one pass over the items (ms) and add
    the counts and ratios."""

    def total_ms(key):
        return 1e3 * sum(r[key] for r in per_item.values())

    execute_s = sum(r["execute"] for r in per_item.values())
    madds = sum(r["madds"] for r in per_item.values())
    return {
        "fingerprint.pattern_digest_ms": (total_ms("pattern_digest"), "ms"),
        "fingerprint.value_digest_ms": (total_ms("value_digest"), "ms"),
        "fingerprint.features_ms": (total_ms("features"), "ms"),
        "planner.plan_ms": (total_ms("plan_cold"), "ms"),
        "planner.plans_built": (ratios["planner.plans_built"], "count"),
        "plan_cache.hit_ratio": (ratios["plan_cache.hit_ratio"], "ratio"),
        "prepare.ms": (total_ms("prepare"), "ms"),
        "prepare.reorder_ms": (total_ms("reorder"), "ms"),
        "prepare.operand_reuse_ratio": (ratios["prepare.operand_reuse_ratio"], "ratio"),
        "backends.execute_ms": (total_ms("execute"), "ms"),
        "core.permute_rows_ms": (total_ms("permute_rows"), "ms"),
        "core.kernel_flops": (float(madds), "count"),
        "core.kernel_gflops": (2 * madds / execute_s / 1e9, "GFLOP/s"),
        "core.kernel_bytes_computed": (float(sum(r["bytes"] for r in per_item.values())), "bytes"),
        "engine.overhead_ratio": (total_ms("steady") / total_ms("scipy"), "ratio"),
        "engine.unattributed_ms": (total_ms("unattributed"), "ms"),
        "baseline.scipy_ms": (total_ms("scipy"), "ms"),
        "baseline.rowwise_ms": (total_ms("rowwise"), "ms"),
        "obs.tracing_overhead_ms": (total_ms("steady_traced") - total_ms("steady"), "ms"),
    }


def print_table(per_item) -> None:
    cols = [
        ("steady", "steady"), ("execute", "execute"), ("pattern_digest", "pdigest"),
        ("value_digest", "vdigest"), ("features", "features"), ("plan_cold", "plan"),
        ("prepare", "prepare"), ("reorder", "reorder"), ("permute_rows", "permute"),
        ("unattributed", "unattrib"), ("steady_traced", "traced"), ("scipy", "scipy"),
        ("rowwise", "rowwise"),
    ]
    print("layer times in ms (median per call); madds exact, bytes computed from array sizes")
    print(f"{'item':<12} {'plan':<30}" + "".join(f"{h:>10}" for _, h in cols) + f"{'madds':>12}{'bytes':>13}")
    for name, r in per_item.items():
        print(
            f"{name:<12} {r['plan']:<30}"
            + "".join(f"{1e3 * r[k]:>10.3f}" for k, _ in cols)
            + f"{r['madds']:>12d}{r['bytes']:>13d}"
        )


def closed_loop_serve_layers(cold_plans: int) -> dict:
    """The serving layers as a closed loop has them.  Every per-layer
    metric has to be reported on every workload, so these are reported
    here too: a closed loop has no queue (wait 0), one product per
    engine call (batch size 1) and no generator schedule to fall behind
    (lateness 0).  Only the plans built after set-up are measured."""
    return {
        "serve.queue_wait_ms": (0.0, "ms"),
        "serve.batch_size_mean": (1.0, "count"),
        "serve.cold_plans": (float(cold_plans), "count"),
        "serve.generator_late_ms": (0.0, "ms"),
    }
