"""Open-loop serving workload ``serve-zipf``.

The default engine sits behind an in-process ``SpGEMMServer`` with the
default ``ServeConfig``.  The request schedule is the ``TraceSpec``
default Zipf trace (population 4, bursts, 3% pattern churn, value
jitter) built from a fixed schedule seed, churned patterns included; the
workload seed draws every request's value jitter.  Holding the schedule
fixed is deliberate: across schedule seeds the mix of bursts on the
costliest population member alone moves the tail several-fold, and the
churned patterns of one member differ in cost by up to 3x, which would
drown any change to the serving code.

The main thread is the one generator: it submits product ``k`` when it
is due, ``k / RATE_RPS`` seconds after the start, whether or not earlier
products have completed (open loop).  Latency runs from when a product
was due to when its future resolved.  Afterwards, rounds alternate a
drain (the same products queued into a paused server over the warm
engine, which gives the capacity), a sequential pass (the oracle, and
the steady time) and a set-up.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import SpGEMMEngine
from repro.core.csr import CSRMatrix
from repro.serve import ServeConfig, ServerOverloaded, SpGEMMServer, results_identical
from repro.workloads import TraceSpec, synthesize_trace
from repro.workloads.replay import Trace, trace_operands

import layers
from measure import (
    LATENCY_LIMIT_MS, digest, peak_rss_mb, percentile, steady_passes, tail_percentile, timed, wall,
)

#: Offered rate, far below the drain capacity (about 100-170 req/s on a
#: 2-core host) so that bursts of the costliest population member (20-55
#: ms a product) do not queue even while the host runs slow.  On one and
#: the same schedule the tail ranged 30-190 ms at 25 req/s and 180-320 ms
#: at 50 req/s.  At 10 req/s about one product in nine of the cheap
#: members (57 of the first 100 products) arrived while a web product
#: was computing, which put the p50 right at the edge of that queueing
#: (4.2-8.0 ms over six loops); at 5 req/s it was 4.1-4.3 ms.
RATE_RPS = 5.0
#: Products of the trace per second of ``--seconds``; at ``RATE_RPS`` the
#: open loop lasts twice ``--seconds``.
PRODUCTS_PER_S = 10
SCHEDULE_SEED = 0
#: Rounds of (drain, steady passes, set-up) after the open loop; each
#: round is short, so many of them spread every kind of sample over the run.
ROUNDS = 8
#: Seconds of steady passes per round.
STEADY_S = 1.0
RESULT_TIMEOUT_S = 120.0
#: Host reference runs after each set-up, and before and after the open
#: loop and each drain.
SETUP_SAMPLES = 5
LOOP_SAMPLES = 10
#: Least gap before the next due product in which the open loop's
#: generator times the host reference.
IDLE_MARGIN_S = 0.02


@dataclass
class Product:
    matrix: str
    version: int
    A: CSRMatrix
    B: CSRMatrix


def make_products(seed: int, n: int) -> list:
    """The first ``n`` products of the schedule, with seeded values."""
    base = synthesize_trace(TraceSpec(requests=n, seed=SCHEDULE_SEED))
    rng = np.random.default_rng(seed)
    requests = tuple(replace(r, value_seed=int(rng.integers(2**31 - 1))) for r in base.requests)
    products = [
        Product(req.matrix, req.version, A, B)
        for req, A, Bs in trace_operands(Trace(base.spec, requests))
        for B in Bs
    ]
    return products[:n]


class TimedEngine(SpGEMMEngine):
    """The engine handed to the open loop's server: records when each
    coalesced batch starts and which right operands it carries."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.batches: list = []
        self.recording = False

    def multiply_many(self, A, Bs, **kw):
        Bs = list(Bs)
        if self.recording:
            self.batches.append((time.perf_counter(), [id(B) for B in Bs]))
        return super().multiply_many(A, Bs, **kw)


def _result(future):
    try:
        return future.result(timeout=RESULT_TIMEOUT_S)
    except Exception as exc:  # counted as a failed product
        print(f"  request failed: {type(exc).__name__}: {exc}")
        return None


def setup_pass(first, meter):
    """Fresh engine and server → first product of every distinct left
    operand; returns its ``perf_counter()`` interval and the products."""
    srv = SpGEMMServer(SpGEMMEngine())
    try:
        t0 = time.perf_counter()
        outs = [_result(f) for f in [srv.submit(p.A, p.B) for p in first]]
        interval = (t0, time.perf_counter())
    finally:
        srv.close()
    meter.sample(SETUP_SAMPLES)
    return interval, outs


def open_loop(srv, products, meter):
    """Submit each product when due; returns per-product latency
    (seconds, ``inf`` when shed or failed), results, due times and how
    late the generator submitted each product.

    While every submitted product has completed and the next is more
    than ``IDLE_MARGIN_S`` away, the generator times the host reference
    (``meter``, when given), so that each product's computation can be
    set against the host's speed around it."""
    n = len(products)
    done = [None] * n
    futures = [None] * n
    late = []
    shed = 0
    completed = [0]
    idle = threading.Condition()
    start = time.perf_counter() + 0.01
    due = [start + k / RATE_RPS for k in range(n)]
    for k, p in enumerate(products):
        while meter is not None and due[k] - time.perf_counter() > IDLE_MARGIN_S:
            with idle:
                if not idle.wait_for(lambda: completed[0] == k - shed, due[k] - time.perf_counter() - IDLE_MARGIN_S):
                    break
            meter.sample()
        wait = due[k] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late.append(time.perf_counter() - due[k])
        try:
            futures[k] = srv.submit(p.A, p.B)
        except ServerOverloaded:
            shed += 1
            continue

        def stamp(_future, k=k):
            done[k] = time.perf_counter()
            with idle:
                completed[0] += 1
                idle.notify()

        futures[k].add_done_callback(stamp)
    results = [_result(f) if f is not None else None for f in futures]
    latency = [
        done[k] - due[k] if results[k] is not None and done[k] is not None else float("inf")
        for k in range(n)
    ]
    return latency, results, due, late, shed


def queue_waits(batches, products, due) -> list:
    """Seconds from each product's due time to the start of the batch
    that carried it (``None`` if no batch did)."""
    k_of = {id(p.B): k for k, p in enumerate(products)}
    waits = [None] * len(products)
    for start, ids in batches:
        for b in ids:
            if b in k_of:
                waits[k_of[b]] = start - due[k_of[b]]
    return waits


def drain(engine, products) -> tuple[tuple, list]:
    """Queue every product into a paused server over ``engine``, then
    start it; returns the drain's ``perf_counter()`` interval and the
    results."""
    srv = SpGEMMServer(engine, ServeConfig(autostart=False, max_pending=len(products)))
    try:
        futures = [srv.submit(p.A, p.B) for p in products]
        t0 = time.perf_counter()
        srv.start()
        outs = [_result(f) for f in futures]
        return (t0, time.perf_counter()), outs
    finally:
        srv.close()


def run(seed: int, seconds: float, meter):
    """One run; ``meter`` is the host reference of the end-to-end run, or
    ``None`` for the traced run."""
    trace = meter is None
    n = int(round(PRODUCTS_PER_S * seconds))
    products = make_products(seed, n)
    first_at = {}  # distinct left operand -> index of its first product
    for k, p in enumerate(products):
        first_at.setdefault((p.matrix, p.version), k)
    first = [products[k] for k in first_at.values()]

    setups = [] if trace else [setup_pass(first, meter)]

    # The open loop starts from a server that has served the first product
    # of every population member, so the churned patterns are the cold
    # plans on the request path.
    eng = TimedEngine()
    srv = SpGEMMServer(eng)
    population_first = {}
    for k, p in enumerate(products):
        population_first.setdefault(p.matrix, k)
    warm_outs = [_result(f) for f in [srv.submit(products[k].A, products[k].B) for k in population_first.values()]]
    plans_before = eng.stats().plans_built
    if not trace:
        meter.sample(LOOP_SAMPLES)
    eng.recording = True
    try:
        latency, served, due, late, shed = open_loop(srv, products, meter)
    finally:
        srv.close()
    eng.recording = False
    waits = queue_waits(eng.batches, products, due)
    if not trace:
        meter.sample(LOOP_SAMPLES)
    stats = srv.serving_stats()
    cold_plans = eng.stats().plans_built - plans_before

    # Oracle, outside every timed region: a fresh engine multiplies the
    # same products one at a time; served products must match bitwise.
    seq = SpGEMMEngine()
    seq_digest: list = []
    seq_cold: dict = {}  # distinct left operand -> seconds of its first (cold) call
    failed = 0
    for p, C_served in zip(products, served):
        dt, C = timed(lambda: seq.multiply(p.A, p.B))
        seq_cold.setdefault((p.matrix, p.version), dt)
        seq_digest.append(digest(C))
        failed += C_served is None or not results_identical([C_served], [C])
    attempted = len(products)

    # Closed-loop steady time on the now warm sequential engine: passes
    # over the first product of every distinct left operand.  Drains,
    # steady passes and the remaining set-ups alternate, so that every
    # kind of sample spreads over the run.
    lat = {key: [] for key in first_at}

    def steady_call(key, _p):
        nonlocal attempted, failed
        k = first_at[key]
        t0 = time.perf_counter()
        C = seq.multiply(products[k].A, products[k].B)
        t1 = time.perf_counter()
        meter.sample()
        attempted += 1
        failed += digest(C) != seq_digest[k]
        return t0, t1

    drains = []
    for rep in range(0 if trace else ROUNDS):
        drains.append(drain(eng, products))
        meter.sample(LOOP_SAMPLES)
        steady_passes(steady_call, list(first_at), STEADY_S, lat)
        if rep < ROUNDS - 1:
            setups.append(setup_pass(first, meter))

    checks = [(first_at.values(), outs) for _, outs in setups] + [(population_first.values(), warm_outs)]
    checks += [(range(len(products)), outs) for _, outs in drains]
    for ks, outs in checks:
        for k, C in zip(ks, outs):
            attempted += 1
            failed += C is None or digest(C) != seq_digest[k]
    fallbacks = stats["fallbacks"]
    failed += fallbacks

    print(f"{'matrix':<8} {'version':>7} {'products':>8} {'cold_ms':>10} {'steady_ms':>10} {'calls':>6}")
    for (name, version), k in first_at.items():
        xs = lat[(name, version)]
        products_of = sum(p.matrix == name and p.version == version for p in products)
        steady = f"{1e3 * statistics.median(map(wall, xs)):>10.3f}" if xs else f"{'-':>10}"
        print(f"{name:<8} {version:>7} {products_of:>8} {1e3 * seq_cold[(name, version)]:>10.3f} {steady} {len(xs):>6}")
    p_tail = tail_percentile(n)
    print(
        f"open loop: {n} products at {RATE_RPS} req/s, {stats['batches']} batches,"
        f" coalesce ratio {stats['coalesce_ratio']:.3f}, max queue depth {stats['max_queue_depth']},"
        f" shed {shed}, fallbacks {fallbacks}, cold plans {cold_plans},"
        f" generator late max {1e3 * max(late):.3f} ms, tail percentile p{p_tail}"
    )

    if trace:
        waits = [w for w in waits if w is not None]
        sizes = [len(ids) for _, ids in eng.batches]
        items = {
            f"{name}.v{version}": (lambda A=products[k].A: A, products[k].B)
            for (name, version), k in first_at.items()
        }
        print(
            f"traced open loop: {len(sizes)} batches, batch size mean {statistics.fmean(sizes):.3f}"
            f" max {max(sizes)}, queue wait mean {1e3 * statistics.fmean(waits):.3f} ms"
            f" median {1e3 * statistics.median(waits):.3f} ms max {1e3 * max(waits):.3f} ms"
        )
        per_item, ratios, (checked, mismatched) = layers.breakdown(
            items, eng, SpGEMMEngine, budget_s=seconds, prepare_on_path=False, bitwise=True
        )
        layers.print_table(per_item)
        metrics = layers.layer_metrics(per_item, ratios)
        metrics.update(
            {
                "serve.queue_wait_ms": (1e3 * statistics.fmean(waits), "ms"),
                "serve.batch_size_mean": (statistics.fmean(sizes), "count"),
                "serve.cold_plans": (float(cold_plans), "count"),
                "serve.generator_late_ms": (1e3 * max(late), "ms"),
            }
        )
        return metrics, attempted + checked, failed + mismatched

    # Every time below is in reference seconds (see hostref.py), except
    # the span of the open loop, which is the schedule's.
    print(f"setup passes (s, wall): {', '.join(f'{wall(iv):.4f}' for iv, _ in setups)}")
    print(f"drains (s, wall): {', '.join(f'{wall(iv):.4f}' for iv, _ in drains)}")
    print(f"host reference: {meter.report()}; every time by python")
    span_s = max(d + x for d, x in zip(due, latency) if x != float("inf")) - due[0]
    # A product's wait for its batch to start is mostly the batching
    # window, a wall-clock constant; its service is computation.
    latency = [
        x if w is None or x == float("inf") else w + meter.convert(d + w, d + x, "python")
        for x, w, d in zip(latency, waits, due)
    ]
    med = {key: statistics.median(meter.convert(*iv, "python") for iv in ivs) for key, ivs in lat.items()}
    within = sum(1e3 * x <= LATENCY_LIMIT_MS for x in latency)
    drain_s = statistics.median(meter.convert(*iv, "python") for iv, _ in drains)
    print(f"within {LATENCY_LIMIT_MS} ms: {within}/{n}")
    metrics = {
        "setup_s": (statistics.median(meter.convert(*iv, "python") for iv, _ in setups), "s"),
        "steady_s": (sum(med.values()), "s"),
        "steady_geomean_ms": (1e3 * statistics.geometric_mean(med.values()), "ms"),
        "serve.p50_ms": (1e3 * percentile(latency, 50), "ms"),
        "serve.tail_ms": (1e3 * percentile(latency, p_tail), "ms"),
        "serve.goodput_rps": (within / span_s, "1/s"),
        "serve.capacity_rps": (n / drain_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, attempted, failed
