"""Timing, statistics, correctness and counting helpers shared by the
workloads.  Everything here works on the benchmark's own data; nothing
reaches into the engine's internals."""

from __future__ import annotations

import resource
import time
import zlib

import numpy as np

#: Latency percentiles the tail is chosen from: the tail is the highest
#: one that still has at least ten samples beyond it.
TAIL_LADDER = (50, 60, 70, 75, 80, 90, 95, 96, 97, 98, 99, 99.5, 99.9)

#: Latency limit of ``serve.goodput_rps``.
LATENCY_LIMIT_MS = 100.0


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10 - 1e-9]
    return max(fitting) if fitting else TAIL_LADDER[0]


def percentile(xs, q: float) -> float:
    """Percentile ``q`` of ``xs``, interpolating linearly between order
    statistics."""
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def timed(fn):
    """``(seconds, result)`` of one call; the result is consumed inside
    the timed region by being returned."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def wall(interval) -> float:
    """Seconds of a ``(start, end)`` interval of ``perf_counter()`` times."""
    return interval[1] - interval[0]


def steady_passes(call, keys, seconds: float, lat: dict) -> None:
    """Passes that ``call(key, pass_index)`` once per key, for ``seconds``
    and at least one pass; ``call`` returns the interval it timed, which
    is appended to ``lat[key]``.

    Passes alternate direction.  The engine keeps 8 prepared operands
    (LRU), so a one-way cycle over more keys than that would evict each
    operand before its next call; turning round at the ends keeps all but
    the two farthest from the turn.  Interleaving the keys, rather than
    timing each in one block, spreads every key's samples over the run,
    so that a slow spell of the host does not land on one key alone.
    """
    t0 = time.perf_counter()
    done = False
    while not done or time.perf_counter() - t0 < seconds:
        p = len(lat[keys[0]])  # passes so far
        for key in keys if p % 2 else keys[::-1]:
            lat[key].append(call(key, p))
        done = True


def digest(C) -> int:
    """CRC-32 of a CSR product's shape, pattern and value bytes, cheap
    enough to take after every call (a different product goes unnoticed
    with probability 2**-32)."""
    crc = 0
    for a in (np.asarray(C.shape, dtype=np.int64), C.indptr, C.indices, C.values):
        crc = zlib.crc32(memoryview(np.ascontiguousarray(a)).cast("B"), crc)
    return crc


def kernel_counts(A, B, C) -> tuple[int, int]:
    """Exact multiply-add count of ``A @ B`` and the bytes a row-wise
    kernel moves, computed from array sizes (every stored entry of ``A``
    read once, the row of ``B`` it selects read once, ``C`` written
    once; caches ignored)."""
    from repro.core.spgemm import flops_rowwise

    madds = flops_rowwise(A, B)
    entry_b = B.indices.itemsize + B.values.itemsize
    read_a = A.indptr.nbytes + A.indices.nbytes + A.values.nbytes
    read_b = madds * entry_b + 2 * A.nnz * B.indptr.itemsize
    write_c = C.indptr.nbytes + C.indices.nbytes + C.values.nbytes
    return madds, read_a + read_b + write_c


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
