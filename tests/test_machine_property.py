"""Property-based tests for the machine model.

The LRU simulator is validated against two oracles: the classical
*stack distance* characterisation (an access hits a fully-associative
LRU cache of capacity C iff the number of distinct lines touched since
the previous access to the same line is < C), and the per-access
``OrderedDict`` LRU loop, kept here as :class:`ReferenceLRU`, which the
simulator's eviction-pointer replay must match hit for hit, contents
order included.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    CacheStats,
    LRUCache,
    SetAssociativeCache,
    SimulatedMachine,
    balanced_contiguous_partition,
    simulate_lru,
)


class ReferenceLRU:
    """Per-access ``OrderedDict`` LRU: the oracle for the replay."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.lines: OrderedDict[int, None] = OrderedDict()

    def run(self, trace: np.ndarray) -> CacheStats:
        hits = 0
        for line in trace.tolist():
            if line in self.lines:
                self.lines.move_to_end(line)
                hits += 1
            else:
                self.lines[line] = None
                if len(self.lines) > self.capacity:
                    self.lines.popitem(last=False)
        return CacheStats(hits, len(trace) - hits)


def stack_distance_hits(trace: np.ndarray, capacity: int) -> int:
    """Brute-force oracle for LRU hit counts."""
    hits = 0
    last_seen: dict[int, int] = {}
    for t, line in enumerate(trace.tolist()):
        if line in last_seen:
            distinct = len(set(trace[last_seen[line] + 1 : t].tolist()))
            if distinct < capacity:
                hits += 1
        last_seen[line] = t
    return hits


@given(
    st.lists(st.integers(0, 12), min_size=0, max_size=60),
    st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_lru_matches_stack_distance_oracle(trace, capacity):
    trace = np.array(trace, dtype=np.int64)
    st_ = simulate_lru(trace, capacity)
    assert st_.hits == stack_distance_hits(trace, capacity)
    assert st_.hits + st_.misses == trace.size


@given(st.lists(st.integers(0, 30), min_size=1, max_size=80), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_lru_inclusion_property(trace, capacity):
    """A larger LRU cache never has more misses (LRU is a stack algorithm)."""
    trace = np.array(trace, dtype=np.int64)
    small = simulate_lru(trace, capacity)
    big = simulate_lru(trace, capacity * 2)
    assert big.misses <= small.misses


@given(
    st.lists(st.integers(0, 1000), min_size=0, max_size=50),
    st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_partition_is_ordered_cover(weights, parts):
    w = np.array(weights, dtype=np.float64)
    chunks = balanced_contiguous_partition(w, parts)
    flat = np.concatenate(chunks) if chunks else np.zeros(0)
    assert flat.tolist() == list(range(w.size))
    assert len(chunks) == max(1, parts)


@given(st.lists(st.integers(1, 100), min_size=4, max_size=40), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_partition_balance_bound(weights, parts):
    """No chunk exceeds total/parts + max single weight (prefix splitting)."""
    w = np.array(weights, dtype=np.float64)
    chunks = balanced_contiguous_partition(w, parts)
    bound = w.sum() / parts + w.max()
    for c in chunks:
        assert w[c].sum() <= bound + 1e-9


# Lines 0..200 against capacities up to 64: most reuse windows exceed the
# capacity, so evictions, boundary hits and pointer skips all occur.
_long_traces = st.lists(st.integers(0, 200), max_size=2000)


@given(st.lists(_long_traces, min_size=1, max_size=5), st.integers(1, 64))
@settings(max_examples=80, deadline=None)
def test_lru_cold_and_chained_runs_match_ordereddict_reference(traces, capacity):
    ref = ReferenceLRU(capacity)
    cache = LRUCache(capacity)
    for trace in traces:
        trace = np.array(trace, dtype=np.int64)
        assert cache.run(trace) == ref.run(trace)
        assert cache.occupancy == len(ref.lines)
        assert cache.contents == list(ref.lines)
    cache.flush()
    assert cache.occupancy == 0 and cache.contents == []


@given(
    st.lists(st.lists(st.integers(0, 200), max_size=600), min_size=1, max_size=3),
    st.integers(1, 8),
    st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_set_associative_matches_per_set_reference(traces, n_sets, ways):
    refs = [ReferenceLRU(ways) for _ in range(n_sets)]
    cache = SetAssociativeCache(n_sets, ways)
    for trace in traces:
        trace = np.array(trace, dtype=np.int64)
        want = CacheStats()
        for s, ref in enumerate(refs):
            want = want + ref.run(trace[trace % n_sets == s])
        assert cache.run(trace) == want


@pytest.mark.parametrize("name", ["pdb1", "rma10", "wb"])
def test_machine_per_thread_stats_match_reference(name, monkeypatch):
    from repro.machine import parallel
    from repro.matrices.suite import get_matrix

    A = get_matrix(name)
    got = SimulatedMachine().run_rowwise(A, A)
    monkeypatch.setattr(parallel, "LRUCache", ReferenceLRU)
    want = SimulatedMachine().run_rowwise(A, A)
    assert [t.cache for t in got.per_thread] == [t.cache for t in want.per_thread]
    assert got.time == want.time
