"""Cache simulators.

The default model is a fully-associative LRU cache — the standard
idealisation in locality studies (stack-distance equivalent).  A
set-associative variant is provided for ablations; direct-mapped is the
degenerate 1-way case.  Both run the one replay below (per set, with
capacity ``ways``, for the set-associative cache).

The replay (hot path: every simulated multiply, autotune trial, drift
probe and paper-figure sweep runs it).  With capacity ``C``, call the
position of an access *live* while it is its line's most recent access.
A full cache holds exactly the lines of the ``C`` most recent live
positions; the eviction *boundary* ``b`` is the oldest of them, the
least recently used resident line.  One stable ``argsort`` of the trace
gives every access ``i`` its line's previous (``prev``) and next
(``next``) access, and then:

* Access ``i`` hits iff ``prev >= b``: its line is live at ``prev``, and
  a live line is resident iff it is among the ``C`` most recent.
* A short-window access, ``i - prev < C``, always hits and never moves
  ``b``: at most ``C - 2`` accesses separate it from ``prev``, so its
  line is at worst the ``C - 1``-th most recent and ``prev > b``.
* Only a miss (which evicts the line at ``b``) or a hit *at* ``b`` kills
  the boundary position; ``b`` then advances to the next live position,
  so it never decreases.
* ``b`` can only rest on a position ``q`` with ``next[q] - q >= C``: the
  ``C - 1`` resident lines more recent than ``q`` all sit between ``q``
  and its next access.

So the Python loop visits only the long-window accesses (first touches
included) after the cache first fills, and walks a pointer forward over
the long-next positions, skipping those no longer live.  Everything
else is vectorised.  The result is the exact ``OrderedDict`` LRU
answer, hit for hit (the oracle tests in ``tests/test_machine_property.py``
keep that reference), at ``O(n log n)`` for the sort plus Python work
proportional to the long-window accesses, not to all ``n``.

A warm cache is replayed by prepending its contents in LRU→MRU order
(distinct lines, so all misses, which are not counted); the new
contents are the last ``C`` last-occurrences of the combined trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "LRUCache", "SetAssociativeCache", "simulate_lru"]

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


@dataclass
class CacheStats:
    """Outcome of one simulation run."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)


def _lru_replay(warm: np.ndarray, trace: np.ndarray, capacity: int) -> tuple[int, np.ndarray]:
    """Replay ``trace`` through an LRU cache holding ``warm`` (LRU→MRU).

    Returns the misses of ``trace`` and the new contents, LRU→MRU (see
    the module docstring for the algorithm).
    """
    lines = np.concatenate([warm, np.asarray(trace, dtype=np.int64)])
    n = lines.size
    pos = np.arange(n)
    order = np.argsort(lines, kind="stable")
    same = lines[order[1:]] == lines[order[:-1]]
    earlier, later = order[:-1][same], order[1:][same]
    prev = np.full(n, -1, dtype=np.int64)
    prev[later] = earlier
    nxt = np.full(n, n, dtype=np.int64)
    nxt[earlier] = later
    contents = lines[np.flatnonzero(nxt == n)[-capacity:]]
    first = np.flatnonzero(prev < 0)
    if first.size <= capacity:  # never full: only first touches miss
        return first.size - warm.size, contents
    full = int(first[capacity - 1])  # the access that fills the cache
    cand = np.flatnonzero(nxt - pos >= capacity)
    cand_next = nxt[cand]
    ptr = int(np.argmax(cand_next > full))
    cand_pos, cand_next = cand.tolist(), cand_next.tolist()
    b = cand_pos[ptr]
    visit = np.flatnonzero(pos - prev >= capacity)
    visit = visit[np.searchsorted(visit, full, side="right"):]
    misses = capacity
    for i, p in zip(visit.tolist(), prev[visit].tolist()):
        if p > b:
            continue
        if p < b:
            misses += 1
        ptr += 1
        while cand_next[ptr] <= i:
            ptr += 1
        b = cand_pos[ptr]
    return misses - warm.size, contents


class LRUCache:
    """Fully-associative LRU cache over integer line ids.

    The cache is *stateful*: consecutive :meth:`run` calls share contents,
    which lets callers simulate phase sequences (e.g. ten consecutive BC
    frontier SpGEMMs) realistically.  Use :meth:`flush` between
    independent experiments.
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_lines}")
        self.capacity = int(capacity_lines)
        self._lines = _EMPTY  # resident lines, LRU → MRU

    def flush(self) -> None:
        self._lines = _EMPTY

    @property
    def occupancy(self) -> int:
        return int(self._lines.size)

    @property
    def contents(self) -> list[int]:
        """Resident lines, least to most recently used."""
        return self._lines.tolist()

    def run(self, trace: np.ndarray) -> CacheStats:
        """Simulate the access sequence; returns hits/misses."""
        misses, self._lines = _lru_replay(self._lines, trace, self.capacity)
        return CacheStats(int(np.size(trace)) - misses, misses)


class SetAssociativeCache:
    """``n_sets × ways`` set-associative cache with per-set LRU.

    Line ``l`` maps to set ``l % n_sets``; within a set, replacement is
    LRU.  With ``n_sets == 1`` this degenerates to :class:`LRUCache`; with
    ``ways == 1`` it is direct-mapped.
    """

    def __init__(self, n_sets: int, ways: int) -> None:
        if n_sets <= 0 or ways <= 0:
            raise ValueError("n_sets and ways must be positive")
        self.n_sets = int(n_sets)
        self.ways = int(ways)
        self._sets: dict[int, np.ndarray] = {}  # set → resident lines, LRU → MRU

    @property
    def capacity(self) -> int:
        return self.n_sets * self.ways

    def flush(self) -> None:
        self._sets.clear()

    def run(self, trace: np.ndarray) -> CacheStats:
        lines = np.asarray(trace, dtype=np.int64)
        set_of = lines % self.n_sets
        order = np.argsort(set_of, kind="stable")
        sets, starts = np.unique(set_of[order], return_index=True)
        bounds = np.append(starts, lines.size).tolist()
        grouped = lines[order]
        misses = 0
        for k, s in enumerate(sets.tolist()):
            m, self._sets[s] = _lru_replay(
                self._sets.get(s, _EMPTY), grouped[bounds[k] : bounds[k + 1]], self.ways
            )
            misses += m
        return CacheStats(int(lines.size) - misses, misses)


def simulate_lru(trace: np.ndarray, capacity_lines: int) -> CacheStats:
    """One-shot cold-start LRU simulation of ``trace``."""
    return LRUCache(capacity_lines).run(trace)
