"""Host-speed reference: fixed plain computations timed in a helper
process, interleaved with the workload.

The hosts this benchmark runs on share their cores with other tenants,
and their speed changes with that load, in spells that often outlast a
whole run: on a 2-vCPU VM the same pure-Python product ran at 25 ms in
one process and at 50 ms in the next, with CPU time equal to wall time
(no steal reported), whatever ``PYTHONHASHSEED`` was, and on either
vCPU.  No number of samples inside a run averages such a spell away.
What does cancel most of it is a reference of the same kind of work
timed beside the workload: in one process the engine's steady call on a
fixed operand moved by 27% as the host slowed, its ratio to a plain
pure-Python Gustavson product of the same operand by 6%.

So each end-to-end time is reported in *reference seconds*: a timed wall
interval times ``NOMINAL_S[kind] / median(reference runs near it)``.  On
a host that runs the reference at its nominal speed a reference second
is a second.  The reference code lives here, in fixed form, and runs in
its own process, which imports neither the engine nor anything the
engine starts, so no change to the engine moves it.  A change that makes
the engine slower (including one that leaves busy threads behind in the
engine's process) moves the reported times as it moves the wall times.

``python``: a plain row-wise Gustavson product with a dict accumulator
on a fixed random matrix, for interpreted work (the reference backend's
kernels, fingerprinting, planning, prepare); ``scipy``: a bare
``scipy.sparse`` product of a fixed random matrix, for compiled kernels.

Run as a script, this file is the helper: ``python3 hostref.py``
answers each line read from standard input with the seconds one run of
each reference took.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

#: Seconds of one reference run on the 2-vCPU VM the benchmark was built
#: on, in a calm spell (rounded).  Only the unit of the reported times
#: depends on these; their ratios between runs do not.
NOMINAL_S = {"python": 0.0035, "scipy": 0.0020}
#: Reference runs at start-up, before the first timed one.
WARMUP = 5
#: Margin around a timed interval within which :meth:`HostMeter.convert`
#: takes reference samples, and the least number it needs there.
NEAR_S = 1.0
NEAR_SAMPLES = 5


def _matrix(n: int, per_row: int, seed: int):
    import numpy as np
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, n, size=n * per_row)
    vals = rng.standard_normal(n * per_row)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def python_reference():
    """A plain Gustavson product, ``A @ A``, of a fixed 240-row matrix."""
    S = _matrix(240, 6, seed=7)
    ap, ai, av = S.indptr.tolist(), S.indices.tolist(), S.data.tolist()

    def run():
        rows = []
        for r in range(len(ap) - 1):
            acc = {}
            for j in range(ap[r], ap[r + 1]):
                a, c = av[j], ai[j]
                for t in range(ap[c], ap[c + 1]):
                    col = ai[t]
                    acc[col] = acc.get(col, 0.0) + a * av[t]
            rows.append(sorted(acc.items()))
        return rows

    return run


def scipy_reference():
    """A bare ``scipy.sparse`` product, ``A @ A``, of a fixed matrix."""
    S = _matrix(4000, 8, seed=7)
    return lambda: S @ S


REFERENCES = {"python": python_reference, "scipy": scipy_reference}


def helper() -> None:
    runs = [make() for make in REFERENCES.values()]
    for _ in range(WARMUP):
        for run in runs:
            run()
    print("ready", flush=True)
    times = []
    for _ in sys.stdin:
        times.clear()
        for run in runs:
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
        print(" ".join(map(repr, times)), flush=True)


class HostMeter:
    """Times every reference in a helper process on request.

    Call :meth:`sample` between timed calls of the workload (never
    inside one), and :meth:`convert` on each timed interval once the
    samples around it are taken.  :meth:`scale` is the run's overall
    factor from wall to reference seconds.
    """

    def __init__(self):
        self.samples = {kind: [] for kind in REFERENCES}
        self.stamps: list = []  # perf_counter() at the end of each sample
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host reference did not start")

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self._proc.stdin.write("\n")
            for kind, x in zip(self.samples, self._proc.stdout.readline().split()):
                self.samples[kind].append(float(x))
            self.stamps.append(time.perf_counter())

    def scale(self, kind: str) -> float:
        return NOMINAL_S[kind] / statistics.median(self.samples[kind])

    def convert(self, t0: float, t1: float, kind: str) -> float:
        """Reference seconds, by the ``kind`` reference, of the wall
        interval ``perf_counter()`` ``t0`` to ``t1``, from the samples
        taken within ``NEAR_S`` of it (all of the run's if there are
        fewer than ``NEAR_SAMPLES``)."""
        samples = self.samples[kind]
        near = samples[bisect_left(self.stamps, t0 - NEAR_S):bisect_right(self.stamps, t1 + NEAR_S)]
        if len(near) < NEAR_SAMPLES:
            near = samples
        return (t1 - t0) * NOMINAL_S[kind] / statistics.median(near)

    def report(self) -> str:
        return ", ".join(
            f"{kind} median {1e3 * statistics.median(xs):.4f} ms ({self.scale(kind):.4f} reference s a wall s)"
            for kind, xs in self.samples.items()
        ) + f" over {len(self.stamps)} samples"

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    helper()
