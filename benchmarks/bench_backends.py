"""Backend bench — per-backend wall-clock speedup vs ``reference``.

Seeds the bench trajectory for the execution-backend axis (ISSUE 3):
each generator-suite matrix is prepared once per kernel dataflow
(row-wise on plain CSR, cluster-wise on ``CSR_Cluster``) and then
executed through every registered backend that supports the kernel.
Only the *execution* is timed — preparation is the amortised one-off the
engine already accounts for — so the numbers isolate exactly what the
backend axis changes.

Emits ``BENCH_backends.json`` at the repository root, wrapped in the
schema-versioned envelope of ``benchmarks/_common.py`` (results payload
under ``"results"``, gated geomean speedups under ``"gate"``)::

    {
      "schema": 1, "bench": "backends", "git_rev": .., "config": {..},
      "gate": [{"metric": "summary.rowwise@scipy", ..}, ..],
      "results": {
        "matrices": {"web1200": {"rowwise": {"scipy": {"seconds": ..,
                                                       "speedup_vs_reference": ..}, ...}}},
        "summary":  {"rowwise@scipy": <geomean speedup>, ...},
      }
    }

Run directly (``python benchmarks/bench_backends.py``) or via pytest.
The pytest entry point asserts the acceptance bar: ``scipy`` at least
2× faster than ``reference`` on at least one generator-suite matrix.

Each backend is timed only on the kernels it runs: ``rowwise`` on
``reference``/``scipy``/``sharded``, ``cluster`` on
``reference``/``sharded`` (scipy runs one dataflow, so it has no
cluster cell).  Each cell's ``bitwise`` is *measured*: whether that
backend's product matched ``spgemm_rowwise`` in indptr, indices and
value bits on that matrix — not the backend's declared flag.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.backends import execute, parse_backend, time_execution
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec, available_components

from _common import bits_equal, gate_metric, save_bench_json

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

#: Sharded runs with a small fixed pool so results are comparable across
#: machines (and with the CI smoke matrix).
SHARDED = "sharded:workers=2"

#: Generator-suite matrices (moderate sizes: the reference backend is
#: pure python and is timed too).
MATRICES = {
    "web1000": lambda: G.web_graph(1000, seed=0),
    "grid32": lambda: G.grid2d(32, 32, seed=0),
    "banded900": lambda: G.banded_random(900, bandwidth=10, fill=0.4, seed=0),
    "blocks60x12": lambda: G.block_diagonal(60, 12, density=0.4, seed=0),
}

#: (kernel label, pipeline to prepare, backends to time).
CASES = [
    ("rowwise", "original+none+rowwise", ["reference", "scipy", SHARDED]),
    ("cluster", "original+fixed:8+cluster", ["reference", SHARDED]),
]


def _time_execute(built, B, backend_ref: str, reps: int = 5) -> float:
    """Best-of-``reps`` wall-clock seconds for one backend execution
    (the shared :func:`repro.backends.time_execution` primitive).
    Best-of-5: the sharded cells compare near-identical code paths
    (width-1 passthrough *is* the inner backend), so the floor must be
    tight enough that scheduler noise does not masquerade as overhead."""
    return time_execution(built, B, backend_ref, reps=reps)


def run_bench() -> dict:
    registered = set(available_components("backend"))
    results: dict = {"matrices": {}, "summary": {}}
    per_case: dict[str, list[float]] = {}
    for mat_name, build_matrix in MATRICES.items():
        A = build_matrix()
        ref = PipelineSpec.parse("original+none+rowwise").run(A, A)
        results["matrices"][mat_name] = {}
        for kernel_label, spec_text, backend_refs in CASES:
            built = PipelineSpec.parse(spec_text).build(A)
            cell: dict = {}
            t_ref = None
            for backend_ref in backend_refs:
                base_name = backend_ref.split(":", 1)[0]
                if base_name not in registered:
                    continue  # e.g. scipy-less environment
                name, params = parse_backend(backend_ref)
                # "original" operands keep A's row order: compare directly.
                C = execute(built, A, kernel=built.spec.kernel, backend=name, backend_params=params)
                seconds = _time_execute(built, A, backend_ref)
                if base_name == "reference":
                    t_ref = seconds
                speedup = (t_ref / seconds) if t_ref else float("nan")
                cell[backend_ref] = {
                    "seconds": round(seconds, 6),
                    "speedup_vs_reference": round(speedup, 3),
                    "bitwise": bits_equal(C, ref),
                }
                per_case.setdefault(f"{kernel_label}@{backend_ref}", []).append(speedup)
            results["matrices"][mat_name][kernel_label] = cell
    for case, speedups in per_case.items():
        vals = [s for s in speedups if s > 0 and not math.isnan(s)]
        gm = math.exp(sum(math.log(s) for s in vals) / len(vals)) if vals else float("nan")
        results["summary"][case] = round(gm, 3)
    return results


def save_bench() -> dict:
    results = run_bench()
    gates = [
        gate_metric(f"summary.{case}", gm, "higher")
        for case, gm in sorted(results["summary"].items())
        if not case.endswith("@reference")  # the 1.0 anchor gates nothing
    ]
    save_bench_json(
        OUT_PATH,
        "backends",
        results,
        gate=gates,
        config={"matrices": sorted(MATRICES), "sharded": SHARDED, "reps": 5},
    )
    return results


def test_backend_bench_meets_acceptance_bar():
    """Acceptance: scipy ≥ 2× the reference on at least one
    generator-suite matrix (and the JSON artefact is emitted)."""
    results = save_bench()
    best = 0.0
    for mat_cells in results["matrices"].values():
        for cells in mat_cells.values():
            for backend_ref, cell in cells.items():
                if backend_ref == "scipy":
                    best = max(best, cell["speedup_vs_reference"])
    assert best >= 2.0, f"scipy peaked at {best:.2f}x vs reference"
    assert OUT_PATH.exists()
    # ISSUE 9 acceptance: with the shm data plane (and the width-1
    # topology passthrough on narrow hosts) ``sharded`` no longer loses
    # to its inner backend at bench sizes.  The inner is ``reference``,
    # so the geomean-vs-reference *is* the geomean-vs-inner; the floor
    # leaves a noise margin below the ≥ 1.0 committed artefact numbers.
    for case, gm in results["summary"].items():
        if "@sharded" in case:
            assert gm >= 0.9, f"sharded geomean vs inner fell to {gm:.3f} on {case}"


if __name__ == "__main__":
    res = save_bench()
    print(json.dumps(res["summary"], indent=2, sort_keys=True))
    print(f"wrote {OUT_PATH}")
