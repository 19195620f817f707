"""Kernel bench — the two-bin hybrid row-wise kernel vs the
single-strategy kernels (DESIGN.md §15).

The hybrid kernel's bet is that real operands mix row shapes: short
rows are cheapest through one batched merge over the whole bin, long
rows through blocked dense scatter panels, and no single numeric phase
is right for both.  This bench times each kernel's *execution*
(preparation is the amortised one-off the engine ledgers separately)
on two suites — generator matrices with skewed row-work distributions
and the paper's 10 representative matrices — checks every product
bitwise against the row-wise reference, and gates two numbers:

* ``summary.hybrid_vs_best_single_geomean`` — geomean over both suites
  of hybrid's speedup against the **best** single kernel per matrix
  (row-wise or cluster-wise, whichever won there); the acceptance bar
  is >= 1.15.
* ``summary.bitwise_mismatches`` — count of kernel and ladder
  executions whose output was not bit-identical to
  ``spgemm_rowwise``; must be 0.

Ungated, it also reports the merge-only and scatter-only ladders per
matrix: the evidence that both bins of the default ladder earn their
place (each single-phase ladder loses badly on some matrices).

Emits ``BENCH_kernels.json`` at the repository root, wrapped in the
schema-versioned envelope of ``benchmarks/_common.py``.  All kernel
executions dispatch through pipeline specs or
:func:`repro.backends.execute` (RA001: benches never call kernel
functions directly).

Run directly (``python benchmarks/bench_kernels.py``) or via pytest.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from repro.backends import execute, time_execution
from repro.matrices import generators as G
from repro.matrices import get_matrix, suite_names
from repro.pipeline import PipelineSpec

from _common import gate_metric, save_bench_json

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Skewed-row generator suite: power-law degree distributions (web,
#: R-MAT, citation) plus one hub-and-spoke road network.  Sizes keep
#: the pure-python reference paths affordable while leaving the heavy
#: tail heavy enough that bin dispatch matters.
SKEWED = {
    "web1500": lambda: G.web_graph(1500, seed=0),
    "web2500": lambda: G.web_graph(2500, seed=1),
    "rmat10": lambda: G.rmat(10, edge_factor=8, seed=0),
    "citation2000": lambda: G.citation_graph(2000, avg_out=8, seed=0),
    "road2000": lambda: G.road_network(2000, shortcut_ratio=0.1, seed=0),
}

#: Both suites: the skewed generators above and the paper's
#: representative matrices (regular FEM/QCD/road meshes among them).
MATRICES = {
    **SKEWED,
    **{name: (lambda name=name: get_matrix(name)) for name in suite_names("representative")},
}

#: (kernel label, pipeline spec).  The cluster pipeline pays its
#: clustering at build time — outside the timed region — mirroring how
#: the engine amortises preparation.
KERNELS = [
    ("rowwise", "original+none+rowwise"),
    ("cluster", "original+fixed:8+cluster"),
    ("hybrid", "original+none+hybrid"),
]

#: Single-phase ladders of the hybrid kernel, timed ungated beside the
#: default two-bin ladder.
LADDERS = {
    "merge_only": ((-1, "merge"),),
    "scatter_only": ((-1, "scatter"),),
}

REPS = 3


def _bitwise(C, ref) -> bool:
    return (
        bool(np.array_equal(C.indptr, ref.indptr))
        and bool(np.array_equal(C.indices, ref.indices))
        and bool(np.array_equal(C.values, ref.values))
    )


def _best_seconds(run) -> float:
    """Best-of-``REPS`` wall clock after one warm-up call."""
    run()
    best = math.inf
    for _ in range(REPS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench() -> dict:
    results: dict = {"matrices": {}, "summary": {}}
    ratios: list[float] = []
    mismatches = 0
    for mat_name, build_matrix in MATRICES.items():
        A = build_matrix()
        ref = PipelineSpec.parse("original+none+rowwise").run(A, A)
        cell: dict = {"suite": "skewed" if mat_name in SKEWED else "representative"}
        builts = {}
        for kernel_label, spec_text in KERNELS:
            built = builts[kernel_label] = PipelineSpec.parse(spec_text).build(A)
            bitwise = _bitwise(built.execute(A), ref)
            mismatches += not bitwise
            seconds = time_execution(built, A, "reference", reps=REPS)
            cell[kernel_label] = {"seconds": round(seconds, 6), "bitwise": bitwise}
        best_single = min(cell["rowwise"]["seconds"], cell["cluster"]["seconds"])
        ratio = best_single / cell["hybrid"]["seconds"]
        cell["hybrid"]["speedup_vs_best_single"] = round(ratio, 3)
        ratios.append(ratio)
        # The "original" hybrid operand keeps A's row order, so the
        # dispatch path's product compares directly with the reference.
        for ladder_label, ladder in LADDERS.items():
            def run(ladder=ladder):
                return execute(builts["hybrid"], A, kernel="hybrid", kernel_params={"bin_map": ladder})

            bitwise = _bitwise(run(), ref)
            mismatches += not bitwise
            cell[ladder_label] = {"seconds": round(_best_seconds(run), 6), "bitwise": bitwise}
        results["matrices"][mat_name] = cell
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    results["summary"]["hybrid_vs_best_single_geomean"] = round(geomean, 3)
    results["summary"]["bitwise_mismatches"] = mismatches
    return results


def save_bench() -> dict:
    results = run_bench()
    gates = [
        gate_metric(
            "summary.hybrid_vs_best_single_geomean",
            results["summary"]["hybrid_vs_best_single_geomean"],
            "higher",
        ),
        gate_metric("summary.bitwise_mismatches", results["summary"]["bitwise_mismatches"], "lower"),
    ]
    save_bench_json(
        OUT_PATH,
        "kernels",
        results,
        gate=gates,
        config={
            "matrices": sorted(MATRICES),
            "kernels": [k for k, _ in KERNELS],
            "ladders": {k: [list(b) for b in v] for k, v in LADDERS.items()},
            "reps": REPS,
        },
    )
    return results


def test_kernel_bench_meets_acceptance_bar():
    """Acceptance: hybrid >= 1.15x geomean over the best single kernel
    on both suites, with zero bitwise mismatches (and the JSON artefact
    is emitted)."""
    results = save_bench()
    assert results["summary"]["bitwise_mismatches"] == 0
    gm = results["summary"]["hybrid_vs_best_single_geomean"]
    assert gm >= 1.15, f"hybrid geomean {gm:.3f}x vs best single kernel (< 1.15x bar)"
    assert OUT_PATH.exists()


if __name__ == "__main__":
    res = save_bench()
    print(f"wrote {OUT_PATH.name}")
    for mat, cell in res["matrices"].items():
        line = "  ".join(f"{k}={v['seconds']:.4f}s" for k, v in cell.items() if k != "suite")
        print(f"  {mat:>14}: {line}  (hybrid {cell['hybrid']['speedup_vs_best_single']}x)")
    print(f"  geomean hybrid vs best single: {res['summary']['hybrid_vs_best_single_geomean']}x")
    print(f"  bitwise mismatches: {res['summary']['bitwise_mismatches']}")
