"""Kernel bench — every bitwise product path, timed and checked bit
for bit against the row-wise reference.

Times each path's *execution* (preparation is the amortised one-off the
engine ledgers separately) on two suites — generator matrices with
skewed row-work distributions and the paper's 10 representative
matrices:

* ``rowwise`` — the pure-python Gustavson reference on ``reference``;
* ``cluster`` — the registered cluster-wise kernel (numpy-batched
  phase) over fixed 8-row clusters on ``reference``;
* ``rowwise@scipy`` — scipy's compiled SMMP product, which the default
  engine plans whenever the scipy backend passes its bitwise probe.

It gates one number, ``summary.bitwise_mismatches``: the count of
executions whose output (indptr, indices and value bits) differs from
``spgemm_rowwise``; it must be 0.  The timings are reported ungated.

Emits ``BENCH_kernels.json`` at the repository root, wrapped in the
schema-versioned envelope of ``benchmarks/_common.py``.  All kernel
executions dispatch through pipeline specs or
:func:`repro.backends.time_execution` (RA001: benches never call kernel
functions directly).

Run directly (``python benchmarks/bench_kernels.py``) or via pytest.
"""

from __future__ import annotations

from pathlib import Path

from repro.backends import time_execution
from repro.matrices import generators as G
from repro.matrices import get_matrix, suite_names
from repro.pipeline import PipelineSpec

from _common import bits_equal, gate_metric, save_bench_json

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Skewed-row generator suite: power-law degree distributions (web,
#: R-MAT, citation) plus one hub-and-spoke road network, sized so the
#: pure-python reference stays affordable.
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

#: (label, pipeline spec).  The cluster pipeline pays its clustering
#: at build time — outside the timed region — mirroring how the engine
#: amortises preparation.
KERNELS = [
    ("rowwise", "original+none+rowwise"),
    ("cluster", "original+fixed:8+cluster"),
    ("rowwise@scipy", "original+none+rowwise@scipy"),
]

REPS = 3


def run_bench() -> dict:
    results: dict = {"matrices": {}, "summary": {}}
    mismatches = 0
    for mat_name, build_matrix in MATRICES.items():
        A = build_matrix()
        ref = PipelineSpec.parse("original+none+rowwise").run(A, A)
        cell: dict = {"suite": "skewed" if mat_name in SKEWED else "representative"}
        for label, spec_text in KERNELS:
            spec = PipelineSpec.parse(spec_text)
            built = spec.build(A)
            # The "original" operands keep A's row order, so each product
            # compares directly with the reference.
            bitwise = bits_equal(built.execute(A), ref)
            mismatches += not bitwise
            seconds = time_execution(built, A, (spec.backend, spec.backend_params), reps=REPS)
            cell[label] = {"seconds": round(seconds, 6), "bitwise": bitwise}
        results["matrices"][mat_name] = cell
    results["summary"]["bitwise_mismatches"] = mismatches
    return results


def save_bench() -> dict:
    results = run_bench()
    gates = [
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
            "reps": REPS,
        },
    )
    return results


def test_kernel_bench_meets_acceptance_bar():
    """Acceptance: zero bitwise mismatches over both suites (and the
    JSON artefact is emitted)."""
    results = save_bench()
    assert results["summary"]["bitwise_mismatches"] == 0
    assert OUT_PATH.exists()


if __name__ == "__main__":
    res = save_bench()
    print(f"wrote {OUT_PATH.name}")
    for mat, cell in res["matrices"].items():
        line = "  ".join(f"{k}={v['seconds']:.4f}s" for k, v in cell.items() if k != "suite")
        print(f"  {mat:>14}: {line}")
    print(f"  bitwise mismatches: {res['summary']['bitwise_mismatches']}")
