"""Shared helpers for the benchmark harness.

Every bench regenerates one paper table/figure from the shared (disk-
cached) suite sweep and saves the rendered text under
``benchmarks/results/``.  Suite size is controlled by ``REPRO_SUITE``:

* ``quick``    — first 16 standard matrices (smoke runs),
* ``standard`` — the 39-matrix cross-family subset (default),
* ``full``     — all 110 matrices (the paper-scale sweep; minutes).
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import numpy as np

from repro.experiments import ExperimentConfig, sweep_suite
from repro.matrices import suite_names

RESULTS_DIR = Path(__file__).parent / "results"

#: Version of the ``BENCH_*.json`` envelope.  Bump when the envelope
#: layout (not the per-bench ``results`` payload) changes;
#: ``scripts/check_bench_regression.py`` refuses envelopes it does not
#: understand.
SCHEMA_VERSION = 1


def git_rev() -> str:
    """Short commit hash of the working tree (``"unknown"`` outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except Exception:
        pass
    return "unknown"


def bits_equal(C, ref) -> bool:
    """Whether two CSR products agree in indptr, indices and value bits
    (``-0.0`` and ``0.0`` differ)."""
    return (
        bool(np.array_equal(C.indptr, ref.indptr))
        and bool(np.array_equal(C.indices, ref.indices))
        and bool(np.array_equal(C.values.view(np.uint64), ref.values.view(np.uint64)))
    )


def gate_metric(metric: str, value: float, direction: str) -> dict:
    """One perf-gate entry of a bench envelope.

    ``direction`` says which way is better (``"higher"`` for speedups
    and hit rates, ``"lower"`` for latencies and errors), so the
    regression gate can orient its ratio without knowing the metric.
    """
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be 'higher' or 'lower', got {direction!r}")
    return {"metric": metric, "value": float(value), "direction": direction}


def bench_envelope(name: str, results: dict, *, gate=(), config=None) -> dict:
    """Wrap one bench's results in the schema-versioned envelope every
    committed ``BENCH_*.json`` carries: schema version, bench name, git
    revision, generation config, and the gated metrics the regression
    gate compares across revisions."""
    return {
        "schema": SCHEMA_VERSION,
        "bench": name,
        "git_rev": git_rev(),
        "config": dict(config or {}),
        "gate": [dict(g) for g in gate],
        "results": results,
    }


def save_bench_json(path, name: str, results: dict, *, gate=(), config=None) -> dict:
    """Write the envelope for ``results`` to ``path`` (sorted keys, so
    reruns of deterministic benches produce byte-identical files)."""
    env = bench_envelope(name, results, gate=gate, config=config)
    Path(path).write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    return env

#: The Table-1 presentation order used by every figure.
REORDER_ORDER = ["shuffled", "rabbit", "amd", "rcm", "nd", "gp", "hp", "gray", "degree", "slashburn"]


def bench_config() -> ExperimentConfig:
    return ExperimentConfig()


def bench_suite() -> list[str]:
    mode = os.environ.get("REPRO_SUITE", "standard")
    if mode == "quick":
        return suite_names("standard")[:16]
    if mode in ("standard", "full"):
        return suite_names(mode)
    raise ValueError(f"REPRO_SUITE must be quick/standard/full, got {mode!r}")


def shared_sweeps():
    """The one suite sweep all figure/table benches share (disk-cached)."""
    return sweep_suite(bench_suite(), bench_config())


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print()
    print(text)


def speedups_by_algo(sweeps, variant: str, algos=None) -> dict[str, list[float]]:
    """Aligned per-matrix speedup lists for one SpGEMM variant."""
    algos = algos or REORDER_ORDER
    return {a: [s.speedup(variant, a) for s in sweeps] for a in algos}
