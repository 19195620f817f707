"""The row-binned hybrid kernel (DESIGN.md §15): bitwise identity.

The hybrid kernel's contract is that both numeric phases — batched
merge and blocked vectorised scatter — reproduce
:func:`repro.core.spgemm_rowwise` bit for bit, so any row partition
induced by a bin ladder is bitwise-invisible.  Properties here force
each phase to carry whole matrices (single-bin ladders), mix phases
with random tiny ladders and every split threshold, sweep every
registry-compatible (reordering, clustering) pipeline, and pin the
degenerate shapes and the replay of plans persisted with retired bin
kinds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_bitwise_equal, square_csr
from repro.core import COOMatrix, CSRMatrix, DEFAULT_BIN_MAP, hybrid_spgemm, spgemm_rowwise
from repro.core.hybrid_spgemm import (
    BIN_KINDS,
    HybridStats,
    assign_bins,
    row_workloads,
    validate_bin_map,
)
from repro.matrices import generators as G
from repro.pipeline import PipelineSpec, enumerate_compatible

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

#: Single-phase ladders: the whole matrix rides one numeric phase.
SINGLE_KIND_MAPS = {kind: ((-1, kind),) for kind in BIN_KINDS}

#: A ladder alternating both kinds at tiny edges, so small hypothesis
#: matrices still switch phase several times within one product.
TINY_LADDER = ((0, "scatter"), (2, "merge"), (4, "scatter"), (8, "merge"), (-1, "scatter"))


# ----------------------------------------------------------------------
# Property: bitwise identity per phase and across phases
# ----------------------------------------------------------------------
@given(square_csr(), st.sampled_from(sorted(SINGLE_KIND_MAPS)))
@settings(max_examples=40, deadline=None)
def test_each_phase_alone_is_bitwise_identical(A, kind):
    C = hybrid_spgemm(A, A, bin_map=SINGLE_KIND_MAPS[kind])
    assert_bitwise_equal(C, spgemm_rowwise(A, A))


@given(square_csr())
@settings(max_examples=40, deadline=None)
def test_default_and_tiny_ladders_bitwise_identical(A):
    ref = spgemm_rowwise(A, A)
    assert_bitwise_equal(hybrid_spgemm(A, A), ref)
    assert_bitwise_equal(hybrid_spgemm(A, A, bin_map=TINY_LADDER), ref)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_ladders_bitwise_identical(data):
    A = data.draw(square_csr())
    n_bins = data.draw(st.integers(1, 4))
    edges = sorted(data.draw(st.sets(st.integers(0, 20), min_size=n_bins, max_size=n_bins)))
    kinds = [data.draw(st.sampled_from(BIN_KINDS)) for _ in range(n_bins + 1)]
    bin_map = tuple(zip(edges, kinds[:-1])) + ((-1, kinds[-1]),)
    C = hybrid_spgemm(A, A, bin_map=bin_map)
    assert_bitwise_equal(C, spgemm_rowwise(A, A))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_split_threshold_bitwise_identical(data):
    # Thresholds 0 .. ncols+1 cover "everything scatters" through
    # "everything merges" (upper-bound nnz never exceeds ncols).
    A = data.draw(square_csr())
    threshold = data.draw(st.integers(0, A.ncols + 1))
    first, rest = data.draw(st.permutations(BIN_KINDS))
    C = hybrid_spgemm(A, A, bin_map=((threshold, first), (-1, rest)))
    assert_bitwise_equal(C, spgemm_rowwise(A, A))


# ----------------------------------------------------------------------
# Registry sweep: every compatible pipeline, hybrid kernel
# ----------------------------------------------------------------------
SWEEP_A = G.web_graph(90, seed=3)
HYBRID_SPECS = [s for s in enumerate_compatible(square=True) if s.kernel == "hybrid"]


def test_sweep_covers_reordering_and_clustering_axes():
    assert {s.reordering for s in HYBRID_SPECS} > {"original", "rcm"}
    assert {s.clustering for s in HYBRID_SPECS} > {None, "fixed"}


@pytest.mark.parametrize("spec", HYBRID_SPECS, ids=str)
def test_every_compatible_pipeline_is_bitwise_identical(spec):
    ref = spgemm_rowwise(SWEEP_A, SWEEP_A)
    assert_bitwise_equal(spec.run(SWEEP_A, SWEEP_A), ref)


# ----------------------------------------------------------------------
# Degenerate shapes
# ----------------------------------------------------------------------
def test_all_empty_rows():
    A = CSRMatrix.empty((6, 6))
    C = hybrid_spgemm(A, A)
    assert C.nnz == 0 and C.shape == (6, 6)
    assert_bitwise_equal(C, spgemm_rowwise(A, A))


def test_single_ultra_heavy_row():
    # One row touching every column; everything else empty.
    n = 300
    rows = np.zeros(n, dtype=np.int64)
    cols = np.arange(n, dtype=np.int64)
    vals = np.linspace(0.5, 2.0, n)
    A = CSRMatrix.from_coo(COOMatrix(rows, cols, vals, (n, n)))
    B = G.banded_random(n, bandwidth=3, fill=0.9, seed=1)
    for bin_map in (DEFAULT_BIN_MAP, *SINGLE_KIND_MAPS.values()):
        assert_bitwise_equal(hybrid_spgemm(A, B, bin_map=bin_map), spgemm_rowwise(A, B))


def test_all_rows_in_one_bin():
    A = G.banded_random(40, bandwidth=2, fill=1.0, seed=0)
    flops, ub = row_workloads(A, A)
    # A huge first edge swallows every row into the merge bin.
    stats = HybridStats()
    C = hybrid_spgemm(A, A, bin_map=((10**9, "merge"), (-1, "scatter")), stats=stats)
    assert_bitwise_equal(C, spgemm_rowwise(A, A))
    assert stats.rows["merge"] == A.nrows and stats.rows["scatter"] == 0


def test_rectangular_operands():
    A = G.web_graph(70, seed=5)
    rng = np.random.default_rng(7)
    mask = rng.random((70, 31)) < 0.15
    B = CSRMatrix.from_dense(np.where(mask, rng.standard_normal((70, 31)), 0.0))
    assert_bitwise_equal(hybrid_spgemm(A, B), spgemm_rowwise(A, B))


# ----------------------------------------------------------------------
# Symbolic pre-pass and bin assignment
# ----------------------------------------------------------------------
@given(square_csr())
@settings(max_examples=30, deadline=None)
def test_row_workloads_match_bruteforce(A):
    flops, ub = row_workloads(A, A)
    b_lens = np.diff(A.indptr)
    for i in range(A.nrows):
        expect = int(sum(b_lens[j] for j in A.row_cols(i)))
        assert flops[i] == expect
        assert ub[i] == min(expect, A.ncols)


def test_assign_bins_edges_are_inclusive():
    bin_map = ((0, "scatter"), (4, "merge"), (-1, "scatter"))
    ub = np.array([0, 1, 4, 5, 100], dtype=np.int64)
    assert assign_bins(ub, bin_map).tolist() == [0, 1, 1, 2, 2]


# ----------------------------------------------------------------------
# Bin-map validation
# ----------------------------------------------------------------------
def test_validate_bin_map_normalises():
    bm = validate_bin_map([[0, "scatter"], [8, "merge"], [-1, "scatter"]])
    assert bm == ((0, "scatter"), (8, "merge"), (-1, "scatter"))
    assert set(k for _, k in bm) <= set(BIN_KINDS)


@pytest.mark.parametrize(
    "bad",
    [
        (),  # empty
        ((8, "merge"),),  # last edge not -1
        ((-1, "warp"),),  # unknown kind
        ((0, "empty"), (-1, "merge")),  # retired kind (plans map it on load)
        ((512, "hash"), (-1, "scatter")),  # retired kind
        ((8, "merge"), (4, "scatter"), (-1, "merge")),  # edges not increasing
        ((8, "merge"), (8, "scatter"), (-1, "merge")),  # duplicate edge
        ((-1, "merge"), (8, "scatter")),  # catch-all not last
    ],
)
def test_validate_bin_map_rejects(bad):
    with pytest.raises(ValueError):
        validate_bin_map(bad)


# ----------------------------------------------------------------------
# Plan integration: bin_map recorded, replayed and round-tripped
# ----------------------------------------------------------------------
def test_plan_records_and_roundtrips_bin_map():
    from repro.engine import ExecutionPlan

    plan = PipelineSpec.parse("rcm+fixed:8+hybrid").to_plan()
    assert plan.bin_map == DEFAULT_BIN_MAP
    again = ExecutionPlan.from_json(plan.to_json())
    assert again.bin_map == plan.bin_map


def test_plan_rejects_bin_map_on_other_kernels():
    from repro.engine import ExecutionPlan

    with pytest.raises(ValueError, match="bin_map"):
        ExecutionPlan(
            reordering="original", clustering=None, kernel="rowwise",
            bin_map=((-1, "scatter"),),
        )


def test_old_plan_dict_without_bin_map_loads():
    from repro.engine import ExecutionPlan

    d = ExecutionPlan(reordering="original", clustering=None, kernel="rowwise").to_dict()
    del d["bin_map"]
    assert ExecutionPlan.from_dict(d).bin_map == ()


#: The default ladder plans persisted before the per-row SPA bins and
#: the zero-work bin were retired, in its JSON (list) form.
LEGACY_BIN_MAP = [[0, "empty"], [128, "merge"], [512, "hash"], [2048, "dense"], [-1, "scatter"]]


def test_legacy_ladder_plan_loads_from_disk_and_replays_bitwise(tmp_path, monkeypatch):
    import json
    import warnings

    from repro.engine import ExecutionPlan, SpGEMMEngine

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    d = PipelineSpec.parse("rcm+fixed:8+hybrid").to_plan().to_dict()
    d["bin_map"] = LEGACY_BIN_MAP
    assert ExecutionPlan.from_dict(d).bin_map == DEFAULT_BIN_MAP

    # Through the persisted plan cache: a legacy entry is a hit, not a
    # "corrupt" discard, and the replayed product is bitwise.
    A = G.web_graph(120, seed=4)
    SpGEMMEngine(pipeline="rcm+fixed:8+hybrid", persist_plans=True).multiply(A)
    (path,) = tmp_path.rglob("plan_*.json")
    envelope = json.loads(path.read_text())
    envelope["plan"]["bin_map"] = LEGACY_BIN_MAP
    path.write_text(json.dumps(envelope))
    eng = SpGEMMEngine(pipeline="rcm+fixed:8+hybrid", persist_plans=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = eng.multiply(A)
    assert eng.plan_cache.disk_hits == 1
    assert eng.plan_for(A).bin_map == DEFAULT_BIN_MAP
    assert_bitwise_equal(C, spgemm_rowwise(A, A))


def test_engine_executes_hybrid_pipeline_bitwise():
    from repro.engine import SpGEMMEngine

    A = G.web_graph(80, seed=2)
    eng = SpGEMMEngine(pipeline="rcm+fixed:8+hybrid")
    assert_bitwise_equal(eng.multiply(A), spgemm_rowwise(A, A))


def test_engine_kernel_pin_excludes_hybrid():
    from repro.engine import SpGEMMEngine

    A = G.web_graph(80, seed=2)
    eng = SpGEMMEngine(policy="heuristic", kernels=("rowwise", "cluster"))
    eng.multiply(A)
    assert eng.plan_for(A).kernel in {"rowwise", "cluster"}


# ----------------------------------------------------------------------
# Observability: per-bin counters, tracer-gated
# ----------------------------------------------------------------------
def test_stats_counters_flow_into_engine_stats_when_tracing():
    from repro.engine import SpGEMMEngine
    from repro.obs import RingSink, Tracer

    A = G.web_graph(120, seed=4)
    eng = SpGEMMEngine(pipeline="hybrid", tracer=Tracer(RingSink()))
    eng.multiply(A)
    events = eng.stats().backend_events
    assert any(k.startswith("hybrid_bin_rows.") for k in events)
    assert any(k.startswith("hybrid_bin_flops.") for k in events)
    # Row counters partition the operand's rows exactly.
    assert sum(v for k, v in events.items() if k.startswith("hybrid_bin_rows.")) == A.nrows


def test_stats_counters_absent_without_tracer():
    from repro.engine import SpGEMMEngine

    A = G.web_graph(120, seed=4)
    eng = SpGEMMEngine(pipeline="hybrid")
    eng.multiply(A)
    assert not any(k.startswith("hybrid") for k in eng.stats().backend_events)


# ----------------------------------------------------------------------
# The vectorized backend: rowwise and hybrid share the one row-wise phase
# ----------------------------------------------------------------------
def test_vectorized_rowwise_and_hybrid_bitwise_on_both_sides_of_default_edge():
    A = G.rmat(10, edge_factor=8, seed=0)
    _, ub = row_workloads(A, A)
    edge = DEFAULT_BIN_MAP[0][0]
    assert (ub <= edge).any() and (ub > edge).any()  # both phases carry rows
    ref = spgemm_rowwise(A, A)
    for spec in ("rowwise@vectorized", "hybrid@vectorized"):
        assert_bitwise_equal(PipelineSpec.parse(spec).run(A, A), ref)


def test_vectorized_backend_runs_rowwise_and_hybrid_specs():
    A = G.web_graph(90, seed=6)
    ref = spgemm_rowwise(A, A)
    assert_bitwise_equal(PipelineSpec.parse("rowwise@vectorized").run(A, A), ref)
    assert_bitwise_equal(PipelineSpec.parse("rcm+hybrid@vectorized").run(A, A), ref)
