"""Property coverage for the backend axis: every registry-compatible
(pipeline, backend) pair agrees with ``reference`` — bitwise when the
backend claims it, allclose on the identical sparsity pattern otherwise
(scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import backend_supports, execute, get_backend, parse_backend
from repro.core import CSRMatrix, spgemm_rowwise
from repro.core.cluster_spgemm import cluster_spgemm
from repro.core.hybrid_spgemm import DEFAULT_BIN_MAP, row_workloads
from repro.engine import ExecutionPlan
from repro.matrices import generators as G
from repro.pipeline import available_components, enumerate_compatible

#: Keep the exhaustive pairing affordable: two reordering families are
#: enough to cover permuted + natural operands (test_pipeline_exec
#: already sweeps every reordering on the reference backend).
REORDERINGS = ("original", "rcm")

MATRICES = {
    "web": G.web_graph(180, seed=7),
    "banded": G.banded_random(160, bandwidth=6, fill=0.5, seed=7),
    # Hub rows past the hybrid kernel's merge/scatter edge: both of its
    # phases run under every backend.
    "rmat_hubs": G.rmat(10, edge_factor=4, seed=7),
}

#: The registry's triples (reference backend) for the swept reorderings.
TRIPLES = enumerate_compatible(square=True, reorderings=REORDERINGS)

BARE_PAIRS = enumerate_compatible(
    square=True, reorderings=REORDERINGS, backends=available_components("backend")
)

#: Sharding over the non-bitwise inner: a composite's kernel support is
#: its inner's, so only the row-wise triples run.
SCIPY_SHARDED = "sharded:inner=scipy"

ALL_PAIRS = BARE_PAIRS + [
    s.with_backend(SCIPY_SHARDED)
    for s in TRIPLES
    if backend_supports(*parse_backend(SCIPY_SHARDED), s.kernel)
]

#: Every triple scipy (bare or as an inner) must refuse: it runs one
#: dataflow, so any kernel but ``rowwise`` would only relabel it.
REJECTED = [
    (spec, ref) for ref in ("scipy", SCIPY_SHARDED) for spec in TRIPLES if spec.kernel != "rowwise"
]


def test_sweep_matrices_cover_both_hybrid_phases():
    edge = DEFAULT_BIN_MAP[0][0]
    _, ub = row_workloads(MATRICES["rmat_hubs"], MATRICES["rmat_hubs"])
    assert (ub <= edge).any() and (ub > edge).any()


def test_backend_axis_enumerates_every_compatible_pair():
    triples = {(s.reordering, s.clustering, s.kernel) for s in BARE_PAIRS}
    for spec in TRIPLES:
        assert (spec.reordering, spec.clustering, spec.kernel) in triples
    # Every non-reference backend appears, restricted to kernels it supports.
    by_backend = {}
    for s in BARE_PAIRS:
        by_backend.setdefault(s.backend, set()).add(s.kernel)
    assert set(by_backend) == {"reference", "scipy", "sharded"}
    assert by_backend["scipy"] == {"rowwise"}
    assert by_backend["sharded"] == by_backend["reference"]


@pytest.mark.parametrize("matname", sorted(MATRICES))
@pytest.mark.parametrize("spec", ALL_PAIRS, ids=str)
def test_every_backend_pair_matches_reference(monkeypatch, matname, spec):
    # The pairing is about numerics, not pool mechanics (covered in
    # test_backends): keep sharded in-process so ~100 cases stay fast.
    from repro.backends.sharded import INPROCESS_ENV

    monkeypatch.setenv(INPROCESS_ENV, "1")
    A = MATRICES[matname]
    ref = spgemm_rowwise(A, A)
    C = spec.run(A)
    assert C.same_pattern(ref), f"{spec}: pattern differs from reference"
    if get_backend(spec.backend, spec.backend_params).bitwise_reference:
        assert np.array_equal(C.values, ref.values), f"{spec}: bitwise contract violated"
    else:
        assert C.allclose(ref), f"{spec}: values not allclose"


@pytest.mark.parametrize(
    "spec,backend_ref", REJECTED, ids=[f"{s}@{ref}" for s, ref in REJECTED]
)
def test_scipy_refuses_every_non_rowwise_kernel_uniformly(spec, backend_ref):
    # The pairs the enumeration leaves out are refused by the one
    # require_backend_supports gate at spec construction, plan
    # validation and dispatch alike — never run under another label.
    name, params = parse_backend(backend_ref)
    msg = (
        f"backend {name!r} does not support kernel {spec.kernel!r}; "
        r"supported kernels: \['rowwise'\]"
    )
    with pytest.raises(ValueError, match=msg):
        spec.with_backend(backend_ref)
    with pytest.raises(ValueError, match=msg):
        ExecutionPlan(
            reordering=spec.reordering,
            clustering=spec.clustering,
            kernel=spec.kernel,
            backend=name,
            backend_params=params,
        )
    A = MATRICES["banded"]
    with pytest.raises(ValueError, match=msg):
        execute(spec.build(A), A, kernel=spec.kernel, backend=name, backend_params=params)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.02, max_value=0.35),
    size=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_cluster_kernel_is_bitwise_on_random_clusterings(n, density, size, seed):
    """The registered ``cluster`` kernel (the numpy-batched phase)
    replays the pure-python ``cluster_spgemm`` oracle's addition order
    exactly, for arbitrary patterns and cluster shapes."""
    from repro.backends import ShardOperand
    from repro.clustering import get_clustering
    from repro.pipeline import get_component

    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) * (rng.random((n, n)) < density)
    A = CSRMatrix.from_dense(dense)
    Ac = get_clustering("fixed")(A, cluster_size=size).to_csr_cluster(A)
    want = cluster_spgemm(Ac, A, restore_order=True)
    got = get_component("kernel", "cluster").factory(ShardOperand(Ar=None, Ac=Ac), A)
    assert got.same_pattern(want)
    assert np.array_equal(got.values, want.values)
