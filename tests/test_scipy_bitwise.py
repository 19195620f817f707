"""The ``scipy`` backend's bit identity: measured by its probe, checked
against the row-wise oracle on adversarial values, and what the default
engine does when the probe fails."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ScipyBackend, get_backend
from repro.backends.scipy_backend import bitwise_probe
from repro.backends.sharded import INPROCESS_ENV
from repro.core import CSRMatrix, spgemm_rowwise
from repro.engine import SpGEMMEngine
from repro.engine.planner import planner_backends
from repro.matrices import generators as G
from repro.matrices import get_matrix, suite_names
from repro.pipeline import PipelineSpec, enumerate_compatible, get_component
from repro.pipeline import registry as _registry

# Overflow, inf * 0 and inf - inf are the point of the value pool.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SCIPY = "original+none+rowwise@scipy"
SHARDED_SCIPY = "original+none+rowwise@sharded:workers=2,inner=scipy"

#: Values that stress the order of a row's additions: signed zeros,
#: non-finite values, subnormals, near-overflow magnitudes, and the
#: probe's cancellation terms.
SPECIAL = (
    0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
    5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1e16, -1e16,
    1 + 2.0**-27, 1 - 2.0**-27,
)
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, width=64),
)


def _bits_equal(C, ref) -> bool:
    """Same shape, pattern and value bits.  A NaN matches any NaN: when
    two NaNs meet, IEEE 754 leaves open which one's sign and payload
    propagate, and the compiled loop's operand order is the compiler's
    (an ``inf * -0.0`` NaN plus a ``nan`` product came out with either
    sign bit)."""
    nan = np.isnan(ref.values)
    return (
        C.shape == ref.shape
        and np.array_equal(C.indptr, ref.indptr)
        and np.array_equal(C.indices, ref.indices)
        and np.array_equal(np.isnan(C.values), nan)
        and np.array_equal(C.values[~nan].view(np.uint64), ref.values[~nan].view(np.uint64))
    )


@st.composite
def _csr(draw, nrows, ncols):
    mask = draw(st.lists(st.booleans(), min_size=nrows * ncols, max_size=nrows * ncols))
    mask = np.array(mask, dtype=bool).reshape(nrows, ncols)
    vals = draw(st.lists(VALUES, min_size=int(mask.sum()), max_size=int(mask.sum())))
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))]).astype(np.int64)
    indices = np.nonzero(mask)[1].astype(np.int64)
    return CSRMatrix(indptr, indices, np.array(vals, dtype=np.float64), (nrows, ncols))


@st.composite
def _operands(draw):
    m, k, n = (draw(st.integers(min_value=0, max_value=8)) for _ in range(3))
    return draw(_csr(m, k)), draw(_csr(k, n))


def _run(spec, A, B):
    return PipelineSpec.parse(spec).run(A, B)


def test_scipy_flag_is_the_probe_and_holds_here():
    # Measured, not declared: the instance, the registry entry and the
    # sharded composite over scipy all report the probe's answer.
    assert ScipyBackend().bitwise_reference is bitwise_probe()
    assert get_component("backend", "scipy").bitwise_reference is bitwise_probe()
    assert get_backend("sharded", (("inner", "scipy"),)).bitwise_reference is bitwise_probe()
    if not bitwise_probe():
        pytest.skip("this host's scipy product is not bit-identical to the row-wise oracle")


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
@settings(max_examples=150, deadline=None)
@given(ops=_operands())
def test_scipy_products_are_bit_identical_to_the_oracle(ops):
    A, B = ops
    ref = spgemm_rowwise(A, B)
    assert _bits_equal(_run(SCIPY, A, B), ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(INPROCESS_ENV, "1")  # the row split's numerics; pools below
        assert _bits_equal(_run(SHARDED_SCIPY, A, B), ref)


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
@pytest.mark.parametrize(
    "shape_a,shape_b",
    [((0, 5), (5, 3)), ((4, 0), (0, 6)), ((3, 5), (5, 0)), ((0, 0), (0, 0)), ((6, 6), (6, 6))],
)
def test_empty_rectangular_products_are_bit_identical(shape_a, shape_b):
    A, B = CSRMatrix.empty(shape_a), CSRMatrix.empty(shape_b)
    ref = spgemm_rowwise(A, B)
    assert _bits_equal(_run(SCIPY, A, B), ref)
    assert _bits_equal(_run(SHARDED_SCIPY, A, B), ref)


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
def test_sharded_scipy_pool_is_bit_identical_on_signed_special_values():
    # Real worker processes: shards ship through shared memory and come
    # back concatenated, so every value bit must survive the round trip.
    rng = np.random.default_rng(11)
    A = G.web_graph(300, seed=5)
    special = np.array([v for v in SPECIAL if not np.isnan(v)])
    vals = np.where(
        rng.random(A.nnz) < 0.2,
        rng.choice(special, A.nnz),
        rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-8, 8, A.nnz),
    )
    A = CSRMatrix(A.indptr, A.indices, vals, A.shape)
    ref = spgemm_rowwise(A, A)
    assert _bits_equal(_run(SHARDED_SCIPY, A, A), ref)


# ----------------------------------------------------------------------
# Every row-wise pipeline, and the shapes that stress one row or side
# ----------------------------------------------------------------------
def _with_special_values(A, seed):
    """``A``'s pattern carrying every special value among signed
    normals over sixteen decades."""
    rng = np.random.default_rng(seed)
    vals = np.where(
        rng.random(A.nnz) < 0.2,
        rng.choice(np.array(SPECIAL), A.nnz),
        rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-8, 8, A.nnz),
    )
    return CSRMatrix(A.indptr, A.indices, vals, A.shape)


SWEEP_A = _with_special_values(G.web_graph(90, seed=3), seed=3)
ROWWISE_SPECS = [
    s.with_backend(ref)
    for ref in ("scipy", "sharded:workers=2,inner=scipy")
    for s in enumerate_compatible(square=True)
    if s.kernel == "rowwise"
]


def test_sweep_covers_reordering_and_clustering_axes():
    assert {s.reordering for s in ROWWISE_SPECS} > {"original", "rcm"}
    assert {s.clustering for s in ROWWISE_SPECS} > {None, "fixed"}


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
@pytest.mark.parametrize("spec", ROWWISE_SPECS, ids=str)
def test_every_rowwise_pipeline_on_scipy_is_bit_identical(monkeypatch, spec):
    # Reorderings and clusterings gather whole rows, so each row's
    # terms keep A's column order on every pipeline.
    monkeypatch.setenv(INPROCESS_ENV, "1")
    assert _bits_equal(spec.run(SWEEP_A, SWEEP_A), spgemm_rowwise(SWEEP_A, SWEEP_A))


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
@pytest.mark.parametrize("spec", [SCIPY, SHARDED_SCIPY])
def test_single_ultra_heavy_row_is_bit_identical(monkeypatch, spec):
    # One signed row touching every column; every other row is empty.
    monkeypatch.setenv(INPROCESS_ENV, "1")
    n = 300
    vals = np.linspace(-2.0, 2.0, n)
    A = CSRMatrix(
        np.concatenate([[0], np.full(n, n)]).astype(np.int64),
        np.arange(n, dtype=np.int64),
        vals,
        (n, n),
    )
    B = _with_special_values(G.banded_random(n, bandwidth=3, fill=0.9, seed=1), seed=1)
    assert _bits_equal(_run(spec, A, B), spgemm_rowwise(A, B))


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
@pytest.mark.parametrize("spec", [SCIPY, SHARDED_SCIPY])
def test_rectangular_operands_are_bit_identical(monkeypatch, spec):
    monkeypatch.setenv(INPROCESS_ENV, "1")
    A = _with_special_values(G.web_graph(70, seed=5), seed=5)
    rng = np.random.default_rng(7)
    mask = rng.random((70, 31)) < 0.15
    B = CSRMatrix.from_dense(np.where(mask, rng.standard_normal((70, 31)), 0.0))
    assert _bits_equal(_run(spec, A, B), spgemm_rowwise(A, B))


# ----------------------------------------------------------------------
# Probe-negative: a product that sums in another order
# ----------------------------------------------------------------------
_MATMUL = sp.csr_matrix.__matmul__


def _rows_reversed(M):
    """``M`` with each row's entries stored in reverse column order."""
    order = np.concatenate(
        [np.arange(M.indptr[i + 1] - 1, M.indptr[i] - 1, -1) for i in range(M.shape[0])]
        or [np.zeros(0, dtype=np.int64)]
    ).astype(np.int64)
    return sp.csr_matrix((M.data[order], M.indices[order], M.indptr), shape=M.shape)


def _summed_in_reverse(self, other):
    # SMMP adds in storage order, so reversed rows reverse every sum.
    return _MATMUL(_rows_reversed(self), other)


def _accumulated_wider(self, other):
    # Every multiply-add kept in extended precision, as a build that
    # contracts ``sums[k] += v * b`` into fused multiply-adds would.
    wide = self.toarray().astype(np.longdouble) @ other.toarray().astype(np.longdouble)
    return sp.csr_matrix(wide.astype(np.float64))


@pytest.fixture
def reprobe():
    bitwise_probe.cache_clear()
    yield
    bitwise_probe.cache_clear()


@pytest.mark.parametrize(
    "product",
    [
        _summed_in_reverse,
        pytest.param(
            _accumulated_wider,
            marks=pytest.mark.skipif(
                np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                reason="longdouble is no wider than double here",
            ),
        ),
    ],
    ids=["reversed", "fused"],
)
def test_probe_negative_keeps_the_default_engine_off_scipy(monkeypatch, reprobe, product):
    with monkeypatch.context() as mp:
        mp.setattr(sp.csr_matrix, "__matmul__", product)
        assert ScipyBackend().bitwise_reference is False
    # The measurement is cached for the process, the product restored.
    assert get_backend("sharded", (("inner", "scipy"),)).bitwise_reference is False
    # Re-register scipy with the flag its probe now measures.
    info = get_component("backend", "scipy")
    monkeypatch.setitem(
        _registry._REGISTRY,
        ("backend", "scipy"),
        dataclasses.replace(info, bitwise_reference=ScipyBackend().bitwise_reference),
    )
    assert "scipy" in planner_backends()

    eng = SpGEMMEngine()
    assert eng.planner.backend_token == "reference"  # the bitwise set
    for A in (get_matrix("wb"), G.web_graph(200, seed=2)):
        C = eng.multiply(A)
        assert eng.plan_for(A).backend == "reference"
        assert _bits_equal(C, spgemm_rowwise(A, A))


# ----------------------------------------------------------------------
# The two planner modes
# ----------------------------------------------------------------------
def test_default_engine_searches_the_bitwise_backends():
    expected = [
        name for name in planner_backends() if get_component("backend", name).bitwise_reference
    ]
    assert SpGEMMEngine().planner.backend_token == ",".join(expected)
    assert SpGEMMEngine(backend="auto").planner.backend_token == "auto"
    assert SpGEMMEngine(backend="reference").planner.backend_token == "reference"


@pytest.mark.skipif(not bitwise_probe(), reason="scipy fails the bitwise probe on this host")
def test_default_engine_plans_scipy_and_stays_bitwise():
    eng = SpGEMMEngine()
    for name in suite_names("representative"):
        A = get_matrix(name)
        C = eng.multiply(A)
        assert eng.plan_for(A).label.endswith("/rowwise@scipy")
        assert _bits_equal(C, spgemm_rowwise(A, A))
    # The oracle stays an ordinary pin.
    A = get_matrix("pdb1")
    pinned = SpGEMMEngine(backend="reference")
    assert pinned.plan_for(A).backend == "reference"
    assert _bits_equal(pinned.multiply(A), spgemm_rowwise(A, A))
