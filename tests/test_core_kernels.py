"""Native scan kernel contract: bitwise parity, fallback, status.

The C kernels (:mod:`repro.core.kernels`) are an *optional* acceleration
of the exact top-k pass and the IVF-PQ scan, used exactly when they built,
so the contract under test is strict:

* native and NumPy searches return **bitwise identical**
  ``(distances, ids)`` — on the exact engine across ``k`` at both ends,
  tie sets straddling the k-th place and a buffer compaction, query
  blocks of 1 and 4 096, both storage dtypes and add/remove churn; on
  IVF-PQ across bit widths, uneven subspace dims, degenerate probes,
  ``k`` larger than the probed candidates, tied ADC distances at the
  selection boundary, and after add/remove churn invalidates the
  transposed scan layout.  The NumPy leg
  is forced by patching ``ivfpq_kernels`` to return ``None`` (a test
  seam; in production ``REPRO_DISABLE_KERNELS=1`` does it);
* the raw blocked scanners reproduce the NumPy uint32 LUT sums exactly;
* quantizer training on the native passes (nearest-centroid assignment,
  k-means++ cover and pick) leaves every trained array bitwise equal to
  the NumPy training's: across assignment blocks with a ragged tail,
  strided PQ-subspace views, float32 centroids, duplicate rows (uniform
  seed fallback, empty-cell reseeds), NaN/inf/signed-zero inputs, and the
  whole ``rebuild`` / ``retrain`` state at both bit widths and uneven
  subspaces;
* without a working compiler everything still runs on the NumPy path
  (exercised in a subprocess with ``CC=/bin/false`` and a fresh cache,
  because the build result latches process-wide);
* ``kernel_status()["active"]`` and an index's ``kernels_active()`` agree
  with the latched build, whatever the environment says afterwards.
"""

import importlib
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import index as index_mod
from repro.core import kernels as kern
from repro.core.index import ExactIndex, IVFPQIndex, ProductQuantizer, index_from_spec
from repro.core.index_bench import clustered_corpus
from repro.kernel_cache import KernelLatch, kernel_cache_dir

KERNELS = kern.ivfpq_kernels()
needs_kernels = pytest.mark.skipif(
    KERNELS is None, reason="no system C compiler / kernel build failed"
)

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def corpus(n=4000, dim=24, seed=1):
    return clustered_corpus(n, dim, n_clusters=max(8, n // 50), seed=seed)


def queries_near(vectors, n_queries=48, seed=2, noise=0.1):
    rng = np.random.default_rng(seed)
    picks = vectors[rng.choice(vectors.shape[0], n_queries, replace=False)]
    return picks + noise * rng.standard_normal(picks.shape)


def search_both_ways(monkeypatch, index, vectors, queries, k):
    """Search on the native kernels and on the NumPy reference scan (the
    kernels patched away); assert the results are bitwise identical and
    return them."""
    assert index.kernels_active()
    with monkeypatch.context() as patch:
        patch.setattr(kern, "ivfpq_kernels", lambda: None)
        assert not index.kernels_active()
        d_off, i_off = index.search(vectors, queries, k)
    d_on, i_on = index.search(vectors, queries, k)
    np.testing.assert_array_equal(i_on, i_off)
    np.testing.assert_array_equal(d_on, d_off)
    return d_on, i_on


# ------------------------------------------------------- exact-engine parity
def exact_index(vectors):
    index = ExactIndex()
    index.rebuild(vectors)
    return index


@needs_kernels
@pytest.mark.parametrize("storage_dtype", ["float64", "float32"])
@pytest.mark.parametrize("k", [1, 10, 599, 600, 650])
def test_exact_topk_bitwise_identical(monkeypatch, storage_dtype, k):
    # k = 1, a k inside the bounded buffer, and k at and past the row count
    # (clamped to every row, which the kernel then sorts whole).
    vectors = corpus(n=600, dim=16).astype(storage_dtype)
    queries = queries_near(vectors, n_queries=32)
    d, ids = search_both_ways(monkeypatch, exact_index(vectors), vectors, queries, k)
    assert ids.shape == (32, min(k, 600))


@needs_kernels
@pytest.mark.parametrize("storage_dtype", ["float64", "float32"])
@pytest.mark.parametrize("k", [1, 7, 50, 64])
def test_exact_topk_ties_across_the_boundary_and_compactions(monkeypatch, storage_dtype, k):
    # 30 distinct rows, each repeated 20 times in scrambled order: every
    # distance is tied 20 ways, so tie sets straddle the k-th place, and
    # 600 rows overflow the selection buffer (2k + 16 pairs) several times
    # with ties on both sides of each cut.  Queries on the duplicated rows
    # themselves also tie at distance 0.
    rng = np.random.default_rng(12)
    distinct = rng.standard_normal((30, 8))
    vectors = distinct[rng.permutation(np.repeat(np.arange(30), 20))].astype(storage_dtype)
    queries = np.vstack([distinct[:4], queries_near(distinct, n_queries=12, noise=0.5)])
    d, ids = search_both_ways(monkeypatch, exact_index(vectors), vectors, queries, k)
    # Within every tie set the ids ascend: (distance, id) order.
    same = d[:, 1:] == d[:, :-1]
    assert (ids[:, 1:][same] > ids[:, :-1][same]).all()
    assert same.any() or k == 1


@needs_kernels
@pytest.mark.parametrize("n_queries", [1, 4096])
def test_exact_topk_query_blocks(monkeypatch, n_queries):
    vectors = corpus(n=500, dim=12)
    queries = np.random.default_rng(3).standard_normal((n_queries, 12))
    search_both_ways(monkeypatch, exact_index(vectors), vectors, queries, k=25)


@needs_kernels
@pytest.mark.parametrize("storage_dtype", ["float64", "float32"])
def test_exact_topk_survives_add_remove_churn(monkeypatch, storage_dtype):
    # The norms the index keeps must follow every add and remove; a stale
    # or misaligned norm would show as a parity break or a wrong order.
    rng = np.random.default_rng(8)
    vectors = corpus(n=800, dim=16, seed=5).astype(storage_dtype)
    queries = queries_near(vectors, n_queries=24, seed=6)
    index = exact_index(vectors)
    reference = ExactIndex()  # built from scratch over each state
    for step in range(4):
        extra = (vectors[:150] + 0.2 * rng.standard_normal((150, 16))).astype(storage_dtype)
        vectors = np.vstack([vectors, extra])
        index.add(vectors, extra.shape[0])
        kept = rng.random(vectors.shape[0]) > 0.2
        vectors = vectors[kept]
        index.remove(kept)
        d, ids = search_both_ways(monkeypatch, index, vectors, queries, k=30)
        reference.rebuild(vectors)
        d_ref, ids_ref = reference.search(vectors, queries, 30)
        np.testing.assert_array_equal(ids, ids_ref)
        np.testing.assert_array_equal(d, d_ref)


@needs_kernels
def test_exact_topk_nan_distances_fall_back_to_numpy(monkeypatch):
    # The (distance, column) order does not cover NaN; the kernel reports
    # it and the search answers from the NumPy scan instead.
    vectors = corpus(n=300, dim=8)
    vectors[17, 3] = np.nan
    queries = queries_near(np.nan_to_num(vectors), n_queries=5)
    ip = queries @ vectors.T
    norms = np.einsum("ij,ij->i", vectors, vectors)
    assert KERNELS.exact_topk(ip, np.einsum("ij,ij->i", queries, queries), norms, 10) is None
    search_both_ways(monkeypatch, exact_index(vectors), vectors, queries, k=300)


@needs_kernels
def test_kernels_reject_k_below_one():
    vectors = corpus(n=50, dim=4)
    norms = np.einsum("ij,ij->i", vectors, vectors)
    for k in (0, -3):
        with pytest.raises(ValueError, match="k must be >= 1"):
            KERNELS.exact_topk(vectors[:2] @ vectors.T, norms[:2], norms, k)


# ------------------------------------------------------------- bitwise parity
@needs_kernels
def test_native_scan_ties_at_the_selection_boundary(monkeypatch):
    # 60 distinct vectors repeated 50 times: duplicated rows share codes
    # and cells, so their ADC distances tie exactly, and a full probe
    # offers every query 3 000 candidates — 75 times n_select — whose
    # tie sets cross the selection boundary.
    rng = np.random.default_rng(21)
    distinct = corpus(n=60, dim=16, seed=4)
    vectors = distinct[rng.permutation(np.repeat(np.arange(60), 50))]
    queries = queries_near(distinct, n_queries=24, seed=9, noise=0.3)
    index = IVFPQIndex(n_probe=10**6, rerank=0, min_train_size=256)
    index.rebuild(vectors)
    d, ids = search_both_ways(monkeypatch, index, vectors, queries, k=40)
    same = d[:, 1:] == d[:, :-1]
    assert same.any() and (ids[:, 1:][same] > ids[:, :-1][same]).all()


@needs_kernels
@pytest.mark.parametrize("bits", [4, 8])
def test_native_scan_bitwise_identical(monkeypatch, bits):
    vectors = corpus()
    queries = queries_near(vectors)
    index = IVFPQIndex(bits=bits, rerank=0, min_train_size=256)
    index.rebuild(vectors)
    search_both_ways(monkeypatch, index, vectors, queries, k=10)


@needs_kernels
@pytest.mark.parametrize("bits", [4, 8])
def test_native_scan_uneven_subspaces(monkeypatch, bits):
    # dim=30 with m=7 subspaces: subspace dims 5/5/4/4/4/4/4, and for the
    # packed engine an odd m leaves a half-used last byte the scanner must
    # not read past.
    vectors = corpus(n=2500, dim=30)
    queries = queries_near(vectors, n_queries=32)
    index = IVFPQIndex(bits=bits, n_subspaces=7, rerank=0, min_train_size=256)
    index.rebuild(vectors)
    search_both_ways(monkeypatch, index, vectors, queries, k=12)


@needs_kernels
def test_native_scan_short_probe_and_k_exceeding_candidates(monkeypatch):
    # n_probe=1 on a small corpus: some queries see fewer candidates than
    # k, so both paths must agree on the short result rows too.
    vectors = corpus(n=400, dim=12)
    queries = queries_near(vectors, n_queries=16)
    index = IVFPQIndex(
        n_cells=16, n_probe=1, rerank=0, min_train_size=64
    )
    index.rebuild(vectors)
    d, ids = search_both_ways(monkeypatch, index, vectors, queries, k=60)
    assert ids.shape[0] == queries.shape[0]


@needs_kernels
def test_native_scan_full_probe(monkeypatch):
    vectors = corpus(n=1500, dim=16)
    queries = queries_near(vectors, n_queries=24)
    index = IVFPQIndex(n_probe=10**6, rerank=0, min_train_size=64)
    index.rebuild(vectors)
    search_both_ways(monkeypatch, index, vectors, queries, k=10)


@needs_kernels
@pytest.mark.parametrize("bits", [4, 8])
def test_native_scan_survives_add_remove_churn(monkeypatch, bits):
    # The transposed cell-major code layout is a lazy cache; add/remove
    # must invalidate it, and the rebuilt layout must stay bitwise-parity
    # with the NumPy scan.
    rng = np.random.default_rng(7)
    vectors = corpus(n=3000, dim=16, seed=5)
    queries = queries_near(vectors, n_queries=32, seed=6)
    index = IVFPQIndex(bits=bits, rerank=0, min_train_size=256)
    index.rebuild(vectors)
    search_both_ways(monkeypatch, index, vectors, queries, k=10)  # builds the layout

    extra = vectors[:200] + 0.3 * rng.standard_normal((200, vectors.shape[1]))
    grown = np.vstack([vectors, extra])
    index.add(grown, extra.shape[0])
    kept = np.ones(grown.shape[0], dtype=bool)
    kept[50:150] = False
    index.remove(kept)
    search_both_ways(monkeypatch, index, grown[kept], queries, k=10)


# ------------------------------------------------ IVF-PQ one-call search pass
def reference_quantization(monkeypatch, tables):
    """``ProductQuantizer.quantized_query_tables`` over the given float
    tables (its ``query_tables`` step patched to return them)."""
    pq = ProductQuantizer()
    monkeypatch.setattr(pq, "query_tables", lambda queries: tables)
    return pq.quantized_query_tables(None)


def lut_cases():
    rng = np.random.default_rng(30)
    cases = {}
    for k_sub in (16, 256):  # the 4-bit and 8-bit tables, m = 7
        scales = np.geomspace(0.01, 100.0, 6)[:, None, None]
        cases[f"random-{k_sub}"] = rng.standard_normal((6, 7, k_sub)) * scales
        cases[f"constant-{k_sub}"] = np.full((2, 7, k_sub), 0.375)
        # Every entry a zero of either sign: a constant table, scale 1.
        zeros = np.zeros((2, 7, k_sub))
        zeros[:, ::2, ::3] = -0.0
        cases[f"signed-zeros-{k_sub}"] = zeros
        # The minimum is a zero, -0.0 in some places and +0.0 in others.
        positive = np.abs(rng.standard_normal((3, 7, k_sub)))
        positive[:, 3, 5], positive[:, 1, 2], positive[1, 6, 0] = -0.0, 0.0, -0.0
        cases[f"zero-minimum-{k_sub}"] = positive
        # Integers spanning 510: scale is exactly 2, so every odd offset
        # from the minimum lands on a .5 rounding point.
        halves = rng.integers(0, 511, size=(4, 7, k_sub)).astype(np.float64)
        halves[:, 0, 0], halves[:, 0, 1] = 0.0, 510.0
        cases[f"half-points-{k_sub}"] = halves - 200.0
    return cases


@needs_kernels
@pytest.mark.parametrize("case", sorted(lut_cases()))
def test_lut_quantisation_byte_identical(monkeypatch, case):
    tables = lut_cases()[case]
    native = KERNELS.quantized_tables(tables)
    reference = reference_quantization(monkeypatch, tables)
    for got, want in zip(native, reference):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if case.startswith(("constant", "signed-zeros")):
        assert (native[1] == 1.0).all()
    if case.startswith("half-points"):
        assert (native[1] == 2.0).all()
        assert ((tables - tables.min()) % 2 == 1).any()  # .5 points do occur


@needs_kernels
@pytest.mark.parametrize("bits", [4, 8])
def test_lut_quantisation_of_real_queries(bits):
    # m = 7 (uneven subspace dims): the tables the search pass quantises,
    # from real queries and a zero query.
    vectors = corpus(n=2000, dim=30)
    queries = np.vstack([np.zeros(30), queries_near(vectors, n_queries=40)])
    index = IVFPQIndex(bits=bits, n_subspaces=7, min_train_size=256)
    index.rebuild(vectors)
    native = KERNELS.quantized_tables(index.pq.query_tables(queries))
    for got, want in zip(native, index.pq.quantized_query_tables(queries)):
        assert got.tobytes() == want.tobytes()


@needs_kernels
def test_non_finite_tables_are_left_to_numpy():
    tables = np.random.default_rng(3).standard_normal((3, 4, 16))
    for value in (np.nan, np.inf, -np.inf):
        bad = tables.copy()
        bad[2, 1, 7] = value
        assert KERNELS.quantized_tables(bad) is None


@needs_kernels
@pytest.mark.parametrize("storage_dtype", ["float64", "float32"])
@pytest.mark.parametrize("rerank", [0, 64])
@pytest.mark.parametrize("bits", [4, 8])
def test_native_pass_bitwise_identical(monkeypatch, bits, rerank, storage_dtype):
    # The serving shape: k = 50 under a 64-candidate pool, default probes,
    # a zero query (a constant LUT) among the real ones.
    vectors = corpus(n=3000, dim=24).astype(storage_dtype)
    queries = np.vstack([np.zeros(24), queries_near(vectors, n_queries=31)])
    index = IVFPQIndex(bits=bits, rerank=rerank, min_train_size=256)
    index.rebuild(vectors)
    search_both_ways(monkeypatch, index, vectors, queries, k=50)


@needs_kernels
@pytest.mark.parametrize("rerank", [0, 64])
@pytest.mark.parametrize("bits", [4, 8])
def test_native_pass_tied_coarse_distances_at_the_probe_boundary(monkeypatch, bits, rerank):
    # Cells 1, 2, 4 and 6 share one centroid, so every query ties four
    # ways on their coarse distance; near that centroid the tie set
    # straddles the 3rd probe, which must go to the smaller cells.
    vectors = corpus(n=1500, dim=16)
    index = IVFPQIndex(bits=bits, n_cells=8, n_probe=3, rerank=rerank, min_train_size=64)
    index.rebuild(vectors)
    centroids = index._centroids.copy()
    centroids[[1, 4, 6]] = centroids[2]
    index._set_centroids(centroids)
    rng = np.random.default_rng(4)
    queries = centroids[2] + 0.01 * rng.standard_normal((16, 16))
    probes = index._probe(index._coarse_distances(queries), 3)
    assert (np.sort(probes, axis=1) == [1, 2, 4]).all()
    search_both_ways(monkeypatch, index, vectors, queries, k=5)


@needs_kernels
@pytest.mark.parametrize("storage_dtype", ["float64", "float32"])
@pytest.mark.parametrize("bits", [4, 8])
def test_native_pass_short_probe_rescan_with_rerank(monkeypatch, bits, storage_dtype):
    # One probe of 16 cells rarely holds k = 60 members: the pass must
    # rescan those queries over every cell, re-rank included.
    vectors = corpus(n=400, dim=12).astype(storage_dtype)
    queries = queries_near(vectors, n_queries=16)
    index = IVFPQIndex(bits=bits, n_cells=16, n_probe=1, rerank=32, min_train_size=64)
    index.rebuild(vectors)
    coarse = index._coarse_distances(queries)
    cell_sizes = np.diff(index._cell_lists()[0])
    assert (cell_sizes[index._probe(coarse, 1)[:, 0]] < 60).any()
    d, ids = search_both_ways(monkeypatch, index, vectors, queries, k=60)
    assert (ids >= 0).all() and np.isfinite(d).all()


@needs_kernels
@pytest.mark.parametrize("bits", [4, 8])
def test_native_pass_k_above_rerank(monkeypatch, bits):
    vectors = corpus(n=2000, dim=16)
    queries = queries_near(vectors, n_queries=20)
    index = IVFPQIndex(bits=bits, rerank=16, min_train_size=64)
    index.rebuild(vectors)
    search_both_ways(monkeypatch, index, vectors, queries, k=40)


@needs_kernels
@pytest.mark.parametrize("rerank", [0, 64])
def test_native_pass_nan_query_falls_back_to_numpy(monkeypatch, rerank):
    # A NaN query makes its coarse distances and LUT NaN, which the
    # (distance, id) order does not cover: the pass reports it and the
    # chunk is answered from NumPy, so both legs return the same rows.
    vectors = corpus(n=2000, dim=16)
    queries = queries_near(vectors, n_queries=6)
    queries[2, 5] = np.nan
    index = IVFPQIndex(rerank=rerank, min_train_size=64)
    index.rebuild(vectors)
    found = KERNELS.search_topk(
        coarse=index._coarse_distances(queries),
        tables=index.pq.query_tables(queries),
        layout=index._scan_layout(),
        n_probe=index.n_probe,
        packed=index.pq.packed,
        n_select=64,
        k=10,
    )
    assert found is None
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        d, ids = search_both_ways(monkeypatch, index, vectors, queries, k=10)
    assert np.isnan(d[2]).all() and np.isfinite(np.delete(d, 2, axis=0)).all()


@needs_kernels
@pytest.mark.parametrize("bits", [4, 8])
def test_raw_scan_sums_match_numpy(bits):
    vectors = corpus(n=1200, dim=16, seed=9)
    queries = queries_near(vectors, n_queries=4, seed=10)
    index = IVFPQIndex(bits=bits, rerank=0, min_train_size=128)
    index.rebuild(vectors)
    lut_u8, _, _ = index.pq.quantized_query_tables(queries)
    _, members, _, codes_t = index._scan_layout()

    packed = bits <= 4
    rows = index._code_buffer[: index._n][members]
    codes = index.pq.unpack_codes(rows) if packed else rows
    expected = (
        lut_u8[0][np.arange(index.pq.n_subspaces), codes.astype(np.int64)]
        .sum(axis=1, dtype=np.uint32)
    )
    sums = KERNELS.scan_sums(codes_t, lut_u8[0], packed=packed)
    np.testing.assert_array_equal(sums, expected)
    # A windowed scan must see the same columns.
    window = KERNELS.scan_sums(codes_t, lut_u8[0], packed=packed, start=100, count=64)
    np.testing.assert_array_equal(window, expected[100:164])


# ------------------------------------------------------- training-pass parity
def train_both_ways(monkeypatch, train):
    """``train()`` on the native training passes and on the NumPy
    reference (the kernels patched away); returns both results."""
    with monkeypatch.context() as patch:
        patch.setattr(kern, "ivfpq_kernels", lambda: None)
        reference = train()
    return train(), reference


def assert_same_bits(native, reference):
    """Equal arrays, NaNs in the same places and zeros of the same sign."""
    native, reference = np.asarray(native), np.asarray(reference)
    assert native.dtype == reference.dtype and native.shape == reference.shape
    assert np.array_equal(native, reference, equal_nan=True)
    assert np.array_equal(np.signbit(native), np.signbit(reference))


def assert_same_state(native, reference):
    assert set(native) == set(reference)
    for name in native:
        assert_same_bits(native[name], reference[name])


@needs_kernels
@pytest.mark.parametrize(
    "case", ["ragged_tail", "pq_subspace_view", "float32_centroids", "duplicates"]
)
def test_nearest_centroids_bitwise_identical(monkeypatch, case):
    rows = 3 * index_mod._ASSIGN_BLOCK_ROWS + 37
    vectors = corpus(rows, 24, seed=4)
    centroids = vectors[::97].copy()
    centroids_sq = None
    if case == "pq_subspace_view":
        vectors, centroids = vectors[:, 5:9], centroids[:, 5:9].copy()
    elif case == "float32_centroids":
        # The packed engine's coarse centroids and norms are float32.
        centroids = centroids.astype(np.float32)
        centroids_sq = np.einsum("ij,ij->i", centroids, centroids)
    elif case == "duplicates":
        vectors = np.repeat(vectors[:7], rows // 7 + 1, axis=0)[:rows]
        centroids = np.concatenate([vectors[:7], vectors[:3]])  # tied cells
    native, reference = train_both_ways(
        monkeypatch, lambda: index_mod._nearest_centroids(vectors, centroids, centroids_sq)
    )
    for got, want in zip(native, reference):
        assert_same_bits(got, want)


@needs_kernels
def test_nearest_centroid_pass_nan_inf_and_signed_zeros():
    # Hand-made GEMM blocks: NumPy's argmin takes the first NaN, else the
    # first minimum (-0.0 and +0.0 tie); a row of +inf distances (row 0)
    # picks cell 0.
    rng = np.random.default_rng(0)
    values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 0.5])
    for n_cells in (1, 3, 16, 17, 40):
        inner = rng.choice(values, size=(64, n_cells))
        inner[0] = -np.inf
        rows_sq = rng.choice(values[:6], size=64)
        cells_sq = rng.choice(values[:4], size=n_cells)
        rows_sq[0] = 0.0
        with np.errstate(invalid="ignore"):
            d = ((inner * -2.0) + rows_sq[:, None]) + cells_sq[None, :]
        want_cells = d.argmin(axis=1)
        cells, nearest = np.empty(64, dtype=np.int64), np.empty(64)
        KERNELS.nearest_centroid_pass(inner, rows_sq, cells_sq, cells, nearest)(0, 64)
        np.testing.assert_array_equal(cells, want_cells)
        assert cells[0] == 0 and nearest[0] == np.inf
        assert_same_bits(nearest, np.take_along_axis(d, want_cells[:, None], axis=1)[:, 0])


@needs_kernels
def test_training_passes_check_their_buffers():
    # The kernels index raw addresses blind: shapes, dtypes and the row
    # window are checked before any address is used.
    gemm, rows_sq, cells_sq = np.zeros((4, 3)), np.zeros(10), np.zeros(3)
    cells, nearest = np.empty(10, dtype=np.int64), np.empty(10)
    assign = KERNELS.nearest_centroid_pass(gemm, rows_sq, cells_sq, cells, nearest)
    for start, stop in [(0, 5), (8, 11), (3, 2), (-1, 2)]:
        with pytest.raises(ValueError):
            assign(start, stop)
    assign(8, 10)
    with pytest.raises(ValueError):
        KERNELS.nearest_centroid_pass(gemm, rows_sq, cells_sq, cells[:9], nearest)
    with pytest.raises(ValueError):
        KERNELS.nearest_centroid_pass(gemm, rows_sq, cells_sq, cells.astype(np.int32), nearest)
    with pytest.raises(ValueError):
        KERNELS.seeding(np.zeros(10), np.zeros(9), np.zeros(10))
    with pytest.raises(ValueError):
        KERNELS.seeding(np.zeros((10, 1))[::2, 0], np.zeros(5), np.zeros(5))


@needs_kernels
def test_seeding_steps_match_numpy_semantics():
    rng = np.random.default_rng(1)
    values = np.array([0.0, -0.0, 0.25, 3.0, np.inf, np.nan])
    n = 301
    gemv, rows_sq = rng.choice(values, n), rng.choice(values[:5], n)
    closest = rng.choice(values, n)
    want = closest.copy()
    cover, pick = KERNELS.seeding(gemv, rows_sq, closest)
    for seed_sq in (0.5, -0.0, 0.0):  # -0.0 makes -0.0 distances
        with np.errstate(invalid="ignore"):
            fresh = ((gemv * -2.0) + rows_sq) + seed_sq
        np.maximum(fresh, 0.0, out=fresh)
        np.minimum(want, fresh, out=want)
        cover(seed_sq)
        assert_same_bits(closest, want)
    weights = rng.random(n)
    weights[::7] = 0.0
    closest[:] = weights
    running = np.cumsum(weights)
    for u in [0.0, -1.0, running[0], running[150], running[-1], running[-1] * 2, np.inf, np.nan]:
        assert pick(u) == int(np.searchsorted(running, u)), u


@needs_kernels
def test_kmeans_duplicates_force_uniform_seeds_and_empty_reseeds(monkeypatch):
    # Seven distinct rows and sixteen cells: seeding runs out of D^2 mass
    # (the uniform fallback) and Lloyd's step leaves cells empty (reseed).
    vectors = np.repeat(corpus(7, 6, seed=5), 40, axis=0)
    native, reference = train_both_ways(
        monkeypatch, lambda: index_mod._kmeans(vectors, 16, n_iter=4, seed=3)
    )
    assert_same_bits(native, reference)


@needs_kernels
@pytest.mark.parametrize(
    "knobs, dim",
    [
        (dict(bits=8), 24),
        (dict(bits=4), 24),
        (dict(bits=8, n_subspaces=5), 23),  # subspaces of 5 and 4 dimensions
        (dict(bits=4, n_subspaces=7), 23),
    ],
)
def test_index_training_state_bitwise_identical(monkeypatch, knobs, dim):
    vectors = corpus(2500, dim, seed=6)

    def train():
        index = IVFPQIndex(min_train_size=64, **knobs)
        index.rebuild(vectors)
        rebuilt = index.state()
        index.retrain(vectors, sample_size=900)
        return rebuilt, index.state()

    native, reference = train_both_ways(monkeypatch, train)
    for got, want in zip(native, reference):
        assert_same_state(got, want)


# ---------------------------------------------------------- fallback + status
def test_forced_fallback_runs_numpy_path(tmp_path):
    # CC=/bin/false + an empty cache directory: the build must fail and the
    # failure must latch to the NumPy path (searches still work).  A
    # subprocess is required because ivfpq_kernels() latches per process.
    code = "\n".join(
        [
            "import numpy as np",
            "from repro.core.index import IVFPQIndex",
            "from repro.core.index_bench import clustered_corpus",
            "from repro.core.kernels import ivfpq_kernels, kernel_status",
            "assert ivfpq_kernels() is None",
            "status = kernel_status()",
            "assert status['active'] is False",
            "vectors = clustered_corpus(1200, 16, seed=3)",
            "index = IVFPQIndex(min_train_size=64, rerank=0)",
            "index.rebuild(vectors)",
            "assert not index.kernels_active()",
            "d, ids = index.search(None, vectors[:8], 5)",
            "assert ids.shape == (8, 5)",
            "print('fallback-ok')",
        ]
    )
    env = dict(os.environ)
    env.update(CC="/bin/false", REPRO_KERNEL_CACHE=str(tmp_path / "kcache"))
    env.pop("REPRO_DISABLE_KERNELS", None)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert "fallback-ok" in result.stdout


def test_kernel_status_shape():
    status = kern.kernel_status()
    assert set(status) == {
        "compiler", "compiler_available", "active", "source_hash", "cache_dir"
    }
    assert status["active"] is (kern.ivfpq_kernels() is not None)
    assert isinstance(status["compiler_available"], bool)
    assert len(status["source_hash"]) == 16


@pytest.mark.parametrize("built", [True, False], ids=["built", "failed"])
def test_status_and_dispatch_follow_the_latched_build(monkeypatch, built):
    # The build latches its first answer; setting REPRO_DISABLE_KERNELS
    # afterwards must change neither what scans run on nor what the status
    # reports, so the two always agree.
    monkeypatch.setattr(kern._latch, "attempted", True)
    monkeypatch.setattr(kern._latch, "value", object() if built else None)
    monkeypatch.setenv("REPRO_DISABLE_KERNELS", "1")
    assert kern.kernel_status()["active"] is built
    assert IVFPQIndex().kernels_active() is built
    assert ExactIndex().kernels_active() is built


def test_exact_shard_scans_are_labelled_by_their_dispatch():
    # The shard-scan histogram splits by native dispatch; an exact store
    # must land under native="yes" exactly when the kernels built.
    from repro.core.reference_store import ReferenceStore
    from repro.obs import MetricsRegistry

    vectors = corpus(n=400, dim=8)
    store = ReferenceStore(8, n_shards=2)
    store.add(vectors, [f"page-{i % 8}" for i in range(400)])
    registry = MetricsRegistry()
    store.attach_metrics(registry)
    store.search(vectors[:3], 5)
    scans = registry.get("repro_store_shard_scan_seconds")
    native = "yes" if KERNELS is not None else "no"
    assert scans.count(native=native) == 2
    assert scans.count(native={"yes": "no", "no": "yes"}[native]) == 0


@pytest.mark.parametrize("module, getter", [
    ("repro.nn.kernels", "lstm_kernels"),
    ("repro.core.kernels", "ivfpq_kernels"),
    ("repro.traces.kernels", "extraction_kernels"),
])
def test_first_callers_on_two_threads_both_get_the_library(monkeypatch, module, getter):
    # A caller that arrives while another thread is still building must
    # wait for that build, not read "no kernels" and run NumPy for good.
    kernels_module = importlib.import_module(module)
    library = object()
    started = threading.Event()

    def slow_build():
        started.set()
        time.sleep(0.3)
        return library

    monkeypatch.delenv("REPRO_DISABLE_KERNELS", raising=False)
    monkeypatch.setattr(kernels_module, "_latch", KernelLatch(slow_build))
    got = []
    first = threading.Thread(target=lambda: got.append(getattr(kernels_module, getter)()))
    first.start()
    assert started.wait(5)
    second = getattr(kernels_module, getter)()
    first.join()
    assert got == [library] and second is library


def test_latch_holds_a_failed_or_disabled_build_as_none(monkeypatch):
    calls = []

    def failing_build():
        calls.append(1)
        raise OSError("no compiler")

    latch = KernelLatch(failing_build)
    assert latch() is None and latch() is None and calls == [1] and latch.attempted
    monkeypatch.setenv("REPRO_DISABLE_KERNELS", "1")
    disabled = KernelLatch(lambda: calls.append(2) or object())
    assert disabled() is None and calls == [1] and disabled.attempted


def test_kernel_cache_dir_override(monkeypatch, tmp_path):
    target = tmp_path / "kernels-here"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(target))
    assert kernel_cache_dir() == target
    assert target.is_dir()


def test_no_build_artifacts_in_source_tree():
    # The whole point of repro.kernel_cache: compiled objects never land in
    # the git-tracked tree again (one .so got committed once).
    assert not list(SRC_DIR.rglob("*.so"))


def test_knobs_survive_spec_roundtrip():
    vectors = corpus(n=800, dim=12)
    for index in (
        IVFPQIndex(n_cells=8, min_train_size=64),
        IVFPQIndex(n_cells=8, n_probe=3, bits=4, rerank=0, min_train_size=64),
    ):
        index.rebuild(vectors)
        clone = index_from_spec(index.spec())
        assert clone.spec() == index.spec()
