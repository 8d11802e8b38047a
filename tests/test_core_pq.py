"""Product quantization: codebooks, the IVF-PQ engine, float32 stores.

Covers the compressed-index contract end to end at the core layer:
ADC + exact re-rank agreement with :class:`ExactIndex`, recall lower
bounds without re-rank, add/remove keeping codes consistent with the
store buffer, spec/state persistence round-trips (flat store archives),
the float32 storage path, the k-means++ seeding shared by both
quantizers, the blocked nearest-centroid passes that bound training
memory, and shards that train side by side to the state each gets alone.
"""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.index import (
    _ASSIGN_BLOCK_ROWS,
    ExactIndex,
    IVFPQIndex,
    ProductQuantizer,
    _kmeans,
    _nearest_centroids,
    index_from_spec,
    squared_euclidean_distances,
)
from repro.core import reference_store as reference_store_module
from repro.core.index_bench import clustered_corpus
from repro.core.reference_store import ReferenceStore


def corpus(n=3000, dim=24, seed=1):
    return clustered_corpus(n, dim, n_clusters=max(8, n // 50), seed=seed)


def queries_near(vectors, n_queries=64, seed=2, noise=0.1):
    rng = np.random.default_rng(seed)
    picks = vectors[rng.choice(vectors.shape[0], n_queries, replace=False)]
    return picks + noise * rng.standard_normal(picks.shape)


def recall(ids, exact_ids):
    k = ids.shape[1]
    return np.mean(
        [np.intersect1d(ids[q], exact_ids[q]).size / k for q in range(ids.shape[0])]
    )


class TestProductQuantizer:
    def test_decode_is_closer_than_shuffled_codes(self):
        vectors = corpus(2000, 24)
        pq = ProductQuantizer(n_subspaces=6, bits=6, seed=0)
        pq.fit(vectors)
        codes = pq.encode(vectors)
        decoded = pq.decode(codes)
        err = np.linalg.norm(vectors - decoded, axis=1).mean()
        rng = np.random.default_rng(0)
        shuffled = pq.decode(codes[rng.permutation(codes.shape[0])])
        err_shuffled = np.linalg.norm(vectors - shuffled, axis=1).mean()
        assert err < 0.5 * err_shuffled  # codes carry real geometry

    def test_uneven_subspace_split(self):
        vectors = corpus(600, 13)  # 13 dims across 4 subspaces -> 4,3,3,3
        pq = ProductQuantizer(n_subspaces=4, bits=4)
        pq.fit(vectors)
        assert pq._sub_dims.tolist() == [4, 3, 3, 3]
        decoded = pq.decode(pq.encode(vectors))
        assert decoded.shape == vectors.shape

    def test_codes_are_uint8_and_bounded(self):
        vectors = corpus(800, 16)
        pq = ProductQuantizer(n_subspaces=4, bits=5)
        pq.fit(vectors)
        codes = pq.encode(vectors)
        assert codes.dtype == np.uint8
        assert codes.max() < 2**5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProductQuantizer(n_subspaces=0)
        with pytest.raises(ValueError):
            ProductQuantizer(bits=9)
        with pytest.raises(ValueError):
            ProductQuantizer(bits=0)
        pq = ProductQuantizer(n_subspaces=40)
        with pytest.raises(ValueError):
            pq.fit(corpus(500, 16))  # more subspaces than dimensions
        with pytest.raises(RuntimeError):
            ProductQuantizer().encode(corpus(10, 16))

    def test_query_tables_match_decoded_inner_products(self):
        vectors = corpus(1500, 16)
        pq = ProductQuantizer(n_subspaces=4, seed=0)
        pq.fit(vectors)
        q = queries_near(vectors, 8)
        codes = pq.encode(vectors[:50])
        tables = pq.query_tables(q)
        # sum_j table[q, j, code_j] must equal q . decode(code) — the
        # identity the ADC decomposition relies on.
        gathered = sum(tables[:, j, codes[:, j]] for j in range(4))
        assert np.allclose(gathered, q @ pq.decode(codes).T)


class TestIVFPQIndex:
    def test_full_probe_rerank_matches_exact_bitwise(self):
        vectors = corpus(4000, 24)
        q = queries_near(vectors)
        pq = IVFPQIndex(n_cells=16, n_probe=16, rerank=64, min_train_size=16)
        pq.rebuild(vectors)
        d_pq, i_pq = pq.search(vectors, q, 10)
        d_ex, i_ex = ExactIndex().search(vectors, q, 10)
        # Every cell probed and rerank (64) well above k: the true top-10
        # sit inside the re-ranked pool, so the returned ranking is the
        # exact ranking (ids bit-for-bit; distances to fp rounding).
        assert np.array_equal(i_pq, i_ex)
        assert np.allclose(d_pq, d_ex)

    def test_partial_probe_recall_with_rerank(self):
        vectors = corpus(4000, 24)
        q = queries_near(vectors)
        pq = IVFPQIndex(min_train_size=16)  # engine defaults, rerank=64
        pq.rebuild(vectors)
        _, i_pq = pq.search(vectors, q, 10)
        _, i_ex = ExactIndex().search(vectors, q, 10)
        assert recall(i_pq, i_ex) >= 0.95

    def test_adc_only_recall_lower_bound(self):
        vectors = corpus(4000, 24)
        q = queries_near(vectors)
        pq = IVFPQIndex(rerank=0, min_train_size=16)
        pq.rebuild(vectors)
        _, i_pq = pq.search(None, q, 10)  # never touches raw vectors
        _, i_ex = ExactIndex().search(vectors, q, 10)
        assert recall(i_pq, i_ex) >= 0.6

    def test_rerank_without_vectors_raises(self):
        vectors = corpus(1000, 16)
        pq = IVFPQIndex(rerank=8, min_train_size=16)
        pq.rebuild(vectors)
        with pytest.raises(ValueError):
            pq.search(None, vectors[:3], 5)

    def test_untrained_falls_back_to_exact(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((60, 8))
        pq = IVFPQIndex(min_train_size=256)
        pq.rebuild(vectors)
        assert not pq.trained
        d1, i1 = pq.search(vectors, vectors[:5], 4)
        d2, i2 = ExactIndex().search(vectors, vectors[:5], 4)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2)
        with pytest.raises(ValueError):
            pq.search(None, vectors[:5], 4)

    def test_add_encodes_with_existing_codebooks(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(n_cells=32, min_train_size=16)
        pq.rebuild(vectors)
        centroids = pq._centroids.copy()
        extra = corpus(200, 16, seed=9)
        grown = np.concatenate([vectors, extra])
        pq.add(grown, 200)
        # Retraining-free: centroids and codebooks untouched, codes appended.
        assert np.array_equal(pq._centroids, centroids)
        assert pq._n == 2200
        assigned = pq._assign_buffer[2000:2200]
        expected = pq.pq.encode(extra - centroids[assigned])
        assert np.array_equal(pq.codes[2000:2200], expected)

    def test_remove_compacts_codes_consistently(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(n_cells=32, min_train_size=16)
        pq.rebuild(vectors)
        before_codes = pq.codes.copy()
        before_consts = pq._const_buffer[:2000].copy()
        kept_mask = np.ones(2000, dtype=bool)
        kept_mask[300:700] = False
        pq.remove(kept_mask)
        assert pq._n == 1600
        assert np.array_equal(pq.codes, before_codes[kept_mask])
        assert np.array_equal(pq._const_buffer[:1600], before_consts[kept_mask])
        kept = vectors[kept_mask]
        _, ids = pq.search(kept, kept[:4], 1)
        assert np.array_equal(ids[:, 0], np.arange(4))

    def test_spec_roundtrip(self):
        pq = IVFPQIndex(n_cells=11, n_probe=3, n_subspaces=4, bits=6, rerank=17, seed=5)
        clone = index_from_spec(pq.spec())
        assert isinstance(clone, IVFPQIndex)
        assert clone.spec() == pq.spec()

    def test_state_roundtrip_search_identical(self):
        vectors = corpus(2500, 16)
        pq = IVFPQIndex(min_train_size=16)
        pq.rebuild(vectors)
        q = queries_near(vectors, 32)
        d1, i1 = pq.search(vectors, q, 8)
        clone = index_from_spec(pq.spec())
        clone.load_state({k: v.copy() for k, v in pq.state().items()})
        d2, i2 = clone.search(vectors, q, 8)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IVFPQIndex(n_cells=0)
        with pytest.raises(ValueError):
            IVFPQIndex(n_probe=0)
        with pytest.raises(ValueError):
            IVFPQIndex(rerank=-1)

    def test_inconsistent_state_rejected(self):
        vectors = corpus(600, 8)
        pq = IVFPQIndex(min_train_size=16)
        pq.rebuild(vectors)
        state = {k: v.copy() for k, v in pq.state().items()}
        state["assignments"] = state["assignments"][:-5]  # codes/assignments disagree
        with pytest.raises(ValueError):
            index_from_spec(pq.spec()).load_state(state)


class TestStoreArchivePersistence:
    def test_save_load_restores_codebooks_without_retrain(self, tmp_path):
        vectors = corpus(2000, 16)
        labels = [f"c{i % 25}" for i in range(2000)]
        store = ReferenceStore(16, index_factory=lambda: IVFPQIndex(min_train_size=16))
        store.add(vectors, labels)
        q = queries_near(vectors, 32)
        d1, i1 = store.search(q, 7)
        path = store.save(tmp_path / "refs.npz")

        restored = ReferenceStore.load(path, index_factory=store.index_factory)
        # The trained state was adopted, not re-learned.
        assert np.array_equal(restored.index._centroids, store.index._centroids)
        assert np.array_equal(restored.index.codes, store.index.codes)
        d2, i2 = restored.search(q, 7)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2)
        assert list(restored.labels) == labels

    def test_load_with_mismatched_index_retrains(self, tmp_path):
        vectors = corpus(1200, 16)
        store = ReferenceStore(16, index_factory=lambda: IVFPQIndex(min_train_size=16))
        store.add(vectors, ["x"] * 1200)
        path = store.save(tmp_path / "refs.npz")
        # Loading the same archive into an exact index must reject the PQ
        # state and serve the rows it holds exactly.
        restored = ReferenceStore.load(path, index_factory=ExactIndex)
        assert isinstance(restored.index, ExactIndex)
        d, i = restored.search(vectors[:3], 4)
        d_exact, i_exact = ExactIndex().search(vectors, vectors[:3], 4)
        assert np.array_equal(i, i_exact) and np.array_equal(d, d_exact)

    def test_load_with_different_pq_shape_retrains(self, tmp_path):
        vectors = corpus(1200, 16)
        store = ReferenceStore(
            16, index_factory=lambda: IVFPQIndex(n_subspaces=8, min_train_size=16)
        )
        store.add(vectors, ["x"] * 1200)
        path = store.save(tmp_path / "refs8.npz")
        # Same kind, different code geometry: the stale state must be
        # rejected at load time and the index retrained with its own shape.
        restored = ReferenceStore.load(
            path, index_factory=lambda: IVFPQIndex(n_subspaces=4, min_train_size=16)
        )
        assert restored.index.trained
        assert restored.index.codes.shape[1] == 4
        d, i = restored.search(vectors[:3], 4)
        assert d.shape == (3, 4)

    def test_save_load_roundtrip_after_churn(self, tmp_path):
        vectors = corpus(2000, 16)
        labels = [f"c{i % 20}" for i in range(2000)]
        store = ReferenceStore(16, index_factory=lambda: IVFPQIndex(min_train_size=16))
        store.add(vectors, labels)
        rng = np.random.default_rng(4)
        store.remove_class("c3")
        store.replace_class("c5", rng.standard_normal((40, 16)) + vectors[:40])
        store.add(rng.standard_normal((30, 16)) + vectors[:30], ["brand-new"] * 30)
        q = queries_near(vectors, 32)
        d1, i1 = store.search(q, 9)
        restored = ReferenceStore.load(
            store.save(tmp_path / "churned.npz"), index_factory=store.index_factory
        )
        d2, i2 = restored.search(q, 9)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2)


class TestFloat32Store:
    def test_buffer_and_view_dtype(self):
        store = ReferenceStore(8, storage_dtype="float32")
        store.add(np.ones((3, 8)), ["a", "b", "a"])
        assert store.embeddings.dtype == np.float32
        assert store.storage_dtype == "float32"
        assert store.embeddings.nbytes == 3 * 8 * 4

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError):
            ReferenceStore(8, storage_dtype="float16")

    def test_search_matches_float64_within_tolerance(self):
        vectors = corpus(1500, 16)
        labels = [f"c{i % 10}" for i in range(1500)]
        f64 = ReferenceStore(16)
        f32 = ReferenceStore(16, storage_dtype="float32")
        f64.add(vectors, labels)
        f32.add(vectors, labels)
        q = queries_near(vectors, 48)
        d64, i64 = f64.search(q, 10)
        d32, i32 = f32.search(q, 10)
        assert np.allclose(d64, d32, rtol=1e-4, atol=1e-3)
        # On continuous data the ranking survives the precision drop.
        assert (i64 == i32).mean() > 0.99

    def test_clone_and_save_preserve_dtype(self, tmp_path):
        store = ReferenceStore(8, storage_dtype="float32")
        store.add(np.ones((4, 8)), ["a"] * 4)
        clone = store.with_changes([("replace", "a", np.zeros((2, 8)))])
        assert clone.storage_dtype == "float32"
        assert clone.embeddings.dtype == np.float32
        restored = ReferenceStore.load(store.save(tmp_path / "f32.npz"))
        assert restored.storage_dtype == "float32"
        assert restored.embeddings.dtype == np.float32

    def test_ivfpq_over_float32_store(self):
        vectors = corpus(2000, 16)
        labels = [f"c{i % 20}" for i in range(2000)]
        store = ReferenceStore(
            16, index_factory=lambda: IVFPQIndex(min_train_size=16), storage_dtype="float32"
        )
        store.add(vectors, labels)
        exact = ReferenceStore(16)
        exact.add(vectors, labels)
        q = queries_near(vectors, 32)
        _, i_pq = store.search(q, 10)
        _, i_ex = exact.search(q, 10)
        assert recall(i_pq, i_ex) >= 0.95


class TestKMeansPlusPlusSeeding:
    def test_cells_less_skewed_than_random_init(self):
        # Clustered corpus: random seeding routinely drops several seeds in
        # one dense cluster, leaving skewed cells; k-means++ spreads them.
        def skew(init, seed):
            vectors = clustered_corpus(2000, 12, n_clusters=16, seed=seed)
            centroids = _kmeans(vectors, 16, n_iter=4, seed=seed, init=init)
            assignments = _nearest_centroids(vectors, centroids)[0]
            counts = np.bincount(assignments, minlength=16)
            return counts.std() / counts.mean()

        seeds = range(3)
        skew_pp = np.mean([skew("kmeans++", s) for s in seeds])
        skew_random = np.mean([skew("random", s) for s in seeds])
        assert skew_pp < skew_random

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            _kmeans(np.zeros((10, 2)), 2, init="magic")


class TestBlockedTraining:
    def test_blocked_assignment_matches_the_full_distance_matrix(self):
        # Strided columns, like a PQ subspace view, over several blocks
        # plus a ragged tail.
        vectors = corpus(3 * _ASSIGN_BLOCK_ROWS + 37, 24)[:, 5:13]
        centroids = vectors[::97].copy()
        full = squared_euclidean_distances(vectors, centroids)
        cells, nearest = _nearest_centroids(vectors, centroids)
        assert np.array_equal(cells, np.argmin(full, axis=1))
        assert np.array_equal(nearest, full.min(axis=1))

    def test_rebuild_footprint_is_bounded_and_state_deterministic(self):
        # A full-size (rows, cells) float64 matrix per Lloyd pass peaked at
        # ~44 MB here; blocked passes keep it to a few blocks.
        vectors = clustered_corpus(5000, 32)
        tracemalloc.start()
        try:
            first = IVFPQIndex(bits=8, rerank=64)
            first.rebuild(vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"rebuild peaked at {peak / 2**20:.1f} MB"
        second = IVFPQIndex(bits=8, rerank=64)
        second.rebuild(vectors)
        state, again = first.state(), second.state()
        assert set(state) == set(again)
        for name in state:
            assert np.array_equal(state[name], again[name], equal_nan=True), name


def assert_same_state(state, again):
    assert set(state) == set(again)
    for name in state:
        assert np.array_equal(state[name], again[name], equal_nan=True), name


class RecordingIndex(IVFPQIndex):
    """An IVF-PQ index that records the thread each training ran on and,
    given a barrier, trains only once that many trainings run at once
    (class attributes, which copies of the index share)."""

    trained_on = []
    barrier = None

    def __init__(self):
        super().__init__(bits=4, min_train_size=64)

    def _train(self, vectors, sample_size=None):
        self.trained_on.append(threading.get_ident())
        if self.barrier is not None:
            self.barrier.wait()
        super()._train(vectors, sample_size)


class TestConcurrentShardTraining:
    """A store update or requantize that trains several shards runs each on
    its own thread, joined before the call returns; each shard ends with
    the state it gets trained alone, and one-shard updates stay inline."""

    @pytest.fixture(autouse=True)
    def fresh_record(self, monkeypatch):
        monkeypatch.setattr(RecordingIndex, "trained_on", [])
        monkeypatch.setattr(RecordingIndex, "barrier", None)

    @staticmethod
    def sharded(n_shards):
        vectors = corpus(4000, 16)
        flat = ReferenceStore(16)
        flat.add(vectors, [f"c{i % 40}" for i in range(4000)])
        return ReferenceStore.from_reference_store(flat, n_shards, index_factory=RecordingIndex)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_each_shard_trains_as_it_would_alone(self, monkeypatch, n_shards):
        monkeypatch.setattr(os, "cpu_count", lambda: n_shards)  # a thread per shard
        # Every shard's training waits until all of them run at once.
        monkeypatch.setattr(RecordingIndex, "barrier", threading.Barrier(n_shards, timeout=60))
        before = set(threading.enumerate())
        store = self.sharded(n_shards)
        requantized = store.with_requantized(sample_size=600)
        assert set(threading.enumerate()) == before  # every pool thread joined
        assert len(RecordingIndex.trained_on) == 2 * n_shards
        assert len(set(RecordingIndex.trained_on[:n_shards])) == n_shards
        monkeypatch.setattr(RecordingIndex, "barrier", None)
        for shard, again in zip(store._shards, requantized._shards):
            alone = IVFPQIndex(bits=4, min_train_size=64)
            alone.rebuild(shard.vectors)
            assert_same_state(shard.index.state(), alone.state())
            alone.retrain(again.vectors, sample_size=600)
            assert_same_state(again.index.state(), alone.state())

    def test_one_shard_update_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        store = self.sharded(2)
        pools = []
        real_pool = reference_store_module.ThreadPoolExecutor
        monkeypatch.setattr(
            reference_store_module,
            "ThreadPoolExecutor",
            lambda *args, **kwargs: pools.append(args) or real_pool(*args, **kwargs),
        )
        rows = corpus(300, 16, seed=9)
        store.with_changes([("replace", "c0", rows[:30])])
        assert pools == []
        # One add whose rows land on both shards: one pool for the append.
        shard_of = store._class_shard
        first = next(label for label in store.class_names if shard_of[label] == 0)
        second = next(label for label in store.class_names if shard_of[label] == 1)
        store.with_changes([("add", [first] * 30 + [second] * 30, rows[:60])])
        assert len(pools) == 1

    def test_every_item_runs_once_under_contention(self, monkeypatch):
        # More threads than cores, switching often: the shared queue hands
        # each item to exactly one thread, and every thread is joined.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = set(threading.enumerate())
            reference_store_module._on_each(seen.append, list(range(500)))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(500))
        assert set(threading.enumerate()) == before

    def test_a_failing_shard_raises_after_every_shard_finished(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        store = self.sharded(2)
        done = []

        def retrain(self, vectors, *, sample_size=None):
            if not done:
                done.append("first")
                raise RuntimeError("shard failed")
            done.append("second")

        monkeypatch.setattr(RecordingIndex, "retrain", retrain)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="shard failed"):
            store.with_requantized()
        assert sorted(done) == ["first", "second"]
        assert set(threading.enumerate()) == before


class TestPackedPQ:
    def test_pack_unpack_roundtrip_even_and_odd(self):
        from repro.core.index import PackedPQ

        rng = np.random.default_rng(0)
        for m in (4, 5, 8, 9):
            pq = PackedPQ(n_subspaces=m)
            codes = rng.integers(0, 16, size=(37, m)).astype(np.uint8)
            packed = pq.pack_codes(codes)
            assert packed.shape == (37, (m + 1) // 2)
            assert np.array_equal(pq.unpack_codes(packed), codes)

    def test_code_width_halves_storage(self):
        from repro.core.index import PackedPQ

        pq = PackedPQ(n_subspaces=8)
        assert pq.code_width == 4
        assert ProductQuantizer(n_subspaces=8).code_width == 8

    def test_bits_above_four_rejected(self):
        from repro.core.index import PackedPQ

        with pytest.raises(ValueError):
            PackedPQ(bits=5)
        with pytest.raises(ValueError):
            PackedPQ(bits=0)

    def test_quantized_tables_reconstruct_float_tables(self):
        from repro.core.index import PackedPQ

        vectors = corpus(2000, 16)
        pq = PackedPQ(n_subspaces=4)
        pq.fit(vectors)
        q = queries_near(vectors, 16)
        exact_tables = pq.query_tables(q)
        lut, scale, bias = pq.quantized_query_tables(q)
        assert lut.dtype == np.uint8
        approx = scale[:, None, None].astype(np.float64) * lut + bias[:, None, None]
        # Affine uint8 quantization: within half a step of the float table.
        spread = exact_tables.max(axis=(1, 2)) - exact_tables.min(axis=(1, 2))
        assert np.all(np.abs(approx - exact_tables) <= spread[:, None, None] / 255.0)


class TestPacked4BitIndex:
    def test_full_probe_rerank_matches_exact_bitwise(self):
        vectors = corpus(4000, 24)
        q = queries_near(vectors)
        pq = IVFPQIndex(n_cells=16, n_probe=16, bits=4, rerank=128, min_train_size=16)
        pq.rebuild(vectors)
        d_pq, i_pq = pq.search(vectors, q, 10)
        d_ex, i_ex = ExactIndex().search(vectors, q, 10)
        # Full probe + a deep rerank margin over the coarser 4-bit ADC band.
        assert np.array_equal(i_pq, i_ex)
        assert np.allclose(d_pq, d_ex)

    def test_partial_probe_recall_with_rerank(self):
        vectors = corpus(4000, 24)
        q = queries_near(vectors)
        pq = IVFPQIndex(bits=4, min_train_size=16)  # engine defaults, rerank=64
        pq.rebuild(vectors)
        _, i_pq = pq.search(vectors, q, 10)
        _, i_ex = ExactIndex().search(vectors, q, 10)
        assert recall(i_pq, i_ex) >= 0.95

    def test_memory_at_most_60pct_of_8bit(self):
        vectors = corpus(6000, 24)
        narrow = IVFPQIndex(bits=4, min_train_size=16)
        wide = IVFPQIndex(bits=8, min_train_size=16)
        narrow.rebuild(vectors)
        wide.rebuild(vectors)
        # Packed codes + slim dtypes: well under the 8-bit footprint even
        # with the shared centroid overhead at this small N.
        assert narrow.memory_bytes() <= 0.6 * wide.memory_bytes()
        assert narrow.codes.shape[1] == 4  # two codes per byte

    def test_adc_only_search_never_touches_vectors(self):
        vectors = corpus(3000, 16)
        q = queries_near(vectors)
        pq = IVFPQIndex(bits=4, rerank=0, min_train_size=16)
        pq.rebuild(vectors)
        assert pq.needs_vectors is False
        _, i_pq = pq.search(None, q, 10)
        _, i_ex = ExactIndex().search(vectors, q, 10)
        assert recall(i_pq, i_ex) >= 0.5

    def test_add_remove_keep_packed_codes_consistent(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(bits=4, n_cells=12, n_probe=12, rerank=64, min_train_size=16)
        pq.rebuild(vectors)
        extra = corpus(300, 16, seed=9)
        grown = np.concatenate([vectors, extra])
        pq.add(grown, 300)
        kept = np.ones(grown.shape[0], dtype=bool)
        kept[100:400] = False
        pq.remove(kept)
        remaining = grown[kept]
        d_pq, i_pq = pq.search(remaining, queries_near(remaining, 32), 5)
        assert i_pq.shape == (32, 5)
        assert np.isfinite(d_pq).all()

    def test_state_roundtrip_search_identical(self):
        vectors = corpus(3000, 16)
        q = queries_near(vectors, 32)
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(vectors)
        clone = IVFPQIndex(bits=4, min_train_size=16)
        clone.load_state(pq.state())
        d1, i1 = pq.search(vectors, q, 10)
        d2, i2 = clone.search(vectors, q, 10)
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2)

    def test_8bit_state_rejected_by_4bit_index(self):
        vectors = corpus(1000, 16)
        wide = IVFPQIndex(bits=8, min_train_size=16)
        wide.rebuild(vectors)
        narrow = IVFPQIndex(bits=4, min_train_size=16)
        with pytest.raises(ValueError):
            narrow.load_state(wide.state())

    def test_spec_roundtrip_with_bits(self):
        pq = IVFPQIndex(bits=4, n_subspaces=4, rerank=32)
        rebuilt = index_from_spec(pq.spec())
        assert rebuilt.spec() == pq.spec()
        assert rebuilt.pq.packed

    def test_archive_roundtrip_through_reference_store(self, tmp_path):
        vectors = corpus(2000, 16)
        labels = [f"c{i % 20}" for i in range(2000)]
        store = ReferenceStore(
            16, index_factory=lambda: IVFPQIndex(bits=4, min_train_size=16)
        )
        store.add(vectors, labels)
        path = store.save(tmp_path / "packed.npz")
        loaded = ReferenceStore.load(
            path, index_factory=lambda: IVFPQIndex(bits=4, min_train_size=16)
        )
        q = queries_near(vectors, 32)
        d1, i1 = store.search(q, 10)
        d2, i2 = loaded.search(q, 10)
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2)


class TestDriftStatistics:
    def test_no_drift_signal_after_training(self):
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(corpus(2000, 16))
        assert pq.drift_ratio() == 1.0
        assert not pq.retrain_needed()

    def test_in_distribution_adds_do_not_trigger(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(vectors)
        # Same cluster centres (same seed and n_clusters as `vectors`).
        more = clustered_corpus(400, 16, n_clusters=40, seed=1)
        pq.add(np.concatenate([vectors, more]), 400)
        assert pq.drift_ratio() < 1.5
        assert not pq.retrain_needed()

    def test_shifted_adds_trigger_and_retrain_resets(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(vectors)
        shifted = clustered_corpus(400, 16, n_clusters=40, seed=77) * 1.5 + 3.0
        grown = np.concatenate([vectors, shifted])
        pq.add(grown, 400)
        assert pq.drift_ratio() > 1.5
        assert pq.retrain_needed()
        pq.retrain(grown, sample_size=1000)
        assert pq.drift_ratio() == 1.0
        assert not pq.retrain_needed()

    def test_min_samples_guard(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(vectors)
        shifted = clustered_corpus(16, 16, n_clusters=4, seed=77) * 2.0 + 5.0
        pq.add(np.concatenate([vectors, shifted]), 16)
        assert pq.drift_ratio() > 1.5
        assert not pq.retrain_needed(min_samples=64)
        assert pq.retrain_needed(min_samples=8)

    def test_drift_survives_state_roundtrip(self):
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(vectors)
        shifted = clustered_corpus(200, 16, n_clusters=20, seed=77) * 1.5 + 3.0
        pq.add(np.concatenate([vectors, shifted]), 200)
        clone = IVFPQIndex(bits=4, min_train_size=16)
        clone.load_state(pq.state())
        assert clone.retrain_needed() == pq.retrain_needed()
        assert np.isclose(clone.drift_ratio(), pq.drift_ratio())

    def test_reference_store_requantize_delegates(self):
        vectors = corpus(2000, 16)
        labels = [f"c{i % 20}" for i in range(2000)]
        store = ReferenceStore(16, index_factory=lambda: IVFPQIndex(bits=4, min_train_size=16))
        store.add(vectors, labels)
        shifted = clustered_corpus(300, 16, n_clusters=20, seed=77) * 1.5 + 3.0
        store.add(shifted, [f"c{i % 20}" for i in range(300)])
        assert store.retrain_needed()
        store = store.with_requantized(sample_size=800)
        assert not store.retrain_needed()
        assert store.index.drift_ratio() == 1.0

    def test_exact_index_never_needs_retraining(self):
        store = ReferenceStore(8)
        store.add(np.random.default_rng(0).standard_normal((100, 8)), ["a"] * 100)
        assert store.retrain_needed() is False
        store.with_requantized()  # rebuild on a stateless index: a no-op, no error

    def test_retrain_sample_size_below_cell_count(self):
        # A sample cap smaller than the resolved cell count must shrink the
        # cell count instead of crashing k-means (repro requantize
        # --sample-size exercises exactly this).
        vectors = corpus(3000, 16)
        pq = IVFPQIndex(bits=4, min_train_size=16)  # resolves ~493 cells
        pq.rebuild(vectors)
        pq.retrain(vectors, sample_size=64)
        assert pq.trained
        assert pq._centroids.shape[0] <= 64
        _, ids = pq.search(vectors, queries_near(vectors, 16), 5)
        assert ids.shape == (16, 5)

    def test_removing_drifted_rows_clears_the_signal(self):
        # Drift pressure must follow the *current* corpus: once the drifted
        # rows are removed again, retrain_needed() may not stay latched.
        vectors = corpus(2000, 16)
        pq = IVFPQIndex(bits=4, min_train_size=16)
        pq.rebuild(vectors)
        shifted = clustered_corpus(400, 16, n_clusters=40, seed=77) * 1.5 + 3.0
        grown = np.concatenate([vectors, shifted])
        pq.add(grown, 400)
        assert pq.retrain_needed()
        kept = np.ones(grown.shape[0], dtype=bool)
        kept[2000:] = False  # drop exactly the drifted rows
        pq.remove(kept)
        assert not pq.retrain_needed()
        assert pq.drift_ratio() == 1.0

    def test_ivf_retrain_honours_sample_size(self):
        # The retrain contract: sample_size caps training points while
        # every row still gets an exact assignment.
        vectors = corpus(3000, 16)
        ivf = IVFPQIndex(min_train_size=16)
        ivf.rebuild(vectors)
        ivf.retrain(vectors, sample_size=48)
        assert ivf.trained
        assert ivf._centroids.shape[0] <= 48
        assert ivf._assignments.shape[0] == 3000
        _, ids = ivf.search(vectors, queries_near(vectors, 16), 5)
        assert ids.shape == (16, 5)
        with pytest.raises(ValueError):
            ivf.retrain(vectors, sample_size=0)

    def test_large_scale_embeddings_stay_rankable(self):
        # ADC member constants beyond float16 range are clipped, not
        # overflowed to inf: every row stays in the candidate pool and a
        # deeper rerank recovers the ranking.
        rng = np.random.default_rng(0)
        vectors = (rng.standard_normal((2000, 16)) + 5.0) * 120.0
        pq = IVFPQIndex(bits=4, rerank=256, min_train_size=16)
        pq.rebuild(vectors)
        consts = pq._const_buffer[: pq._n].astype(np.float64)
        assert np.isfinite(consts).all()
        q = vectors[:32] + rng.standard_normal((32, 16))
        _, i_pq = pq.search(vectors, q, 10)
        _, i_ex = ExactIndex().search(vectors, q, 10)
        assert recall(i_pq, i_ex) >= 0.7
