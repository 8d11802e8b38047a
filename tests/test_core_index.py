"""Tests for the nearest-neighbour index layer and the store that owns it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import (
    ExactIndex,
    IVFPQIndex,
    index_from_spec,
    sort_by_distance,
    top_k_by_distance,
)
from repro.core.index_bench import clustered_corpus
from repro.core.reference_store import ReferenceStore
from repro.core.segment import load_segment_file, write_segment_file

# The cell-index contract holds at both PQ bit widths (2 subspaces fit the
# 2-4 dim fixtures; rerank covers every row of them, so rankings are exact).
CELL_ENGINES = {
    "ivfpq-8bit": lambda **knobs: IVFPQIndex(n_subspaces=2, bits=8, rerank=512, **knobs),
    "ivfpq-4bit": lambda **knobs: IVFPQIndex(n_subspaces=2, bits=4, rerank=512, **knobs),
}
cell_engines = pytest.mark.parametrize("engine", list(CELL_ENGINES))


@st.composite
def tie_heavy_blocks(draw):
    """A ``(rows, cols)`` block of distances drawn from {0, 1, 2, 3} —
    ties everywhere, many straddling the k-th column — and a ``k`` that
    may reach or pass the row width."""
    n_rows = draw(st.integers(1, 5))
    n_cols = draw(st.integers(1, 12))
    values = draw(st.lists(st.integers(0, 3), min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    k = draw(st.integers(1, n_cols + 2))
    return np.array(values, dtype=np.float64).reshape(n_rows, n_cols), k


class TestTopK:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        distances = rng.standard_normal((20, 50)) ** 2
        for k in (1, 7, 49, 50):
            dist, idx = top_k_by_distance(distances, k)
            for row in range(20):
                expected = np.argsort(distances[row], kind="stable")[:k]
                assert np.array_equal(idx[row], expected)
                assert np.array_equal(dist[row], distances[row, expected])

    def test_boundary_ties_resolved_by_id(self):
        # Columns 0..3 all tie at distance 1; k=2 must pick ids 0 and 1.
        distances = np.array([[1.0, 1.0, 1.0, 1.0, 5.0]])
        dist, idx = top_k_by_distance(distances, 2)
        assert idx.tolist() == [[0, 1]]
        assert dist.tolist() == [[1.0, 1.0]]

    def test_k_of_larger_than_row(self):
        distances = np.array([[3.0, 1.0, 2.0]])
        dist, idx = top_k_by_distance(distances, 10)
        assert idx.tolist() == [[1, 2, 0]]

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_blocks())
    def test_matches_stable_argsort_under_drawn_ties(self, block):
        distances, k = block
        dist, idx = top_k_by_distance(distances, k)
        expected = np.argsort(distances, axis=1, kind="stable")[:, :k]
        assert np.array_equal(idx, expected)
        assert np.array_equal(dist, np.take_along_axis(distances, expected, axis=1))

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_blocks())
    def test_drawn_boundary_ties_resolved_by_id(self, block):
        distances, k = block
        _, idx = top_k_by_distance(distances, k)
        for row, picked in zip(distances, idx):
            at_kth = row[picked] == row[picked[-1]]
            # Of the columns tied at the k-th distance, the lowest ids win.
            tied = np.flatnonzero(row == row[picked[-1]])
            assert picked[at_kth].tolist() == tied[: np.count_nonzero(at_kth)].tolist()

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_blocks(), st.randoms(use_true_random=False))
    def test_sort_by_distance_orders_pairs_like_lexsort(self, block, random):
        distances, k = block
        ids = np.array([random.sample(range(100), distances.shape[1]) for _ in distances])
        got_d, got_i = sort_by_distance(distances, ids, k)
        order = np.lexsort((ids, distances), axis=1)[:, :k]
        assert np.array_equal(got_i, np.take_along_axis(ids, order, axis=1))
        assert np.array_equal(got_d, np.take_along_axis(distances, order, axis=1))


class TestExactIndex:
    def test_search_orders_by_distance_then_id(self):
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        index = ExactIndex()
        dist, idx = index.search(vectors, np.array([[0.0, 0.0]]), 3)
        assert idx.tolist() == [[0, 2, 1]]

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="'hamming'"):
            index_from_spec({"kind": "exact", "metric": "hamming"})

    def test_empty_search_raises(self):
        with pytest.raises(ValueError):
            ExactIndex().search(np.empty((0, 2)), np.zeros((1, 2)), 1)

    def test_search_rejects_rows_its_norms_do_not_cover(self):
        vectors = np.random.default_rng(0).standard_normal((50, 4))
        index = ExactIndex()
        index.rebuild(vectors)
        with pytest.raises(ValueError, match="covers 50 rows"):
            index.search(np.vstack([vectors, vectors[:10]]), vectors[:2], 3)


def assert_norms_track(index, vectors):
    """The squared norms an ExactIndex keeps are, bit for bit, the einsum
    over the rows it currently covers."""
    expected = np.einsum("ij,ij->i", vectors, vectors).astype(np.float64)
    assert index._sq.dtype == np.float64
    np.testing.assert_array_equal(index._sq, expected)


class TestExactIndexNorms:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_norms_follow_rebuild_add_remove(self, dtype):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((300, 33)).astype(dtype)
        index = ExactIndex()
        index.rebuild(vectors)
        assert_norms_track(index, vectors)
        for step in range(5):
            extra = rng.standard_normal((int(rng.integers(1, 80)), 33)).astype(dtype)
            vectors = np.vstack([vectors, extra])
            index.add(vectors, extra.shape[0])
            assert_norms_track(index, vectors)
            kept = rng.random(vectors.shape[0]) > 0.3
            vectors = vectors[kept]
            index.remove(kept)
            assert_norms_track(index, vectors)
        index.rebuild(vectors[:40])
        assert_norms_track(index, vectors[:40])

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_norms_follow_shard_copies_and_copy_on_write(self, dtype):
        rng = np.random.default_rng(5)
        store = ReferenceStore(16, n_shards=2, storage_dtype=dtype)
        store.add(rng.standard_normal((400, 16)), [f"page-{i % 12}" for i in range(400)])
        for shard in store._shards:
            assert_norms_track(shard.index, shard.vectors)
            assert_norms_track(shard.copy().index, shard.vectors)
        updated = store.with_changes(
            [
                ("replace", "page-3", rng.standard_normal((25, 16))),
                ("remove", "page-7"),
                ("add", "page-new", rng.standard_normal((30, 16))),
            ]
        )
        for old in (store, updated):  # the earlier store stays intact too
            for shard in old._shards:
                assert_norms_track(shard.index, shard.vectors)
        updated.replace_class("page-1", rng.standard_normal((9, 16)))  # in place
        for shard in updated._shards:
            assert_norms_track(shard.index, shard.vectors)

    def test_norms_follow_a_worker_side_attach(self):
        from repro.serving.transport import pack_payload, unpack_payload

        rng = np.random.default_rng(6)
        store = ReferenceStore(8, storage_dtype="float32")
        store.add(rng.standard_normal((120, 8)), [f"page-{i % 5}" for i in range(120)])
        shard = store._shards[0]
        vectors, index = unpack_payload(pack_payload(shard), shard.index.spec())
        assert_norms_track(index, vectors)
        np.testing.assert_array_equal(index._sq, shard.index._sq)

    @pytest.mark.parametrize("engine", ["ivfpq"])
    def test_untrained_fallback_builds_over_the_rows_it_is_handed(self, engine):
        # Below min_train_size the cell engine answers with a one-shot
        # ExactIndex; it must take the norms of the rows of this call,
        # never of rows an earlier call saw, even at the same row count.
        rng = np.random.default_rng(7)
        index = index_from_spec({"kind": engine, "min_train_size": 256})
        one_shot = ExactIndex()  # never built: keeps no norms between calls
        queries = rng.standard_normal((6, 4))
        for _ in range(3):
            vectors = rng.standard_normal((100, 4))
            index.rebuild(vectors)
            assert not index.trained
            exact = ExactIndex()
            exact.rebuild(vectors)
            d_ref, ids_ref = exact.search(vectors, queries, 7)
            for searcher in (index, one_shot):
                d, ids = searcher.search(vectors, queries, 7)
                np.testing.assert_array_equal(ids, ids_ref)
                np.testing.assert_array_equal(d, d_ref)


class TestKValidation:
    @pytest.mark.parametrize("k", [0, -3])
    @pytest.mark.parametrize("engine", ["exact", "ivfpq"])
    def test_every_engine_rejects_k_below_one(self, engine, k):
        vectors = clustered_corpus(600, 8, seed=1)
        index = index_from_spec({"kind": engine, "min_train_size": 64})
        index.rebuild(vectors)
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.search(vectors, vectors[:3], k)

    @pytest.mark.parametrize("k", [0, -3])
    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_store_rejects_k_below_one(self, n_shards, k):
        # k = 0 used to divide by zero in the top-k gather, and k = -3 on
        # 600 rows answered 597 neighbours per query.
        store = ReferenceStore(8, n_shards=n_shards)
        store.add(clustered_corpus(600, 8, seed=2), [f"page-{i % 10}" for i in range(600)])
        with pytest.raises(ValueError, match="k must be >= 1"):
            store.search(np.zeros((2, 8)), k)


class TestCoarseQuantizedIndex:
    """The coarse-quantized half of :class:`IVFPQIndex` — its inverted
    file: deferred training, the mutation path, probing and the search
    skeleton."""

    def test_untrained_below_min_size_falls_back_to_exact(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((50, 4))
        ivf = IVFPQIndex(n_subspaces=2, min_train_size=256)
        ivf.rebuild(vectors)
        assert not ivf.trained
        d1, i1 = ivf.search(vectors, vectors[:5], 3)
        d2, i2 = ExactIndex().search(vectors, vectors[:5], 3)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2)

    def test_trains_once_corpus_is_large_enough(self):
        rng = np.random.default_rng(2)
        ivf = IVFPQIndex(n_subspaces=2, min_train_size=64)
        vectors = rng.standard_normal((40, 4))
        ivf.rebuild(vectors)
        assert not ivf.trained
        grown = np.concatenate([vectors, rng.standard_normal((60, 4))])
        ivf.add(grown, 60)
        assert ivf.trained

    @cell_engines
    def test_incremental_add_assigns_to_existing_cells(self, engine):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((300, 4))
        ivf = CELL_ENGINES[engine](n_cells=8, min_train_size=16)
        ivf.rebuild(vectors)
        centroids_before = ivf._centroids.copy()
        grown = np.concatenate([vectors, rng.standard_normal((50, 4))])
        ivf.add(grown, 50)
        # Retraining-free: centroids untouched, assignments extended.
        assert np.array_equal(ivf._centroids, centroids_before)
        assert ivf._assignments.size == 350
        d, i = ivf.search(grown, grown[-3:], 1)
        assert set(i[:, 0]) <= set(range(350))

    @cell_engines
    def test_remove_renumbers_ids(self, engine):
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((200, 3))
        ivf = CELL_ENGINES[engine](n_cells=5, n_probe=5, min_train_size=16)
        ivf.rebuild(vectors)
        kept_mask = np.ones(200, dtype=bool)
        kept_mask[10:60] = False
        kept = vectors[kept_mask]
        ivf.remove(kept_mask)
        assert ivf._assignments.size == kept.shape[0]
        _, ids = ivf.search(kept, kept[:4], 1)
        assert np.array_equal(ids[:, 0], np.arange(4))

    @cell_engines
    def test_probe_shortfall_falls_back_to_exact(self, engine):
        # One faraway point gets its own cell; probing only that cell for a
        # nearby query yields < k candidates and must not surface padding.
        rng = np.random.default_rng(5)
        vectors = np.concatenate([rng.standard_normal((299, 2)), [[500.0, 500.0]]])
        ivf = CELL_ENGINES[engine](n_cells=4, n_probe=1, min_train_size=16)
        ivf.rebuild(vectors)
        d, i = ivf.search(vectors, np.array([[499.0, 499.0]]), 10)
        assert np.all(i >= 0)
        assert np.all(np.isfinite(d))

    @cell_engines
    def test_cross_cell_distance_ties_ordered_by_id(self, engine):
        # Two clusters far apart; the query sits exactly between two points
        # that live in different cells, so the tie must resolve by id even
        # though the probe layout visits cells in arbitrary order.
        rng = np.random.default_rng(6)
        left = rng.standard_normal((150, 2)) + [-50.0, 0.0]
        right = rng.standard_normal((150, 2)) + [50.0, 0.0]
        vectors = np.concatenate([left, right, [[-10.0, 0.0]], [[10.0, 0.0]]])
        ivf = CELL_ENGINES[engine](n_cells=2, n_probe=2, min_train_size=16)
        ivf.rebuild(vectors)
        d, i = ivf.search(vectors, np.array([[0.0, 0.0]]), 2)
        assert i[0].tolist() == [300, 301]
        assert d[0, 0] == d[0, 1]

    @cell_engines
    def test_tie_set_straddling_k_keeps_the_smallest_ids(self, engine):
        # Six unit-axis points tie at distance 1 from the origin and every
        # other row lies beyond distance 2, so k=3 cuts the tie set: the
        # exact answer keeps its three smallest ids, whatever order the
        # cell layout or the ADC ranking puts the six in.
        axes = np.vstack([np.eye(3), -np.eye(3)])
        origin = np.zeros((1, 3))
        for seed in range(12):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((300, 3))
            rows += 2.0 * rows / np.linalg.norm(rows, axis=1, keepdims=True)
            vectors = np.vstack([rows, axes])[rng.permutation(306)]
            ivf = CELL_ENGINES[engine](n_cells=8, n_probe=8, min_train_size=16, seed=seed)
            ivf.rebuild(vectors)
            d, i = ivf.search(vectors, origin, 3)
            _, expected = ExactIndex().search(vectors, origin, 3)
            assert i.tolist() == expected.tolist(), seed
            assert d.tolist() == [[1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_trained_search_touches_only_probed_rows(self, dtype):
        # A trained search may gather the re-ranked candidates but never
        # cast, square or copy the whole store: its peak allocation stays
        # under one float64 per stored row.
        n = 50_000
        vectors = clustered_corpus(n, 16, seed=0).astype(dtype)
        ivf = IVFPQIndex()
        ivf.rebuild(vectors)
        query = vectors[:1] + 0.01
        ivf.search(vectors, query, 10)  # warm-up builds the cell layout
        tracemalloc.start()
        try:
            ivf.search(vectors, query, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 8

    def test_search_rejects_a_store_of_another_size(self):
        rng = np.random.default_rng(13)
        vectors = rng.standard_normal((300, 4))
        ivf = IVFPQIndex(n_cells=8, n_subspaces=2, min_train_size=16)
        ivf.rebuild(vectors)
        with pytest.raises(ValueError):
            ivf.search(vectors[:-7], vectors[:2], 3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            IVFPQIndex(n_cells=0)
        with pytest.raises(ValueError):
            IVFPQIndex(n_probe=0)

    def test_metric_spec_roundtrip(self):
        # Specs saved before the metric key was dropped carry
        # ``"metric": "euclidean"``; they rebuild the same index.  Any other
        # metric is refused, never served under euclidean distance.
        ivf = IVFPQIndex(n_cells=7, n_probe=2, min_train_size=32)
        legacy = {**ivf.spec(), "metric": "euclidean"}
        clone = index_from_spec(legacy)
        assert isinstance(clone, IVFPQIndex)
        assert clone.spec() == ivf.spec()
        for metric in ("cosine", "cityblock"):
            with pytest.raises(ValueError, match=f"unsupported metric '{metric}'"):
                index_from_spec({**ivf.spec(), "metric": metric})

    def test_spec_roundtrip(self):
        ivf = IVFPQIndex(n_cells=11, n_probe=3, min_train_size=99, seed=7, bits=4, rerank=0)
        clone = index_from_spec(ivf.spec())
        assert isinstance(clone, IVFPQIndex)
        assert clone.spec() == ivf.spec()
        assert isinstance(index_from_spec(ExactIndex().spec()), ExactIndex)
        assert isinstance(index_from_spec(None), ExactIndex)
        with pytest.raises(ValueError):
            index_from_spec({"kind": "magic"})


class TestCellIndexState:
    """``state()`` is the persisted RSG1 / shared-memory layout."""

    @staticmethod
    def trained(engine):
        index = CELL_ENGINES[engine](n_cells=8, min_train_size=16)
        index.rebuild(np.random.default_rng(14).standard_normal((400, 4)))
        return index

    @pytest.mark.parametrize(
        "engine, schema",
        [
            (
                "ivfpq-8bit",
                {
                    "centroids": "f8",
                    "assignments": "i4",
                    "codes": "u1",
                    "member_consts": "f4",
                    "codebooks": "f8",
                    "drift_baseline": "f8",
                    "drift_errors": "f2",
                },
            ),
            (
                "ivfpq-4bit",
                {
                    "centroids": "f4",
                    "assignments": "u2",
                    "codes": "u1",
                    "member_consts": "f2",
                    "codebooks": "f8",
                    "drift_baseline": "f8",
                    "drift_errors": "f2",
                },
            ),
        ],
    )
    def test_state_schema_is_pinned(self, engine, schema):
        state = self.trained(engine).state()
        assert {name: array.dtype.str[1:] for name, array in state.items()} == schema
        assert list(state) == list(schema)  # array order is part of the layout

    @cell_engines
    def test_load_state_rejects_inconsistent_arrays(self, engine):
        index = self.trained(engine)
        state = {name: np.array(array) for name, array in index.state().items()}
        fresh = index_from_spec(index.spec())
        fresh.load_state(state)  # the untampered state is adopted
        assert np.array_equal(fresh._assignments, index._assignments)

        out_of_range = dict(state)
        out_of_range["assignments"] = state["assignments"].copy()
        out_of_range["assignments"][5] = 8  # cells are 0..7
        fresh = index_from_spec(index.spec())
        with pytest.raises(ValueError):
            fresh.load_state(out_of_range)
        assert not fresh.trained  # nothing was adopted

        shortened = dict(state)
        shortened["assignments"] = state["assignments"][:-7]
        fresh = index_from_spec(index.spec())
        with pytest.raises(ValueError):
            fresh.load_state(shortened)
        assert not fresh.trained

    @cell_engines
    def test_store_restore_rebuilds_over_bad_state(self, engine, tmp_path):
        store = ReferenceStore(
            4, index_factory=lambda: CELL_ENGINES[engine](n_cells=8, min_train_size=16)
        )
        rng = np.random.default_rng(15)
        store.add(rng.standard_normal((400, 4)), [f"c{i % 10}" for i in range(400)])
        path = store.save(tmp_path / "refs")
        arrays = {name: np.array(array) for name, array in load_segment_file(path).items()}
        arrays["index_state__assignments"][:] = 200  # no such cell
        write_segment_file(path, arrays)
        restored = ReferenceStore.load(path, index_factory=store.index_factory)
        queries = rng.standard_normal((6, 4))
        assert restored.index.trained
        assert np.array_equal(restored.search(queries, 5)[1], store.search(queries, 5)[1])


class TestStoreIndexConsistency:
    def build_store(self, index, n=400, dim=4, seed=6):
        rng = np.random.default_rng(seed)
        store = ReferenceStore(dim, index_factory=lambda: index)
        points = rng.standard_normal((n, dim))
        labels = [f"c{i % 20}" for i in range(n)]
        store.add(points, labels)
        return store, rng

    def test_ivf_store_tracks_mutations(self):
        store, rng = self.build_store(
            IVFPQIndex(n_cells=10, n_probe=10, n_subspaces=2, rerank=512, min_train_size=16)
        )
        exact_store = ReferenceStore(4)
        exact_store.add(store.embeddings, list(store.labels))

        store.remove_class("c3")
        exact_store.remove_class("c3")
        store.replace_class("c5", rng.standard_normal((7, 4)))
        exact_store.replace_class("c5", np.asarray(store.embeddings[store.labels == "c5"]))
        queries = rng.standard_normal((25, 4))
        d1, i1 = store.search(queries, 5)
        d2, i2 = exact_store.search(queries, 5)
        # Full-probe IVF-PQ re-ranking every row after arbitrary mutations
        # == exact search.
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2)

    def test_cached_class_accounting(self):
        store = ReferenceStore(2)
        store.add(np.zeros((3, 2)), ["a", "b", "a"])
        assert store.class_names == ["a", "b"]
        assert store.n_classes == 2
        assert store.class_counts() == {"a": 2, "b": 1}
        assert store.has_class("a") and "b" in store and "zz" not in store
        assert store.label_codes.tolist() == [0, 1, 0]
        store.remove_class("a")
        assert store.class_names == ["b"]
        assert store.label_codes.tolist() == [0]
        assert store.class_counts() == {"b": 1}
        store.add(np.ones((2, 2)), ["a", "c"])
        assert store.class_names == ["b", "a", "c"]
        assert store.class_counts() == {"b": 1, "a": 1, "c": 1}

    def test_amortised_buffer_growth_preserves_content(self):
        store = ReferenceStore(3)
        rng = np.random.default_rng(8)
        chunks = [rng.standard_normal((n, 3)) for n in (1, 5, 40, 200)]
        for position, chunk in enumerate(chunks):
            store.add(chunk, [f"k{position}"] * chunk.shape[0])
        assert len(store) == 246
        assert np.array_equal(store.embeddings, np.concatenate(chunks))
        assert store._shards[0]._buffer.shape[0] >= 246  # doubling buffer over-allocates

    def test_embeddings_view_is_read_only(self):
        store = ReferenceStore(2)
        store.add(np.zeros((2, 2)), ["a", "b"])
        with pytest.raises(ValueError):
            store.embeddings[0, 0] = 5.0

    def test_clone_copies_index_state_without_retrain(self):
        rng = np.random.default_rng(12)
        store = ReferenceStore(
            4,
            index_factory=lambda: IVFPQIndex(
                n_cells=4, n_probe=4, n_subspaces=2, min_train_size=16
            ),
        )
        store.add(rng.standard_normal((200, 4)), [f"c{i % 8}" for i in range(200)])
        centroids = store.index._centroids.copy()
        # A copy-on-write update deep-copies the trained quantizer, never
        # re-trains it, and leaves the original untouched.
        clone = store.with_changes([("add", "c1", rng.standard_normal((3, 4))), ("remove", "c0")])
        assert clone.index is not store.index
        assert np.array_equal(clone.index._centroids, centroids)
        assert len(store) == 200 and store.has_class("c0")
        assert not clone.has_class("c0") and clone.class_counts()["c1"] == 28
        assert np.array_equal(store.index._centroids, centroids)
        queries = rng.standard_normal((5, 4))
        flat = ReferenceStore(4)
        flat.add(clone.embeddings, list(clone.labels))
        d_clone, i_clone = clone.search(queries, 3)
        d_flat, i_flat = flat.search(queries, 3)
        assert np.array_equal(i_clone, i_flat)
