"""Tests for the nearest-neighbour index layer and the store that owns it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import (
    CoarseQuantizedIndex,
    ExactIndex,
    IVFPQIndex,
    index_from_spec,
    sort_by_distance,
    top_k_by_distance,
)
from repro.core.index_bench import clustered_corpus
from repro.core.reference_store import ReferenceStore

# The cell-index contract holds whatever the codec: the raw engine and both
# PQ bit widths (2 subspaces fit the 2-4 dim fixtures; rerank covers every
# row of them, so rankings are exact).
CELL_ENGINES = {
    "ivf": CoarseQuantizedIndex,
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


class TestCoarseQuantizedIndex:
    def test_untrained_below_min_size_falls_back_to_exact(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((50, 4))
        ivf = CoarseQuantizedIndex(min_train_size=256)
        ivf.rebuild(vectors)
        assert not ivf.trained
        d1, i1 = ivf.search(vectors, vectors[:5], 3)
        d2, i2 = ExactIndex().search(vectors, vectors[:5], 3)
        assert np.array_equal(i1, i2) and np.array_equal(d1, d2)

    def test_trains_once_corpus_is_large_enough(self):
        rng = np.random.default_rng(2)
        ivf = CoarseQuantizedIndex(min_train_size=64)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_trained_search_touches_only_probed_rows(self, dtype):
        # A trained search may gather the probed cells' members but never
        # cast, square or copy the whole store: its peak allocation stays
        # under one float64 per stored row.
        n = 50_000
        vectors = clustered_corpus(n, 16, seed=0).astype(dtype)
        ivf = CoarseQuantizedIndex()
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
        ivf = CoarseQuantizedIndex(n_cells=8, min_train_size=16)
        ivf.rebuild(vectors)
        with pytest.raises(ValueError):
            ivf.search(vectors[:-7], vectors[:2], 3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CoarseQuantizedIndex(n_cells=0)
        with pytest.raises(ValueError):
            CoarseQuantizedIndex(n_probe=0)

    def test_metric_spec_roundtrip(self):
        # Specs saved before the metric key was dropped carry
        # ``"metric": "euclidean"``; they rebuild the same index.  Any other
        # metric is refused, never served under euclidean distance.
        ivf = CoarseQuantizedIndex(n_cells=7, n_probe=2, min_train_size=32)
        legacy = {**ivf.spec(), "metric": "euclidean"}
        clone = index_from_spec(legacy)
        assert isinstance(clone, CoarseQuantizedIndex)
        assert clone.spec() == ivf.spec()
        for metric in ("cosine", "cityblock"):
            with pytest.raises(ValueError, match=f"unsupported metric '{metric}'"):
                index_from_spec({**ivf.spec(), "metric": metric})

    def test_spec_roundtrip(self):
        ivf = CoarseQuantizedIndex(n_cells=11, n_probe=3, min_train_size=99, seed=7)
        clone = index_from_spec(ivf.spec())
        assert isinstance(clone, CoarseQuantizedIndex)
        assert clone.spec() == ivf.spec()
        assert isinstance(index_from_spec(ExactIndex().spec()), ExactIndex)
        assert isinstance(index_from_spec(None), ExactIndex)
        with pytest.raises(ValueError):
            index_from_spec({"kind": "magic"})


class TestCellIndexState:
    """``state()`` is the persisted RSG1 / shared-memory layout."""

    @staticmethod
    def trained(engine, **knobs):
        index = CELL_ENGINES[engine](n_cells=8, min_train_size=16, **knobs)
        index.rebuild(np.random.default_rng(14).standard_normal((400, 4)))
        return index

    @pytest.mark.parametrize(
        "engine, knobs, schema",
        [
            ("ivf", {}, {"centroids": "f8", "assignments": "i8"}),
            (
                "ivfpq-8bit",
                {"opq": True},
                {
                    "centroids": "f8",
                    "assignments": "i4",
                    "codes": "u1",
                    "member_consts": "f4",
                    "codebooks": "f8",
                    "drift_baseline": "f8",
                    "drift_errors": "f2",
                    "rotation": "f8",
                },
            ),
            (
                "ivfpq-4bit",
                {},
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
    def test_state_schema_is_pinned(self, engine, knobs, schema):
        state = self.trained(engine, **knobs).state()
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
        if engine == "ivf":
            # The raw codec has no second row array to disagree with; it
            # refuses as soon as it is handed the store it does not cover.
            fresh.load_state(shortened)
            vectors = np.zeros((400, 4))
            with pytest.raises(ValueError):
                fresh.search(vectors, vectors[:2], 3)
        else:
            with pytest.raises(ValueError):
                fresh.load_state(shortened)
            assert not fresh.trained

    @cell_engines
    def test_store_restore_rebuilds_over_bad_state(self, engine):
        store = ReferenceStore(4, index=CELL_ENGINES[engine](n_cells=8, min_train_size=16))
        rng = np.random.default_rng(15)
        store.add(rng.standard_normal((400, 4)), [f"c{i % 10}" for i in range(400)])
        state = {name: np.array(array) for name, array in store.index.state().items()}
        state["assignments"][:] = 200  # no such cell
        restored = ReferenceStore._restore(
            ReferenceStore(4, index=index_from_spec(store.index.spec())),
            store.embeddings,
            list(store.labels),
            state,
        )
        queries = rng.standard_normal((6, 4))
        assert restored.index.trained
        assert np.array_equal(restored.search(queries, 5)[1], store.search(queries, 5)[1])


class TestStoreIndexConsistency:
    def build_store(self, index, n=400, dim=4, seed=6):
        rng = np.random.default_rng(seed)
        store = ReferenceStore(dim, index=index)
        points = rng.standard_normal((n, dim))
        labels = [f"c{i % 20}" for i in range(n)]
        store.add(points, labels)
        return store, rng

    def test_ivf_store_tracks_mutations(self):
        store, rng = self.build_store(CoarseQuantizedIndex(n_cells=10, n_probe=10, min_train_size=16))
        exact_store = ReferenceStore(4)
        exact_store.add(store.embeddings, list(store.labels))

        store.remove_class("c3")
        exact_store.remove_class("c3")
        store.replace_class("c5", rng.standard_normal((7, 4)))
        exact_store.replace_class("c5", np.asarray(store.class_embeddings("c5")))
        queries = rng.standard_normal((25, 4))
        d1, i1 = store.search(queries, 5)
        d2, i2 = exact_store.search(queries, 5)
        # Full-probe IVF after arbitrary mutations == exact search.
        assert np.array_equal(i1, i2)
        assert np.allclose(d1, d2)

    def test_cached_class_accounting(self):
        store = ReferenceStore(2)
        store.add(np.zeros((3, 2)), ["a", "b", "a"])
        assert store.classes == ["a", "b"]
        assert store.n_classes == 2
        assert store.class_counts() == {"a": 2, "b": 1}
        assert store.has_class("a") and "b" in store and "zz" not in store
        assert store.label_codes.tolist() == [0, 1, 0]
        store.remove_class("a")
        assert store.classes == ["b"]
        assert store.label_codes.tolist() == [0]
        assert store.class_counts() == {"b": 1}
        store.add(np.ones((2, 2)), ["a", "c"])
        assert store.classes == ["b", "a", "c"]
        assert store.class_counts() == {"b": 1, "a": 1, "c": 1}

    def test_amortised_buffer_growth_preserves_content(self):
        store = ReferenceStore(3)
        rng = np.random.default_rng(8)
        chunks = [rng.standard_normal((n, 3)) for n in (1, 5, 40, 200)]
        for position, chunk in enumerate(chunks):
            store.add(chunk, [f"k{position}"] * chunk.shape[0])
        assert len(store) == 246
        assert np.array_equal(store.embeddings, np.concatenate(chunks))
        assert store._buffer.shape[0] >= 246  # doubling buffer over-allocates

    def test_embeddings_view_is_read_only(self):
        store = ReferenceStore(2)
        store.add(np.zeros((2, 2)), ["a", "b"])
        with pytest.raises(ValueError):
            store.embeddings[0, 0] = 5.0

    def test_clone_copies_index_state_without_retrain(self):
        rng = np.random.default_rng(12)
        store = ReferenceStore(
            4, index=CoarseQuantizedIndex(n_cells=4, n_probe=4, min_train_size=16)
        )
        store.add(rng.standard_normal((200, 4)), [f"c{i % 8}" for i in range(200)])
        centroids = store.index._centroids.copy()
        clone = store.clone()
        # The trained quantizer is deep-copied, not re-trained.
        assert clone.index is not store.index
        assert np.array_equal(clone.index._centroids, centroids)
        assert np.array_equal(clone.embeddings, store.embeddings)
        assert clone.class_counts() == store.class_counts()
        # Mutating the clone leaves the original untouched (and vice versa).
        clone.add(rng.standard_normal((3, 4)), ["c1"] * 3)
        clone.remove_class("c0")
        assert len(store) == 200 and store.has_class("c0")
        assert np.array_equal(store.index._centroids, centroids)
        queries = rng.standard_normal((5, 4))
        flat = ReferenceStore(4)
        flat.add(clone.embeddings, list(clone.labels))
        d_clone, i_clone = clone.search(queries, 3)
        d_flat, i_flat = flat.search(queries, 3)
        assert np.array_equal(i_clone, i_flat)
