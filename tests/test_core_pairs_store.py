"""Tests for pair generation, the reference store and the kNN classifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClassifierConfig
from repro.core import KNNClassifier, PairGenerator, ReferenceStore, hard_negative_pairs, random_pairs


class TestRandomPairs:
    def test_balanced_pair_labels(self):
        labels = np.repeat(np.arange(5), 10)
        left, right, sim = random_pairs(labels, 200, 0.5, np.random.default_rng(0))
        assert len(left) == len(right) == len(sim) == 200
        assert 0.4 < sim.mean() < 0.6

    def test_positive_pairs_share_class_negative_do_not(self):
        labels = np.repeat(np.arange(4), 6)
        left, right, sim = random_pairs(labels, 300, 0.5, np.random.default_rng(1))
        assert np.all(labels[left[sim == 1]] == labels[right[sim == 1]])
        assert np.all(labels[left[sim == 0]] != labels[right[sim == 0]])

    def test_positive_pairs_never_same_sample(self):
        labels = np.repeat(np.arange(3), 4)
        left, right, sim = random_pairs(labels, 200, 0.5, np.random.default_rng(2))
        positives = sim == 1
        assert np.all(left[positives] != right[positives])

    def test_invalid_arguments(self):
        labels = np.repeat(np.arange(3), 4)
        with pytest.raises(ValueError):
            random_pairs(labels, 0)
        with pytest.raises(ValueError):
            random_pairs(labels, 10, positive_fraction=1.0)
        with pytest.raises(ValueError):
            random_pairs(np.array([0]), 10)
        with pytest.raises(ValueError):
            random_pairs(np.array([0, 1]), 10)  # singleton classes only
        with pytest.raises(ValueError):
            random_pairs(np.array([0, 0, 0]), 10)  # single class

    @given(st.integers(2, 6), st.integers(2, 8), st.integers(10, 100))
    @settings(max_examples=25, deadline=None)
    def test_pair_indices_always_valid(self, n_classes, per_class, n_pairs):
        labels = np.repeat(np.arange(n_classes), per_class)
        left, right, sim = random_pairs(labels, n_pairs, 0.5, np.random.default_rng(n_pairs))
        assert left.max() < len(labels) and right.max() < len(labels)
        assert set(np.unique(sim)) <= {0.0, 1.0}


class TestHardNegativePairs:
    def test_hard_negatives_are_nearest_other_class(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        # Class 0 near origin, class 1 close by, class 2 far away.
        embeddings = np.array([
            [0.0, 0.0], [0.1, 0.0],
            [1.0, 0.0], [1.1, 0.0],
            [10.0, 0.0], [10.1, 0.0],
        ])
        left, right, sim = hard_negative_pairs(
            labels, embeddings, 40, 0.5, np.random.default_rng(0)
        )
        negatives = sim == 0
        # Anchors from class 0 should be paired with class 1 (never class 2).
        anchors_class0 = labels[left[negatives]] == 0
        partners = labels[right[negatives]][anchors_class0]
        assert len(partners) > 0
        assert np.all(partners == 1)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            hard_negative_pairs(np.array([0, 1]), np.zeros((3, 2)), 4)

    def test_pair_generator_strategies(self):
        labels = np.repeat(np.arange(3), 5)
        embeddings = np.random.default_rng(0).standard_normal((15, 4))
        for strategy in ("random", "hard_negative", "semi_hard"):
            generator = PairGenerator(strategy=strategy)
            left, right, sim = generator.generate(labels, 30, np.random.default_rng(1), embeddings)
            assert len(left) == 30
        with pytest.raises(ValueError):
            PairGenerator(strategy="magic")

    def test_pair_generator_mining_without_embeddings_falls_back(self):
        labels = np.repeat(np.arange(3), 5)
        generator = PairGenerator(strategy="hard_negative")
        left, right, sim = generator.generate(labels, 20, np.random.default_rng(2), embeddings=None)
        assert len(left) == 20


class TestReferenceStore:
    def test_add_and_query(self):
        store = ReferenceStore(4)
        store.add(np.ones((3, 4)), ["a", "a", "b"])
        assert len(store) == 3
        assert store.n_classes == 2
        assert store.class_counts() == {"a": 2, "b": 1}
        assert store.embeddings[store.labels == "a"].shape == (3 - 1, 4)

    def test_add_validation(self):
        store = ReferenceStore(4)
        with pytest.raises(ValueError):
            store.add(np.ones((2, 3)), ["a", "b"])
        with pytest.raises(ValueError):
            store.add(np.ones((2, 4)), ["a"])
        with pytest.raises(ValueError):
            store.add(np.ones((1, 4)), [""])
        with pytest.raises(ValueError):
            ReferenceStore(0)

    def test_remove_and_replace_class(self):
        store = ReferenceStore(2)
        store.add(np.zeros((4, 2)), ["a", "a", "b", "b"])
        removed = store.remove_class("a")
        assert removed == 2 and len(store) == 2
        with pytest.raises(KeyError):
            store.remove_class("ghost")
        store.replace_class("b", np.ones((3, 2)))
        assert store.class_counts() == {"b": 3}
        assert np.allclose(store.embeddings[store.labels == "b"], 1.0)
        # Replacing an absent class simply adds it.
        store.replace_class("c", np.full((2, 2), 5.0))
        assert store.class_counts()["c"] == 2

    def test_classes_preserve_insertion_order(self):
        store = ReferenceStore(2)
        store.add(np.zeros((3, 2)), ["z", "a", "z"])
        assert store.class_names == ["z", "a"]

    def test_save_load_roundtrip(self, tmp_path):
        store = ReferenceStore(3)
        store.add(np.arange(12, dtype=float).reshape(4, 3), ["a", "b", "a", "c"])
        path = store.save(tmp_path / "refs")
        loaded = ReferenceStore.load(path)
        assert len(loaded) == 4
        assert np.allclose(loaded.embeddings, store.embeddings)
        assert list(loaded.labels) == list(store.labels)

    def test_load_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReferenceStore.load(tmp_path / "none.npz")

    def test_empty_store_roundtrip(self, tmp_path):
        store = ReferenceStore(5)
        loaded = ReferenceStore.load(store.save(tmp_path / "empty"))
        assert len(loaded) == 0 and loaded.embedding_dim == 5


def clustered_store(n_classes=5, per_class=20, dim=4, spread=0.2, seed=0):
    """A reference store with well-separated per-class clusters."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_classes, dim)) * 10
    store = ReferenceStore(dim)
    for class_id in range(n_classes):
        points = centres[class_id] + spread * rng.standard_normal((per_class, dim))
        store.add(points, [f"class-{class_id}"] * per_class)
    return store, centres


class TestKNNClassifier:
    def test_predicts_nearest_cluster(self):
        store, centres = clustered_store()
        classifier = KNNClassifier(store, ClassifierConfig(k=10))
        queries = centres + 0.05
        predictions = classifier.predict(queries)
        assert [p.best for p in predictions] == [f"class-{i}" for i in range(len(centres))]

    def test_topn_accuracy_perfect_for_separated_clusters(self):
        store, centres = clustered_store()
        classifier = KNNClassifier(store, ClassifierConfig(k=10))
        labels = [f"class-{i}" for i in range(len(centres))]
        accuracy = classifier.topn_accuracy(centres, labels, ns=(1, 3))
        assert accuracy[1] == 1.0 and accuracy[3] == 1.0

    def test_guesses_needed(self):
        store, centres = clustered_store()
        classifier = KNNClassifier(store, ClassifierConfig(k=10))
        labels = [f"class-{i}" for i in range(len(centres))]
        guesses = classifier.guesses_needed(centres, labels)
        assert np.all(guesses == 1)

    def test_k_larger_than_store_is_clamped(self):
        store, centres = clustered_store(per_class=3)
        classifier = KNNClassifier(store, ClassifierConfig(k=1000))
        prediction = classifier.predict(centres[:1])[0]
        assert prediction.best == "class-0"

    def test_empty_store_raises(self):
        classifier = KNNClassifier(ReferenceStore(3))
        with pytest.raises(RuntimeError):
            classifier.predict(np.zeros((1, 3)))

    def test_dimension_mismatch(self):
        store, _ = clustered_store(dim=4)
        classifier = KNNClassifier(store)
        with pytest.raises(ValueError):
            classifier.predict(np.zeros((1, 7)))

    def test_invalid_config(self):
        store, _ = clustered_store()
        with pytest.raises(ValueError):
            KNNClassifier(store, ClassifierConfig(k=0))

    def test_prediction_helpers(self):
        store, centres = clustered_store()
        prediction = KNNClassifier(store, ClassifierConfig(k=10)).predict(centres[2:3])[0]
        assert prediction.contains("class-2", 1)
        assert prediction.top(2)[0] == "class-2"
        with pytest.raises(ValueError):
            prediction.top(0)

    def test_mismatched_label_count(self):
        store, centres = clustered_store()
        classifier = KNNClassifier(store)
        with pytest.raises(ValueError):
            classifier.topn_accuracy(centres, ["class-0"], ns=(1,))
