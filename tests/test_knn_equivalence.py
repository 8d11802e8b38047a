"""Equivalence suite: the batched k-NN engine must match the seed exactly.

The seed implementation (full ``cdist`` + stable argsort + per-query Python
voting loop) is reimplemented here verbatim as the ground truth, and the
batched/index-backed ``KNNClassifier.predict`` is asserted to return
**byte-identical rankings and scores** — including every tie-break — on a
fixed fuzz corpus: Euclidean distance, one vote per neighbour.  A gradient
check also pins down the rewritten vectorised LSTM BPTT against numerical
gradients.
"""

from typing import Dict, List

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.config import ClassifierConfig
from repro.core import CoarseQuantizedIndex, ExactIndex, KNNClassifier, ReferenceStore
from repro.core.classifier import Prediction


def seed_predict(store: ReferenceStore, config: ClassifierConfig, embeddings: np.ndarray) -> List[Prediction]:
    """The original (pre-index) predict implementation, kept as ground truth."""
    queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    k = min(config.k, len(store))
    distances = cdist(queries, store.embeddings, metric="euclidean")
    labels = store.labels
    predictions: List[Prediction] = []
    for row in range(queries.shape[0]):
        neighbour_order = np.argsort(distances[row], kind="stable")[:k]
        votes: Dict[str, float] = {}
        for neighbour in neighbour_order:
            label = str(labels[neighbour])
            votes[label] = votes.get(label, 0.0) + 1.0
        closest: Dict[str, float] = {}
        for neighbour in neighbour_order:
            label = str(labels[neighbour])
            closest.setdefault(label, float(distances[row, neighbour]))
        ranked = sorted(votes, key=lambda label: (-votes[label], closest[label], label))
        predictions.append(Prediction(ranked_labels=ranked, scores=[votes[l] for l in ranked]))
    return predictions


def fuzz_store(seed: int, n_classes: int, per_class: int, dim: int, spread: float) -> ReferenceStore:
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_classes, dim)) * 3.0
    store = ReferenceStore(dim)
    # Interleave classes so label codes do not follow block structure.
    for _ in range(per_class):
        order = rng.permutation(n_classes)
        points = centres[order] + spread * rng.standard_normal((n_classes, dim))
        store.add(points, [f"page-{c:03d}" for c in order])
    return store


CORPUS = [
    # (seed, n_classes, per_class, dim, spread, k, n_queries)
    (0, 12, 9, 6, 1.0, 25, 40),
    (1, 5, 4, 3, 2.0, 7, 25),
    (2, 30, 6, 8, 0.5, 50, 60),
    (3, 8, 12, 4, 3.0, 96, 30),  # k == store size
    (4, 16, 5, 5, 1.5, 200, 20),  # k beyond store size (clamped)
    (5, 60, 4, 6, 1.0, 10, 40),  # n_classes > 4 * k: the paper's many-classes regime
]


class TestPredictEquivalence:
    @pytest.mark.parametrize("case", CORPUS, ids=[f"corpus{c[0]}" for c in CORPUS])
    def test_bit_identical_rankings(self, case):
        seed, n_classes, per_class, dim, spread, k, n_queries = case
        store = fuzz_store(seed, n_classes, per_class, dim, spread)
        config = ClassifierConfig(k=k)
        classifier = KNNClassifier(store, config)
        rng = np.random.default_rng(seed + 100)
        queries = rng.standard_normal((n_queries, dim)) * 3.0

        expected = seed_predict(store, config, queries)
        actual = classifier.predict(queries)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            # Bit-identical rankings, including every tie-break; votes are
            # integer sums, so scores are exactly equal.
            assert got.ranked_labels == want.ranked_labels
            assert got.scores == want.scores

    def test_equivalence_with_exact_duplicate_references(self):
        """Coincident references (distance ties) keep the seed's ordering."""
        store = ReferenceStore(3)
        rng = np.random.default_rng(9)
        base = rng.standard_normal((6, 3))
        store.add(base, [f"p{i}" for i in range(6)])
        store.add(base, [f"p{i}" for i in range(6)])  # exact duplicates
        store.add(base + 0.01, ["q0"] * 6)
        config = ClassifierConfig(k=10)
        classifier = KNNClassifier(store, config)
        # Rows 0-2 sit exactly on a reference.
        queries = np.concatenate([base[:3], rng.standard_normal((5, 3))])
        expected = seed_predict(store, config, queries)
        actual = classifier.predict(queries)
        for got, want in zip(actual, expected):
            assert got.ranked_labels == want.ranked_labels
            assert got.scores == want.scores

    def test_equivalence_after_adaptation_mutations(self):
        """add/remove/replace keep predictions identical to a fresh seed run."""
        store = fuzz_store(11, 10, 6, 4, 1.0)
        store.remove_class("page-003")
        store.replace_class("page-005", np.random.default_rng(12).standard_normal((4, 4)))
        store.add(np.random.default_rng(13).standard_normal((5, 4)), ["brand-new"] * 5)
        config = ClassifierConfig(k=30)
        classifier = KNNClassifier(store, config)
        queries = np.random.default_rng(14).standard_normal((20, 4))
        expected = seed_predict(store, config, queries)
        actual = classifier.predict(queries)
        for got, want in zip(actual, expected):
            assert got.ranked_labels == want.ranked_labels
            assert got.scores == want.scores

    def test_fast_paths_match_predictions(self):
        store = fuzz_store(20, 9, 7, 5, 1.2)
        classifier = KNNClassifier(store, ClassifierConfig(k=21))
        rng = np.random.default_rng(21)
        queries = rng.standard_normal((25, 5))
        true_labels = [f"page-{rng.integers(0, 12):03d}" for _ in range(25)]

        predictions = classifier.predict(queries)
        labels_top3 = classifier.rank(queries).labels(3)
        assert labels_top3 == [p.top(3) for p in predictions]

        accuracy = classifier.topn_accuracy(queries, true_labels, ns=(1, 3, 5))
        for n in (1, 3, 5):
            expected = sum(p.contains(t, n) for p, t in zip(predictions, true_labels)) / 25
            assert accuracy[n] == expected

        guesses = classifier.guesses_needed(queries, true_labels)
        for row, (prediction, label) in enumerate(zip(predictions, true_labels)):
            if label in prediction.ranked_labels:
                assert guesses[row] == prediction.ranked_labels.index(label) + 1
            else:
                assert guesses[row] == len(prediction.ranked_labels) + 1


class TestLabelRanks:
    def test_class_added_between_queries_ranks_by_its_name(self):
        """One classifier across an in-place mutation: the added class's
        name sorts first and it ties an existing class on votes and on
        closest distance, so only up-to-date label ranks order the two
        as the seed does.  Integer coordinates make every tie exact."""
        rng = np.random.default_rng(60)
        points = rng.integers(-3, 4, size=(48, 3)).astype(np.float64)
        queries = rng.integers(-3, 4, size=(30, 3)).astype(np.float64)
        store = ReferenceStore(3)
        store.add(points, [f"page-{row % 8}" for row in range(48)])
        config = ClassifierConfig(k=9)
        classifier = KNNClassifier(store, config)
        for got, want in zip(classifier.predict(queries), seed_predict(store, config, queries)):
            assert (got.ranked_labels, got.scores) == (want.ranked_labels, want.scores)

        store.add(store.embeddings[store.labels == "page-5"], ["a-first"] * 6)
        expected = seed_predict(store, config, queries)
        assert any(p.ranked_labels.index("a-first") + 1 == p.ranked_labels.index("page-5")
                   for p in expected if "a-first" in p.ranked_labels)
        for got, want in zip(classifier.predict(queries), expected):
            assert (got.ranked_labels, got.scores) == (want.ranked_labels, want.scores)


class TestIVFAgreement:
    def test_full_probe_matches_exact_top1(self):
        """Probing every cell must agree with exact search on top-1."""
        rng = np.random.default_rng(30)
        vectors = rng.standard_normal((600, 8))
        queries = rng.standard_normal((80, 8))
        exact = ExactIndex()
        ivf = CoarseQuantizedIndex(n_cells=16, n_probe=16, min_train_size=16)
        ivf.rebuild(vectors)
        assert ivf.trained
        _, exact_ids = exact.search(vectors, queries, 5)
        _, ivf_ids = ivf.search(vectors, queries, 5)
        assert np.array_equal(exact_ids[:, 0], ivf_ids[:, 0])

    def test_default_probe_agreement_on_clustered_data(self):
        from repro.core.index_bench import clustered_corpus

        rng = np.random.default_rng(31)
        vectors = clustered_corpus(3000, 16, seed=31)
        queries = vectors[rng.choice(3000, 100, replace=False)] + 0.05 * rng.standard_normal((100, 16))
        exact = ExactIndex()
        ivf = CoarseQuantizedIndex(n_probe=8)
        ivf.rebuild(vectors)
        _, exact_ids = exact.search(vectors, queries, 1)
        _, ivf_ids = ivf.search(vectors, queries, 1)
        assert (exact_ids[:, 0] == ivf_ids[:, 0]).mean() >= 0.95


class TestQueryValidation:
    def test_nan_queries_rejected(self):
        store = fuzz_store(40, 4, 5, 3, 1.0)
        classifier = KNNClassifier(store, ClassifierConfig(k=5))
        bad = np.zeros((3, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="NaN/inf"):
            classifier.predict(bad)

    def test_inf_queries_rejected(self):
        store = fuzz_store(41, 4, 5, 3, 1.0)
        classifier = KNNClassifier(store, ClassifierConfig(k=5))
        bad = np.full((1, 3), np.inf)
        with pytest.raises(ValueError, match="NaN/inf"):
            classifier.predict(bad)


class TestLSTMGradientEquivalence:
    def test_bptt_matches_numerical_gradients_table1_shape(self):
        """Gradient-check the vectorised BPTT at a (scaled-down) Table I shape."""
        from repro.nn.lstm import LSTM

        rng = np.random.default_rng(50)
        layer = LSTM(3, 6, rng=rng)
        x = rng.standard_normal((3, 7, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2) / 2)

        out = layer.forward(x)
        layer.zero_grad()
        layer.forward(x)
        grad_x = layer.backward(out)

        eps = 1e-6
        for name in ("W", "U", "b"):
            param = layer.params[name]
            numeric = np.zeros_like(param)
            flat, numeric_flat = param.reshape(-1), numeric.reshape(-1)
            for position in range(flat.size):
                original = flat[position]
                flat[position] = original + eps
                plus = loss()
                flat[position] = original - eps
                minus = loss()
                flat[position] = original
                numeric_flat[position] = (plus - minus) / (2 * eps)
            assert np.allclose(layer.grads[name], numeric, atol=1e-4), name

        numeric_x = np.zeros_like(x)
        flat, numeric_flat = x.reshape(-1), numeric_x.reshape(-1)
        for position in range(flat.size):
            original = flat[position]
            flat[position] = original + eps
            plus = loss()
            flat[position] = original - eps
            minus = loss()
            flat[position] = original
            numeric_flat[position] = (plus - minus) / (2 * eps)
        assert np.allclose(grad_x, numeric_x, atol=1e-4)
