"""Tests for the comparator attacks (k-FP, DF, HMM)."""

import numpy as np
import pytest

from repro.baselines import (
    DecisionTree,
    DeepFingerprintingClassifier,
    KFingerprintingAttack,
    RandomForest,
    UserJourneyHMM,
    feature_names,
    handcrafted_features,
)
from repro.traces import Trace, TraceDataset, reference_test_split
from repro.web import WikipediaLikeGenerator


def synthetic_dataset(n_classes=4, samples_per_class=12, seed=0):
    """Class volume differs strongly -> easy for any sensible attack."""
    rng = np.random.default_rng(seed)
    traces = []
    for class_id in range(n_classes):
        for _ in range(samples_per_class):
            sequences = np.zeros((3, 10))
            sequences[0, 0] = 400 + rng.normal(0, 20)
            sequences[1, 1:5] = (class_id + 1) * 8_000 + rng.normal(0, 200, size=4)
            sequences[2, 3:5] = 3_000 + class_id * 2_000 + rng.normal(0, 100, size=2)
            traces.append(
                Trace(label=f"page-{class_id}", website="w", sequences=np.log1p(np.abs(sequences)))
            )
    return TraceDataset.from_traces(traces)


class TestFeatures:
    def test_feature_matrix_shape_and_names(self):
        dataset = synthetic_dataset()
        features = handcrafted_features(dataset)
        names = feature_names(dataset.n_sequences)
        assert features.shape == (len(dataset), len(names))
        assert "seq0_total_bytes" in names and "trace_total_bytes" in names

    def test_features_separate_classes(self):
        dataset = synthetic_dataset()
        features = handcrafted_features(dataset)
        totals = features[:, feature_names(3).index("trace_total_bytes")]
        class_means = [totals[dataset.labels == c].mean() for c in range(dataset.n_classes)]
        assert sorted(class_means) == class_means  # volumes grow with class id


class TestRandomForest:
    def test_tree_fits_simple_rule(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((200, 3))
        labels = (features[:, 1] > 0).astype(int)
        tree = DecisionTree(max_depth=3, rng=np.random.default_rng(1)).fit(features, labels)
        accuracy = (tree.predict(features) == labels).mean()
        assert accuracy > 0.95
        assert tree.n_leaves >= 2

    def test_tree_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((3, 2)), np.zeros(4, dtype=int))
        with pytest.raises(RuntimeError):
            DecisionTree().predict(np.zeros((1, 2)))

    def test_forest_accuracy_and_proba(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((300, 4))
        labels = ((features[:, 0] + features[:, 2]) > 0).astype(int)
        forest = RandomForest(n_trees=15, max_depth=4, seed=0).fit(features, labels)
        probabilities = forest.predict_proba(features)
        assert probabilities.shape == (300, 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0)
        assert (forest.predict(features) == labels).mean() > 0.9

    def test_forest_apply_leaf_vectors(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((100, 3))
        labels = (features[:, 0] > 0).astype(int)
        forest = RandomForest(n_trees=7, max_depth=3, seed=1).fit(features, labels)
        leaves = forest.apply(features)
        assert leaves.shape == (100, 7)
        assert leaves.dtype == np.int64

    def test_forest_validation(self):
        with pytest.raises(ValueError):
            RandomForest(n_trees=0)
        with pytest.raises(RuntimeError):
            RandomForest().predict_proba(np.zeros((1, 2)))


class TestKFingerprinting:
    def test_high_accuracy_on_separable_data(self):
        dataset = synthetic_dataset()
        reference, test = reference_test_split(dataset, 0.75, seed=0)
        attack = KFingerprintingAttack(n_trees=15, max_depth=6, k_neighbours=3, seed=0).fit(reference)
        accuracy = attack.topn_accuracy(test, ns=(1, 3))
        assert accuracy[1] > 0.7
        assert accuracy[3] >= accuracy[1]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            KFingerprintingAttack().rank_labels(synthetic_dataset())
        with pytest.raises(ValueError):
            KFingerprintingAttack(k_neighbours=0)


class TestDeepFingerprinting:
    def test_classifier_learns_and_ranks(self):
        dataset = synthetic_dataset()
        reference, test = reference_test_split(dataset, 0.75, seed=2)
        classifier = DeepFingerprintingClassifier(
            hidden_sizes=(32,), epochs=40, batch_size=16, learning_rate=0.01, dropout=0.0, seed=0
        ).fit(reference)
        assert classifier.loss_history[-1] < classifier.loss_history[0]
        accuracy = classifier.topn_accuracy(test, ns=(1, 3))
        assert accuracy[1] > 0.7
        probabilities = classifier.predict_proba(test)
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_cnn_architecture_learns_and_ranks(self):
        dataset = synthetic_dataset()
        reference, test = reference_test_split(dataset, 0.75, seed=4)
        classifier = DeepFingerprintingClassifier(
            architecture="cnn",
            conv_filters=(8,),
            kernel_size=3,
            pool_size=2,
            hidden_sizes=(32,),
            epochs=40,
            batch_size=16,
            learning_rate=0.01,
            dropout=0.0,
            seed=0,
        ).fit(reference)
        accuracy = classifier.topn_accuracy(test, ns=(1, 3))
        assert accuracy[1] > 0.6
        assert accuracy[3] >= accuracy[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            DeepFingerprintingClassifier(epochs=0)
        with pytest.raises(ValueError):
            DeepFingerprintingClassifier(architecture="transformer")
        with pytest.raises(RuntimeError):
            DeepFingerprintingClassifier().predict_proba(synthetic_dataset())


class TestUserJourneyHMM:
    @pytest.fixture(scope="class")
    def website(self):
        return WikipediaLikeGenerator(n_pages=6, seed=5).generate()

    def test_transition_matrix_is_stochastic(self, website):
        hmm = UserJourneyHMM(website)
        matrix = hmm._transition
        assert matrix.shape == (6, 6)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= 0)

    def test_decode_recovers_journey_with_good_emissions(self, website):
        hmm = UserJourneyHMM(website)
        rng = np.random.default_rng(0)
        journey = hmm.sample_journey(8, rng)
        emissions = np.full((8, 6), 0.02)
        for step, page in enumerate(journey):
            emissions[step, hmm.states.index(page)] = 0.9
        decoded = hmm.decode(emissions)
        assert decoded == journey

    def test_link_graph_prior_improves_noisy_emissions(self, website):
        """The HMM should beat per-load argmax when emissions are noisy."""
        hmm = UserJourneyHMM(website, self_transition=0.05)
        rng = np.random.default_rng(1)
        journeys = [hmm.sample_journey(12, rng) for _ in range(5)]
        hmm_hits, argmax_hits, total = 0, 0, 0
        for journey in journeys:
            emissions = np.zeros((len(journey), len(hmm.states)))
            for step, page in enumerate(journey):
                noise = rng.random(len(hmm.states))
                emissions[step] = noise / noise.sum() * 0.65
                emissions[step, hmm.states.index(page)] += 0.35
            decoded = hmm.decode(emissions)
            argmax = [hmm.states[int(np.argmax(row))] for row in emissions]
            hmm_hits += sum(p == a for p, a in zip(decoded, journey))
            argmax_hits += sum(p == a for p, a in zip(argmax, journey))
            total += len(journey)
        # The link-graph prior should help (or at worst cost a step or two
        # to noise) compared with classifying every load independently.
        assert hmm_hits + 2 >= argmax_hits
        assert hmm_hits > 0.3 * total

    def test_validation(self, website):
        hmm = UserJourneyHMM(website)
        with pytest.raises(ValueError):
            hmm.decode(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            hmm.sample_journey(0, np.random.default_rng(0))
        with pytest.raises(KeyError):
            hmm.sample_journey(3, np.random.default_rng(0), start="ghost")
        with pytest.raises(ValueError):
            UserJourneyHMM(website, self_transition=1.0)

