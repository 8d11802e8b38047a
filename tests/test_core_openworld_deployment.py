"""Tests for open-world detection and deployment persistence."""

import numpy as np
import pytest

from repro.config import ClassifierConfig
from repro.core import (
    AdaptiveFingerprinter,
    OpenWorldDetector,
    ReferenceStore,
    load_deployment,
    save_deployment,
)
from repro.traces import SequenceExtractor, collect_dataset, reference_test_split
from repro.web import WikipediaLikeGenerator

from tests.conftest import tiny_hyperparameters, tiny_training_config


def clustered_store(n_classes=4, per_class=15, dim=6, spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_classes, dim)) * 8
    store = ReferenceStore(dim)
    for class_id in range(n_classes):
        points = centres[class_id] + spread * rng.standard_normal((per_class, dim))
        store.add(points, [f"class-{class_id}"] * per_class)
    return store, centres, rng


class TestOpenWorldDetector:
    def test_flags_far_away_queries(self):
        store, centres, rng = clustered_store()
        detector = OpenWorldDetector(store, neighbour=3, percentile=95)
        monitored = centres + 0.1 * rng.standard_normal(centres.shape)
        unmonitored = centres + 40.0  # far outside every cluster
        result = detector.evaluate(monitored, unmonitored)
        assert result.true_positive_rate == 1.0
        assert result.false_positive_rate <= 0.25
        assert result.youden_j > 0.7
        assert detector.threshold > 0.0

    def test_scores_and_is_unknown_shapes(self):
        store, centres, _ = clustered_store()
        detector = OpenWorldDetector(store)
        scores = detector.scores(centres)
        flags = detector.is_unknown(centres)
        assert scores.shape == (len(centres),)
        assert flags.dtype == bool

    def test_validation(self):
        store, centres, _ = clustered_store()
        with pytest.raises(ValueError):
            OpenWorldDetector(ReferenceStore(4))
        with pytest.raises(ValueError):
            OpenWorldDetector(store, neighbour=0)
        with pytest.raises(ValueError):
            OpenWorldDetector(store, percentile=0.0)
        detector = OpenWorldDetector(store)
        with pytest.raises(ValueError):
            detector.scores(np.zeros((2, 99)))
        with pytest.raises(ValueError):
            detector.evaluate(np.zeros((0, store.embedding_dim)), centres)

    def test_neighbour_clamped_to_store_size(self):
        store = ReferenceStore(3)
        store.add(np.random.default_rng(0).standard_normal((4, 3)), ["a", "a", "b", "b"])
        detector = OpenWorldDetector(store, neighbour=50)
        assert detector.neighbour <= 3

    def test_end_to_end_with_trained_model(self, wiki_dataset):
        """Monitored pages stay below the threshold, unmonitored ones mostly above."""
        monitored = wiki_dataset.filter_classes(range(5))
        unmonitored = wiki_dataset.filter_classes(range(5, wiki_dataset.n_classes))
        reference, test = reference_test_split(monitored, 0.8, seed=0)

        fingerprinter = AdaptiveFingerprinter(
            n_sequences=wiki_dataset.n_sequences,
            sequence_length=wiki_dataset.sequence_length,
            hyperparameters=tiny_hyperparameters(),
            # The fixture-default training budget: a 6-epoch run leaves the
            # embedding marginal enough that the assertion below becomes a
            # coin flip on the training trajectory.
            training_config=tiny_training_config(),
            classifier_config=ClassifierConfig(k=10),
            seed=0,
        )
        fingerprinter.provision(reference)
        fingerprinter.initialize(reference)

        detector = OpenWorldDetector(fingerprinter.reference_store, neighbour=3, percentile=97)
        monitored_embeddings = fingerprinter.model.embed_dataset(test)
        unmonitored_embeddings = fingerprinter.model.embed_dataset(unmonitored)
        result = detector.evaluate(monitored_embeddings, unmonitored_embeddings)
        # Unmonitored pages are flagged more often than monitored ones.
        assert result.true_positive_rate > result.false_positive_rate


class TestDeploymentPersistence:
    @pytest.fixture(scope="class")
    def deployment(self, tmp_path_factory):
        website = WikipediaLikeGenerator(n_pages=6, seed=33).generate()
        extractor = SequenceExtractor(max_sequences=3, sequence_length=20)
        dataset = collect_dataset(website, extractor, visits_per_page=10, seed=2)
        reference, test = reference_test_split(dataset, 0.8, seed=0)
        fingerprinter = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=20,
            hyperparameters=tiny_hyperparameters(),
            training_config=tiny_training_config(epochs=5, pairs_per_epoch=500),
            classifier_config=ClassifierConfig(k=8),
            extractor=extractor,
            seed=4,
        )
        fingerprinter.provision(reference)
        fingerprinter.initialize(reference)
        directory = tmp_path_factory.mktemp("deployment")
        save_deployment(fingerprinter, directory)
        return fingerprinter, directory, test

    def test_directory_contents(self, deployment):
        _, directory, _ = deployment
        assert (directory / "config.json").exists()
        assert (directory / "weights.npz").exists()
        assert (directory / "references.rsg").exists()

    def test_roundtrip_preserves_predictions(self, deployment):
        original, directory, test = deployment
        restored = load_deployment(directory)
        assert restored.provisioned and restored.initialized
        original_accuracy = original.evaluate(test, ns=(1, 3)).topn_accuracy
        restored_accuracy = restored.evaluate(test, ns=(1, 3)).topn_accuracy
        assert original_accuracy == restored_accuracy
        # Embeddings are bit-identical after the round trip.
        assert np.allclose(
            original.model.embed_dataset(test), restored.model.embed_dataset(test)
        )

    def test_restored_deployment_can_adapt(self, deployment):
        _, directory, test = deployment
        restored = load_deployment(directory)
        from repro.traces import Trace

        label = restored.reference_store.class_names[0]
        fresh = [Trace(label=label, website="w", sequences=test.data[0])]
        restored.adapt(fresh, replace=True)
        assert restored.reference_store.class_counts()[label] == 1

    def test_spec_with_the_retired_native_kernels_key_still_loads(self, deployment, tmp_path):
        # Deployments saved while IVFPQIndex took a ``native_kernels`` knob
        # carry it in their index spec; loading ignores the key and serves
        # exactly what the same deployment without it serves.
        import json
        import shutil

        from repro.core.index import IVFPQIndex
        from repro.serving import DeploymentManager

        _, directory, test = deployment
        fingerprinter = load_deployment(directory)
        flat = fingerprinter.reference_store
        store = ReferenceStore(
            flat.embedding_dim,
            index_factory=lambda: IVFPQIndex(n_cells=4, n_subspaces=4, min_train_size=16),
        )
        store.add(flat.embeddings, list(flat.labels))
        fingerprinter.attach_references(store)
        current, legacy = tmp_path / "current", tmp_path / "legacy"
        save_deployment(fingerprinter, current)
        shutil.copytree(current, legacy)
        config = json.loads((legacy / "config.json").read_text())
        assert config["index"]["kind"] == "ivfpq" and "native_kernels" not in config["index"]
        config["index"]["native_kernels"] = "auto"
        (legacy / "config.json").write_text(json.dumps(config))

        observations = [sample.T for sample in test.data]  # (time, features)
        expected = load_deployment(current).fingerprint_many(observations)
        restored = load_deployment(legacy)
        assert restored.reference_store.index.spec() == store.index.spec()
        assert restored.fingerprint_many(observations) == expected
        embeddings = restored.model.embed_dataset(test)
        managers = [DeploymentManager.load(path) for path in (current, legacy)]
        try:
            served = [list(manager.snapshot().predict(embeddings)) for manager in managers]
        finally:
            for manager in managers:
                manager.close()
        assert served[1] == served[0]

    def test_unprovisioned_save_rejected(self, tmp_path):
        fingerprinter = AdaptiveFingerprinter(hyperparameters=tiny_hyperparameters())
        with pytest.raises(RuntimeError):
            save_deployment(fingerprinter, tmp_path / "nope")

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_deployment(tmp_path / "absent")
