"""Deployment round-trips under churn, atomic writes and serving warm restarts.

The operational contract: ``save -> load -> adapt (add/remove/replace) ->
predict`` must behave exactly like a fingerprinter that was never
persisted, including the open-world detector's calibration and the
persisted index spec, and an interrupted or incomplete save must never be
mistaken for a valid deployment.
"""

import json

import numpy as np
import pytest

from repro.config import ClassifierConfig
from repro.core import (
    AdaptiveFingerprinter,
    DeploymentError,
    IVFPQIndex,
    KNNClassifier,
    OpenWorldDetector,
    load_deployment,
    save_deployment,
)
from repro.serving import DeploymentManager
from repro.traces import SequenceExtractor, Trace, collect_dataset, reference_test_split
from repro.web import WikipediaLikeGenerator

from tests.conftest import tiny_hyperparameters, tiny_training_config


@pytest.fixture(scope="module")
def trained():
    """A small provisioned+initialised fingerprinter and its datasets."""
    website = WikipediaLikeGenerator(n_pages=6, seed=71).generate()
    extractor = SequenceExtractor(max_sequences=3, sequence_length=20)
    dataset = collect_dataset(website, extractor, visits_per_page=10, seed=5)
    reference, test = reference_test_split(dataset, 0.8, seed=0)
    fingerprinter = AdaptiveFingerprinter(
        n_sequences=3,
        sequence_length=20,
        hyperparameters=tiny_hyperparameters(),
        training_config=tiny_training_config(epochs=5, pairs_per_epoch=500),
        classifier_config=ClassifierConfig(k=8),
        extractor=extractor,
        seed=7,
    )
    fingerprinter.provision(reference)
    fingerprinter.initialize(reference)
    return fingerprinter, reference, test


def churn(fingerprinter, test):
    """One adaptation round: replace a page, add a new one, drop a third."""
    classes = fingerprinter.reference_store.class_names
    replaced, dropped = classes[0], classes[1]
    fresh = [Trace(label=replaced, website="w", sequences=test.data[i]) for i in range(3)]
    fingerprinter.adapt(fresh, replace=True)
    new_page = [Trace(label="page-brand-new", website="w", sequences=test.data[i]) for i in range(2)]
    fingerprinter.adapt(new_page, replace=False)
    fingerprinter.remove_page(dropped)


class TestRoundTripUnderChurn:
    def test_adapt_after_load_matches_never_persisted(self, trained, tmp_path):
        original, _, test = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        restored = load_deployment(directory)

        # Apply the identical churn to the restored copy and the
        # never-persisted original; every prediction must agree.
        churn(original, test)
        churn(restored, test)
        embeddings = original.model.embed_dataset(test)
        observations = [sequences.T for sequences in test.data]
        for a, b in zip(original.fingerprint_many(observations), restored.fingerprint_many(observations)):
            assert a.ranked_labels == b.ranked_labels
            assert a.scores == pytest.approx(b.scores)
        assert restored.reference_store.class_names == original.reference_store.class_names
        assert np.allclose(embeddings, restored.model.embed_dataset(test))

    def test_openworld_calibration_survives_roundtrip(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment-ow"
        save_deployment(original, directory)
        restored = load_deployment(directory)
        original_detector = OpenWorldDetector(original.reference_store, neighbour=3, percentile=95)
        restored_detector = OpenWorldDetector(restored.reference_store, neighbour=3, percentile=95)
        assert restored_detector.threshold == pytest.approx(original_detector.threshold)

    def test_index_spec_preserved_through_churn(self, trained, tmp_path):
        original, reference, test = trained
        ivf = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=20,
            hyperparameters=original.model.hyperparameters,
            classifier_config=ClassifierConfig(k=8),
            extractor=original.extractor,
            seed=7,
            index_factory=lambda: IVFPQIndex(
                n_cells=4, n_probe=4, n_subspaces=4, min_train_size=8
            ),
        )
        original.model.save(tmp_path / "weights.npz")
        ivf.model.load(tmp_path / "weights.npz")
        ivf.mark_provisioned()
        ivf.initialize(reference)
        spec = ivf.reference_store.index.spec()
        assert spec["kind"] == "ivfpq"

        directory = tmp_path / "deployment-ivf"
        save_deployment(ivf, directory)
        restored = load_deployment(directory)
        assert restored.reference_store.index.spec() == spec
        churn(restored, test)
        churn(ivf, test)
        # Adaptation keeps the restored store on the same engine.
        assert restored.reference_store.index.spec() == spec
        observations = [sequences.T for sequences in test.data[:4]]
        for a, b in zip(ivf.fingerprint_many(observations), restored.fingerprint_many(observations)):
            assert a.ranked_labels == b.ranked_labels

    def test_ivfpq_codebooks_roundtrip_without_retrain(self, trained, tmp_path):
        original, reference, test = trained
        pq = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=20,
            hyperparameters=original.model.hyperparameters,
            classifier_config=ClassifierConfig(k=8),
            extractor=original.extractor,
            seed=7,
            index_factory=lambda: IVFPQIndex(
                n_cells=4, n_probe=4, n_subspaces=4, rerank=32, min_train_size=8
            ),
        )
        original.model.save(tmp_path / "weights.npz")
        pq.model.load(tmp_path / "weights.npz")
        pq.mark_provisioned()
        pq.initialize(reference)
        spec = pq.reference_store.index.spec()
        assert spec["kind"] == "ivfpq"
        assert pq.reference_store.index.trained

        directory = tmp_path / "deployment-ivfpq"
        save_deployment(pq, directory)
        restored = load_deployment(directory)
        assert restored.reference_store.index.spec() == spec
        # Codebooks, codes and centroids were adopted from the archive, not
        # re-learned (k-means is seeded, but adoption must be exact).
        assert np.array_equal(
            restored.reference_store.index._centroids, pq.reference_store.index._centroids
        )
        assert np.array_equal(restored.reference_store.index.codes, pq.reference_store.index.codes)

        churn(restored, test)
        churn(pq, test)
        assert restored.reference_store.index.spec() == spec
        observations = [sequences.T for sequences in test.data[:4]]
        for a, b in zip(pq.fingerprint_many(observations), restored.fingerprint_many(observations)):
            assert a.ranked_labels == b.ranked_labels


class TestAtomicWrites:
    def test_overwrite_leaves_single_clean_directory(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        save_deployment(original, directory)  # second save swaps atomically
        assert sorted(p.name for p in directory.iterdir()) == [
            "config.json",
            "references.rsg",
            "weights.npz",
        ]
        # No staging/retired leftovers next to the deployment.
        assert [p.name for p in tmp_path.iterdir()] == ["deployment"]
        assert load_deployment(directory).provisioned

    def test_missing_file_raises_deployment_error(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        (directory / "weights.npz").unlink()
        with pytest.raises(DeploymentError, match="weights.npz"):
            load_deployment(directory)
        # A pre-RSG1 references.npz does not stand in for references.rsg.
        (directory / "references.rsg").rename(directory / "references.npz")
        with pytest.raises(DeploymentError, match="references.rsg"):
            load_deployment(directory)

    def test_unknown_index_spec_raises_deployment_error(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        config = json.loads((directory / "config.json").read_text())
        config["index"] = {"kind": "warp-drive"}
        (directory / "config.json").write_text(json.dumps(config))
        with pytest.raises(DeploymentError, match="warp-drive"):
            load_deployment(directory)

    def test_corrupt_config_raises_deployment_error(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        (directory / "config.json").write_text("{ not json")
        with pytest.raises(DeploymentError, match="config.json"):
            load_deployment(directory)

    def test_malformed_schema_raises_deployment_error(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        config = json.loads((directory / "config.json").read_text())
        del config["hyperparameters"]
        (directory / "config.json").write_text(json.dumps(config))
        with pytest.raises(DeploymentError, match="config.json"):
            load_deployment(directory)

    def test_successful_save_cleans_stale_backups(self, trained, tmp_path):
        original, _, _ = trained
        stale = tmp_path / ".deployment.replaced.99"
        stale.mkdir()
        (stale / "config.json").write_text("{}")
        save_deployment(original, tmp_path / "deployment")
        assert not stale.exists()
        assert load_deployment(tmp_path / "deployment").provisioned

    def test_non_object_config_raises_deployment_error(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        (directory / "config.json").write_text("[]")
        with pytest.raises(DeploymentError, match="JSON object"):
            load_deployment(directory)

    def test_interrupted_overwrite_recovers_previous_deployment(self, trained, tmp_path):
        original, _, _ = trained
        directory = tmp_path / "deployment"
        save_deployment(original, directory)
        # Simulate a crash between the overwrite's two renames: the target
        # is gone, the previous deployment sits under the retired name.
        retired = tmp_path / ".deployment.replaced.12345"
        directory.rename(retired)
        restored = load_deployment(directory)
        assert restored.provisioned and restored.initialized
        assert directory.is_dir() and not retired.exists()

    def test_missing_directory_is_both_error_kinds(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_deployment(tmp_path / "absent")
        with pytest.raises(DeploymentError):
            load_deployment(tmp_path / "absent")


class TestParentDeployments:
    """Deployments written while the classifier had ``distance_metric`` and
    ``weighting`` options, index specs carried a ``metric`` key and the
    embedding hyperparameters a ``distance_metric``."""

    @staticmethod
    def saved_with(original, directory, *, distance_metric, weighting, index_metric):
        save_deployment(original, directory)
        config = json.loads((directory / "config.json").read_text())
        config["classifier"].update(distance_metric=distance_metric, weighting=weighting)
        config["index"]["metric"] = index_metric
        (directory / "config.json").write_text(json.dumps(config))
        return directory

    def test_euclidean_uniform_deployment_classifies_identically(self, trained, tmp_path):
        original, _, test = trained
        directory = self.saved_with(
            original,
            tmp_path / "deployment",
            distance_metric="euclidean",
            weighting="uniform",
            index_metric="euclidean",
        )
        restored = load_deployment(directory)
        observations = [sequences.T for sequences in test.data]
        for a, b in zip(original.fingerprint_many(observations), restored.fingerprint_many(observations)):
            assert (a.ranked_labels, a.scores) == (b.ranked_labels, b.scores)

    def test_parent_deployment_loads_and_only_euclidean_embeddings_do(self, trained, tmp_path):
        """The embedding hyperparameters carried an unread
        ``distance_metric`` until it was retired: ``"euclidean"`` loads and
        classifies identically, any other value is refused."""
        original, _, test = trained
        observations = [sequences.T for sequences in test.data]
        expected = original.fingerprint_many(observations)
        for metric in ("euclidean", "cosine"):
            directory = save_deployment(original, tmp_path / metric)
            config = json.loads((directory / "config.json").read_text())
            assert "distance_metric" not in config["hyperparameters"]
            config["hyperparameters"]["distance_metric"] = metric
            (directory / "config.json").write_text(json.dumps(config))
            if metric != "euclidean":
                with pytest.raises(DeploymentError, match="hyperparameters.distance_metric"):
                    load_deployment(directory)
                continue
            restored = load_deployment(directory)
            for a, b in zip(expected, restored.fingerprint_many(observations)):
                assert (a.ranked_labels, a.scores) == (b.ranked_labels, b.scores)

    @pytest.mark.parametrize(
        "legacy, named",
        [
            ({"distance_metric": "cosine"}, "classifier.distance_metric"),
            ({"weighting": "distance"}, "classifier.weighting"),
            ({"index_metric": "cityblock"}, "unsupported metric 'cityblock'"),
        ],
        ids=["cosine", "distance", "cityblock"],
    )
    def test_any_other_value_raises_naming_the_key(self, trained, tmp_path, legacy, named):
        original, _, _ = trained
        keys = {
            "distance_metric": "euclidean",
            "weighting": "uniform",
            "index_metric": "euclidean",
            **legacy,
        }
        directory = self.saved_with(original, tmp_path / "deployment", **keys)
        with pytest.raises(DeploymentError, match=named):
            load_deployment(directory)

    def test_ivfpq_spec_with_retired_knobs_off_loads_identically(self, trained, tmp_path):
        """Every ``ivfpq`` spec saved while the engine had OPQ and a
        cell-size cap carries ``opq: false`` and ``max_cell_fraction:
        null``: it loads without retraining, classifies as before and
        saves the same references bytes back."""
        original, reference, test = trained
        pq = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=20,
            hyperparameters=original.model.hyperparameters,
            classifier_config=ClassifierConfig(k=8),
            extractor=original.extractor,
            seed=7,
            index_factory=lambda: IVFPQIndex(n_cells=4, n_subspaces=4, min_train_size=8),
        )
        original.model.save(tmp_path / "weights.npz")
        pq.model.load(tmp_path / "weights.npz")
        pq.mark_provisioned()
        pq.initialize(reference)
        assert pq.reference_store.index.trained
        directory = save_deployment(pq, tmp_path / "deployment")
        config = json.loads((directory / "config.json").read_text())
        config["index"].update(opq=False, max_cell_fraction=None)
        (directory / "config.json").write_text(json.dumps(config))

        restored = load_deployment(directory)
        assert restored.reference_store.index.spec() == pq.reference_store.index.spec()
        assert np.array_equal(restored.reference_store.index.codes, pq.reference_store.index.codes)
        observations = [sequences.T for sequences in test.data]
        for a, b in zip(pq.fingerprint_many(observations), restored.fingerprint_many(observations)):
            assert (a.ranked_labels, a.scores) == (b.ranked_labels, b.scores)
        again = save_deployment(restored, tmp_path / "again")
        assert (again / "references.rsg").read_bytes() == (directory / "references.rsg").read_bytes()

    @pytest.mark.parametrize(
        "removed, named",
        [
            ({"opq": True}, "'opq' was removed"),
            ({"max_cell_fraction": 0.2}, "'max_cell_fraction' was removed"),
            ({"kind": "ivf"}, "kind 'ivf' .* was removed"),
        ],
        ids=["opq", "max_cell_fraction", "ivf"],
    )
    def test_removed_index_setting_raises_naming_the_key(self, trained, tmp_path, removed, named):
        """Built without the setting, such a deployment would not adopt its
        saved index state and would silently re-run k-means."""
        original, _, _ = trained
        directory = save_deployment(original, tmp_path / "deployment")
        config = json.loads((directory / "config.json").read_text())
        config["index"] = {
            **IVFPQIndex().spec(), "opq": False, "max_cell_fraction": None, **removed
        }
        (directory / "config.json").write_text(json.dumps(config))
        with pytest.raises(DeploymentError, match=named):
            load_deployment(directory)


class TestServingWarmRestart:
    def test_manager_save_load_preserves_predictions(self, trained, tmp_path):
        original, _, test = trained
        manager = DeploymentManager.from_fingerprinter(original, n_shards=2)
        # Mutate through the serving path, then persist the live corpus.
        fresh = original.model.embed(np.stack([test.data[0].T, test.data[1].T]))
        manager.replace_class(manager.store.class_names[0], fresh)
        directory = tmp_path / "serving-deployment"
        manager.save(directory)

        restored = DeploymentManager.load(directory, n_shards=2)
        queries = original.model.embed_dataset(test)
        live = manager.snapshot().predict(queries)
        warm = restored.snapshot().predict(queries)
        for a, b in zip(live, warm):
            assert a.ranked_labels == b.ranked_labels
        assert restored.store.class_counts() == manager.store.class_counts()


class TestOneAdaptationPath:
    def test_manager_adapt_is_one_swap_matching_the_fingerprinter(self, trained, tmp_path):
        original, _, test = trained
        # A private copy: adapting swaps the fingerprinter's store.
        fingerprinter = load_deployment(save_deployment(original, tmp_path / "deployment"))
        classes = fingerprinter.reference_store.class_names
        labels = [classes[0], classes[1], "page-brand-new", classes[0]]
        traces = [
            Trace(label=label, website="w", sequences=test.data[i]) for i, label in enumerate(labels)
        ]
        manager = DeploymentManager.from_fingerprinter(fingerprinter, n_shards=2)
        generation = manager.generation
        manager.adapt(traces)
        assert manager.generation == generation + 1  # three labels, one swap
        fingerprinter.adapt(traces)
        queries = fingerprinter.model.embed_dataset(test)
        served = manager.snapshot().predict(queries)
        offline = KNNClassifier(fingerprinter.reference_store, fingerprinter.classifier_config)
        for a, b in zip(served, offline.predict(queries)):
            assert a.ranked_labels == b.ranked_labels and a.scores == b.scores
        assert manager.store.class_counts() == fingerprinter.reference_store.class_counts()
