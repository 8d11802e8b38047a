"""End-to-end tests of the AdaptiveFingerprinter facade and adaptation."""

import numpy as np
import pytest

from repro.config import ClassifierConfig
from repro.core import AdaptationPolicy, AdaptiveFingerprinter
from repro.traces import SequenceExtractor, Trace, reference_test_split
from repro.web import Crawler, MajorUpdate, WikipediaLikeGenerator

from tests.conftest import tiny_hyperparameters, tiny_training_config


@pytest.fixture(scope="module")
def trained_fingerprinter(wiki_dataset):
    """A fingerprinter provisioned and initialised on the shared dataset."""
    fingerprinter = AdaptiveFingerprinter(
        n_sequences=wiki_dataset.n_sequences,
        sequence_length=wiki_dataset.sequence_length,
        hyperparameters=tiny_hyperparameters(),
        training_config=tiny_training_config(epochs=6, pairs_per_epoch=800),
        classifier_config=ClassifierConfig(k=10),
        seed=0,
    )
    reference, test = reference_test_split(wiki_dataset, 0.8, seed=0)
    fingerprinter.provision(reference)
    fingerprinter.initialize(reference)
    return fingerprinter, reference, test


class TestLifecycle:
    def test_must_provision_before_initialize(self, wiki_dataset):
        fingerprinter = AdaptiveFingerprinter(hyperparameters=tiny_hyperparameters())
        with pytest.raises(RuntimeError):
            fingerprinter.initialize(wiki_dataset)

    def test_must_initialize_before_fingerprinting(self, wiki_dataset):
        fingerprinter = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=wiki_dataset.sequence_length,
            hyperparameters=tiny_hyperparameters(),
            training_config=tiny_training_config(epochs=1, pairs_per_epoch=100),
        )
        fingerprinter.provision(wiki_dataset)
        with pytest.raises(RuntimeError):
            fingerprinter.evaluate(wiki_dataset)

    def test_mark_provisioned_skips_training(self, wiki_dataset):
        fingerprinter = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=wiki_dataset.sequence_length,
            hyperparameters=tiny_hyperparameters(),
        )
        fingerprinter.mark_provisioned()
        fingerprinter.initialize(wiki_dataset)
        assert fingerprinter.initialized


class TestFingerprinting:
    def test_accuracy_well_above_chance(self, trained_fingerprinter):
        fingerprinter, reference, test = trained_fingerprinter
        result = fingerprinter.evaluate(test, ns=(1, 3))
        chance = 1.0 / test.n_classes
        assert result.topn_accuracy[1] > 3 * chance
        assert result.topn_accuracy[3] >= result.topn_accuracy[1]
        assert result.n_classes == test.n_classes
        assert result.accuracy(1) == result.topn_accuracy[1]
        with pytest.raises(KeyError):
            result.accuracy(99)

    def test_fingerprint_single_trace(self, trained_fingerprinter, wiki_dataset):
        fingerprinter, _, test = trained_fingerprinter
        trace = Trace(
            label=test.label_name(test.labels[0]),
            website="w",
            sequences=test.data[0],
        )
        prediction = fingerprinter.fingerprint(trace)
        assert len(prediction.ranked_labels) >= 1
        assert prediction.best in wiki_dataset.class_names

    def test_fingerprint_raw_array_and_validation(self, trained_fingerprinter, wiki_dataset):
        fingerprinter, _, test = trained_fingerprinter
        raw = test.data[0].T  # (time, features)
        prediction = fingerprinter.fingerprint(raw)
        assert prediction.best in wiki_dataset.class_names
        with pytest.raises(ValueError):
            fingerprinter.fingerprint(np.zeros((5, 9)))

    def test_fingerprint_capture_directly(self, trained_fingerprinter, wiki_website):
        fingerprinter, _, _ = trained_fingerprinter
        crawler = Crawler(seed=77)
        labeled = crawler.crawl_single(wiki_website, wiki_website.page_ids[0], visit=0)
        prediction = fingerprinter.fingerprint(labeled.capture)
        assert len(prediction.ranked_labels) >= 1

    def test_guesses_needed_bounds(self, trained_fingerprinter):
        fingerprinter, _, test = trained_fingerprinter
        guesses = fingerprinter.guesses_needed(test)
        assert guesses.shape == (len(test),)
        assert np.all(guesses >= 1)
        assert np.all(guesses <= test.n_classes + 1)


class TestAdaptation:
    def test_adapt_replaces_references(self, trained_fingerprinter, wiki_dataset):
        fingerprinter, reference, test = trained_fingerprinter
        label = wiki_dataset.class_names[0]
        before = fingerprinter.reference_store.class_counts()[label]
        fresh = [
            Trace(label=label, website="w", sequences=wiki_dataset.data[i])
            for i in np.flatnonzero(wiki_dataset.labels == 0)[:3]
        ]
        fingerprinter.adapt(fresh, replace=True)
        after = fingerprinter.reference_store.class_counts()[label]
        assert after == 3 and after != before
        # Restore the original references for the remaining tests.
        original = [
            Trace(label=label, website="w", sequences=reference.data[i])
            for i in np.flatnonzero(reference.labels == reference.class_names.index(label))
        ]
        fingerprinter.adapt(original, replace=True)

    def test_adapt_adds_new_class(self, trained_fingerprinter, wiki_dataset):
        fingerprinter, _, _ = trained_fingerprinter
        new_traces = [
            Trace(label="brand-new-page", website="w", sequences=wiki_dataset.data[i])
            for i in range(2)
        ]
        fingerprinter.adapt(new_traces, replace=False)
        assert "brand-new-page" in fingerprinter.reference_store.class_names
        fingerprinter.remove_page("brand-new-page")
        assert "brand-new-page" not in fingerprinter.reference_store.class_names

    def test_adapt_requires_traces(self, trained_fingerprinter):
        fingerprinter, _, _ = trained_fingerprinter
        with pytest.raises(ValueError):
            fingerprinter.adapt([])

    def test_adaptation_recovers_accuracy_after_drift(self, wiki_website, wiki_dataset):
        """The paper's core claim: swapping references (no retraining)
        restores accuracy after a major content change."""
        extractor = SequenceExtractor(max_sequences=3, sequence_length=wiki_dataset.sequence_length)
        fingerprinter = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=wiki_dataset.sequence_length,
            hyperparameters=tiny_hyperparameters(),
            training_config=tiny_training_config(epochs=6, pairs_per_epoch=800),
            classifier_config=ClassifierConfig(k=10),
            extractor=extractor,
            seed=1,
        )
        reference, _ = reference_test_split(wiki_dataset, 0.8, seed=1)
        fingerprinter.provision(reference)
        fingerprinter.initialize(reference)

        # Drift: rewrite half the pages of the website.
        drifted = WikipediaLikeGenerator(n_pages=8, seed=11).generate()
        rng = np.random.default_rng(5)
        changed = MajorUpdate().apply_to_website(drifted, rng, fraction=0.5)
        assert changed

        crawler = Crawler(seed=123)
        policy = AdaptationPolicy(probe_top_n=1, refresh_samples=4)
        report = policy.run(fingerprinter, drifted, crawler, extractor=extractor)
        assert set(report.probed_pages) == set(drifted.page_ids)
        # Changed pages that the probe missed were refreshed with new samples.
        for page in report.refreshed_pages:
            assert fingerprinter.reference_store.class_counts()[page] == 4

        # After adaptation the deployment still recognises the drifted pages.
        post = collect_post_drift_accuracy(fingerprinter, drifted, extractor)
        assert post >= 0.5

    def test_adaptation_policy_validation(self):
        with pytest.raises(ValueError):
            AdaptationPolicy(probe_top_n=0)
        with pytest.raises(ValueError):
            AdaptationPolicy(refresh_samples=0)

    def test_adaptation_adds_unmonitored_pages(self, wiki_website, trained_fingerprinter):
        fingerprinter, _, _ = trained_fingerprinter
        fingerprinter.remove_page(wiki_website.page_ids[-1])
        crawler = Crawler(seed=9)
        policy = AdaptationPolicy(probe_top_n=3, refresh_samples=2)
        report = policy.run(
            fingerprinter,
            wiki_website,
            crawler,
            pages=[wiki_website.page_ids[-1]],
        )
        assert report.added_pages == [wiki_website.page_ids[-1]]
        assert report.refresh_fraction == 0.0


def collect_post_drift_accuracy(fingerprinter, website, extractor, visits=2):
    """Top-3 accuracy against freshly crawled traces of the drifted site."""
    crawler = Crawler(seed=321)
    hits, total = 0, 0
    for page_id in website.page_ids:
        for visit in range(visits):
            labeled = crawler.crawl_single(website, page_id, visit=visit)
            trace = extractor.extract(labeled.capture, label=page_id, website=website.name)
            prediction = fingerprinter.fingerprint(trace)
            hits += int(prediction.contains(page_id, 3))
            total += 1
    return hits / total
