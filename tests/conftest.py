"""Shared fixtures: small-scale datasets and hyperparameters for fast tests."""

import numpy as np
import pytest

from repro.config import ClassifierConfig, EmbeddingHyperparameters, TrainingConfig
from repro.traces import SequenceExtractor, TraceDataset, collect_dataset
from repro.web import WikipediaLikeGenerator, GithubLikeGenerator


def metric_value(registry, name, **labels):
    """One sample of a registry metric as an int — how tests read the
    serving counters, which live only in the shared MetricsRegistry."""
    return int(registry.get(name).value(**labels))


def tiny_hyperparameters(**overrides):
    """A small Table-I-shaped network that trains in seconds on a CPU."""
    defaults = dict(
        lstm_units=12,
        hidden_layer_sizes=(32, 16),
        embedding_dim=8,
        optimizer="adam",
        dropout=0.0,
        learning_rate=0.03,
        batch_size=64,
        contrastive_margin=3.0,
    )
    defaults.update(overrides)
    return EmbeddingHyperparameters(**defaults)


def tiny_training_config(**overrides):
    defaults = dict(epochs=10, pairs_per_epoch=800, seed=0)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture(scope="session")
def wiki_website():
    """A small Wikipedia-like website shared across tests."""
    return WikipediaLikeGenerator(n_pages=8, seed=11).generate()


@pytest.fixture(scope="session")
def wiki_dataset(wiki_website):
    """Preprocessed traces from the shared Wikipedia-like website."""
    extractor = SequenceExtractor(max_sequences=3, sequence_length=24)
    return collect_dataset(wiki_website, extractor, visits_per_page=12, seed=3)


@pytest.fixture(scope="session")
def github_dataset():
    """A small Github-like (TLS 1.3) dataset in the two-sequence encoding."""
    website = GithubLikeGenerator(n_pages=6, seed=21).generate()
    extractor = SequenceExtractor(max_sequences=2, merge_servers=True, sequence_length=24)
    return collect_dataset(website, extractor, visits_per_page=10, seed=4)
