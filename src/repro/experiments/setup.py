"""Shared experiment setup: datasets, splits and the provisioned model.

The paper's experiments share one trained embedding model (trained once on
Set A of the Wikipedia dataset, Figure 5) and several datasets.  Building
these is the expensive part of every experiment, so
:class:`ExperimentContext` constructs them once per scale and the per-
experiment runners reuse the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config import (
    ClassifierConfig,
    EmbeddingHyperparameters,
    ExperimentScale,
    TrainingConfig,
    get_scale,
)
from repro.core.fingerprinter import AdaptiveFingerprinter
from repro.core.index import index_from_spec
from repro.core.trainer import TrainingHistory
from repro.traces import SequenceExtractor, TraceDataset, collect_dataset, four_way_split, FourWaySplit
from repro.tls.version import TLSVersion
from repro.web.generators import GithubLikeGenerator, WikipediaLikeGenerator

SEQUENCE_LENGTH = 24
WIKI_SEED = 101
GITHUB_SEED = 202


def ci_hyperparameters(**overrides) -> EmbeddingHyperparameters:
    """Reduced Table-I hyperparameters that train in seconds on a CPU.

    The architecture keeps the paper's shape (LSTM input layer, dense ReLU
    stack, LeakyReLU embedding output, contrastive loss, Euclidean
    distance) but shrinks the widths so a pure-NumPy implementation can run
    every experiment in minutes; the contrastive margin and learning rate
    were re-tuned for the smaller network via the same grid-search
    procedure the paper describes.
    """
    defaults = dict(
        lstm_units=16,
        hidden_layer_sizes=(48, 32),
        embedding_dim=12,
        optimizer="adam",
        dropout=0.0,
        learning_rate=0.03,
        batch_size=64,
        contrastive_margin=3.0,
    )
    defaults.update(overrides)
    return EmbeddingHyperparameters(**defaults)


def ci_training_config(scale: ExperimentScale, **overrides) -> TrainingConfig:
    defaults = dict(epochs=scale.epochs, pairs_per_epoch=scale.pairs_per_epoch, seed=0)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@dataclass
class ExperimentContext:
    """Everything the experiment runners share for one scale."""

    scale: ExperimentScale
    wiki_dataset: TraceDataset
    wiki_split: FourWaySplit
    wiki_tls13_dataset: TraceDataset
    github_dataset: TraceDataset
    fingerprinter: AdaptiveFingerprinter
    training_history: TrainingHistory
    extractor: SequenceExtractor
    datasets_by_name: Dict[str, TraceDataset] = field(default_factory=dict)

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        scale: ExperimentScale | str = "ci",
        *,
        sequence_length: int = SEQUENCE_LENGTH,
        index_spec: Optional[Dict[str, object]] = None,
    ) -> "ExperimentContext":
        """Build datasets, the Figure-5 split and the provisioned model.

        ``index_spec`` (an :func:`~repro.core.index.index_from_spec` dict;
        ``None`` is the exact engine) picks the k-NN query engine every
        reference store of the shared fingerprinter uses, so paper-scale
        sweeps can run on the sublinear, product-quantized ``ivfpq``
        engine (knobs: :mod:`repro.core.knobs`).
        """
        if isinstance(scale, str):
            scale = get_scale(scale)

        extractor = SequenceExtractor(max_sequences=3, sequence_length=sequence_length)

        total_wiki_classes = scale.train_classes + max(scale.exp2_class_counts)
        wiki_site = WikipediaLikeGenerator(n_pages=total_wiki_classes, seed=WIKI_SEED).generate()
        wiki_dataset = collect_dataset(
            wiki_site, extractor, visits_per_page=scale.samples_per_class, seed=WIKI_SEED
        )
        wiki_split = four_way_split(
            wiki_dataset,
            train_classes=scale.train_classes,
            reference_fraction=scale.reference_fraction,
            seed=0,
        )

        # The TLS 1.3 slice of the Wikipedia dataset (Exp. 3, Figure 6): the
        # same pages as the smallest Exp. 1 slice, served over TLS 1.3.
        tls13_classes = min(scale.exp1_class_counts)
        tls13_page_ids = wiki_split.set_a.class_names[:tls13_classes]
        wiki13_site = WikipediaLikeGenerator(
            n_pages=total_wiki_classes, seed=WIKI_SEED, tls_version=TLSVersion.TLS_1_3
        ).generate()
        wiki_tls13_dataset = collect_dataset(
            wiki13_site,
            extractor,
            page_ids=tls13_page_ids,
            visits_per_page=scale.samples_per_class,
            seed=WIKI_SEED + 1,
        )

        # The Github-like TLS 1.3 dataset in the two-sequence encoding.
        github_extractor = SequenceExtractor(
            max_sequences=2, merge_servers=True, sequence_length=sequence_length
        )
        github_site = GithubLikeGenerator(
            n_pages=max(scale.github_class_counts), seed=GITHUB_SEED
        ).generate()
        github_dataset = collect_dataset(
            github_site, github_extractor, visits_per_page=scale.samples_per_class, seed=GITHUB_SEED
        )

        # Provision the model once on Set A (the paper's Experiment 1 model).
        fingerprinter = AdaptiveFingerprinter(
            n_sequences=3,
            sequence_length=sequence_length,
            hyperparameters=ci_hyperparameters(),
            training_config=ci_training_config(scale),
            classifier_config=ClassifierConfig(k=scale.knn_k),
            extractor=extractor,
            seed=0,
            index_factory=lambda: index_from_spec(index_spec),
        )
        history = fingerprinter.provision(wiki_split.set_a)

        return cls(
            scale=scale,
            wiki_dataset=wiki_dataset,
            wiki_split=wiki_split,
            wiki_tls13_dataset=wiki_tls13_dataset,
            github_dataset=github_dataset,
            fingerprinter=fingerprinter,
            training_history=history,
            extractor=extractor,
            datasets_by_name={
                "wiki": wiki_dataset,
                "wiki_tls13": wiki_tls13_dataset,
                "github": github_dataset,
            },
        )

    # --------------------------------------------------------------- utilities
    def slice_known(self, n_classes: int) -> tuple[TraceDataset, TraceDataset]:
        """Reference/test slices of the first ``n_classes`` *training* classes."""
        reference = self.wiki_split.set_a.first_n_classes(n_classes)
        test = self.wiki_split.set_b.first_n_classes(n_classes)
        return reference, test

    def slice_unknown(self, n_classes: int) -> tuple[TraceDataset, TraceDataset]:
        """Reference/test slices of classes never seen during training."""
        reference = self.wiki_split.set_c.first_n_classes(n_classes)
        test = self.wiki_split.set_d.first_n_classes(n_classes)
        return reference, test

    def evaluate_slice(
        self,
        reference: TraceDataset,
        test: TraceDataset,
        ns: tuple = (1, 3, 5, 10, 20),
    ) -> Dict[int, float]:
        """Initialise the shared model on ``reference`` and evaluate on ``test``."""
        self.fingerprinter.initialize(reference)
        return self.fingerprinter.evaluate(test, ns=ns).topn_accuracy

    def guesses_for_slice(self, reference: TraceDataset, test: TraceDataset) -> np.ndarray:
        self.fingerprinter.initialize(reference)
        return self.fingerprinter.guesses_needed(test)
