"""The adaptive fingerprinting facade (Figure 2 of the paper).

:class:`AdaptiveFingerprinter` ties the pipeline together:

1. ``provision(training_dataset)`` — train the embedding model on pairs
   (done once; the expensive step).
2. ``initialize(reference_dataset)`` — embed the labelled reference corpus.
3. ``fingerprint(capture / trace)`` — classify a victim's page load.
4. ``adapt(...)`` — swap or add reference samples to follow page changes or
   new pages, with no retraining: one copy-on-write
   :meth:`~repro.core.reference_store.ReferenceStore.with_changes` step,
   the same update the serving layer swaps in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ClassifierConfig, EmbeddingHyperparameters, TrainingConfig
from repro.core.classifier import KNNClassifier, Prediction
from repro.core.embedding import EmbeddingModel
from repro.core.index import NearestNeighbourIndex, index_from_spec
from repro.core.reference_store import ReferenceStore
from repro.core.trainer import ContrastiveTrainer, TrainingHistory
from repro.net.capture import PacketCapture
from repro.traces.dataset import TraceDataset
from repro.traces.sequences import SequenceExtractor
from repro.traces.trace import Trace


@dataclass
class EvaluationResult:
    """Top-n accuracy of a fingerprinting deployment on a labelled test set."""

    topn_accuracy: Dict[int, float]
    n_classes: int
    n_samples: int

    def accuracy(self, n: int) -> float:
        try:
            return self.topn_accuracy[int(n)]
        except KeyError:
            raise KeyError(f"top-{n} accuracy was not evaluated") from None


class AdaptiveFingerprinter:
    """End-to-end adaptive webpage fingerprinting attack."""

    def __init__(
        self,
        n_sequences: int = 3,
        sequence_length: int = 40,
        hyperparameters: Optional[EmbeddingHyperparameters] = None,
        training_config: Optional[TrainingConfig] = None,
        classifier_config: Optional[ClassifierConfig] = None,
        extractor: Optional[SequenceExtractor] = None,
        seed: int = 0,
        index_factory: Optional[Callable[[], NearestNeighbourIndex]] = None,
    ) -> None:
        self.extractor = extractor if extractor is not None else SequenceExtractor(
            max_sequences=n_sequences,
            sequence_length=sequence_length,
            merge_servers=(n_sequences == 2),
        )
        self.model = EmbeddingModel(
            n_sequences=self.extractor.max_sequences,
            hyperparameters=hyperparameters,
            seed=seed,
        )
        self.training_config = training_config if training_config is not None else TrainingConfig()
        self.classifier_config = classifier_config if classifier_config is not None else ClassifierConfig()
        # The index factory decides the query engine of every reference store
        # this deployment creates (exact by default; IVF for large corpora).
        self.index_factory: Callable[[], NearestNeighbourIndex] = (
            index_factory if index_factory is not None else lambda: index_from_spec(None)
        )
        self.reference_store = ReferenceStore(
            self.model.embedding_dim, index_factory=self.index_factory
        )
        self._classifier: Optional[KNNClassifier] = None
        self._provisioned = False

    # ------------------------------------------------------------ provisioning
    @property
    def provisioned(self) -> bool:
        return self._provisioned

    @property
    def initialized(self) -> bool:
        return len(self.reference_store) > 0

    def provision(self, training_dataset: TraceDataset) -> TrainingHistory:
        """Train the embedding model (the one-off expensive step)."""
        trainer = ContrastiveTrainer(self.model, self.training_config)
        history = trainer.fit(training_dataset)
        self._provisioned = True
        return history

    def mark_provisioned(self) -> None:
        """Declare the model trained (e.g. after loading saved weights)."""
        self._provisioned = True

    # ------------------------------------------------------------ initialization
    def initialize(self, reference_dataset: TraceDataset, *, reset: bool = True) -> None:
        """Populate the reference store from a labelled dataset."""
        self._require_provisioned()
        if reset:
            self.reference_store = ReferenceStore(
                self.model.embedding_dim, index_factory=self.index_factory
            )
        embeddings = self.model.embed_dataset(reference_dataset)
        labels = [reference_dataset.label_name(l) for l in reference_dataset.labels]
        self._update([("add", labels, embeddings)])

    def attach_references(self, references: ReferenceStore) -> None:
        """Adopt an existing reference store (e.g. one restored from disk)."""
        self._require_provisioned()
        if references.embedding_dim != self.model.embedding_dim:
            raise ValueError(
                f"reference store dimension {references.embedding_dim} does not match "
                f"the model's embedding dimension {self.model.embedding_dim}"
            )
        self.reference_store = references
        self._classifier = KNNClassifier(references, self.classifier_config)

    # ------------------------------------------------------------ fingerprinting
    def fingerprint(self, observation: Union[Trace, PacketCapture, np.ndarray]) -> Prediction:
        """Classify one observed page load."""
        return self.fingerprint_many([observation])[0]

    def fingerprint_many(
        self, observations: Sequence[Union[Trace, PacketCapture, np.ndarray]]
    ) -> List[Prediction]:
        """Classify a batch of observed page loads."""
        self._require_initialized()
        inputs = np.stack([self._to_model_input(obs) for obs in observations])
        embeddings = self.model.embed(inputs)
        return self._classifier.predict(embeddings)

    def evaluate(
        self, test_dataset: TraceDataset, ns: Sequence[int] = (1, 3, 5, 10, 20)
    ) -> EvaluationResult:
        """Top-n accuracy of the current deployment on a labelled test set."""
        self._require_initialized()
        embeddings = self.model.embed_dataset(test_dataset)
        labels = [test_dataset.label_name(l) for l in test_dataset.labels]
        accuracy = self._classifier.topn_accuracy(embeddings, labels, ns)
        return EvaluationResult(
            topn_accuracy=accuracy,
            n_classes=test_dataset.n_classes,
            n_samples=len(test_dataset),
        )

    def guesses_needed(self, test_dataset: TraceDataset) -> np.ndarray:
        """Rank of the true label for every test trace (for Figures 9-11)."""
        self._require_initialized()
        embeddings = self.model.embed_dataset(test_dataset)
        labels = [test_dataset.label_name(l) for l in test_dataset.labels]
        return self._classifier.guesses_needed(embeddings, labels)

    # --------------------------------------------------------------- adaptation
    def adaptation_changes(
        self, traces: Sequence[Trace], *, replace: bool = True
    ) -> List[Tuple[str, str, np.ndarray]]:
        """The reference-store changes fresh traces call for, one per label
        (each label's traces embedded as one batch, no retraining).

        ``replace=True`` gives replace changes, which swap out a class's
        references (page content changed) and add a class not monitored
        yet; ``replace=False`` gives add changes, which append (new samples
        for an existing or brand-new page).
        """
        if not traces:
            raise ValueError("adapt requires at least one trace")
        by_label: Dict[str, List[np.ndarray]] = {}
        for trace in traces:
            by_label.setdefault(trace.label, []).append(trace.as_model_input())
        kind = "replace" if replace else "add"
        return [
            (kind, label, self.model.embed(np.stack(inputs))) for label, inputs in by_label.items()
        ]

    def adapt(self, traces: Sequence[Trace], *, replace: bool = True) -> None:
        """Apply :meth:`adaptation_changes` to the reference store as one
        copy-on-write step."""
        self._require_initialized()
        self._update(self.adaptation_changes(traces, replace=replace))

    def remove_page(self, label: str) -> None:
        """Stop monitoring a page (drop its references)."""
        self._require_initialized()
        self._update([("remove", label)])

    def _update(self, changes: Sequence[tuple]) -> None:
        self.reference_store = self.reference_store.with_changes(changes)
        self._classifier = KNNClassifier(self.reference_store, self.classifier_config)

    # ----------------------------------------------------------------- helpers
    def _to_model_input(self, observation: Union[Trace, PacketCapture, np.ndarray]) -> np.ndarray:
        if isinstance(observation, Trace):
            return observation.as_model_input()
        if isinstance(observation, PacketCapture):
            return self.extractor.extract_array(observation).T
        array = np.asarray(observation, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != self.model.n_sequences:
            raise ValueError(
                "raw observations must be (time, features) arrays matching the model's feature count"
            )
        return array

    def _require_provisioned(self) -> None:
        if not self._provisioned:
            raise RuntimeError("the embedding model has not been provisioned (trained) yet")

    def _require_initialized(self) -> None:
        self._require_provisioned()
        if self._classifier is None or len(self.reference_store) == 0:
            raise RuntimeError("the reference store is empty; call initialize() first")
