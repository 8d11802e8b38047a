"""Configuration objects for the adaptive fingerprinting system.

The values in :class:`EmbeddingHyperparameters` default to Table I of the
paper (the hyperparameters of the embedding neural network).  Experiment
runners use :class:`ExperimentScale` to pick between the paper's class
counts and a laptop-scale reduction that preserves the relative structure.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Dict, Tuple


@dataclass(frozen=True)
class EmbeddingHyperparameters:
    """Hyperparameters of the embedding neural network (paper Table I).

    Attributes mirror the rows of Table I.  ``hidden_layer_sizes`` holds the
    four fully-connected hidden layers whose sizes the paper selected via
    grid search in the 100-2000 neuron range.
    """

    lstm_units: int = 30
    hidden_layer_sizes: Tuple[int, ...] = (256, 256, 128, 64)
    hidden_activation: str = "relu"
    embedding_dim: int = 32
    input_scale: float = 0.1
    output_activation: str = "leaky_relu"
    optimizer: str = "sgd"
    dropout: float = 0.1
    learning_rate: float = 0.001
    batch_size: int = 512
    distance_metric: str = "euclidean"
    contrastive_margin: float = 10.0

    def as_dict(self) -> Dict[str, object]:
        """Return the hyperparameters as a plain dictionary."""
        return asdict(self)


@dataclass(frozen=True)
class TrainingConfig:
    """Training-loop parameters for the siamese embedding model."""

    epochs: int = 10
    pairs_per_epoch: int = 4096
    pair_strategy: str = "random"
    positive_fraction: float = 0.5
    shuffle: bool = True
    seed: int = 0
    momentum: float = 0.0
    gradient_clip: float = 0.0
    verbose: bool = False


@dataclass(frozen=True)
class ClassifierConfig:
    """Configuration of the proximity (k-NN) classifier.

    The ``k`` nearest references under Euclidean distance (the distance
    the embedding is trained under) each cast one vote.  The paper uses
    ``k = 250`` for all webpage-fingerprinting experiments; scaled-down
    runs use a proportionally smaller ``k``.
    """

    k: int = 250


@dataclass(frozen=True)
class ExperimentScale:
    """Scale of an experiment: class counts and samples per class.

    ``paper`` mirrors the counts in the paper; ``ci`` is a laptop-scale
    reduction preserving the relative structure (ratios between the class
    counts of the sweep, the 90/10 reference/test split and the disjoint
    Set A vs. Set C/D geometry of Figure 5).
    """

    name: str
    exp1_class_counts: Tuple[int, ...]
    exp2_class_counts: Tuple[int, ...]
    train_classes: int
    samples_per_class: int
    reference_fraction: float = 0.9
    github_class_counts: Tuple[int, ...] = (100, 250, 500)
    epochs: int = 10
    pairs_per_epoch: int = 4096
    knn_k: int = 250

    @property
    def reference_samples_per_class(self) -> int:
        return max(1, int(round(self.samples_per_class * self.reference_fraction)))

    @property
    def test_samples_per_class(self) -> int:
        return max(1, self.samples_per_class - self.reference_samples_per_class)


PAPER_SCALE = ExperimentScale(
    name="paper",
    exp1_class_counts=(500, 1000, 3000, 6000),
    exp2_class_counts=(500, 1000, 3000, 6000, 13000),
    train_classes=6000,
    samples_per_class=100,
    github_class_counts=(100, 250, 500),
    epochs=30,
    pairs_per_epoch=200_000,
    knn_k=250,
)

CI_SCALE = ExperimentScale(
    name="ci",
    exp1_class_counts=(10, 20, 40, 60),
    exp2_class_counts=(10, 20, 40, 60, 130),
    train_classes=60,
    samples_per_class=20,
    github_class_counts=(10, 25, 50),
    epochs=6,
    pairs_per_epoch=1500,
    knn_k=15,
)

SMOKE_SCALE = ExperimentScale(
    name="smoke",
    exp1_class_counts=(5, 8),
    exp2_class_counts=(5, 8),
    train_classes=8,
    samples_per_class=8,
    github_class_counts=(5,),
    epochs=2,
    pairs_per_epoch=200,
    knn_k=5,
)

SCALES: Dict[str, ExperimentScale] = {
    "paper": PAPER_SCALE,
    "ci": CI_SCALE,
    "smoke": SMOKE_SCALE,
}


def get_scale(name: str) -> ExperimentScale:
    """Look up an :class:`ExperimentScale` by name.

    Raises ``KeyError`` with the list of known scales if ``name`` is
    unknown, which gives a clearer error than a plain dictionary lookup.
    """
    try:
        return SCALES[name]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise KeyError(f"unknown scale {name!r}; known scales: {known}") from None
