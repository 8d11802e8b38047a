"""Contrastive (siamese) training of the embedding model.

The trainer implements the provisioning step of Section IV-A: pairs of
traces are pushed through the shared embedding network, the contrastive
loss of equation (1) compares their embeddings, and plain SGD (Table I)
updates the weights.  Both pair members are processed in one concatenated
batch so that the layer caches used by back-propagation are consistent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import EmbeddingHyperparameters, TrainingConfig
from repro.core.embedding import EmbeddingModel
from repro.core.pairs import PairGenerator
from repro.nn import Adam, ContrastiveLoss, SGD
from repro.traces.dataset import TraceDataset


@dataclass
class TrainingHistory:
    """Per-epoch record of the provisioning run."""

    epoch_losses: List[float] = field(default_factory=list)
    pair_counts: List[int] = field(default_factory=list)
    wall_time_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]


class ContrastiveTrainer:
    """Trains an :class:`EmbeddingModel` on labelled traces."""

    def __init__(
        self,
        model: EmbeddingModel,
        training_config: Optional[TrainingConfig] = None,
    ) -> None:
        self.model = model
        self.config = training_config if training_config is not None else TrainingConfig()
        hp = self.model.hyperparameters
        self.loss_fn = ContrastiveLoss(margin=hp.contrastive_margin)
        self.optimizer = self._build_optimizer(hp)
        self.pair_generator = PairGenerator(
            strategy=self.config.pair_strategy,
            positive_fraction=self.config.positive_fraction,
        )

    def _build_optimizer(self, hp: EmbeddingHyperparameters):
        if hp.optimizer == "sgd":
            return SGD(
                self.model.network,
                learning_rate=hp.learning_rate,
                momentum=self.config.momentum,
                gradient_clip=self.config.gradient_clip,
            )
        if hp.optimizer == "adam":
            return Adam(
                self.model.network,
                learning_rate=hp.learning_rate,
                gradient_clip=self.config.gradient_clip,
            )
        raise ValueError(f"unknown optimizer {hp.optimizer!r}")

    # ------------------------------------------------------------------- train
    def fit(self, dataset: TraceDataset) -> TrainingHistory:
        """Run the full provisioning training loop on ``dataset``."""
        if dataset.n_classes < 2:
            raise ValueError("training requires at least two classes")
        inputs = dataset.model_inputs()
        labels = dataset.labels
        rng = np.random.default_rng(self.config.seed)
        history = TrainingHistory()
        started = time.perf_counter()

        for epoch in range(self.config.epochs):
            embeddings = None
            if self.pair_generator.strategy != "random":
                embeddings = self.model.embed(inputs)
            left, right, similarity = self.pair_generator.generate(
                labels, self.config.pairs_per_epoch, rng, embeddings=embeddings
            )
            epoch_loss = self._run_epoch(inputs, left, right, similarity, rng)
            history.epoch_losses.append(epoch_loss)
            history.pair_counts.append(len(left))
            if self.config.verbose:
                print(f"epoch {epoch + 1}/{self.config.epochs}: contrastive loss {epoch_loss:.4f}")

        history.wall_time_seconds = time.perf_counter() - started
        return history

    def _run_epoch(
        self,
        inputs: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        similarity: np.ndarray,
        rng: np.random.Generator,
    ) -> float:
        batch_size = self.model.hyperparameters.batch_size
        order = rng.permutation(len(left)) if self.config.shuffle else np.arange(len(left))
        losses: List[float] = []
        weights: List[int] = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            loss = self.train_step(inputs[left[batch]], inputs[right[batch]], similarity[batch])
            losses.append(loss)
            weights.append(len(batch))
        return float(np.average(losses, weights=weights))

    def train_step(self, batch_a: np.ndarray, batch_b: np.ndarray, similarity: np.ndarray) -> float:
        """One optimizer update on a batch of pairs; returns the batch loss."""
        if batch_a.shape != batch_b.shape:
            raise ValueError("pair batches must have identical shapes")
        n = batch_a.shape[0]
        stacked = np.concatenate([batch_a, batch_b], axis=0)
        self.optimizer.zero_grad()
        embeddings = self.model.embed(stacked, training=True)
        emb_a, emb_b = embeddings[:n], embeddings[n:]
        loss = self.loss_fn.forward(emb_a, emb_b, similarity)
        grad_a, grad_b = self.loss_fn.backward(emb_a, emb_b, similarity)
        self.model.network.backward(np.concatenate([grad_a, grad_b], axis=0))
        self.optimizer.step()
        return loss

    # -------------------------------------------------------------- validation
    def pair_accuracy(self, dataset: TraceDataset, n_pairs: int = 512, threshold: Optional[float] = None, seed: int = 1) -> float:
        """Fraction of held-out pairs the embedding separates correctly.

        A pair counts as correct when a positive pair's distance is below
        ``threshold`` and a negative pair's is above it (default: half the
        contrastive margin).
        """
        threshold = threshold if threshold is not None else self.loss_fn.margin / 2.0
        rng = np.random.default_rng(seed)
        left, right, similarity = self.pair_generator.generate(dataset.labels, n_pairs, rng)
        inputs = dataset.model_inputs()
        emb_left = self.model.embed(inputs[left])
        emb_right = self.model.embed(inputs[right])
        distances = np.sqrt(np.sum((emb_left - emb_right) ** 2, axis=1))
        predicted_similar = distances < threshold
        return float(np.mean(predicted_similar == (similarity > 0.5)))
