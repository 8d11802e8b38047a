"""Tests for the embedding model and the contrastive trainer."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.core import ContrastiveTrainer, EmbeddingModel
from repro.traces import Trace, TraceDataset

from tests.conftest import tiny_hyperparameters, tiny_training_config


class TestEmbeddingModel:
    def test_architecture_matches_table1_defaults(self):
        model = EmbeddingModel(n_sequences=3)
        hp = model.hyperparameters
        assert hp.lstm_units == 30
        assert hp.embedding_dim == 32
        assert hp.contrastive_margin == 10.0
        assert hp.batch_size == 512
        assert len(hp.hidden_layer_sizes) == 4
        # Output of the network is the embedding dimension.
        x = np.random.default_rng(0).random((2, 10, 3))
        assert model.embed(x).shape == (2, 32)

    def test_embed_shapes_and_batching(self):
        model = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters())
        x = np.random.default_rng(1).random((7, 12, 2))
        full = model.embed(x)
        batched = model.embed(x, batch_size=3)
        assert full.shape == (7, 8)
        assert np.allclose(full, batched)

    def test_embed_single_2d_input(self):
        model = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters())
        single = np.random.default_rng(2).random((12, 2))
        assert model.embed(single).shape == (1, 8)

    def test_embed_of_nothing_is_an_empty_batch(self):
        model = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters())
        empty = model.embed(np.zeros((0, 12, 2)))
        assert empty.shape == (0, 8) and empty.dtype == np.float64
        dataset = TraceDataset(data=np.zeros((0, 2, 12)), labels=[], class_names=[])
        assert model.embed_dataset(dataset).shape == (0, 8)

    def test_embed_trace_and_dataset(self, wiki_dataset):
        model = EmbeddingModel(
            n_sequences=wiki_dataset.n_sequences, hyperparameters=tiny_hyperparameters()
        )
        embeddings = model.embed_dataset(wiki_dataset)
        assert embeddings.shape == (len(wiki_dataset), 8)
        trace = Trace(
            label=wiki_dataset.label_name(0),
            website="w",
            sequences=wiki_dataset.data[0],
        )
        assert model.embed(trace.as_model_input()[None])[0].shape == (8,)

    def test_input_validation(self):
        model = EmbeddingModel(n_sequences=3, hyperparameters=tiny_hyperparameters())
        with pytest.raises(ValueError):
            model.embed(np.zeros((2, 10, 4)))
        with pytest.raises(ValueError):
            model.embed(np.zeros(10))
        with pytest.raises(ValueError):
            EmbeddingModel(n_sequences=0)
        with pytest.raises(ValueError):
            EmbeddingModel(n_sequences=3, hyperparameters=tiny_hyperparameters(hidden_activation="gelu"))

    def test_dataset_sequence_mismatch(self, wiki_dataset):
        model = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters())
        with pytest.raises(ValueError):
            model.embed_dataset(wiki_dataset)

    def test_save_load_roundtrip(self, tmp_path):
        model = EmbeddingModel(n_sequences=3, hyperparameters=tiny_hyperparameters(), seed=1)
        x = np.random.default_rng(3).random((4, 10, 3))
        expected = model.embed(x)
        path = model.save(tmp_path / "embedder")
        fresh = EmbeddingModel(n_sequences=3, hyperparameters=tiny_hyperparameters(), seed=99)
        assert not np.allclose(fresh.embed(x), expected)
        fresh.load(path)
        assert np.allclose(fresh.embed(x), expected)

    def test_different_seeds_different_weights(self):
        a = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters(), seed=1)
        b = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters(), seed=2)
        x = np.random.default_rng(0).random((3, 8, 2))
        assert not np.allclose(a.embed(x), b.embed(x))

    def test_n_params_positive(self):
        model = EmbeddingModel(n_sequences=3, hyperparameters=tiny_hyperparameters())
        assert model.n_params > 1000


class TestContrastiveTrainer:
    def test_training_reduces_loss(self, wiki_dataset):
        model = EmbeddingModel(
            n_sequences=wiki_dataset.n_sequences, hyperparameters=tiny_hyperparameters(), seed=0
        )
        trainer = ContrastiveTrainer(model, tiny_training_config(epochs=5, pairs_per_epoch=600))
        history = trainer.fit(wiki_dataset)
        assert len(history.epoch_losses) == 5
        assert history.wall_time_seconds > 0
        assert history.final_loss < history.epoch_losses[0]

    def test_trained_embeddings_separate_classes(self, wiki_dataset):
        model = EmbeddingModel(
            n_sequences=wiki_dataset.n_sequences, hyperparameters=tiny_hyperparameters(), seed=1
        )
        trainer = ContrastiveTrainer(model, tiny_training_config(epochs=6, pairs_per_epoch=800))
        trainer.fit(wiki_dataset)
        accuracy = trainer.pair_accuracy(wiki_dataset, n_pairs=300)
        assert accuracy > 0.7

    def test_training_requires_two_classes(self, wiki_dataset):
        single = wiki_dataset.first_n_classes(1)
        model = EmbeddingModel(n_sequences=3, hyperparameters=tiny_hyperparameters())
        trainer = ContrastiveTrainer(model, tiny_training_config())
        with pytest.raises(ValueError):
            trainer.fit(single)

    def test_train_step_shape_mismatch(self):
        model = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters())
        trainer = ContrastiveTrainer(model, tiny_training_config())
        with pytest.raises(ValueError):
            trainer.train_step(np.zeros((2, 5, 2)), np.zeros((3, 5, 2)), np.zeros(2))

    def test_sgd_optimizer_path(self, wiki_dataset):
        model = EmbeddingModel(
            n_sequences=wiki_dataset.n_sequences,
            hyperparameters=tiny_hyperparameters(optimizer="sgd", learning_rate=0.005),
            seed=2,
        )
        trainer = ContrastiveTrainer(model, tiny_training_config(epochs=2, pairs_per_epoch=200, momentum=0.9))
        history = trainer.fit(wiki_dataset)
        assert len(history.epoch_losses) == 2
        assert np.isfinite(history.final_loss)

    def test_unknown_optimizer_rejected(self):
        model = EmbeddingModel(n_sequences=2, hyperparameters=tiny_hyperparameters(optimizer="rmsprop"))
        with pytest.raises(ValueError):
            ContrastiveTrainer(model, tiny_training_config())

    def test_hard_negative_strategy_runs(self, wiki_dataset):
        model = EmbeddingModel(
            n_sequences=wiki_dataset.n_sequences, hyperparameters=tiny_hyperparameters(), seed=3
        )
        trainer = ContrastiveTrainer(
            model, tiny_training_config(epochs=2, pairs_per_epoch=200, pair_strategy="hard_negative")
        )
        history = trainer.fit(wiki_dataset)
        assert len(history.epoch_losses) == 2

    def test_history_validation(self):
        from repro.core.trainer import TrainingHistory

        empty = TrainingHistory()
        with pytest.raises(ValueError):
            _ = empty.final_loss
