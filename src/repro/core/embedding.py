"""The embedding neural network (Table I architecture).

The model maps a preprocessed trace — ``(sequence_length, n_sequences)``
time-major byte counts — to a low-dimensional embedding vector.  Its
architecture follows Table I of the paper: an LSTM input layer feeding a
stack of fully-connected ReLU layers with dropout, and a LeakyReLU output
layer producing the 32-dimensional embedding.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.config import EmbeddingHyperparameters
from repro.nn import Dense, Dropout, LeakyReLU, LSTM, ReLU, Sequential, load_weights, save_weights
from repro.traces.dataset import TraceDataset
from repro.traces.trace import Trace

PathLike = Union[str, os.PathLike]


class EmbeddingModel:
    """The trace-embedding network used by the adaptive fingerprinter."""

    def __init__(
        self,
        n_sequences: int,
        hyperparameters: Optional[EmbeddingHyperparameters] = None,
        *,
        seed: int = 0,
    ) -> None:
        if n_sequences < 1:
            raise ValueError("n_sequences must be at least 1")
        self.n_sequences = int(n_sequences)
        self.hyperparameters = hyperparameters if hyperparameters is not None else EmbeddingHyperparameters()
        self.seed = int(seed)
        self.network = self._build_network()

    # ------------------------------------------------------------------- build
    def _build_network(self) -> Sequential:
        hp = self.hyperparameters
        rng = np.random.default_rng(self.seed)
        layers: List = [LSTM(self.n_sequences, hp.lstm_units, rng=rng)]
        previous = hp.lstm_units
        for width in hp.hidden_layer_sizes:
            layers.append(Dense(previous, width, rng=rng))
            layers.append(self._activation(hp.hidden_activation))
            if hp.dropout > 0:
                layers.append(Dropout(hp.dropout, rng=rng))
            previous = width
        layers.append(Dense(previous, hp.embedding_dim, rng=rng))
        layers.append(self._activation(hp.output_activation))
        return Sequential(layers)

    @staticmethod
    def _activation(name: str):
        if name == "relu":
            return ReLU()
        if name == "leaky_relu":
            return LeakyReLU(0.01)
        raise ValueError(f"unknown activation {name!r}")

    # --------------------------------------------------------------- embedding
    @property
    def embedding_dim(self) -> int:
        return self.hyperparameters.embedding_dim

    def embed(self, inputs: np.ndarray, *, training: bool = False, batch_size: int = 256) -> np.ndarray:
        """Embed a batch of model inputs of shape ``(n, time, features)``."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim == 2:
            inputs = inputs[None, :, :]
        if inputs.ndim != 3:
            raise ValueError(f"expected (n, time, features) inputs, got shape {inputs.shape}")
        if inputs.shape[2] != self.n_sequences:
            raise ValueError(
                f"model expects {self.n_sequences} feature channels, got {inputs.shape[2]}"
            )
        # Input normalisation: log1p byte counts land roughly in [0, 16];
        # scaling keeps the LSTM gates away from saturation.
        inputs = inputs * self.hyperparameters.input_scale
        if training:
            return self.network.forward(inputs, training=True)
        embeddings = np.empty((inputs.shape[0], self.embedding_dim))
        for start in range(0, inputs.shape[0], batch_size):
            batch = inputs[start : start + batch_size]
            embeddings[start : start + batch_size] = self.network.forward(batch, training=False)
        return embeddings

    def embed_trace(self, trace: Trace) -> np.ndarray:
        """Embed a single :class:`Trace`; returns a 1-D embedding vector."""
        return self.embed(trace.as_model_input()[None, :, :])[0]

    def embed_dataset(self, dataset: TraceDataset, batch_size: int = 256) -> np.ndarray:
        """Embed every trace of a dataset; rows align with ``dataset.labels``."""
        if dataset.n_sequences != self.n_sequences:
            raise ValueError(
                f"dataset has {dataset.n_sequences} sequences per trace, model expects {self.n_sequences}"
            )
        return self.embed(dataset.model_inputs(), batch_size=batch_size)

    # ------------------------------------------------------------- persistence
    def save(self, path: PathLike) -> Path:
        """Save the network weights (architecture is re-created from config)."""
        return save_weights(self.network, path)

    def load(self, path: PathLike) -> "EmbeddingModel":
        load_weights(self.network, path)
        return self

    @property
    def n_params(self) -> int:
        return self.network.n_params
