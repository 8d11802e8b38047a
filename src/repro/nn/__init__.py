"""A small from-scratch NumPy neural-network framework.

The paper trains its embedding model with Keras/TensorFlow (Table I); this
environment has neither, so the framework below provides the pieces the
paper's architecture needs: dense layers, an LSTM input layer, ReLU /
LeakyReLU activations, dropout, SGD and Adam optimizers, the contrastive
loss of Hadsell et al., and weight (de)serialization.

The public surface is intentionally small and mirrors familiar deep-learning
APIs so that the embedding model in :mod:`repro.core.embedding` reads like
the paper's description.
"""

from repro.nn.initializers import glorot_uniform, orthogonal, zeros_init
from repro.nn.layers import Dense, ReLU, LeakyReLU, Dropout, Layer
from repro.nn.lstm import LSTM
from repro.nn.conv import Conv1D, MaxPool1D, Flatten
from repro.nn.network import Sequential
from repro.nn.losses import (
    ContrastiveLoss,
    SoftmaxCrossEntropy,
    euclidean_distance,
)
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.serialization import save_weights, load_weights

__all__ = [
    "glorot_uniform",
    "orthogonal",
    "zeros_init",
    "Layer",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Dropout",
    "LSTM",
    "Conv1D",
    "MaxPool1D",
    "Flatten",
    "Sequential",
    "ContrastiveLoss",
    "SoftmaxCrossEntropy",
    "euclidean_distance",
    "SGD",
    "Adam",
    "Optimizer",
    "save_weights",
    "load_weights",
]
