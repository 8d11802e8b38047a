"""Loss functions.

:class:`ContrastiveLoss` implements equation (1) of the paper
(Hadsell/Chopra contrastive loss over the Euclidean distance between two
embeddings), together with the gradients with respect to both embeddings so
a siamese pair can be trained with a single shared network.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_EPSILON = 1e-12


def euclidean_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance between two batches of embeddings."""
    if a.shape != b.shape:
        raise ValueError(f"embedding shapes differ: {a.shape} vs {b.shape}")
    return np.sqrt(np.sum((a - b) ** 2, axis=1) + _EPSILON)


class ContrastiveLoss:
    """Contrastive loss  L(d, y) = y d^2 + (1 - y) max(margin - d, 0)^2.

    ``y = 1`` marks a positive pair (same webpage) and ``y = 0`` a negative
    pair, matching the pair-labelling convention of Section IV-A.2.
    """

    def __init__(self, margin: float = 10.0) -> None:
        if margin <= 0:
            raise ValueError("contrastive margin must be positive")
        self.margin = float(margin)

    def forward(self, emb_a: np.ndarray, emb_b: np.ndarray, labels: np.ndarray) -> float:
        """Mean loss over the batch."""
        labels = np.asarray(labels, dtype=np.float64)
        d = euclidean_distance(emb_a, emb_b)
        positive_term = labels * d**2
        negative_term = (1.0 - labels) * np.maximum(self.margin - d, 0.0) ** 2
        return float(np.mean(positive_term + negative_term))

    def backward(
        self, emb_a: np.ndarray, emb_b: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradients of the mean loss w.r.t. both embedding batches."""
        labels = np.asarray(labels, dtype=np.float64)
        batch = emb_a.shape[0]
        diff = emb_a - emb_b
        d = euclidean_distance(emb_a, emb_b)

        # d(L)/d(d):  2 y d  -  2 (1 - y) max(margin - d, 0)
        hinge = np.maximum(self.margin - d, 0.0)
        dl_dd = 2.0 * labels * d - 2.0 * (1.0 - labels) * hinge
        # d(d)/d(emb_a) = diff / d ;  guard the division for identical rows.
        scale = (dl_dd / np.maximum(d, _EPSILON))[:, None] / batch
        grad_a = scale * diff
        grad_b = -grad_a
        return grad_a, grad_b

    def __call__(self, emb_a: np.ndarray, emb_b: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(emb_a, emb_b, labels)


class SoftmaxCrossEntropy:
    """Combined softmax + cross-entropy over integer class labels.

    Used by the Deep-Fingerprinting-style baseline classifier whose output
    layer is a per-class softmax (unlike the paper's embedding model).
    """

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        probs = self.softmax(logits)
        batch = logits.shape[0]
        picked = probs[np.arange(batch), labels]
        return float(-np.mean(np.log(np.clip(picked, _EPSILON, None))))

    def backward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        probs = self.softmax(logits)
        batch = logits.shape[0]
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        return grad / batch

    @staticmethod
    def softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)
