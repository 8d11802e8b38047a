"""Open-world detection: flagging page loads from unmonitored pages.

Section VI-C of the paper notes that a capture of a page *outside* the
monitored set either shows up as an obvious outlier in embedding space (no
reference points nearby) or collides with a monitored class and causes a
misclassification.  :class:`OpenWorldDetector` operationalises the first
case: it calibrates a distance threshold on the reference corpus and flags
queries whose k-th-nearest reference lies beyond it as "unknown page",
turning the closed-world classifier into an open-world one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.reference_store import ReferenceStore


@dataclass
class OpenWorldResult:
    """Detection quality on a labelled open-world evaluation."""

    true_positive_rate: float
    false_positive_rate: float
    threshold: float

    @property
    def youden_j(self) -> float:
        """Youden's J statistic (TPR - FPR), a simple quality summary."""
        return self.true_positive_rate - self.false_positive_rate


class OpenWorldDetector:
    """Distance-threshold detector for unmonitored ("unknown") page loads."""

    def __init__(
        self,
        reference_store: ReferenceStore,
        *,
        neighbour: int = 5,
        percentile: float = 95.0,
    ) -> None:
        if len(reference_store) == 0:
            raise ValueError("the reference store is empty")
        if neighbour <= 0:
            raise ValueError("neighbour must be positive")
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        self.store = reference_store
        self.neighbour = int(min(neighbour, len(reference_store) - 1)) or 1
        self.percentile = float(percentile)
        self.threshold = self._calibrate()

    # -------------------------------------------------------------- calibrate
    def _calibrate(self) -> float:
        """Threshold = percentile of intra-corpus k-th-neighbour distances.

        For every reference embedding the distance to its k-th nearest
        *other* reference is computed; monitored pages should stay below the
        chosen percentile of that distribution, unmonitored pages above it.
        """
        # Top-(k+1) through the store's query engine; the extra neighbour
        # absorbs each reference matching itself at distance zero.
        embeddings = self.store.embeddings
        n = len(self.store)
        distances, ids = self.store.search(embeddings, min(self.neighbour + 1, n))
        distances = np.where(ids == np.arange(n)[:, None], np.inf, distances)
        distances.sort(axis=1)
        kth = distances[:, self.neighbour - 1]
        return float(np.percentile(kth, self.percentile))

    # ----------------------------------------------------------------- detect
    def scores(self, embeddings: np.ndarray) -> np.ndarray:
        """k-th-nearest-reference distance for each query embedding."""
        queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        k = min(self.neighbour, len(self.store))
        distances, _ = self.store.search(queries, k)
        return distances[:, k - 1].copy()

    def is_unknown(self, embeddings: np.ndarray) -> np.ndarray:
        """Boolean array: True where the query looks like an unmonitored page."""
        return self.scores(embeddings) > self.threshold

    # --------------------------------------------------------------- evaluate
    def evaluate(
        self, monitored_embeddings: np.ndarray, unmonitored_embeddings: np.ndarray
    ) -> OpenWorldResult:
        """TPR/FPR of the detector on labelled monitored/unmonitored queries.

        The positive class is "unknown page": the true-positive rate is the
        fraction of unmonitored queries flagged, the false-positive rate the
        fraction of monitored queries incorrectly flagged.
        """
        monitored = np.atleast_2d(monitored_embeddings)
        unmonitored = np.atleast_2d(unmonitored_embeddings)
        if monitored.shape[0] == 0 or unmonitored.shape[0] == 0:
            raise ValueError("both query sets must be non-empty")
        return OpenWorldResult(
            true_positive_rate=float(self.is_unknown(unmonitored).mean()),
            false_positive_rate=float(self.is_unknown(monitored).mean()),
            threshold=self.threshold,
        )
