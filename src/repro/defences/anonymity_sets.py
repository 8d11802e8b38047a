"""Per-website anonymity-set padding (Section VII's proposed policy).

Instead of making every page of a website indistinguishable from every
other page (FL padding, expensive for large sites), the site operator
partitions pages into anonymity sets of a configurable minimum size and
pads only *within* each set: all pages of a set are padded to that set's
maximum.  Pages inside the same set become mutually indistinguishable by
volume while the bandwidth overhead stays bounded, because pages are
grouped with other pages of similar size.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.defences.base import TraceDefence
from repro.traces.dataset import TraceDataset


class AnonymitySetPadding(TraceDefence):
    """Group classes into size-ordered anonymity sets and pad within sets."""

    def __init__(self, set_size: int = 10) -> None:
        if set_size < 2:
            raise ValueError("anonymity sets need at least two pages")
        self.set_size = int(set_size)

    def _pad(self, raw: np.ndarray, dataset: TraceDataset, rng: np.random.Generator) -> np.ndarray:
        assignments = self.class_assignments_from_raw(raw, dataset)
        totals = self.sequence_totals(raw)  # (n, s)
        padded_targets = np.zeros_like(totals)
        set_ids = np.array([assignments[int(label)] for label in dataset.labels])
        for set_id in np.unique(set_ids):
            members = set_ids == set_id
            padded_targets[members] = totals[members].max(axis=0)[None, :]
        deficits = np.maximum(0.0, padded_targets - totals)
        return self.add_to_last_active_position(raw, deficits)

    def class_assignments_from_raw(self, raw: np.ndarray, dataset: TraceDataset) -> Dict[int, int]:
        """Map every class id to its anonymity-set id.

        Classes are sorted by their mean trace volume and grouped in runs of
        ``set_size`` so that similarly sized pages share a set (minimising
        the padding each member needs).
        """
        totals = self.trace_totals(raw)
        class_means = np.zeros(dataset.n_classes)
        for class_id in range(dataset.n_classes):
            mask = dataset.labels == class_id
            class_means[class_id] = totals[mask].mean() if mask.any() else 0.0
        order = np.argsort(class_means, kind="stable")
        return {int(class_id): rank // self.set_size for rank, class_id in enumerate(order)}

    @property
    def name(self) -> str:
        return f"AnonymitySetPadding(set_size={self.set_size})"
