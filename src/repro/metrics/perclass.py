"""Per-class distinguishability metrics (Experiment 4, Figures 9-11).

The per-sample accuracy curves hide that some pages are much easier to
fingerprint than others.  Experiment 4 therefore looks at the *mean number
of guesses needed per class* and plots its cumulative distribution across
classes: a large mass at small guess counts means many pages are trivially
distinguishable, a long tail means some pages hide well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


def per_class_mean_guesses(
    guesses_needed: np.ndarray, labels: Sequence[str]
) -> Dict[str, float]:
    """Mean guess rank per class (class label -> mean guesses)."""
    guesses = np.asarray(guesses_needed, dtype=np.float64)
    labels = [str(label) for label in labels]
    if guesses.shape[0] != len(labels):
        raise ValueError("guesses_needed and labels must be aligned")
    if guesses.size == 0:
        raise ValueError("no samples provided")
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for guess, label in zip(guesses, labels):
        sums[label] = sums.get(label, 0.0) + float(guess)
        counts[label] = counts.get(label, 0) + 1
    return {label: sums[label] / counts[label] for label in sums}


def guess_cdf(per_class_guesses: Dict[str, float], thresholds: Sequence[float]) -> List[float]:
    """Cumulative fraction of classes whose mean guesses fall below thresholds."""
    if not per_class_guesses:
        raise ValueError("per_class_guesses is empty")
    values = np.array(list(per_class_guesses.values()), dtype=np.float64)
    cdf = []
    for threshold in thresholds:
        if threshold <= 0:
            raise ValueError("thresholds must be positive")
        cdf.append(float(np.mean(values < threshold)))
    return cdf


@dataclass
class PerClassDistinguishability:
    """Summary of the per-class guess distribution for one scenario."""

    scenario: str
    per_class_guesses: Dict[str, float]

    @property
    def n_classes(self) -> int:
        return len(self.per_class_guesses)

    def fraction_below(self, guesses: float) -> float:
        """Fraction of classes distinguishable within ``guesses`` guesses."""
        return guess_cdf(self.per_class_guesses, [guesses])[0]

    def cdf(self, thresholds: Sequence[float]) -> List[float]:
        return guess_cdf(self.per_class_guesses, thresholds)
