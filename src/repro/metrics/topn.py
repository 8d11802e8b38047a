"""Top-n accuracy metrics (the success measure of Section VI).

A top-n adversary wins the fingerprinting game when the true label appears
within its n highest-ranked predictions.  The helpers below compute
accuracy-vs-n curves (the x-axes of Figures 6-8 and 12-13) and the
smallest ``n`` that reaches a target accuracy (the quantity tabulated in
Table II).
"""

from __future__ import annotations

from typing import List

import numpy as np


def accuracy_curve(guesses_needed: np.ndarray, max_n: int) -> List[float]:
    """Accuracy as a function of n, from per-sample guess ranks.

    ``guesses_needed[i]`` is the rank at which sample ``i``'s true label
    appears (1 = top prediction).  The returned list has ``max_n`` entries,
    entry ``n-1`` giving the top-n accuracy.
    """
    guesses = np.asarray(guesses_needed, dtype=np.float64)
    if guesses.size == 0:
        raise ValueError("guesses_needed is empty")
    if np.any(guesses < 1):
        raise ValueError("guess ranks start at 1")
    if max_n <= 0:
        raise ValueError("max_n must be positive")
    return [float(np.mean(guesses <= n)) for n in range(1, max_n + 1)]


def n_for_target_accuracy(guesses_needed: np.ndarray, target: float, max_n: int) -> int:
    """Smallest n whose top-n accuracy reaches ``target`` (Table II's n).

    Returns ``max_n`` if the target is never reached within ``max_n``
    guesses, mirroring an adversary who caps their guess budget.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must be in (0, 1]")
    curve = accuracy_curve(guesses_needed, max_n)
    for index, accuracy in enumerate(curve):
        if accuracy >= target:
            return index + 1
    return max_n
