"""Synthetic clustered embedding corpus.

Only :func:`clustered_corpus` lives here.  The index-scaling measurement
this module used to hold is gone — ``bench/`` is the repo's one benchmark
— and the name is kept because ``bench/fixtures.py``, ``repro serve`` and
the test suite import the corpus generator from this path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def clustered_corpus(
    n: int, dim: int, *, n_clusters: Optional[int] = None, seed: int = 0
) -> np.ndarray:
    """Synthetic embedding corpus with cluster structure (like real pages)."""
    rng = np.random.default_rng(seed)
    n_clusters = n_clusters if n_clusters is not None else max(8, n // 50)
    centres = rng.standard_normal((n_clusters, dim)) * 10.0
    assignment = rng.integers(0, n_clusters, size=n)
    return centres[assignment] + rng.standard_normal((n, dim))
