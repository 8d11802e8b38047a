"""The Trace type: one preprocessed, labelled page-load observation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np


@dataclass
class Trace:
    """A single preprocessed traffic trace.

    ``sequences`` has shape ``(n_sequences, sequence_length)`` where row 0
    is always the monitored client and the remaining rows are content
    servers (or, in the two-sequence encoding, row 0 is outgoing and row 1
    incoming traffic).  Values are byte counts (possibly quantized and/or
    log-scaled by the extractor).
    """

    label: str
    website: str
    sequences: np.ndarray
    tls_version: str = ""
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sequences = np.asarray(self.sequences, dtype=np.float64)
        if self.sequences.ndim != 2:
            raise ValueError(
                f"trace sequences must be 2-D (n_sequences, length), got shape {self.sequences.shape}"
            )
        if not self.label:
            raise ValueError("trace label must be non-empty")
        if np.any(self.sequences < 0):
            raise ValueError("byte-count sequences cannot be negative")

    @property
    def n_sequences(self) -> int:
        return int(self.sequences.shape[0])

    @property
    def length(self) -> int:
        return int(self.sequences.shape[1])

    def as_model_input(self) -> np.ndarray:
        """The trace as a ``(time, features)`` array for the LSTM.

        The embedding network consumes sequences time-major: at each time
        step the feature vector holds the byte count emitted by each tracked
        IP (zero for the IPs that were silent at that step).
        """
        return self.sequences.T.copy()
