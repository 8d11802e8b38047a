"""Bandwidth-overhead accounting for defences.

The paper stresses that TLS-wide countermeasures must keep their bandwidth
overhead very low ("a protocol-level countermeasure with a 10 % bandwidth
overhead would result in an approximately equal increase in web-traffic
bandwidth worldwide"), so every defence evaluation reports the overhead
alongside the accuracy drop.
"""

from __future__ import annotations

import numpy as np

from repro.traces.dataset import TraceDataset


def bandwidth_overhead(original: TraceDataset, defended: TraceDataset, *, log_scaled: bool = True) -> float:
    """Relative increase in total bytes caused by a defence.

    Returns ``(defended_bytes - original_bytes) / original_bytes``.
    """
    if original.data.shape != defended.data.shape:
        raise ValueError("datasets must have identical shapes to compare overhead")
    original_raw = np.expm1(original.data) if log_scaled else original.data
    defended_raw = np.expm1(defended.data) if log_scaled else defended.data
    original_total = float(original_raw.sum())
    defended_total = float(defended_raw.sum())
    if original_total <= 0:
        raise ValueError("original dataset carries no traffic")
    return (defended_total - original_total) / original_total

