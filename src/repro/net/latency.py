"""Latency and bandwidth model for the simulated network path.

Each server is reached over a path with its own base round-trip time and
jitter (Wikipedia's text and media servers vs. Github's CDN-balanced pool
behave differently), plus a serialization delay proportional to the bytes
transmitted.  Timing only affects the *ordering and interleaving* of
packets in a capture — the attack itself uses byte counts, but realistic
interleaving is exactly what makes per-IP sequences non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class LatencyModel:
    """Per-path latency model.

    Parameters
    ----------
    base_rtt:
        Mean round-trip time in seconds.
    jitter:
        Standard deviation of the per-message latency noise (seconds).
    bandwidth:
        Path bandwidth in bytes per second, used for serialization delay.
    """

    base_rtt: float = 0.04
    jitter: float = 0.005
    bandwidth: float = 6.25e6  # ~50 Mbit/s

    def __post_init__(self) -> None:
        if self.base_rtt <= 0:
            raise ValueError("base_rtt must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def one_way_delay(self, size: int, rng: Optional[np.random.Generator] = None) -> float:
        """Delay for a message of ``size`` bytes to cross the path once."""
        if size < 0:
            raise ValueError("size must be non-negative")
        rng = rng if rng is not None else np.random.default_rng(0)
        noise = float(rng.normal(0.0, self.jitter)) if self.jitter > 0 else 0.0
        delay = self.base_rtt / 2.0 + size / self.bandwidth + noise
        return max(1e-6, delay)

    def scaled(self, factor: float) -> "LatencyModel":
        """A copy of the model with the RTT scaled (e.g. far-away regions)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return LatencyModel(self.base_rtt * factor, self.jitter * factor, self.bandwidth)
