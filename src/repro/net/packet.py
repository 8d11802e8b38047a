"""Packets as seen by the passive on-path adversary.

The adversary of Section III-A sees only what an encrypted-traffic sniffer
can see: timestamps, the IP pair and the size of the (encrypted) payload.
Payload contents are never modelled — by construction the reproduction's
attack can only exploit the same side-channel as the paper's.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from numbers import Integral

from repro.net.address import IPAddress


class Direction(enum.Enum):
    """Direction of a packet relative to the monitored client."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"

    def flip(self) -> "Direction":
        return Direction.INCOMING if self is Direction.OUTGOING else Direction.OUTGOING


@dataclass(frozen=True)
class Packet:
    """A single observed packet.

    ``size`` is the TLS ciphertext payload length in bytes (what the paper's
    byte-count sequences accumulate).  ``retransmission`` marks duplicated
    deliveries injected by the channel's loss model — from the adversary's
    point of view they are indistinguishable from fresh data, which is one
    of the artifacts the embedding model must be robust to.
    """

    timestamp: float
    src: IPAddress
    dst: IPAddress
    size: int
    retransmission: bool = False

    def __post_init__(self) -> None:
        # Extraction sums sizes as int64 and orders packets by timestamp: a
        # float or bool size would be truncated, and a NaN timestamp would
        # order the capture by insertion instead of by time.
        size = self.size
        if type(size) is not int and (isinstance(size, bool) or not isinstance(size, Integral)):
            raise ValueError(f"packet size must be an integer, not {size!r}")
        if size < 0:
            raise ValueError("packet size must be non-negative")
        if not (math.isfinite(self.timestamp) and self.timestamp >= 0):
            raise ValueError("packet timestamp must be finite and non-negative")

    def direction(self, client_ip: IPAddress) -> Direction:
        """Direction of the packet relative to ``client_ip``."""
        if self.src == client_ip:
            return Direction.OUTGOING
        if self.dst == client_ip:
            return Direction.INCOMING
        raise ValueError(f"packet {self.src}->{self.dst} does not involve client {client_ip}")
