"""Handshake flights and their approximate wire sizes.

A passive adversary sees the handshake before any application data, and the
handshake's shape differs between TLS 1.2 (2-RTT, certificate always in the
clear) and TLS 1.3 (1-RTT, certificate encrypted).  The sizes below are
representative of real deployments (certificate chains of a few kilobytes,
small hello messages with moderate jitter from extensions and key shares);
the per-server certificate size varies deterministically with the server so
that different servers have mildly different handshake footprints, as they
do in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.tls.version import TLSVersion


@dataclass(frozen=True)
class HandshakeFlight:
    """One flight of handshake messages travelling in a single direction."""

    from_client: bool
    size: int
    description: str

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("handshake flight size must be positive")


def handshake_flights(
    version: TLSVersion,
    *,
    certificate_chain_size: int = 3200,
    session_resumption: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> List[HandshakeFlight]:
    """Return the ordered handshake flights for ``version``.

    ``certificate_chain_size`` lets each simulated server present a chain of
    its own size.  ``session_resumption`` models abbreviated handshakes
    (session tickets / PSK), which shrink the server's first flight — some
    of the paper's traces include resumed connections to media servers.
    """
    if certificate_chain_size <= 0:
        raise ValueError("certificate_chain_size must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    # Small jitter models varying extension lists (SNI length, ALPN, etc.).
    jitter = int(rng.integers(0, 32))

    if version is TLSVersion.TLS_1_2:
        if session_resumption:
            return [
                HandshakeFlight(True, 250 + jitter, "ClientHello (resumption)"),
                HandshakeFlight(False, 180 + jitter, "ServerHello + ChangeCipherSpec + Finished"),
                HandshakeFlight(True, 75, "ChangeCipherSpec + Finished"),
            ]
        return [
            HandshakeFlight(True, 280 + jitter, "ClientHello"),
            HandshakeFlight(
                False,
                90 + certificate_chain_size + 330 + jitter,
                "ServerHello + Certificate + ServerKeyExchange + ServerHelloDone",
            ),
            HandshakeFlight(True, 130, "ClientKeyExchange + ChangeCipherSpec + Finished"),
            HandshakeFlight(False, 60, "ChangeCipherSpec + Finished + NewSessionTicket"),
        ]

    if session_resumption:
        return [
            HandshakeFlight(True, 320 + jitter, "ClientHello (PSK + key share)"),
            HandshakeFlight(False, 150 + jitter, "ServerHello + EncryptedExtensions + Finished"),
            HandshakeFlight(True, 80, "Finished"),
        ]
    return [
        HandshakeFlight(True, 330 + jitter, "ClientHello (key share)"),
        HandshakeFlight(
            False,
            128 + certificate_chain_size + 360 + jitter,
            "ServerHello + EncryptedExtensions + Certificate + CertificateVerify + Finished",
        ),
        HandshakeFlight(True, 80, "Finished"),
        HandshakeFlight(False, 2 * 250, "NewSessionTicket x2"),
    ]
