"""A TLS session between the client and one content server.

The session glues the handshake, record layer and transmission channel
together: it emits the handshake flights, then turns each HTTP
request/response exchange into record wire sizes and hands them to the
channel, which produces the packets the sniffer observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.net.channel import TransmissionChannel
from repro.tls.ciphersuites import CipherSuite, default_suite
from repro.tls.handshake import handshake_flights
from repro.tls.padding import NoRecordPadding, RecordPaddingPolicy
from repro.tls.record import RecordLayer
from repro.tls.version import TLSVersion


@dataclass
class TLSSession:
    """One client<->server TLS connection used during a page load."""

    channel: TransmissionChannel
    version: TLSVersion = TLSVersion.TLS_1_2
    ciphersuite: Optional[CipherSuite] = None
    padding_policy: Optional[RecordPaddingPolicy] = None
    certificate_chain_size: int = 3200
    session_resumption: bool = False

    def __post_init__(self) -> None:
        if self.ciphersuite is None:
            self.ciphersuite = default_suite(self.version)
        if self.ciphersuite.version is not self.version:
            raise ValueError(
                f"ciphersuite {self.ciphersuite.name} is for {self.ciphersuite.version}, "
                f"session negotiated {self.version}"
            )
        if self.padding_policy is None:
            self.padding_policy = NoRecordPadding()
        self._record_layer = RecordLayer(self.ciphersuite, self.padding_policy)
        self._established = False

    def handshake(self, start_time: float, rng: np.random.Generator) -> float:
        """Perform the handshake; returns the completion time."""
        if self._established:
            raise RuntimeError("handshake already completed")
        now = float(start_time)
        for flight in handshake_flights(
            self.version,
            certificate_chain_size=self.certificate_chain_size,
            session_resumption=self.session_resumption,
            rng=rng,
        ):
            now = self.channel.transmit(
                [flight.size], from_client=flight.from_client, start_time=now, rng=rng
            )
        self._established = True
        return now

    def exchange(
        self,
        request_bytes: int,
        response_bytes: int,
        start_time: float,
        rng: np.random.Generator,
        *,
        response_chunks: int = 1,
    ) -> float:
        """One HTTP request/response over the established session.

        ``response_chunks`` splits the response into that many separate
        application writes, modelling chunked transfer encoding / streamed
        bodies.  Each chunk is fragmented and encrypted independently, which
        changes the record-size pattern but not the total volume — exactly
        the intra-class variability the paper observes between repeated
        loads of the same page.
        """
        if not self._established:
            raise RuntimeError("exchange before handshake")
        if response_chunks <= 0:
            raise ValueError("response_chunks must be positive")
        now = self.channel.transmit(
            self._record_layer.wire_sizes(request_bytes, rng),
            from_client=True,
            start_time=start_time,
            rng=rng,
        )
        chunk_sizes = self._split_chunks(response_bytes, response_chunks, rng)
        for chunk in chunk_sizes:
            now = self.channel.transmit(
                self._record_layer.wire_sizes(chunk, rng),
                from_client=False,
                start_time=now,
                rng=rng,
            )
        return now

    @staticmethod
    def _split_chunks(total: int, chunks: int, rng: np.random.Generator) -> list:
        """Split ``total`` bytes into ``chunks`` positive parts (or fewer)."""
        if total < 0:
            raise ValueError("response_bytes must be non-negative")
        if total == 0:
            return [0]
        chunks = min(chunks, total)
        if chunks == 1:
            return [total]
        # Random proportions keep repeated loads of the same page from
        # producing byte-identical record patterns.
        weights = rng.random(chunks) + 0.1
        proportions = weights / weights.sum()
        sizes = np.maximum(1, np.floor(proportions * total).astype(int))
        # Fix rounding so the chunk sizes sum exactly to the payload.
        sizes[-1] += total - int(sizes.sum())
        if sizes[-1] <= 0:
            sizes = np.array([total])
        return [int(s) for s in sizes]
