"""Converting packet captures into per-IP byte-count sequences.

This is the preprocessing of Section IV-A.1 and Figure 4 of the paper:

* every IP address that transmitted during the page load gets its own
  sequence, with the monitored client always first;
* each time an IP transmits, its byte count is appended to its sequence and
  a zero is appended to every other sequence (preserving relative order);
* consecutive packets from the same IP are aggregated into a single entry;
* optionally the counts are quantized and/or log-scaled, and the sequences
  are padded/truncated to a fixed length for the neural network.

The two-sequence encoding used by prior (Tor-focused) work — one sequence
for outgoing and one for incoming traffic — is available via
``max_sequences=2, merge_servers=True`` and is what Experiment 3 uses for
the Github dataset, whose per-load server count varies.

How :meth:`SequenceExtractor.extract_array` does it: the capture is sorted
by timestamp once — stably, so packets with equal timestamps keep their
capture order — and walked once.  The walk ranks senders by first
appearance, comparing their dotted-quad strings: the client is rank 0 and a
remote takes the next rank when it first sends *or* is first addressed by
the client (a server the client only writes to still owns its row).  A
sender's row is ``min(rank, max_sequences - 1)``, so every server past the
budget folds into the last kept row, and with ``max_sequences == 2`` every
server lands in row 1 — which is all ``merge_servers`` asks for.  The
client is never a remote: a self-addressed packet (``src == dst ==
client``) is one client event in row 0.

The rest is array arithmetic on the ``(rank, size)`` columns: a run starts
where the rank changes (runs are per *sender*: two overflow servers sharing
a row still get an entry each), the event index is the running count of run
starts, events past ``sequence_length`` are clamped onto the last column
(``tail_aggregate``) or dropped, and one integer scatter-add sums every
packet into its ``(row, event)`` cell — exact for any ``int`` packet size.
Nothing derived from a capture outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.net.capture import PacketCapture
from repro.traces.quantize import quantize_counts
from repro.traces.trace import Trace


@dataclass
class SequenceExtractor:
    """Turns :class:`PacketCapture` objects into fixed-shape traces.

    Parameters
    ----------
    max_sequences:
        Number of per-IP sequences to keep (client first).  The paper uses
        3 for Wikipedia (client + text + media server) and 2 for the
        two-sequence encoding.
    sequence_length:
        Fixed length the sequences are padded / truncated to.
    aggregate_consecutive:
        Merge consecutive transmissions of the same IP (paper default).
    quantization_step:
        Byte-count quantization step; 0 disables quantization.
    log_scale:
        Apply ``log1p`` to the counts — keeps the large dynamic range of
        response sizes (hundreds of bytes to megabytes) in a range a neural
        network trains on comfortably.
    merge_servers:
        Fold all non-client senders into a single "incoming" sequence
        (two-sequence encoding).  Requires ``max_sequences == 2``.
    tail_aggregate:
        When a trace has more transmission events than ``sequence_length``,
        fold the overflow into the final position of each sequence instead
        of discarding it.  This keeps the per-server byte totals — the
        strongest identifying signal — intact for long page loads while the
        fixed-length prefix preserves the ordering information.
    """

    max_sequences: int = 3
    sequence_length: int = 40
    aggregate_consecutive: bool = True
    quantization_step: int = 0
    log_scale: bool = True
    merge_servers: bool = False
    tail_aggregate: bool = True

    def __post_init__(self) -> None:
        if self.max_sequences < 2:
            raise ValueError("max_sequences must be at least 2 (client + one server)")
        if self.sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        if self.quantization_step < 0:
            raise ValueError("quantization_step must be non-negative")
        if self.merge_servers and self.max_sequences != 2:
            raise ValueError("merge_servers requires max_sequences == 2")

    # ------------------------------------------------------------------ public
    def extract(self, capture: PacketCapture, label: str, website: str = "", tls_version: str = "") -> Trace:
        """Extract a labelled :class:`Trace` from one capture."""
        sequences = self.extract_array(capture)
        return Trace(
            label=label,
            website=website,
            sequences=sequences,
            tls_version=tls_version,
            metadata={"duration": capture.duration, "total_bytes": float(capture.total_bytes)},
        )

    def extract_array(self, capture: PacketCapture) -> np.ndarray:
        """The ``(max_sequences, sequence_length)`` array for one capture."""
        length = self.sequence_length
        ranks = {capture.client_ip.value: 0}
        senders: List[int] = []
        sizes: List[int] = []
        for packet in capture.sorted_packets():
            src = packet.src.value
            rank = ranks.get(src)
            if rank is None:
                rank = ranks[src] = len(ranks)
            elif rank == 0 and packet.dst.value not in ranks:
                ranks[packet.dst.value] = len(ranks)
            senders.append(rank)
            sizes.append(packet.size)
        counts = np.zeros(self.max_sequences * length, dtype=np.int64)
        if senders:
            sender = np.array(senders, dtype=np.intp)
            if self.aggregate_consecutive:
                event = np.zeros(len(sender), dtype=np.intp)
                np.cumsum(sender[1:] != sender[:-1], out=event[1:])
            else:
                event = np.arange(len(sender))
            # event is non-decreasing, so the events that fit are a prefix.
            kept = len(event) if self.tail_aggregate else int(np.searchsorted(event, length))
            cell = np.minimum(sender, self.max_sequences - 1) * length + np.minimum(event, length - 1)
            np.add.at(counts, cell[:kept], np.array(sizes[:kept], dtype=np.int64))
        fixed = counts.reshape(self.max_sequences, length).astype(np.float64)
        if self.quantization_step > 1:
            fixed = quantize_counts(fixed, self.quantization_step)
        if self.log_scale:
            fixed = np.log1p(fixed)
        return fixed
