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

How :meth:`SequenceExtractor.extract_array` does it: a
:class:`~repro.net.capture.PacketCapture` already holds its packets as
columns in stable timestamp order (packets with equal timestamps keep
their capture order), with every address packed into an integer.  Remotes
are ranked by first appearance: the client is rank 0 and a remote takes
the next rank when it first sends *or* is first addressed by the client (a
server the client only writes to still owns its row).  A sender's row is
``min(rank, max_sequences - 1)``, so every server past the budget folds
into the last kept row, and with ``max_sequences == 2`` every server lands
in row 1 — which is all ``merge_servers`` asks for.  The client is never a
remote: a self-addressed packet (``src == dst == client``) is one client
event in row 0.

An event starts where the sender changes (runs are per *sender*: two
overflow servers sharing a row still get an entry each), or at every
packet without ``aggregate_consecutive``; events past ``sequence_length``
are clamped onto the last column (``tail_aggregate``) or dropped, and each
packet's size is added into its ``(row, event)`` cell of an int64 matrix —
exact for any packet size.  One native call does that walk
(:mod:`repro.traces.kernels`); without the compiled kernel a vectorised
NumPy pass over the same columns computes the same integers.  Quantization
and ``log1p`` run in NumPy on either path, so the result is bitwise the
same.  Nothing derived from a capture outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.capture import PacketCapture
from repro.traces import kernels
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
        rows, length = self.max_sequences, self.sequence_length
        counts = np.zeros((rows, length), dtype=np.int64)
        library = kernels.extraction_kernels()
        if library is None:
            self._sum_runs(capture, counts.reshape(-1))
        else:
            # The capture's columns are contiguous int64 arrays it owns.
            table = np.empty(rows - 2, dtype=np.int64)
            library.sum_runs(
                len(capture), capture.src.ctypes.data, capture.dst.ctypes.data,
                capture.sizes.ctypes.data, capture.client, rows, length,
                self.aggregate_consecutive, self.tail_aggregate, table.ctypes.data, counts.ctypes.data,
            )
        fixed = counts.astype(np.float64)
        if self.quantization_step > 1:
            fixed = quantize_counts(fixed, self.quantization_step)
        if self.log_scale:
            fixed = np.log1p(fixed)
        return fixed

    def _sum_runs(self, capture: PacketCapture, counts: np.ndarray) -> None:
        """The NumPy walk: add every packet into its flat ``(row, event)``
        cell of ``counts``."""
        src, n, length = capture.src, len(capture), self.sequence_length
        if n == 0:
            return
        from_client = src == capture.client
        # The remote a packet introduces: its sender, or the client's peer.
        remote = np.where(from_client, capture.dst, src)
        unique, first, inverse = np.unique(remote, return_index=True, return_inverse=True)
        first[unique == capture.client] = n  # the client is never a remote
        rank = np.empty(len(unique), dtype=np.intp)
        rank[np.argsort(first)] = np.arange(1, len(unique) + 1)
        row = np.where(from_client, 0, np.minimum(rank[inverse], self.max_sequences - 1))
        if self.aggregate_consecutive:
            event = np.zeros(n, dtype=np.intp)
            np.cumsum(src[1:] != src[:-1], out=event[1:])
        else:
            event = np.arange(n)
        # event is non-decreasing, so the events that fit are a prefix.
        kept = n if self.tail_aggregate else int(np.searchsorted(event, length))
        cell = row * length + np.minimum(event, length - 1)
        np.add.at(counts, cell[:kept], capture.sizes[:kept])
