"""Passive packet captures — the reproduction's equivalent of a pcap file.

The crawler of Section V runs tcpdump for the duration of a single page
load and stores the result as one pcap file per visit.  Here a
:class:`Sniffer` plays tcpdump's role and a :class:`PacketCapture` plays
the pcap file's role; the downstream preprocessing in
:mod:`repro.traces.sequences` consumes captures exactly the way the paper's
preprocessing consumes pcaps.

A capture is an immutable columnar record: read-only parallel arrays
``timestamps`` (float64), ``src`` and ``dst`` (addresses packed into
int64), ``sizes`` (int64) and ``retransmission`` (bool), in timestamp
order (stable: equal timestamps keep the order the packets were observed
in), plus the client as ``client_ip`` and packed as ``client``.  The
columns are built and sorted once, when the capture is made —
:meth:`Sniffer.stop` makes it from the packets it recorded.  ``packets``,
iteration and :meth:`PacketCapture.sorted_packets` rebuild
:class:`Packet` rows from the columns, in timestamp order; two captures
are equal when their clients and columns are.

Building the columns reads every packet's fields once in Python, which
costs about what one Python extraction walk over the packets did.  What
it buys: every extraction of a kept capture (a stored backlog classified
later, several extractor settings over one crawl) runs on arrays alone,
and a kept capture is five arrays rather than one object per packet —
about a quarter of the memory, and nothing for the garbage collector to
walk.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.net.address import IPAddress
from repro.net.packet import Packet

_COLUMNS = ("timestamps", "src", "dst", "sizes", "retransmission")
_FROM_PACKET = (("timestamp", np.float64), ("src.as_int", np.int64), ("dst.as_int", np.int64),
                ("size", np.int64), ("retransmission", np.bool_))


class PacketCapture:
    """The packets observed during one page load, as sorted columns."""

    __slots__ = ("client_ip", "client", *_COLUMNS)

    def __init__(self, client_ip: IPAddress, packets: Iterable[Packet] = ()) -> None:
        packets = list(packets)
        self._set(client_ip, *(np.fromiter(map(attrgetter(name), packets), dtype, len(packets))
                               for name, dtype in _FROM_PACKET))

    @classmethod
    def _from_columns(cls, client_ip: IPAddress, timestamps, src, dst, sizes,
                      retransmission) -> "PacketCapture":
        """A capture from parallel columns in observation order, checked as
        :class:`Packet` checks one packet (unpickling uses it)."""
        sizes = np.asarray(sizes)
        if sizes.size and sizes.dtype.kind not in "iu":
            raise ValueError(f"packet sizes must be integers, not {sizes.dtype}")
        columns = [np.asarray(column, dtype) for column, (_, dtype) in
                   zip((timestamps, src, dst, sizes, retransmission), _FROM_PACKET)]
        if len({len(column) for column in columns}) > 1:
            raise ValueError("capture columns must have equal lengths")
        if not np.isfinite(columns[0]).all() or (columns[0] < 0).any():
            raise ValueError("packet timestamps must be finite and non-negative")
        if (columns[3] < 0).any():
            raise ValueError("packet sizes must be non-negative")
        capture = cls.__new__(cls)
        capture._set(client_ip, *columns)
        return capture

    def _set(self, client_ip: IPAddress, *columns: np.ndarray) -> None:
        """Sort checked columns by timestamp and store them read-only (the
        packet-list path needs no check: each :class:`Packet` checked itself)."""
        order = np.argsort(columns[0], kind="stable")
        object.__setattr__(self, "client_ip", client_ip)
        object.__setattr__(self, "client", client_ip.as_int)
        for name, column in zip(_COLUMNS, columns):
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a PacketCapture is immutable")

    def __reduce__(self):
        return PacketCapture._from_columns, (self.client_ip, *(getattr(self, c) for c in _COLUMNS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PacketCapture):
            return NotImplemented
        return self.client_ip == other.client_ip and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    @property
    def packets(self) -> List[Packet]:
        """The packets in timestamp order, rebuilt from the columns."""
        packed = set(self.src.tolist()) | set(self.dst.tolist())
        address = {value: IPAddress.from_int(value) for value in packed}
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        return [Packet(t, address[src], address[dst], size, retx) for t, src, dst, size, retx in rows]

    def sorted_packets(self) -> List[Packet]:
        """Packets in timestamp order (stable for equal timestamps)."""
        return self.packets

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    @property
    def duration(self) -> float:
        """Time between the first and last packet, 0 for empty captures."""
        return float(self.timestamps[-1] - self.timestamps[0]) if len(self) else 0.0

    @property
    def total_bytes(self) -> int:
        return int(self.sizes.sum())

    def remote_ips(self) -> List[IPAddress]:
        """The distinct non-client IPs, in order of first appearance."""
        remote = np.where(self.src == self.client, self.dst, self.src)
        _, first = np.unique(remote, return_index=True)
        return [IPAddress.from_int(value) for value in remote[np.sort(first)].tolist()]

    def transmissions(self) -> List[Tuple[float, IPAddress, int]]:
        """(timestamp, sender-ip, bytes) triples in timestamp order.

        This is the exact information the paper's preprocessing consumes to
        build per-IP byte-count sequences (Figure 4).
        """
        return [(packet.timestamp, packet.src, packet.size) for packet in self.packets]


class Sniffer:
    """A passive on-path observer that records packets into a capture.

    The sniffer can optionally be restricted to a set of observable IPs to
    model partial vantage points (e.g. an adversary who only sees traffic
    crossing one link).
    """

    def __init__(self, client_ip: IPAddress, observable_ips: Optional[Iterable[IPAddress]] = None) -> None:
        self.client_ip = client_ip
        self._observable = set(observable_ips) if observable_ips is not None else None
        self._packets: Optional[List[Packet]] = None

    def start(self) -> None:
        """Begin a new capture, discarding any previous unfinished one."""
        self._packets = []

    def observe(self, packet: Packet) -> None:
        """Record a packet if the sniffer is running and can see it."""
        if self._packets is None:
            return
        if self._observable is not None and not (
            packet.src in self._observable or packet.dst in self._observable
        ):
            return
        self._packets.append(packet)

    def stop(self) -> PacketCapture:
        """Stop capturing and return the completed capture."""
        if self._packets is None:
            raise RuntimeError("sniffer was not started")
        packets, self._packets = self._packets, None
        return PacketCapture(self.client_ip, packets)
